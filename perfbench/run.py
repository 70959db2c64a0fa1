#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload fig5_runtime --seed 1 --seconds 10 --trace 0

Run from the repository root; the program is imported from ``src/``.

``--trace 0`` measures untraced and reports the end-to-end metrics:
set-up is timed in this process and in fresh interpreters (the median is
reported), then whole passes of the workload repeat until ``--seconds``
have elapsed.  ``--trace 1`` runs one untraced pass and then one traced
pass of the same work (for the runtime workloads, the 2mm build is
included in both) and reports the per-layer metrics and the tracing
overhead.  Either way the correctness oracles check every build and every
invocation afterwards, outside the timed intervals, and the last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``.

Every time is reported in reference-host time (see ``calibration.py``).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.calibration import REFERENCE_S, Sampler  # noqa: E402  (imports no repro)

WORKLOAD_NAMES = ("suite_build", "fig5_runtime", "powercap_biglittle")
#: Set-up samples per run (this process plus fresh interpreters).
SETUP_SAMPLES = {"suite_build": 5, "fig5_runtime": 3, "powercap_biglittle": 3}
PROBE_TIMEOUT_S = 150
SPAN_DIR = ROOT / "perfbench" / "out"


def set_up(name: str, seed: int, workload=None):
    """Import the program and set the workload up.

    Returns the workload, its set-up and the reference time both took; only
    the first call in a process pays for the import.  ``workload``
    overrides the registered one (the self-tests pass shortened workloads).
    """
    with Sampler() as sampler:
        start = time.perf_counter()
        from perfbench import workloads  # imports repro

        workload = workload or workloads.WORKLOADS[name]()
        setup = workload.set_up(seed)
        seconds = time.perf_counter() - start - sampler.spent
    return workload, setup, seconds * sampler.factor()


def probe_setup(name: str, seed: int) -> dict:
    """Set up once in a fresh interpreter and return its timings."""
    command = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
               "--workload", name, "--seed", str(seed)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def timed_passes(workload, setup, seconds: float) -> list:
    """Whole passes until ``seconds`` have elapsed (at least one)."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(workload.run_pass(setup))
    return passes


# -- reference-time conversion ---------------------------------------------------


def build_time(build) -> float:
    return build.seconds * build.scale


def invocation_times(deployment) -> list:
    """Each invocation's time, scaled by the calibration samples around it."""
    times = []
    samples = deployment.calibration
    for (begin, before), (end, after) in zip(samples, samples[1:]):
        factor = REFERENCE_S / ((before + after) / 2)
        times += [i.seconds * factor for i in deployment.invocations[begin:end]]
    return times


def pass_scale(result, builds=()) -> float:
    """Reference over measured time across every timed item of a pass (and
    of ``builds``), each item scaled by its own calibration samples."""
    builds = list(result.builds) + list(builds)
    invocations = [i for d in result.deployments for i in d.invocations]
    reference = sum(map(build_time, builds)) + sum(
        t for d in result.deployments for t in invocation_times(d)
    )
    return reference / (sum(b.seconds for b in builds) + sum(i.seconds for i in invocations))


# -- correctness -----------------------------------------------------------------


def check(runs) -> tuple:
    """Run both oracles over ``(setup, passes)`` pairs; returns
    ``(attempted, failure messages)``.  Each build, each invocation and each
    repeated pass (which must replay the first exactly) is one attempt."""
    from perfbench.oracles import BuildOracle, SelectionOracle
    from perfbench.workloads import fig5_states

    builds = BuildOracle()
    attempted, failures = 0, []
    for setup, passes in runs:
        checked = [(setup.build, setup.toolflow)] if setup.build is not None else []
        for result in passes:
            checked += [(build, result.toolflows[0]) for build in result.builds]
        for build, toolflow in checked:
            attempted += 1
            failures += builds.check(build, toolflow, fig5_states())[:1]
        for result in passes:
            for deployment in result.deployments:
                attempted += len(deployment.invocations) + len(deployment.errors)
                failures += SelectionOracle(deployment).check()
        first = replay_signature(passes[0])
        for index, result in enumerate(passes[1:], start=1):
            attempted += 1
            if replay_signature(result) != first:
                failures.append(f"pass {index} did not replay pass 0")
    return attempted, failures


def require_invocations(passes, failures) -> None:
    """Stop without a result when nothing ran, e.g. after a failed set-up build."""
    if not all(p.invocations for p in passes):
        raise SystemExit("error: a pass completed no invocation: " + "; ".join(failures[:3]))


def replay_signature(result) -> tuple:
    return (
        [(b.app, b.error) for b in result.builds],
        [
            (d.built.app.name, [i.record for i in d.invocations], d.virtual_s)
            for d in result.deployments
        ],
    )


# -- the two kinds of run ----------------------------------------------------------


def end_to_end(workload, setups, setup_builds, passes, rss_mb) -> dict:
    """Medians over the run's samples, as ``name -> (value, unit)``."""
    if workload.name == "suite_build":
        suites = [sum(build_time(b) for b in p.builds) for p in passes]
        builds = [build_time(b) for p in passes for b in p.builds]
    else:
        suites = builds = setup_builds
    latencies = [t for p in passes for d in p.deployments for t in invocation_times(d)]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "suite_build_s": (statistics.median(suites), "s"),
        "build_s_p50": (statistics.median(builds), "s"),
        "invocations_per_s": (len(latencies) / sum(latencies), "1/s"),
        "invocation_us_p50": (statistics.median(latencies) * 1e6, "us"),
        "cpu_s": (statistics.median(p.cpu_s * pass_scale(p) for p in passes), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "sim_energy_per_inv_j": (passes[0].sim_energy_per_inv_j, "J"),
        "sim_throughput": (passes[0].sim_throughput, "1/s"),
    }


def run_untraced(name: str, seed: int, seconds: float, workload=None):
    workload, setup, own = set_up(name, seed, workload)
    setups = [own]
    setup_builds = [build_time(setup.build)] if setup.build is not None else []
    for _ in range(SETUP_SAMPLES[name] - 1):
        probe = probe_setup(name, seed)
        setups.append(probe["setup_s"])
        if probe["build_s"] is not None:
            setup_builds.append(probe["build_s"])
    passes = timed_passes(workload, setup, seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failures = check([(setup, passes)])
    require_invocations(passes, failures)
    samples = {
        "setups": len(setups),
        "passes": len(passes),
        "builds": sum(len(p.builds) for p in passes) or len(setup_builds),
        "invocations": sum(p.invocations for p in passes),
    }
    return end_to_end(workload, setups, setup_builds, passes, rss_mb), attempted, failures, samples


def run_traced(name: str, seed: int, spans_path: Path, workload=None):
    workload, _, _ = set_up(name, seed, workload)
    from perfbench.layers import SpanLog, instrument, layer_metrics

    # the first set-up paid for first use; time a second one like the traced one
    setup = workload.set_up(seed)
    untraced = workload.run_pass(setup)
    log = SpanLog()
    with instrument(log):
        traced_setup = workload.set_up(seed, log)
        traced = workload.run_pass(traced_setup, log)
    attempted, failures = check([(setup, [untraced]), (traced_setup, [traced])])
    require_invocations([untraced, traced], failures)

    def reference_seconds(setup, result):
        """Reference time of the set-up build (if any) plus the pass, and
        the factor that converts the pass's measured times."""
        builds = [setup.build] if setup.build is not None else []
        factor = pass_scale(result, builds)
        return (result.wall_s + sum(b.seconds for b in builds)) * factor, factor

    traced_s, traced_scale = reference_seconds(traced_setup, traced)
    untraced_s, _ = reference_seconds(setup, untraced)
    metrics = {
        name: (value * traced_scale if unit in ("s", "us") else value, unit)
        for name, (value, unit) in layer_metrics(log).items()
    }
    toolflows = traced.toolflows + ([traced_setup.toolflow] if traced_setup.build else [])
    counters = [tf.engine.counters for tf in toolflows]
    hits = sum(c.truth_hits for c in counters)
    lookups = hits + sum(c.truth_misses for c in counters)
    builds = [b for b in traced.builds + [traced_setup.build] if b is not None and b.result]
    metrics.update({
        "engine.points_evaluated": (float(sum(c.points_evaluated for c in counters)), "count"),
        "engine.compile_misses": (float(sum(c.compile_misses for c in counters)), "count"),
        "engine.truth_hit_ratio": (hits / lookups if lookups else 0.0, "ratio"),
        "lara.woven_loc": (float(sum(b.result.weaving_report.weaved_loc for b in builds)), "lines"),
        "margot.switches": (float(sum(switches(d) for d in traced.deployments)), "count"),
        "trace.overhead_ratio": (traced_s / untraced_s, "ratio"),
        "core.invocation_us_p99": (p99(untraced) * 1e6, "us"),
    })
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    log.dump(spans_path)
    samples = {"spans": len(log.names), "traced_wall_s": traced.wall_s, "untraced_wall_s": untraced.wall_s}
    return metrics, attempted, failures, samples


def p99(result) -> float:
    """99th percentile of a pass's invocation times (reference seconds)."""
    times = [t for d in result.deployments for t in invocation_times(d)]
    return statistics.quantiles(times, n=100, method="inclusive")[98]


def switches(deployment) -> int:
    knobs = [(i.record.compiler, i.record.threads, i.record.binding, i.record.cluster)
             for i in deployment.invocations]
    return sum(1 for before, after in zip(knobs, knobs[1:]) if before != after)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    try:
        if args.probe_setup:
            _, setup, seconds = set_up(args.workload, args.seed)
            build = build_time(setup.build) if setup.build is not None else None
            print(json.dumps({"setup_s": seconds, "build_s": build}))
            return 0
        if args.trace:
            path = SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
            metrics, attempted, failures, samples = run_traced(args.workload, args.seed, path)
        else:
            metrics, attempted, failures, samples = run_untraced(
                args.workload, args.seed, args.seconds
            )
    except ImportError as exc:
        print(f"error: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    for message in failures[:20]:
        print(f"FAILED: {message}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} samples={samples} "
          f"error_rate={len(failures)}/{attempted}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"#   {name:34s} {value:14.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
