"""Command-line interface: the ``socrates`` tool.

Subcommands cover the whole reproduction workflow:

===============  ==========================================================
``list``         list the available benchmarks
``features``     print the Milepost feature vector of a kernel
``predict``      print COBAYN's CF1..CF4 predictions for a kernel
``weave``        weave a benchmark and print the adaptive source + metrics
``build``        run the full toolflow; optionally save the oplist/source
``trace``        run a runtime scenario from a JSON mARGOt configuration
``check``        static analysis: OpenMP race lint + weave verification
``obs``          export/validate/diff traces, flame graphs, what-if; dashboard
``energy``       virtual-RAPL energy observatory: report, timeline, budget SLOs
``bench``        performance observatory: baselines and the regression gate
``table1``       regenerate Table I
``fig3``         regenerate Figure 3 (ASCII boxplots)
``fig4``         regenerate Figure 4 (budget sweep table)
``fig5``         regenerate Figure 5 (ASCII trace)
===============  ==========================================================

All output goes to stdout; every command returns a process exit code,
so ``main`` is directly testable.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

import numpy as np


def _add_app_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("app", help="benchmark name (see `socrates list`)")


def _add_machine_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--machine",
        metavar="NAME",
        help="machine model from the registry (e.g. xeon_2s, biglittle_4p4e; "
        "default: the paper's dual-socket Xeon)",
    )


def _make_obs(args: argparse.Namespace):
    """An enabled Observability when any obs flag asks for one, else None."""
    if (
        getattr(args, "trace_out", None)
        or getattr(args, "audit_out", None)
        or getattr(args, "metrics_out", None)
    ):
        from repro.obs import Observability

        return Observability()
    return None


def _toolflow(args: argparse.Namespace, obs=None):
    from repro.core.toolflow import SocratesToolflow

    threads = None
    if getattr(args, "threads", None):
        try:
            threads = sorted({int(t) for t in args.threads.split(",")})
        except ValueError:
            raise ValueError(
                f"--threads expects comma-separated integers, got {args.threads!r}"
            ) from None
    kwargs = {}
    if getattr(args, "seed", None) is not None:
        kwargs["seed"] = args.seed
    return SocratesToolflow(
        machine=getattr(args, "machine", None),
        dse_repetitions=getattr(args, "repetitions", 3),
        thread_counts=threads,
        obs=obs,
        **kwargs,
    )


def _write_obs_artifacts(obs, args: argparse.Namespace) -> None:
    """Honor --trace-out / --audit-out / --metrics-out from any
    obs-enabled command.

    Notices go to stderr so they never corrupt a --json document on
    stdout."""
    if getattr(args, "trace_out", None):
        from repro.obs.export import write_chrome_trace

        count = write_chrome_trace(obs.tracer.spans, args.trace_out)
        print(
            f"Wrote Chrome trace to {args.trace_out} ({count} spans)",
            file=sys.stderr,
        )
    if getattr(args, "audit_out", None):
        from repro.obs.export import write_audit_jsonl

        count = write_audit_jsonl(obs.audit, args.audit_out)
        print(
            f"Wrote adaptation audit to {args.audit_out} ({count} entries)",
            file=sys.stderr,
        )
    if getattr(args, "metrics_out", None):
        from repro.obs.export import write_prometheus

        count = write_prometheus(obs.metrics, args.metrics_out)
        print(
            f"Wrote metrics to {args.metrics_out} ({count} series)",
            file=sys.stderr,
        )


def _load_app(name: str):
    from repro.polybench.suite import load

    return load(name)


def _standard_space(machine):
    """The toolflow's default autotuning lattice on ``machine``:
    standard optimization levels x all thread counts x both bindings
    (x one pin per cluster type on heterogeneous machines)."""
    from repro.engine.model import DesignSpace
    from repro.gcc.flags import standard_levels

    pins, capacities = machine.cluster_pins()
    return DesignSpace(
        compiler_configs=standard_levels(),
        thread_counts=list(range(1, machine.logical_cpus + 1)),
        clusters=pins,
        cluster_capacities=capacities,
    )


def _pareto_keys(front):
    """Canonical (knobs, metrics) JSON form of a Pareto front:
    bit-exact means/stds, stable ordering."""
    return [
        {
            "knobs": dict(op.knobs),
            "metrics": {
                name: [stats.mean, stats.std]
                for name, stats in sorted(op.metrics.items())
            },
        }
        for op in front
    ]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_list(args: argparse.Namespace) -> int:
    from repro.polybench.suite import all_apps

    print(f"{'name':14s} {'category':24s} {'kernels'}")
    for app in all_apps():
        print(f"{app.name:14s} {app.category:24s} {', '.join(app.kernels)}")
    return 0


def cmd_features(args: argparse.Namespace) -> int:
    from repro.milepost.features import extract_features

    app = _load_app(args.app)
    vector = extract_features(app.parse(), app.kernels[0])
    print(f"Milepost features of {app.name} / {vector.kernel}:")
    for name, value in vector.values.items():
        print(f"  {name:28s} {value:12.4g}")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    from repro.cobayn.autotuner import CobaynAutotuner
    from repro.cobayn.corpus import build_corpus
    from repro.engine.core import EvaluationEngine
    from repro.polybench.suite import all_apps

    engine = EvaluationEngine()
    app = _load_app(args.app)
    training = [candidate for candidate in all_apps() if candidate.name != app.name]
    tuner = CobaynAutotuner()
    tuner.train(build_corpus(training, engine))
    prediction = tuner.predict(engine.features(app))
    top = prediction.top(args.k)
    posteriors = dict(prediction.ranked)
    print(f"COBAYN predictions for {app.name} (trained on the other {len(training)}):")
    for index, config in enumerate(top, start=1):
        print(f"  CF{index}: p={posteriors[config]:.4f}  {config.label}")
    return 0


def cmd_weave(args: argparse.Namespace) -> int:
    from repro.cir import to_source
    from repro.gcc.flags import paper_custom_flags, standard_levels
    from repro.lara.metrics import weave_benchmark

    app = _load_app(args.app)
    configs = standard_levels() + paper_custom_flags()
    report, weaver = weave_benchmark(app, configs)
    if args.source:
        print(to_source(weaver.unit))
    print(
        f"# {report.benchmark}: Att={report.attributes} Act={report.actions} "
        f"O-LOC={report.original_loc} W-LOC={report.weaved_loc} "
        f"D-LOC={report.delta_loc} Bloat={report.bloat:.2f}"
    )
    return 0


def cmd_build(args: argparse.Namespace) -> int:
    import json

    json_mode = getattr(args, "json", False)
    obs = _make_obs(args)
    flow = _toolflow(args, obs=obs)
    app = _load_app(args.app)
    if not json_mode:
        print(f"Building adaptive {app.name}...")
    result = flow.build(app)
    if not json_mode:
        print("Custom flags (COBAYN):")
        for index, config in enumerate(result.custom_flags, start=1):
            print(f"  CF{index}: {config.label}")
        print(
            f"Knowledge base: {len(result.exploration.knowledge)} operating points "
            f"({result.exploration.coverage:.0%} of the space)"
        )
    if args.oplist:
        from repro.margot.oplist import save_knowledge

        save_knowledge(
            result.exploration.knowledge,
            args.oplist,
            machine=flow.machine.name if getattr(args, "machine", None) else None,
        )
        if not json_mode:
            print(f"Wrote oplist to {args.oplist}")
    if args.source_out:
        with open(args.source_out, "w") as handle:
            handle.write(result.adaptive_source)
        if not json_mode:
            print(f"Wrote adaptive source to {args.source_out}")
    if json_mode:
        payload = {
            "app": app.name,
            "custom_flags": [config.label for config in result.custom_flags],
            "knowledge_points": len(result.exploration.knowledge),
            "coverage": result.exploration.coverage,
        }
        if args.stage_report:
            payload["stage_report"] = result.stage_report()
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif args.stage_report:
        print(json.dumps(result.stage_report(), indent=2))
    if obs is not None:
        _write_obs_artifacts(obs, args)
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Build an app and dump the stage-event + engine-cache telemetry."""
    import json

    flow = _toolflow(args)
    app = _load_app(args.app)
    result = flow.build(app)
    payload = {
        "app": app.name,
        **result.stage_report(),
        "engine": flow.engine.stats(),
    }
    if getattr(args, "json", False):
        # machine mode: one line, stable key order, no screen-scraping
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        print(json.dumps(payload, indent=2))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    import json

    from repro.core.scenario import Phase, Scenario
    from repro.core.trace import summarize_phases, trace_to_csv
    from repro.margot.config import apply_configuration, load_config

    try:
        with open(args.config) as handle:
            text = handle.read()
    except OSError as error:
        raise ValueError(
            f"{args.config}: cannot read configuration ({error.strerror or error})"
        ) from None
    try:
        document = json.loads(text)
    except json.JSONDecodeError as error:
        raise ValueError(f"{args.config}: invalid JSON configuration ({error})") from None
    config = load_config(document)
    names = config.state_names()
    interval = args.duration / len(names)
    phases = [Phase(index * interval, name) for index, name in enumerate(names)]
    scenario = Scenario(phases=phases, duration_s=args.duration)
    obs = _make_obs(args)
    flow = _toolflow(args, obs=obs)
    app_def = _load_app(config.kernel)
    print(f"Building adaptive {config.kernel}...")
    result = flow.build(app_def)
    app = result.adaptive
    apply_configuration(config, app)
    print(f"Running {args.duration:.0f}s over states: {', '.join(names)}")
    records = scenario.run(app)
    for summary in summarize_phases(records, scenario):
        print(
            f"  [{summary.start_s:6.1f}-{summary.end_s:6.1f}s] {summary.state:14s} "
            f"{summary.invocations:5d} inv  {summary.mean_power_w:6.1f} W  "
            f"{summary.mean_time_s * 1e3:8.1f} ms  T={summary.dominant_threads} "
            f"{summary.dominant_binding} {summary.dominant_compiler}"
        )
    if args.csv:
        trace_to_csv(records, args.csv)
        print(f"Wrote trace to {args.csv}")
    if obs is not None:
        obs.absorb_engine(flow.engine)
        obs.absorb_monitors(app.manager.monitors)
        _write_obs_artifacts(obs, args)
    return 0


def cmd_profiles(args: argparse.Namespace) -> int:
    """Print the AST-derived workload profile of every benchmark."""
    from repro.polybench.suite import all_apps
    from repro.polybench.workload import profile_kernel

    print(
        f"{'benchmark':12s} {'GFLOP':>7s} {'WS[MB]':>7s} {'AI':>6s} {'par':>5s} "
        f"{'regions':>8s} {'dep':>4s} {'red':>4s} {'depth':>6s}"
    )
    for app in all_apps():
        profile = profile_kernel(app)
        print(
            f"{app.name:12s} {profile.flops / 1e9:7.2f} "
            f"{profile.working_set_bytes / 1e6:7.1f} "
            f"{profile.arithmetic_intensity:6.3f} {profile.parallel_fraction:5.2f} "
            f"{profile.parallel_regions:8.0f} "
            f"{'yes' if profile.loop_carried_dependence else 'no':>4s} "
            f"{'yes' if profile.reduction_innermost else 'no':>4s} "
            f"{profile.max_depth:6d}"
        )
    return 0


def cmd_loocv(args: argparse.Namespace) -> int:
    """COBAYN leave-one-out cross-validation over the suite."""
    from repro.cobayn.evaluation import loocv_report
    from repro.engine.core import EvaluationEngine
    from repro.polybench.suite import all_apps

    if args.apps:
        apps = [_load_app(name) for name in args.apps.split(",")]
    else:
        apps = all_apps()
    report = loocv_report(apps, EvaluationEngine(args.machine), k=args.k)
    print("COBAYN leave-one-out cross-validation")
    print(report.to_table())
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    """Interpret a benchmark source (optionally weaved) at a tiny size."""
    from repro.cir import parse
    from repro.cir.interp import Interpreter
    from repro.polybench.datasets import DATASETS

    obs = _make_obs(args)
    if obs is None:
        from repro.obs import NULL_OBS

        obs = NULL_OBS
    app = _load_app(args.app)
    overrides = {name: max(4, args.size) for name in app.sizes}
    for name in overrides:
        if name.startswith("TSTEPS"):
            overrides[name] = 2

    with obs.tracer.span(f"run:{app.name}", app=app.name, weaved=args.weaved):
        if args.weaved:
            from repro.gcc.flags import paper_custom_flags, standard_levels
            from repro.lara.metrics import weave_benchmark

            configs = standard_levels() + paper_custom_flags()
            with obs.tracer.span("weave"):
                _, weaver = weave_benchmark(app, configs)
            stubs = {
                "margot_init": lambda: None,
                "margot_update": lambda v, t: (v.set(args.version), t.set(1)),
                "margot_start_monitor": lambda: None,
                "margot_stop_monitor": lambda: None,
                "margot_log": lambda: None,
            }
            interp = Interpreter(
                weaver.unit, macro_overrides=overrides, intrinsics=stubs
            )
            print(
                f"Interpreting weaved {app.name} (version {args.version}) at {overrides}..."
            )
        else:
            with obs.tracer.span("parse"):
                unit = app.parse()
            interp = Interpreter(unit, macro_overrides=overrides)
            print(f"Interpreting {app.name} at {overrides}...")

        with obs.tracer.span("interpret", size=args.size):
            code = interp.run_main()
    print(f"main() returned {code}")
    if obs.enabled:
        _write_obs_artifacts(obs, args)
    import numpy as np

    for decl_name in sorted(
        name
        for name in ("D", "G", "y", "corr", "A", "w", "x1", "table", "C")
        if interp.globals.has(name)
    ):
        value = interp.global_value(decl_name)
        if isinstance(value, np.ndarray):
            print(f"  {decl_name}: shape={value.shape} checksum={float(np.sum(value)):.6f}")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    """Static analysis: race lint + flag safety + weave verifier, exit 0/2/3.

    ``socrates check 2mm`` lints one benchmark (pristine + woven);
    ``--all`` covers the whole suite; ``--source FILE`` lints an
    arbitrary C file (race + flag-safety rules only).
    ``--json``/``--sarif`` emit a machine-readable document, to stdout
    or ``--out FILE``.
    """
    import json

    from repro.analysis import CheckReport, check_app, check_source_text

    include_woven = not args.pristine_only
    obs = _make_obs(args)
    if args.source:
        with open(args.source) as handle:
            text = handle.read()
        report = CheckReport()
        report.extend(check_source_text(text, filename=args.source), units=1)
    elif getattr(args, "all", False) or args.app:
        if getattr(args, "all", False):
            from repro.polybench.suite import all_apps

            apps = all_apps()
        else:
            apps = [_load_app(args.app)]
        report = CheckReport()
        for app in apps:
            diagnostics = check_app(app, include_woven=include_woven)
            report.extend(diagnostics, units=2 if include_woven else 1)
            if obs is not None:
                # mirror the toolflow's post-weave gate: per-rule
                # counters and one audit trace per diagnostic, exactly
                # once per app on this CLI path
                from repro.obs import CheckTrace

                for diag in diagnostics:
                    obs.metrics.counter(
                        "socrates_check_diagnostics_total",
                        "Static-analysis diagnostics emitted by socrates check",
                        labels={"rule": diag.rule},
                    ).inc()
                    if obs.audit is not None:
                        obs.audit.record_check(
                            CheckTrace(
                                app=app.name,
                                rule=diag.rule,
                                severity=diag.severity.value,
                                message=diag.message,
                                location=diag.location,
                                phase=diag.phase,
                            )
                        )
    else:
        print(
            "error: name a benchmark, or use --all / --source FILE",
            file=sys.stderr,
        )
        return 2

    if obs is not None:
        _write_obs_artifacts(obs, args)
    document = None
    if args.json:
        document = report.as_dict()
    elif args.sarif:
        document = report.as_sarif()
    if document is not None:
        rendered = json.dumps(document, indent=2, sort_keys=True)
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(rendered + "\n")
        else:
            print(rendered)
    else:
        for diag in report.diagnostics:
            print(diag.format())
        print(report.summary())
    return report.exit_code


def cmd_dse(args: argparse.Namespace) -> int:
    """Run one seeded design-space exploration over the standard lattice
    and report its (throughput, power) Pareto front."""
    import json

    from repro.dse.explorer import DesignSpaceExplorer
    from repro.dse.pareto import pareto_front
    from repro.engine.core import EvaluationEngine

    app = _load_app(args.app)
    obs = _make_obs(args)
    engine = EvaluationEngine(getattr(args, "machine", None), obs=obs)
    explorer = DesignSpaceExplorer(engine, repetitions=args.repetitions)
    profile = engine.profile(app)
    result = explorer.explore(profile, _standard_space(engine.machine), seed=args.seed)
    front = pareto_front(result.knowledge, [("throughput", True), ("power", False)])
    counters = engine.counters
    document = {
        "app": app.name,
        "seed": args.seed,
        "repetitions": args.repetitions,
        "space_size": result.space_size,
        "points_evaluated": counters.points_evaluated,
        "front_size": len(front),
        "front": _pareto_keys(front),
    }
    if obs is not None:
        _write_obs_artifacts(obs, args)
    if args.json:
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        print(
            f"dse {app.name}: {counters.points_evaluated} evaluated, "
            f"front size {len(front)}"
        )
    return 0


def _fig5_scenario(args: argparse.Namespace, obs):
    """Build an adaptive app and run the fig5-style requirement flip.

    The shared workload behind ``obs export`` and the ``energy``
    commands: Thr/W^2 for the first third of ``--duration``, plain
    Throughput for the middle third, Thr/W^2 again for the last.
    Returns ``(toolflow_result, app, records, toolflow)``.
    """
    from repro.core.scenario import Phase, Scenario
    from repro.margot.state import (
        OptimizationState,
        maximize_throughput,
        maximize_throughput_per_watt_squared,
    )

    third = args.duration / 3.0
    scenario = Scenario(
        phases=[
            Phase(0.0, "Thr/W^2"),
            Phase(third, "Throughput"),
            Phase(2 * third, "Thr/W^2"),
        ],
        duration_s=args.duration,
    )
    flow = _toolflow(args, obs=obs)
    app_def = _load_app(args.app)
    print(f"Building adaptive {app_def.name} (traced)...")
    result = flow.build(app_def)
    app = result.adaptive
    app.add_state(
        OptimizationState("Thr/W^2", rank=maximize_throughput_per_watt_squared()),
        activate=True,
    )
    app.add_state(OptimizationState("Throughput", rank=maximize_throughput()))
    print(f"Running fig5-style scenario for {args.duration:.0f}s...")
    records = scenario.run(app)
    obs.absorb_engine(flow.engine)
    obs.absorb_monitors(app.manager.monitors)
    return result, app, records, flow


def cmd_obs_export(args: argparse.Namespace) -> int:
    """Build an app, run a fig5-style scenario, export all obs formats.

    Produces ``trace.json`` (Chrome trace_event), ``events.jsonl``
    (full event stream), ``metrics.prom`` (Prometheus text) and
    ``audit.jsonl`` (adaptation audit) under ``--out-dir``.
    """
    from pathlib import Path

    from repro.obs import Observability
    from repro.obs.export import (
        write_audit_jsonl,
        write_chrome_trace,
        write_jsonl,
        write_prometheus,
    )

    obs = Observability()
    _, _, records, _ = _fig5_scenario(args, obs)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    spans = obs.tracer.spans
    written = {
        "trace.json": write_chrome_trace(spans, out_dir / "trace.json"),
        "events.jsonl": write_jsonl(
            out_dir / "events.jsonl", spans, obs.metrics, obs.audit
        ),
        "metrics.prom": write_prometheus(obs.metrics, out_dir / "metrics.prom"),
        "audit.jsonl": write_audit_jsonl(obs.audit, out_dir / "audit.jsonl"),
    }
    print(
        f"Scenario: {len(records)} invocations, "
        f"{len(obs.audit)} operating-point switches explained"
    )
    for name, count in written.items():
        print(f"Wrote {out_dir / name} ({count} records)")
    return 0


def cmd_obs_validate(args: argparse.Namespace) -> int:
    """Validate exported observability artifacts (exit 2 on failure).

    Arguments may be files or directories; a directory is walked
    recursively, every artifact with a recognized suffix is sniffed
    and validated (per-file verdict lines), files no validator claims
    are counted as skipped, and the first malformed artifact stops
    the walk with exit 2 — so a whole artifact dump is checked in one
    call.
    """
    from pathlib import Path

    from repro.obs.validate import VALIDATABLE_SUFFIXES, validate_file

    def describe(path, summary) -> None:
        details = ", ".join(
            f"{key}={value}" for key, value in sorted(summary.items())
        )
        print(f"{path}: OK ({details})")

    validated = 0
    skipped = 0
    for raw in args.files:
        target = Path(raw)
        if target.is_dir():
            members = [path for path in sorted(target.rglob("*")) if path.is_file()]
            if not members:
                raise ValueError(f"{target}: directory contains no files")
            for path in members:
                if path.suffix.lower() not in VALIDATABLE_SUFFIXES:
                    skipped += 1
                    continue
                try:
                    summary = validate_file(path)
                except ValueError as error:
                    message = str(error)
                    prefix = f"{path}: "
                    if message.startswith(prefix):
                        message = message[len(prefix):]
                    print(f"{path}: FAIL ({message})")
                    return 2
                describe(path, summary)
                validated += 1
        else:
            # plain files keep the historical contract: a ValueError
            # propagates to main() and exits 2 with the error on stderr
            describe(target, validate_file(target))
            validated += 1
    print(f"validated {validated} file(s), skipped {skipped}")
    return 0


def cmd_obs_diff(args: argparse.Namespace) -> int:
    """Span-level diff of two Chrome trace exports."""
    import json

    from repro.obs.diff import diff_chrome_traces, format_diff

    diff = diff_chrome_traces(args.trace_a, args.trace_b)
    if args.json:
        # machine mode, matching `socrates stats --json`: one line,
        # stable key order, no screen-scraping
        print(json.dumps(diff.as_dict(), sort_keys=True, separators=(",", ":")))
        return 0
    print(f"trace diff: a={args.trace_a}  b={args.trace_b}")
    print(
        format_diff(
            diff,
            limit=args.limit,
            hide_unchanged=not args.show_unchanged,
        )
    )
    return 0


def _load_flame_profile(path):
    """Load a :class:`FlameProfile` from any of the three exchange forms.

    ``.folded`` text, a ``socrates-profile/1`` JSON document, or a raw
    Chrome trace export (which is collapsed on the fly).
    """
    import json
    from pathlib import Path

    from repro.obs.profile import PROFILE_SCHEMA, FlameProfile

    source = Path(path)
    if source.suffix == ".folded":
        return FlameProfile.load_folded(source)
    try:
        document = json.loads(source.read_text())
    except OSError as error:
        raise ValueError(f"{path}: cannot read profile ({error})") from None
    except json.JSONDecodeError as error:
        raise ValueError(f"{path}: not valid JSON ({error})") from None
    if isinstance(document, dict) and document.get("schema") == PROFILE_SCHEMA:
        profile = FlameProfile.from_dict(document)
        if not profile.label:
            profile.label = str(path)
        return profile
    return FlameProfile.from_chrome_trace(source)


def _profile_source(args: argparse.Namespace):
    """Spans + optional energy attribution behind flame/what-if.

    Three sources: ``--trace FILE`` reconstructs the tree from an
    exported Chrome trace, ``--scenario NAME`` runs a bench scenario
    once, and a benchmark APP runs the fig5-style adaptive workload
    with the energy ledger joined per stack.  Returns
    ``(roots, energy, total_energy_j, label)``.
    """
    from repro.obs.profile import attribute_energy, build_tree, load_chrome_trace

    if getattr(args, "trace", None):
        return load_chrome_trace(args.trace), None, None, str(args.trace)
    if getattr(args, "scenario", None):
        from repro.bench.scenarios import run_scenario

        result = run_scenario(args.scenario, repeats=1)
        return build_tree(result.spans), None, None, f"bench:{args.scenario}"
    if not getattr(args, "app", None):
        raise ValueError(
            "pass a benchmark APP, --trace FILE, or --scenario NAME"
        )
    from repro.obs.energy import EnergyLedger

    obs, result, app, records, timeline = _energy_scenario(args)
    idle_power = app.executor.idle_breakdown().totals()
    ledger = EnergyLedger.from_timeline(
        timeline, stage_events=result.stage_events, idle_power_w=idle_power
    )
    roots = build_tree(obs.tracer.spans)
    energy = attribute_energy(roots, ledger)
    # the what-if total spans both ledger accounts the attribution maps
    # from: the adaptive run (operating points + idle floor) and the
    # host-side toolflow stages
    total_energy_j = (
        ledger.totals_j()["package"] + ledger.stage_totals_j()["package"]
    )
    return roots, energy, total_energy_j, app.name


def cmd_obs_flame(args: argparse.Namespace) -> int:
    """Virtual-time flame graph: table, folded, JSON, SVG, or diffs."""
    import json
    from pathlib import Path

    from repro.obs.profile import (
        FlameProfile,
        diff_flame,
        format_stack_diff,
        profile_vs_baseline,
        render_svg,
    )

    if args.diff:
        profile_a = _load_flame_profile(args.diff[0])
        profile_b = _load_flame_profile(args.diff[1])
        diff = diff_flame(
            profile_a,
            profile_b,
            label_a=profile_a.label or str(args.diff[0]),
            label_b=profile_b.label or str(args.diff[1]),
        )
        if args.json:
            print(json.dumps(diff.as_dict(), indent=2, sort_keys=True))
        else:
            print(format_stack_diff(diff, limit=args.limit))
        return 0

    roots, energy, _, label = _profile_source(args)
    profile = FlameProfile.from_tree(roots, label=label, energy=energy)

    if args.against_baseline:
        from repro.bench.baseline import load_baseline

        baseline = load_baseline(args.against_baseline)
        if not baseline.stacks:
            raise ValueError(
                f"{args.against_baseline}: baseline carries no committed "
                "stacks; regenerate it with `socrates bench run ... --out`"
            )
        diff = profile_vs_baseline(profile, baseline)
        if args.json:
            print(json.dumps(diff.as_dict(), indent=2, sort_keys=True))
        else:
            print(format_stack_diff(diff, limit=args.limit))
        return 0

    title = f"{label} — virtual-time flame graph"
    if args.out_dir:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        written = {
            "profile.folded": profile.as_folded(),
            "profile.json": json.dumps(
                profile.as_dict(), indent=2, sort_keys=True
            )
            + "\n",
            "flame.svg": render_svg(profile, title=title),
        }
        for name, text in written.items():
            (out_dir / name).write_text(text)
            print(f"Wrote {out_dir / name}")
        return 0

    if args.folded:
        text = profile.as_folded()
    elif args.json:
        text = json.dumps(profile.as_dict(), indent=2, sort_keys=True) + "\n"
    elif args.svg:
        text = render_svg(profile, title=title)
    else:
        text = profile.format_table(limit=args.limit) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"Wrote {args.out}")
    else:
        print(text, end="")
    return 0


def cmd_obs_whatif(args: argparse.Namespace) -> int:
    """Causal what-if: ranked payoff of speeding up each target."""
    import json

    from repro.obs.profile import DEFAULT_SPEEDUPS, whatif

    speedups = tuple(DEFAULT_SPEEDUPS)
    if args.speedups:
        try:
            speedups = tuple(
                float(token) / 100.0
                for token in args.speedups.split(",")
                if token.strip()
            )
        except ValueError:
            raise ValueError(
                f"--speedups expects comma-separated percentages, "
                f"got {args.speedups!r}"
            ) from None
    if not speedups:
        raise ValueError("--speedups names no speedups")
    # rank by the 50% column when present, else the deepest hypothetical
    rank_speedup = (
        0.50
        if any(abs(speedup - 0.50) < 1e-12 for speedup in speedups)
        else max(speedups)
    )
    roots, energy, total_energy_j, label = _profile_source(args)
    report = whatif(
        roots,
        speedups=speedups,
        energy=energy,
        total_energy_j=total_energy_j,
        rank_speedup=rank_speedup,
    )
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(f"what-if analysis: {label}")
        print(report.format(limit=args.limit))
    return 0


def cmd_obs_top(args: argparse.Namespace) -> int:
    """Live ASCII dashboard over the metrics registry.

    With ``--from FILE.prom`` the dashboard renders a Prometheus text
    export (re-parsed every refresh, so a workload writing the file
    periodically is watchable); without it, a bench scenario runs in a
    background thread and the dashboard tracks it live.  ``--once``
    prints a single frame and exits (CI logs, tests).
    """
    from repro.obs.dashboard import live_dashboard, render_dashboard

    if args.from_file:
        from pathlib import Path

        from repro.obs.export import parse_prometheus_text

        source = Path(args.from_file)

        def frame(number: int) -> str:
            try:
                text = source.read_text()
            except OSError as error:
                raise ValueError(
                    f"{source}: cannot read metrics file ({error})"
                ) from None
            try:
                registry = parse_prometheus_text(text)
            except ValueError as error:
                raise ValueError(f"{source}: {error}") from None
            return render_dashboard(
                registry,
                width=args.width,
                frame=None if args.once else number,
            )

        if args.once:
            print(frame(0))
            return 0
        try:
            live_dashboard(frame, done=lambda: False, refresh_s=args.refresh)
        except KeyboardInterrupt:
            print()
        return 0

    import threading

    from repro.bench.scenarios import get_scenario
    from repro.obs import Observability

    scenario = get_scenario(args.scenario)
    obs = Observability()
    if args.once:
        scenario.runner(obs)
        print(render_dashboard(obs.metrics, obs.tracer, obs.audit, width=args.width))
        return 0
    done = threading.Event()

    def work() -> None:
        try:
            scenario.runner(obs)
        finally:
            done.set()

    def frame(number: int) -> str:
        return render_dashboard(
            obs.metrics,
            obs.tracer,
            obs.audit,
            width=args.width,
            frame=number,
        )

    worker = threading.Thread(target=work, daemon=True)
    worker.start()
    try:
        live_dashboard(frame, done.is_set, refresh_s=args.refresh)
    except KeyboardInterrupt:
        print()
    worker.join(timeout=5.0)
    return 0


# ---------------------------------------------------------------------------
# energy: the virtual-RAPL energy observatory
# ---------------------------------------------------------------------------


def _energy_scenario(args: argparse.Namespace):
    """Run the fig5-style workload and reconstruct its energy timeline.

    Returns ``(obs, toolflow_result, app, records, timeline)``.
    """
    from repro.obs import Observability
    from repro.obs.energy import build_timeline

    obs = Observability()
    result, app, records, _ = _fig5_scenario(args, obs)
    timeline = build_timeline(app, records)
    timeline.record_metrics(obs.metrics)
    return obs, result, app, records, timeline


def _print_domain_table(title: str, totals, means, duration_s: float) -> None:
    print(title)
    print(f"  {'domain':9s} {'energy':>12s} {'mean power':>12s}")
    # totals is ordered machine-wide domains first, then any per-cluster
    # planes a heterogeneous machine adds
    for domain in totals:
        print(
            f"  {domain:9s} {totals[domain]:10.2f} J {means[domain]:10.2f} W"
        )
    print(f"  over {duration_s:.2f}s of virtual time")


def cmd_energy_report(args: argparse.Namespace) -> int:
    """Per-domain energy report with the attribution ledger."""
    import json

    from repro.obs.energy import EnergyLedger

    obs, result, app, records, timeline = _energy_scenario(args)
    idle_power = app.executor.idle_breakdown().totals()
    ledger = EnergyLedger.from_timeline(
        timeline, stage_events=result.stage_events, idle_power_w=idle_power
    )
    ledger.verify(records=records)

    if args.json:
        print(json.dumps(ledger.as_dict(), indent=2, sort_keys=True))
    else:
        print()
        _print_domain_table(
            f"energy report: {app.name} ({len(records)} invocations)",
            timeline.totals_j(),
            timeline.mean_power_w(),
            timeline.duration_s,
        )
        print()
        print("attribution ledger (operating points, most joules first):")
        package_total = ledger.totals_j()["package"]
        for entry in ledger.entries:
            joules = entry.energy_j["package"]
            share = joules / package_total if package_total > 0 else 0.0
            pin = f" @{entry.cluster}" if entry.cluster else ""
            print(
                f"  {entry.compiler:>6s} x{entry.threads:<3d} {entry.binding:7s}"
                f"{pin} {joules:10.2f} J  ({share:6.1%}, "
                f"{entry.invocations} invocations, {entry.time_s:.2f}s)"
            )
        idle_j = ledger.idle.energy_j["package"]
        if idle_j > 0:
            print(f"  {'idle floor':18s} {idle_j:10.2f} J")
        stage_j = ledger.stage_totals_j()["package"]
        if ledger.stages:
            print(
                f"  toolflow stages: {stage_j:.2f} J host-side over "
                f"{sum(s.time_s for s in ledger.stages):.2f}s "
                f"({len(ledger.stages)} stages)"
            )
        print("  conservation: domain sums match package totals (verified)")
    if args.ledger_out:
        path = ledger.write(args.ledger_out)
        print(f"Wrote energy ledger to {path}")
    return 0


def cmd_energy_timeline(args: argparse.Namespace) -> int:
    """Export the reconstructed power(t) timeline."""
    obs, _, app, records, timeline = _energy_scenario(args)
    print(
        f"timeline: {len(timeline)} segments over {timeline.duration_s:.2f}s, "
        f"peak {timeline.peak_power_w():.1f} W package"
    )
    wrote_any = False
    if args.trace_out:
        from repro.obs.export import write_chrome_trace

        counters = timeline.counter_events()
        write_chrome_trace(obs.tracer.spans, args.trace_out, counters=counters)
        print(
            f"Wrote Chrome trace to {args.trace_out} "
            f"({len(obs.tracer.spans)} spans + {len(counters)} power counters; "
            "open in Perfetto to see the power tracks)"
        )
        wrote_any = True
    if args.csv:
        rows = timeline.to_csv(args.csv)
        print(f"Wrote timeline CSV to {args.csv} ({rows} segments)")
        wrote_any = True
    if not wrote_any:
        _print_domain_table(
            f"energy timeline: {app.name}",
            timeline.totals_j(),
            timeline.mean_power_w(),
            timeline.duration_s,
        )
    return 0


def cmd_energy_slo(args: argparse.Namespace) -> int:
    """Check declared power/energy budgets; exit 3 on violation."""
    from repro.obs.energy import EnergyBudget, check_budgets

    domain = getattr(args, "budget_domain", None) or "package"
    suffix = "" if domain == "package" else f"-{domain}"
    budgets = []
    if args.power_budget is not None:
        budgets.append(
            EnergyBudget(
                f"power-{args.power_budget:g}W{suffix}",
                power_w=args.power_budget,
                domain=domain,
            )
        )
    if args.peak_power_budget is not None:
        budgets.append(
            EnergyBudget(
                f"peak-{args.peak_power_budget:g}W{suffix}",
                peak_power_w=args.peak_power_budget,
                domain=domain,
            )
        )
    if args.energy_budget is not None:
        budgets.append(
            EnergyBudget(
                f"energy-{args.energy_budget:g}J{suffix}",
                energy_j=args.energy_budget,
                domain=domain,
            )
        )
    if not budgets:
        raise ValueError(
            "declare at least one budget "
            "(--power-budget / --peak-power-budget / --energy-budget)"
        )
    obs, _, app, records, timeline = _energy_scenario(args)
    verdicts = check_budgets(timeline, budgets, metrics=obs.metrics, audit=obs.audit)
    print()
    for verdict in verdicts:
        print(verdict.message())
    if args.audit_out:
        from repro.obs.export import write_audit_jsonl

        count = write_audit_jsonl(obs.audit, args.audit_out)
        print(f"Wrote adaptation audit to {args.audit_out} ({count} entries)")
    violated = [verdict for verdict in verdicts if not verdict.ok]
    print()
    if violated:
        print(
            f"energy slo: FAIL "
            f"({len(violated)}/{len(verdicts)} budget(s) violated)"
        )
        return 3
    print(f"energy slo: OK ({len(verdicts)} budget(s) met)")
    return 0


# ---------------------------------------------------------------------------
# bench: the performance observatory
# ---------------------------------------------------------------------------


def _bench_scenario_names(args: argparse.Namespace) -> List[str]:
    """--scenario selections, or every quick scenario (--all: everything)."""
    from repro.bench import all_scenarios, get_scenario, quick_scenarios

    if args.scenario:
        # validate up front so typos fail before any scenario runs
        return [get_scenario(name).name for name in args.scenario]
    if getattr(args, "all", False):
        return [scenario.name for scenario in all_scenarios()]
    return [scenario.name for scenario in quick_scenarios()]


def cmd_bench_list(args: argparse.Namespace) -> int:
    from repro.bench import all_scenarios

    print(f"{'scenario':18s} {'tier':6s} description")
    for scenario in all_scenarios():
        tier = "quick" if scenario.quick else "full"
        print(f"{scenario.name:18s} {tier:6s} {scenario.description}")
    return 0


def cmd_bench_run(args: argparse.Namespace) -> int:
    """Run scenarios and write ``BENCH_<scenario>.json`` baselines."""
    from pathlib import Path

    from repro.bench import (
        BenchBaseline,
        baseline_filename,
        load_baseline,
        run_scenario,
        save_baseline,
    )

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in _bench_scenario_names(args):
        result = run_scenario(name, repeats=args.repeats)
        # ratio caps are hand-committed policy, never measured: when
        # regenerating over an existing baseline, carry its caps through
        ratio_limits = None
        target = out_dir / baseline_filename(name)
        if target.exists():
            try:
                ratio_limits = load_baseline(target).ratio_limits
            except ValueError:
                ratio_limits = None
        baseline = BenchBaseline.from_result(result, ratio_limits=ratio_limits)
        path = save_baseline(baseline, target)
        print(
            f"{name}: wall median {baseline.wall_s.median:.4f}s "
            f"(MAD {baseline.wall_s.mad:.4f}s, {result.repeats} repeats, "
            f"{len(baseline.stages)} span names) -> {path}"
        )
        if args.trace_out_dir:
            from repro.obs.export import write_chrome_trace

            trace_dir = Path(args.trace_out_dir)
            trace_dir.mkdir(parents=True, exist_ok=True)
            trace_path = trace_dir / f"TRACE_{name}.json"
            count = write_chrome_trace(result.spans, trace_path)
            print(f"{name}: wrote {trace_path} ({count} spans)")
    return 0


def _bench_compare_reports(args: argparse.Namespace):
    """(GateReport, ScenarioResult, BenchBaseline) per selected scenario."""
    from pathlib import Path

    from repro.bench import (
        baseline_filename,
        compare_result,
        load_baseline,
        run_scenario,
    )

    baseline_dir = Path(args.baseline_dir)
    pairs = []
    for name in _bench_scenario_names(args):
        baseline = load_baseline(baseline_dir / baseline_filename(name))
        result = run_scenario(name, repeats=args.repeats)
        report = compare_result(
            baseline,
            result,
            threshold=args.threshold,
            mad_k=args.mad_k,
            min_delta_s=args.min_delta_s,
            energy_tolerance=args.energy_tolerance,
        )
        pairs.append((report, result, baseline))
    return pairs


def cmd_bench_compare(args: argparse.Namespace) -> int:
    """Informational comparison against the baselines (always exit 0)."""
    import json

    pairs = _bench_compare_reports(args)
    if args.json:
        # machine mode: one line, stable key order, no screen-scraping —
        # the same contract as `stats --json` and `obs diff --json`
        print(
            json.dumps(
                [report.as_dict() for report, _, _ in pairs],
                sort_keys=True,
                separators=(",", ":"),
            )
        )
        return 0
    for index, (report, _, _) in enumerate(pairs):
        if index:
            print()
        print(report.format(diff_limit=args.limit))
    return 0


def cmd_bench_gate(args: argparse.Namespace) -> int:
    """The regression gate: exit 3 when any scenario regresses."""
    import json

    pairs = _bench_compare_reports(args)
    if args.out_dir:
        from pathlib import Path

        from repro.bench import BenchBaseline, baseline_filename, save_baseline
        from repro.obs.diff import format_diff

        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for report, result, baseline in pairs:
            save_baseline(
                BenchBaseline.from_result(
                    result, ratio_limits=baseline.ratio_limits
                ),
                out_dir / baseline_filename(result.scenario),
            )
            with open(out_dir / f"GATE_{result.scenario}.json", "w") as handle:
                json.dump(report.as_dict(), handle, indent=2, sort_keys=True)
                handle.write("\n")
            if report.diff is not None:
                with open(out_dir / f"DIFF_{result.scenario}.txt", "w") as handle:
                    handle.write(
                        format_diff(
                            report.diff,
                            limit=0,
                            label_a="base",
                            label_b="new",
                        )
                        + "\n"
                    )
    failed = []
    for index, (report, _, _) in enumerate(pairs):
        if index:
            print()
        print(report.format(diff_limit=args.limit))
        if not report.ok:
            failed.append(report.scenario)
    print()
    if failed:
        print(f"bench gate: FAIL ({', '.join(failed)} regressed)")
        return 3
    print(f"bench gate: OK ({len(pairs)} scenario(s) within thresholds)")
    return 0


def cmd_margot_header(args: argparse.Namespace) -> int:
    from repro.margot.config import load_config

    config = load_config(args.config)
    flow = _toolflow(args)
    result = flow.build(_load_app(config.kernel))
    header = result.margot_header(config.states)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(header)
        print(f"Wrote {args.out} ({len(header.splitlines())} lines)")
    else:
        print(header)
    return 0


def cmd_experiments(args: argparse.Namespace) -> int:
    """Run the paper's full evaluation (Table I + Figures 3-5) in order."""
    import copy

    banner = lambda title: print("\n" + "=" * 72 + f"\n{title}\n" + "=" * 72)
    banner("Table I -- LARA weaving metrics")
    cmd_table1(args)
    banner("Figure 3 -- Pareto power/throughput distributions")
    fig3_args = copy.copy(args)
    fig3_args.apps = None
    cmd_fig3(fig3_args)
    banner("Figure 4 -- power-budget sweep (2mm)")
    fig4_args = copy.copy(args)
    fig4_args.app = "2mm"
    fig4_args.steps = 20
    cmd_fig4(fig4_args)
    banner("Figure 5 -- 300 s runtime trace (2mm)")
    fig5_args = copy.copy(args)
    fig5_args.app = "2mm"
    fig5_args.duration = 300.0
    cmd_fig5(fig5_args)
    return 0


def cmd_table1(args: argparse.Namespace) -> int:
    from repro.gcc.flags import paper_custom_flags, standard_levels
    from repro.lara.metrics import strategy_loc, weave_benchmark
    from repro.polybench.suite import BENCHMARK_NAMES, load

    configs = standard_levels() + paper_custom_flags()
    print(f"Table I (strategy: {strategy_loc()} logical lines)")
    print(f"{'Benchmark':12s} {'Att':>6s} {'Act':>5s} {'O-LOC':>6s} {'W-LOC':>6s} {'D-LOC':>6s} {'Bloat':>6s}")
    for name in BENCHMARK_NAMES:
        report, _ = weave_benchmark(load(name), configs)
        print(
            f"{name:12s} {report.attributes:6d} {report.actions:5d} "
            f"{report.original_loc:6d} {report.weaved_loc:6d} "
            f"{report.delta_loc:6d} {report.bloat:6.2f}"
        )
    return 0


def cmd_fig3(args: argparse.Namespace) -> int:
    from repro.dse.pareto import pareto_filter
    from repro.polybench.suite import BENCHMARK_NAMES
    from repro.viz.ascii import boxplot

    flow = _toolflow(args)
    names = args.apps.split(",") if args.apps else BENCHMARK_NAMES
    power_rows = []
    throughput_rows = []
    for name in names:
        result = flow.build(_load_app(name))
        front = pareto_filter(
            result.exploration.knowledge.points(),
            [("throughput", True), ("power", False)],
        )
        powers = np.array([p.metric("power").mean for p in front])
        throughputs = np.array([p.metric("throughput").mean for p in front])
        power_rows.append((name, powers / powers.mean()))
        throughput_rows.append((name, throughputs / throughputs.mean()))
    print("Figure 3 -- normalized POWER over the Pareto curve")
    print(boxplot(power_rows, bounds=(0.0, 2.5)))
    print("\nFigure 3 -- normalized THROUGHPUT over the Pareto curve")
    print(boxplot(throughput_rows, bounds=(0.0, 2.5)))
    return 0


def cmd_fig4(args: argparse.Namespace) -> int:
    from repro.margot.asrtm import ApplicationRuntimeManager
    from repro.margot.goal import ComparisonFunction, Goal
    from repro.margot.state import Constraint, OptimizationState, minimize_time

    flow = _toolflow(args)
    result = flow.build(_load_app(args.app))
    asrtm = ApplicationRuntimeManager(result.exploration.knowledge)
    goal = Goal("power", ComparisonFunction.LESS_OR_EQUAL, 45.0)
    state = OptimizationState("budget", rank=minimize_time())
    state.add_constraint(Constraint(goal))
    asrtm.add_state(state)
    print(f"Figure 4 -- minimize exec time of {args.app} under a power budget")
    print(f"{'Budget[W]':>9s} {'Exec[ms]':>9s} {'Thr':>4s} {'Bind':>6s}  Compiler")
    for budget in np.linspace(45.0, 140.0, args.steps):
        goal.value = float(budget)
        point = asrtm.update()
        print(
            f"{budget:9.1f} {point.metric('time').mean * 1e3:9.1f} "
            f"{point.knob('threads'):4d} {str(point.knob('binding')):>6s}  "
            f"{point.knob('compiler')}"
        )
    return 0


def cmd_fig5(args: argparse.Namespace) -> int:
    from repro.core.scenario import Phase, Scenario
    from repro.margot.state import (
        OptimizationState,
        maximize_throughput,
        maximize_throughput_per_watt_squared,
    )
    from repro.viz.ascii import timeseries

    third = args.duration / 3.0
    scenario = Scenario(
        phases=[
            Phase(0.0, "Thr/W^2"),
            Phase(third, "Throughput"),
            Phase(2 * third, "Thr/W^2"),
        ],
        duration_s=args.duration,
    )
    flow = _toolflow(args)
    result = flow.build(_load_app(args.app))
    app = result.adaptive
    app.add_state(
        OptimizationState("Thr/W^2", rank=maximize_throughput_per_watt_squared()),
        activate=True,
    )
    app.add_state(OptimizationState("Throughput", rank=maximize_throughput()))
    records = scenario.run(app)
    times = [r.timestamp for r in records]
    print(timeseries(times, [r.power_w for r in records], title="Power [W]"))
    print()
    print(timeseries(times, [r.time_s * 1e3 for r in records], title="Exec time [ms]"))
    print()
    print(timeseries(times, [float(r.threads) for r in records], title="OMP threads"))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="socrates",
        description="SOCRATES reproduction: compiler + runtime autotuning toolchain",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list benchmarks").set_defaults(func=cmd_list)

    p = subparsers.add_parser("features", help="Milepost features of a kernel")
    _add_app_argument(p)
    p.set_defaults(func=cmd_features)

    p = subparsers.add_parser("predict", help="COBAYN flag predictions")
    _add_app_argument(p)
    p.add_argument("-k", type=int, default=4, help="number of combinations")
    p.set_defaults(func=cmd_predict)

    p = subparsers.add_parser("weave", help="weave and report Table I metrics")
    _add_app_argument(p)
    p.add_argument("--source", action="store_true", help="print the weaved source")
    p.set_defaults(func=cmd_weave)

    p = subparsers.add_parser("build", help="run the full toolflow")
    _add_app_argument(p)
    _add_machine_argument(p)
    p.add_argument("--threads", help="comma-separated thread counts for the DSE")
    p.add_argument("--repetitions", type=int, default=3)
    p.add_argument("--oplist", help="write the knowledge base to this JSON file")
    p.add_argument("--source-out", help="write the adaptive source to this file")
    p.add_argument(
        "--stage-report",
        action="store_true",
        help="print per-stage telemetry (wall time, cache hits) as JSON",
    )
    p.add_argument(
        "--trace-out",
        help="write the build's span tree as Chrome trace_event JSON",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="emit one machine-readable JSON document instead of prose",
    )
    p.set_defaults(func=cmd_build)

    p = subparsers.add_parser(
        "stats", help="build an app and print stage/cache telemetry as JSON"
    )
    _add_app_argument(p)
    _add_machine_argument(p)
    p.add_argument("--threads", help="comma-separated thread counts for the DSE")
    p.add_argument("--repetitions", type=int, default=3)
    p.add_argument(
        "--json",
        action="store_true",
        help="single-line JSON with stable key order (for scripts)",
    )
    p.set_defaults(func=cmd_stats)

    p = subparsers.add_parser("trace", help="run a scenario from a margot config")
    p.add_argument("config", help="JSON configuration (see repro.margot.config)")
    _add_machine_argument(p)
    p.add_argument("--duration", type=float, default=60.0)
    p.add_argument("--threads", help="comma-separated thread counts for the DSE")
    p.add_argument("--repetitions", type=int, default=3)
    p.add_argument("--csv", help="write the trace to this CSV file")
    p.add_argument(
        "--trace-out",
        help="write the build+scenario span tree as Chrome trace_event JSON",
    )
    p.add_argument(
        "--audit-out",
        help="write the adaptation audit log as JSONL",
    )
    p.set_defaults(func=cmd_trace)

    p = subparsers.add_parser("profiles", help="workload profiles of all benchmarks")
    p.set_defaults(func=cmd_profiles)

    p = subparsers.add_parser("loocv", help="COBAYN leave-one-out evaluation")
    _add_machine_argument(p)
    p.add_argument("--apps", help="comma-separated subset (default: all twelve)")
    p.add_argument("-k", type=int, default=4)
    p.set_defaults(func=cmd_loocv)

    p = subparsers.add_parser(
        "run", help="interpret a benchmark source at a tiny dataset"
    )
    _add_app_argument(p)
    p.add_argument("--size", type=int, default=8, help="dimension override")
    p.add_argument("--weaved", action="store_true", help="run the weaved source")
    p.add_argument("--version", type=int, default=0, help="clone to dispatch (with --weaved)")
    p.add_argument(
        "--trace-out",
        help="write parse/weave/interpret spans as Chrome trace_event JSON",
    )
    p.set_defaults(func=cmd_run)

    p = subparsers.add_parser(
        "check",
        help="static analysis: OpenMP race lint + weave verification (exit 0/2/3)",
    )
    p.add_argument(
        "app", nargs="?", help="benchmark name (see `socrates list`)"
    )
    p.add_argument(
        "--all", action="store_true", help="check every benchmark in the suite"
    )
    p.add_argument(
        "--source", metavar="FILE", help="lint an arbitrary C file (race rules only)"
    )
    p.add_argument(
        "--pristine-only",
        action="store_true",
        help="skip the weave + weave-verifier pass",
    )
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument(
        "--json", action="store_true", help="emit one JSON report document"
    )
    fmt.add_argument(
        "--sarif", action="store_true", help="emit a SARIF 2.1.0 document"
    )
    p.add_argument("--out", help="write the JSON/SARIF document to this file")
    p.add_argument(
        "--trace-out",
        help="write analysis spans as Chrome trace_event JSON",
    )
    p.add_argument(
        "--audit-out",
        help="write per-diagnostic check records as JSONL",
    )
    p.add_argument(
        "--metrics-out",
        help="write socrates_check_diagnostics_total counters as Prometheus text",
    )
    p.set_defaults(func=cmd_check)

    p = subparsers.add_parser(
        "dse",
        help="one seeded design-space exploration and its Pareto front",
    )
    _add_app_argument(p)
    _add_machine_argument(p)
    p.add_argument("--seed", type=lambda s: int(s, 0), default=0xD5E)
    p.add_argument("--repetitions", type=int, default=3)
    p.add_argument("--json", action="store_true", help="emit a JSON document")
    p.add_argument(
        "--trace-out",
        help="write engine/DSE spans as Chrome trace_event JSON",
    )
    p.add_argument(
        "--metrics-out",
        help="write engine counters as Prometheus text",
    )
    p.set_defaults(func=cmd_dse)

    p = subparsers.add_parser(
        "obs",
        help="observability: export/validate artifacts, trace diffs, "
        "flame graphs, what-if analysis, dashboard",
    )
    obs_sub = p.add_subparsers(dest="obs_command", required=True)
    p = obs_sub.add_parser(
        "export", help="build + fig5-style scenario, export every obs format"
    )
    _add_app_argument(p)
    _add_machine_argument(p)
    p.add_argument("--out-dir", default="obs-out", help="output directory")
    p.add_argument("--duration", type=float, default=60.0)
    p.add_argument("--threads", help="comma-separated thread counts for the DSE")
    p.add_argument("--repetitions", type=int, default=3)
    p.set_defaults(func=cmd_obs_export)
    p = obs_sub.add_parser(
        "validate",
        help="validate exported artifacts or whole directories "
        "(.json traces/ledgers/records, .jsonl events, .prom metrics, .folded stacks)",
    )
    p.add_argument(
        "files",
        nargs="+",
        help="artifact files, or directories to walk recursively",
    )
    p.set_defaults(func=cmd_obs_validate)
    p = obs_sub.add_parser(
        "diff", help="span-level diff of two Chrome trace exports"
    )
    p.add_argument("trace_a", help="baseline trace (Chrome trace_event JSON)")
    p.add_argument("trace_b", help="fresh trace to compare against it")
    p.add_argument(
        "--limit", type=int, default=20, help="rows to print (0 = all)"
    )
    p.add_argument(
        "--show-unchanged",
        action="store_true",
        help="also list span names with identical totals",
    )
    p.add_argument("--json", action="store_true", help="emit the diff as JSON")
    p.set_defaults(func=cmd_obs_diff)

    def _add_profile_source_arguments(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "app",
            nargs="?",
            help="benchmark name to build + run adaptively (see `socrates list`)",
        )
        _add_machine_argument(p)
        p.add_argument(
            "--duration",
            type=float,
            default=10.0,
            help="virtual seconds of the fig5-style scenario (APP source)",
        )
        p.add_argument(
            "--threads", help="comma-separated thread counts for the DSE"
        )
        p.add_argument("--repetitions", type=int, default=3)
        p.add_argument(
            "--trace",
            metavar="FILE",
            help="reconstruct from an exported Chrome trace instead of running",
        )
        p.add_argument(
            "--scenario",
            metavar="NAME",
            help="profile one run of a bench scenario (see `socrates bench list`)",
        )

    p = obs_sub.add_parser(
        "flame",
        help="virtual-time flame graph from the span trace "
        "(table/folded/JSON/SVG, stack diffs)",
    )
    _add_profile_source_arguments(p)
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument(
        "--folded", action="store_true", help="emit folded-stack text"
    )
    fmt.add_argument(
        "--json",
        action="store_true",
        help="emit the socrates-profile/1 JSON document",
    )
    fmt.add_argument(
        "--svg",
        action="store_true",
        help="emit a self-contained SVG flame graph",
    )
    p.add_argument(
        "--out", metavar="FILE", help="write the selected format to this file"
    )
    p.add_argument(
        "--out-dir",
        metavar="DIR",
        help="write profile.folded + profile.json + flame.svg here",
    )
    p.add_argument(
        "--diff",
        nargs=2,
        metavar=("A", "B"),
        help="stack diff of two profiles "
        "(.folded, profile JSON, or Chrome trace each)",
    )
    p.add_argument(
        "--against-baseline",
        metavar="BENCH.json",
        help="stack diff of this run against a committed bench baseline",
    )
    p.add_argument(
        "--limit", type=int, default=20, help="table/diff rows to print (0 = all)"
    )
    p.set_defaults(func=cmd_obs_flame)

    p = obs_sub.add_parser(
        "whatif",
        help="causal what-if: replay the trace with virtual speedups, "
        "rank targets by end-to-end payoff",
    )
    _add_profile_source_arguments(p)
    p.add_argument(
        "--speedups",
        metavar="PCT,PCT,...",
        help="hypothetical speedups in percent (default: 10,25,50,75)",
    )
    p.add_argument(
        "--json", action="store_true", help="emit the ranked table as JSON"
    )
    p.add_argument(
        "--limit", type=int, default=15, help="targets to print (0 = all)"
    )
    p.set_defaults(func=cmd_obs_whatif)

    p = obs_sub.add_parser(
        "top", help="live ASCII dashboard of the metrics registry"
    )
    p.add_argument(
        "--from",
        dest="from_file",
        metavar="FILE.prom",
        help="render a Prometheus text export instead of running a workload",
    )
    p.add_argument(
        "--scenario",
        default="adaptation_loop",
        help="bench scenario to run live (ignored with --from)",
    )
    p.add_argument(
        "--once", action="store_true", help="print one frame and exit"
    )
    p.add_argument(
        "--refresh", type=float, default=1.0, help="seconds between redraws"
    )
    p.add_argument("--width", type=int, default=72)
    p.set_defaults(func=cmd_obs_top)

    p = subparsers.add_parser(
        "energy",
        help="virtual-RAPL energy observatory: report, timeline, budget SLOs",
    )
    energy_sub = p.add_subparsers(dest="energy_command", required=True)

    def _add_energy_scenario_args(p: argparse.ArgumentParser) -> None:
        _add_app_argument(p)
        _add_machine_argument(p)
        p.add_argument(
            "--duration",
            type=float,
            default=30.0,
            help="virtual seconds of the fig5-style scenario",
        )
        p.add_argument("--threads", help="comma-separated thread counts for the DSE")
        p.add_argument("--repetitions", type=int, default=3)

    p = energy_sub.add_parser(
        "report",
        help="per-domain energy totals and the operating-point attribution ledger",
    )
    _add_energy_scenario_args(p)
    p.add_argument("--json", action="store_true", help="emit the ledger as JSON")
    p.add_argument(
        "--ledger-out",
        metavar="FILE.json",
        help="write the socrates-energy/1 ledger document here",
    )
    p.set_defaults(func=cmd_energy_report)
    p = energy_sub.add_parser(
        "timeline",
        help="reconstructed power(t): Chrome counter tracks and/or CSV",
    )
    _add_energy_scenario_args(p)
    p.add_argument(
        "--trace-out",
        metavar="FILE.json",
        help="Chrome trace with spans + per-domain power counter tracks",
    )
    p.add_argument(
        "--csv", metavar="FILE.csv", help="write the step timeline as CSV"
    )
    p.set_defaults(func=cmd_energy_timeline)
    p = energy_sub.add_parser(
        "slo",
        help="check power/energy budgets over the scenario (exit 3 on violation)",
    )
    _add_energy_scenario_args(p)
    p.add_argument(
        "--power-budget",
        type=float,
        metavar="WATTS",
        help="cap on the time-averaged package power (Fig. 4 sweep values)",
    )
    p.add_argument(
        "--peak-power-budget",
        type=float,
        metavar="WATTS",
        help="cap on the instantaneous package power of any segment",
    )
    p.add_argument(
        "--energy-budget",
        type=float,
        metavar="JOULES",
        help="cap on the total package energy",
    )
    p.add_argument(
        "--budget-domain",
        metavar="DOMAIN",
        help="power plane the budgets apply to (default: package; "
        "per-cluster planes like P:package work on heterogeneous machines)",
    )
    p.add_argument(
        "--audit-out",
        metavar="FILE.jsonl",
        help="write the adaptation audit (with SLO context) here",
    )
    p.set_defaults(func=cmd_energy_slo)

    p = subparsers.add_parser(
        "bench",
        help="performance observatory: scenario baselines and the regression gate",
    )
    bench_sub = p.add_subparsers(dest="bench_command", required=True)

    def _add_bench_selection(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--scenario",
            action="append",
            help="scenario name (repeatable; default: every quick scenario)",
        )
        p.add_argument(
            "--all",
            action="store_true",
            help="select every scenario, including the slow ones",
        )
        p.add_argument(
            "--repeats", type=int, default=3, help="repeats per scenario"
        )

    def _add_gate_knobs(p: argparse.ArgumentParser) -> None:
        from repro.bench.gate import (
            DEFAULT_ENERGY_TOLERANCE,
            DEFAULT_MAD_K,
            DEFAULT_MIN_DELTA_S,
            DEFAULT_THRESHOLD,
        )

        p.add_argument(
            "--baseline-dir",
            default="benchmarks/baselines",
            help="directory holding the committed BENCH_<scenario>.json files",
        )
        p.add_argument(
            "--threshold",
            type=float,
            default=DEFAULT_THRESHOLD,
            help="relative regression threshold (fraction of the baseline median)",
        )
        p.add_argument(
            "--mad-k",
            type=float,
            default=DEFAULT_MAD_K,
            help="MAD multiplier absorbing the scenario's measured jitter",
        )
        p.add_argument(
            "--min-delta-s",
            type=float,
            default=DEFAULT_MIN_DELTA_S,
            help="absolute floor in seconds below which deltas never regress",
        )
        p.add_argument(
            "--energy-tolerance",
            type=float,
            default=DEFAULT_ENERGY_TOLERANCE,
            help="relative tolerance for the baseline's energy columns",
        )
        p.add_argument(
            "--limit", type=int, default=15, help="trace-diff rows to print"
        )

    p = bench_sub.add_parser("list", help="list the registered scenarios")
    p.set_defaults(func=cmd_bench_list)
    p = bench_sub.add_parser(
        "run", help="run scenarios and write BENCH_<scenario>.json baselines"
    )
    _add_bench_selection(p)
    p.add_argument(
        "--out-dir", default=".", help="where to write the baseline files"
    )
    p.add_argument(
        "--trace-out-dir",
        help="also write each scenario's Chrome trace as TRACE_<scenario>.json",
    )
    p.set_defaults(func=cmd_bench_run)
    p = bench_sub.add_parser(
        "compare",
        help="re-run scenarios and report against the baselines (always exit 0)",
    )
    _add_bench_selection(p)
    _add_gate_knobs(p)
    p.add_argument("--json", action="store_true", help="emit the reports as JSON")
    p.set_defaults(func=cmd_bench_compare)
    p = bench_sub.add_parser(
        "gate",
        help="the regression gate: exit 3 when any scenario regresses",
    )
    _add_bench_selection(p)
    _add_gate_knobs(p)
    p.add_argument(
        "--out-dir",
        help="write fresh BENCH/GATE/DIFF artifacts here (CI uploads)",
    )
    p.set_defaults(func=cmd_bench_gate)

    p = subparsers.add_parser(
        "margot-header", help="generate margot.h from a margot config"
    )
    p.add_argument("config", help="JSON configuration (see repro.margot.config)")
    p.add_argument("--out", help="write the header to this file")
    p.add_argument("--threads", help="comma-separated thread counts for the DSE")
    p.add_argument("--repetitions", type=int, default=3)
    p.set_defaults(func=cmd_margot_header)

    p = subparsers.add_parser("table1", help="regenerate Table I")
    p.set_defaults(func=cmd_table1)

    p = subparsers.add_parser(
        "experiments", help="run the paper's full evaluation (Table I + Figs 3-5)"
    )
    p.add_argument("--threads", help="comma-separated thread counts for the DSE")
    p.add_argument("--repetitions", type=int, default=3)
    p.set_defaults(func=cmd_experiments)

    p = subparsers.add_parser("fig3", help="regenerate Figure 3")
    _add_machine_argument(p)
    p.add_argument("--apps", help="comma-separated subset of benchmarks")
    p.add_argument("--threads", help="comma-separated thread counts for the DSE")
    p.add_argument("--repetitions", type=int, default=3)
    p.set_defaults(func=cmd_fig3)

    p = subparsers.add_parser("fig4", help="regenerate Figure 4")
    _add_machine_argument(p)
    p.add_argument("--app", default="2mm")
    p.add_argument("--steps", type=int, default=20)
    p.add_argument("--threads", help="comma-separated thread counts for the DSE")
    p.add_argument("--repetitions", type=int, default=3)
    p.set_defaults(func=cmd_fig4)

    p = subparsers.add_parser("fig5", help="regenerate Figure 5")
    _add_machine_argument(p)
    p.add_argument("--app", default="2mm")
    p.add_argument("--duration", type=float, default=300.0)
    p.add_argument("--threads", help="comma-separated thread counts for the DSE")
    p.add_argument("--repetitions", type=int, default=3)
    p.set_defaults(func=cmd_fig5)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KeyError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # output piped into a pager/head that closed early: not an error
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0
    except OSError as error:
        # an unreadable input or unwritable output path
        reason = error.strerror or str(error)
        where = f"{error.filename}: " if error.filename is not None else ""
        print(f"error: {where}{reason}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
