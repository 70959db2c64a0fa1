"""The benchmark's workloads: set-up, one timed pass, and what a pass yields.

Every workload is a closed loop with one client.  Builds run back to back;
each runtime invocation starts only after the previous one returned, like
the woven binary's ``update -> kernel -> monitor`` loop.  The workload seed
derives every input the program receives (the toolflow ``seed=``, the
runtime noise seeds and the power-cap schedule); the program sees only
those inputs.

* ``suite_build`` -- leave-one-out ``build()`` of all 12 Polybench apps on
  ``xeon_2s`` with the paper defaults, then a short deployment of each
  built binary (48 invocations under Thr/W^2, 48 under Throughput).
* ``fig5_runtime`` -- set-up builds 2mm on ``xeon_2s``; a pass is the
  paper's Fig. 5 run: 300 virtual seconds, Thr/W^2 -> Throughput -> Thr/W^2
  every 100 s.
* ``powercap_biglittle`` -- set-up builds 2mm on ``biglittle_8p8e``; a pass
  is a Fig. 4-style ``minimize time`` state under ``power <= cap`` for ten
  caps of 200 virtual seconds each, drawn from the knowledge base's power
  range.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.adaptive import AdaptiveApplication, InvocationRecord
from repro.core.scenario import Phase, Scenario
from repro.core.toolflow import SocratesToolflow, ToolflowResult
from repro.machine.executor import MachineExecutor
from repro.machine.power import RaplMeter
from repro.margot.goal import ComparisonFunction, Goal
from repro.margot.state import (
    Constraint,
    OptimizationState,
    maximize_throughput,
    maximize_throughput_per_watt_squared,
    minimize_time,
)
from repro.polybench.apps.base import BenchmarkApp
from repro.polybench.suite import all_apps, load

from perfbench.calibration import Sampler, calibrate

#: Fig. 5 schedule: (virtual start second, state name).
FIG5_PHASES = ((0.0, "Thr/W^2"), (100.0, "Throughput"), (200.0, "Thr/W^2"))
FIG5_DURATION_S = 300.0
#: Power-cap schedule: this many caps, each held for ``CAP_HOLD_S``.
CAP_COUNT = 10
CAP_HOLD_S = 200.0
#: Invocations per state when ``suite_build`` deploys a built binary.
DEPLOY_INVOCATIONS_PER_STATE = 48
#: A host-speed calibration sample is taken every this many invocations.
CALIBRATE_EVERY = 100
#: The adjustment factors the oracle re-applies, in this order.
ADJUSTED_METRICS = ("time", "throughput", "power")

#: ``step(virtual_elapsed_s, invocation_index)`` gives the state and
#: power cap for the next invocation, or ``None`` to stop.
Schedule = Callable[[float, int], Optional[Tuple[str, Optional[float]]]]


def derive(seed: int, purpose: str) -> int:
    """A 16-bit seed for one program input, derived from the workload seed."""
    return random.Random(f"{seed}:{purpose}").getrandbits(16)


def make_toolflow(machine: str, seed: int) -> SocratesToolflow:
    """The paper-default toolflow: threads 1..all CPUs, ``dse_repetitions=5``,
    ``cobayn_k=4`` and the serial evaluation backend."""
    return SocratesToolflow(machine, seed=derive(seed, "toolflow"))


# -- what a pass yields --------------------------------------------------------


@dataclass
class Build:
    """One ``build()`` call: its wall time (less the calibration samples
    taken during it), its result or error, and the factor that converts its
    time to reference-host time."""

    app: str
    seconds: float
    result: Optional[ToolflowResult]
    error: Optional[str] = None
    scale: float = 1.0


@dataclass
class Invocation:
    """One ``run_once`` call: its wall time, and what the selection oracle needs."""

    seconds: float
    record: InvocationRecord
    state: str
    cap: Optional[float]
    adjustment: Tuple[float, float, float]  # ADJUSTED_METRICS order


@dataclass
class Deployment:
    """One adaptive binary driven through a schedule.

    ``calibration`` holds ``(invocation index, seconds)`` samples: the one
    at index ``i`` was taken right before invocation ``i`` (the last one
    after the final invocation).
    """

    built: ToolflowResult
    states: Dict[str, OptimizationState]
    invocations: List[Invocation] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    virtual_s: float = 0.0
    calibration: List[Tuple[int, float]] = field(default_factory=list)


@dataclass
class PassResult:
    """Everything one pass of a workload measured and produced."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    builds: List[Build] = field(default_factory=list)
    deployments: List[Deployment] = field(default_factory=list)
    toolflows: List[SocratesToolflow] = field(default_factory=list)

    @property
    def invocations(self) -> int:
        return sum(len(d.invocations) for d in self.deployments)

    @property
    def sim_energy_per_inv_j(self) -> float:
        energy = sum(i.record.energy_j for d in self.deployments for i in d.invocations)
        return energy / max(1, self.invocations)

    @property
    def sim_throughput(self) -> float:
        virtual = sum(d.virtual_s for d in self.deployments)
        return self.invocations / virtual if virtual > 0 else 0.0


@dataclass
class Setup:
    """The state a workload's timed passes start from."""

    seed: int
    toolflow: SocratesToolflow
    build: Optional[Build] = None


class NullSpans:
    """The untraced recorder: calls go straight to the program."""

    request: object = None

    def call(self, name: str, fn):
        return fn


NULL_SPANS = NullSpans()


# -- shared steps --------------------------------------------------------------


def timed_build(toolflow: SocratesToolflow, app: BenchmarkApp, spans) -> Build:
    """Build ``app`` leave-one-out; an exception is recorded, not raised."""
    build = spans.call("core.build", toolflow.build)
    spans.request = app.name
    with Sampler() as sampler:
        start = time.perf_counter()
        try:
            result, error = build(app), None
        except Exception as exc:  # every failed build counts toward the error rate
            result, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start - sampler.spent
    return Build(app.name, seconds, result, error, sampler.factor())


def fig5_states() -> Dict[str, OptimizationState]:
    return {
        "Thr/W^2": OptimizationState("Thr/W^2", rank=maximize_throughput_per_watt_squared()),
        "Throughput": OptimizationState("Throughput", rank=maximize_throughput()),
    }


def cap_state(cap: float) -> Dict[str, OptimizationState]:
    state = OptimizationState("cap", rank=minimize_time())
    state.add_constraint(Constraint(Goal("power", ComparisonFunction.LESS_OR_EQUAL, cap)))
    return {"cap": state}


def deploy(
    built: ToolflowResult,
    toolflow: SocratesToolflow,
    seed: int,
    states: Dict[str, OptimizationState],
    schedule: Schedule,
    spans,
    result: PassResult,
) -> None:
    """Drive a fresh adaptive binary through ``schedule``.

    The binary gets its own seeded executor and RAPL meter, so every pass
    of a seed replays the same simulated run.  Only ``run_once`` itself is
    inside the timed interval.
    """
    executor = MachineExecutor(toolflow.machine, seed=derive(seed, "executor"))
    app = AdaptiveApplication(
        name=built.app.name,
        versions=built.adaptive.versions,
        knowledge=built.exploration.knowledge,
        executor=executor,
        omp=toolflow.omp,
        meter=RaplMeter(executor.power_model, seed=derive(seed, "meter")),
    )
    for index, state in enumerate(states.values()):
        app.add_state(state, activate=index == 0)
    deployment = Deployment(built=built, states=states)
    result.deployments.append(deployment)
    asrtm = app.manager.asrtm
    run_once = spans.call("core.run_once", app.run_once)
    first = result.invocations
    start_now = app.now
    index = 0
    while True:
        step = schedule(app.now - start_now, index)
        if step is None:
            break
        state, cap = step
        if app.active_state_name != state:
            app.switch_state(state)
        if cap is not None:
            states[state].constraints[0].goal.value = cap
        if index % CALIBRATE_EVERY == 0:
            deployment.calibration.append((index, calibrate()))
        spans.request = first + index
        begin = time.perf_counter()
        try:
            record = run_once()
        except Exception as exc:  # counted by the oracle; the binary is abandoned
            deployment.errors.append(f"invocation {index}: {type(exc).__name__}: {exc}")
            break
        seconds = time.perf_counter() - begin
        deployment.invocations.append(
            Invocation(
                seconds, record, state, cap, tuple(asrtm.adjustment(m) for m in ADJUSTED_METRICS)
            )
        )
        index += 1
    deployment.calibration.append((index, calibrate()))
    deployment.virtual_s = app.now - start_now


# -- the workloads -------------------------------------------------------------


class Workload:
    name = ""
    machine = ""

    def set_up(self, seed: int, spans=NULL_SPANS) -> Setup:
        raise NotImplementedError

    def run_pass(self, setup: Setup, spans=NULL_SPANS) -> PassResult:
        start, cpu = time.perf_counter(), time.process_time()
        result = PassResult()
        self._pass(setup, spans, result)
        result.wall_s = time.perf_counter() - start
        result.cpu_s = time.process_time() - cpu
        return result

    def _pass(self, setup: Setup, spans, result: PassResult) -> None:
        raise NotImplementedError


class SuiteBuild(Workload):
    """The developer's compile-time path for the whole suite."""

    name = "suite_build"
    machine = "xeon_2s"

    def __init__(self, apps: Optional[List[str]] = None) -> None:
        self._apps = apps

    def set_up(self, seed: int, spans=NULL_SPANS) -> Setup:
        return Setup(seed, make_toolflow(self.machine, seed))

    def _pass(self, setup: Setup, spans, result: PassResult) -> None:
        # a fresh toolflow per pass: no cache survives from the last pass
        toolflow = make_toolflow(self.machine, setup.seed)
        result.toolflows.append(toolflow)
        apps = all_apps() if self._apps is None else [load(name) for name in self._apps]
        for app in apps:
            result.builds.append(timed_build(toolflow, app, spans))
        per_state = DEPLOY_INVOCATIONS_PER_STATE

        def schedule(elapsed: float, index: int):
            if index >= 2 * per_state:
                return None
            return ("Thr/W^2" if index < per_state else "Throughput"), None

        for build in result.builds:
            if build.result is not None:
                deploy(build.result, toolflow, setup.seed, fig5_states(), schedule, spans, result)


class RuntimeWorkload(Workload):
    """Set-up builds 2mm; a pass drives the adaptive binary."""

    app = "2mm"

    def __init__(self, scale: float = 1.0) -> None:
        self._scale = scale  # shrinks the virtual duration (self-tests only)

    def set_up(self, seed: int, spans=NULL_SPANS) -> Setup:
        toolflow = make_toolflow(self.machine, seed)
        return Setup(seed, toolflow, timed_build(toolflow, load(self.app), spans))

    def _pass(self, setup: Setup, spans, result: PassResult) -> None:
        build = setup.build
        if build is None or build.result is None:
            return  # the failed set-up build is already counted
        states, schedule = self.schedule(setup.seed, build.result)
        deploy(build.result, setup.toolflow, setup.seed, states, schedule, spans, result)

    def schedule(self, seed: int, built: ToolflowResult):
        raise NotImplementedError


class Fig5Runtime(RuntimeWorkload):
    """The paper's Fig. 5 run: mARGOt ranking on every invocation."""

    name = "fig5_runtime"
    machine = "xeon_2s"

    def schedule(self, seed: int, built: ToolflowResult):
        scale = self._scale
        scenario = Scenario(
            phases=[Phase(start * scale, state) for start, state in FIG5_PHASES],
            duration_s=FIG5_DURATION_S * scale,
        )

        def step(elapsed: float, index: int):
            if elapsed >= scenario.duration_s:
                return None
            return scenario.state_at(elapsed), None

        return fig5_states(), step


class PowercapBigLittle(RuntimeWorkload):
    """Fig. 4-style power caps on the clustered machine: the constraint
    filter and its relaxation path, the cluster knob and the power path."""

    name = "powercap_biglittle"
    machine = "biglittle_8p8e"

    def schedule(self, seed: int, built: ToolflowResult):
        caps = power_caps(seed, *built.exploration.knowledge.metric_bounds("power"))
        hold = CAP_HOLD_S * self._scale

        def step(elapsed: float, index: int):
            slot = int(elapsed // hold)
            if slot >= len(caps):
                return None
            return "cap", caps[slot]

        return cap_state(caps[0]), step


def power_caps(seed: int, low: float, high: float) -> List[float]:
    """``CAP_COUNT`` caps, one drawn uniformly in each equal slice of the
    knowledge base's power range, in seeded order.  One cap per slice keeps
    the mix of tight and loose caps the same for every seed."""
    rng = random.Random(f"{seed}:caps")
    width = (high - low) / CAP_COUNT
    caps = [low + width * (slot + rng.random()) for slot in range(CAP_COUNT)]
    rng.shuffle(caps)
    return caps


WORKLOADS: Dict[str, Callable[[], Workload]] = {
    SuiteBuild.name: SuiteBuild,
    Fig5Runtime.name: Fig5Runtime,
    PowercapBigLittle.name: PowercapBigLittle,
}
