"""The SOCRATES toolflow (paper Figure 1), end to end.

``SocratesToolflow.build(app)`` takes a plain Polybench source and
produces the adaptive application:

1. **characterize** — parse the source, extract Milepost features;
2. **prune the compiler space** — COBAYN (trained on the other
   benchmarks, leave-one-out by default) predicts the 4 most promising
   custom combinations, added to -Os/-O1/-O2/-O3;
3. **weave** — the LARA Multiversioning strategy clones the kernel per
   (CF x binding), the Autotuner strategy integrates mARGOt;
4. **compile** — every version goes through the analytical GCC;
5. **profile** — mARGOt's DSE task explores CF x TN x BP full
   factorially and builds the knowledge base;
6. **assemble** — versions + knowledge + monitors become an
   :class:`~repro.core.adaptive.AdaptiveApplication`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.cobayn.autotuner import CobaynAutotuner
from repro.cobayn.corpus import build_corpus
from repro.core.adaptive import AdaptiveApplication, build_version_table
from repro.dse.explorer import DesignSpace, DesignSpaceExplorer, ExplorationResult
from repro.dse.strategies import SamplingStrategy
from repro.engine.core import EvaluationEngine
from repro.engine.telemetry import StageEvent, TelemetryRecorder, stage_report
from repro.gcc.compiler import Compiler
from repro.gcc.flags import FlagConfiguration, standard_levels
from repro.lara.metrics import WeavingReport, weave_benchmark
from repro.lara.weaver import Weaver
from repro.machine.executor import MachineExecutor
from repro.machine.openmp import OpenMPRuntime
from repro.machine.power import RaplMeter
from repro.machine.topology import Machine
from repro.milepost.features import FeatureVector
from repro.obs import Observability
from repro.polybench.apps.base import BenchmarkApp
from repro.polybench.workload import WorkloadProfile


class WeaveVerificationError(ValueError):
    """The woven unit failed the post-weave structural verification."""


@dataclass
class ToolflowResult:
    """Everything the pipeline produced for one application."""

    app: BenchmarkApp
    features: FeatureVector
    custom_flags: List[FlagConfiguration]
    compiler_configs: List[FlagConfiguration]
    weaving_report: WeavingReport
    weaver: Weaver
    exploration: ExplorationResult
    adaptive: AdaptiveApplication
    stage_events: List[StageEvent] = field(default_factory=list)
    check_diagnostics: List[object] = field(default_factory=list)

    def stage_report(self) -> Dict[str, object]:
        """JSON-able per-stage telemetry of the build (wall time, cache
        hit/miss deltas, points evaluated)."""
        return stage_report(self.stage_events)

    @property
    def adaptive_source(self) -> str:
        """The weaved C source of the adaptive application."""
        from repro.cir import to_source

        return to_source(self.weaver.unit)

    def margot_header(self, states) -> str:
        """Generate the ``margot.h`` the weaved source includes.

        ``states`` are the optimization states the deployment will use
        (the header hard-codes their constraint/rank logic, as
        margot_heel does from the XML configuration).
        """
        from repro.margot.codegen import generate_margot_header

        version_index = {
            "|".join(key): version.index
            for key, version in self.adaptive._versions.items()
        }
        return generate_margot_header(
            kernel=self.app.kernels[0],
            knowledge=self.exploration.knowledge,
            states=states,
            version_index=version_index,
        )


class SocratesToolflow:
    """Configurable builder for adaptive applications."""

    def __init__(
        self,
        machine: Union[str, Machine, None] = None,
        dse_repetitions: int = 5,
        cobayn_k: int = 4,
        thread_counts: Optional[Sequence[int]] = None,
        seed: int = 0x50CA,
        obs: Optional[Observability] = None,
    ) -> None:
        """``seed`` seeds the engine's measurement noise, the DSE
        sampling and the RAPL meter; ``obs`` threads an
        :class:`~repro.obs.Observability` through every layer of the
        build."""
        if dse_repetitions < 1:
            raise ValueError(
                f"dse_repetitions must be >= 1, got {dse_repetitions}"
            )
        if cobayn_k < 1:
            raise ValueError(f"cobayn_k must be >= 1, got {cobayn_k}")
        self._engine = EvaluationEngine(machine, seed=seed, obs=obs)
        self._dse_repetitions = dse_repetitions
        self._cobayn_k = cobayn_k
        self._thread_counts = list(
            thread_counts
            if thread_counts is not None
            else range(1, self.machine.logical_cpus + 1)
        )
        self._seed = seed
        self._tuner_cache: Dict[Tuple[str, ...], CobaynAutotuner] = {}

    # -- components exposed for tests/benchmarks ------------------------------

    @property
    def machine(self) -> Machine:
        return self._engine.machine

    @property
    def compiler(self) -> Compiler:
        return self._engine.compiler

    @property
    def executor(self) -> MachineExecutor:
        return self._engine.executor

    @property
    def omp(self) -> OpenMPRuntime:
        return self._engine.omp

    @property
    def engine(self) -> EvaluationEngine:
        return self._engine

    @property
    def obs(self) -> Observability:
        return self._engine.obs

    @property
    def seed(self) -> int:
        return self._seed

    def run_identity(self) -> Dict[str, object]:
        """The knobs that change what the pipeline computes — never a
        timestamp or a path."""
        return {
            "machine": self.machine.name,
            "seed": self._seed,
            "dse_repetitions": self._dse_repetitions,
            "cobayn_k": self._cobayn_k,
            "thread_counts": list(self._thread_counts),
        }

    # -- pipeline ----------------------------------------------------------------

    def build(
        self,
        app: BenchmarkApp,
        training_apps: Optional[Sequence[BenchmarkApp]] = None,
        dse_strategy: Optional[SamplingStrategy] = None,
    ) -> ToolflowResult:
        """Run the whole Figure 1 pipeline for ``app``.

        ``training_apps`` defaults to the other eleven Polybench
        applications (leave-one-out), so COBAYN never trains on the
        kernel it predicts for.
        """
        recorder = TelemetryRecorder(
            self._engine, tracer=self.obs.tracer, metrics=self.obs.metrics
        )
        with self.obs.tracer.span(f"build:{app.name}", app=app.name):
            with recorder.stage("characterize"):
                features = self._characterize(app)
            with recorder.stage("prune"):
                custom = self._prune_compiler_space(app, features, training_apps)
            configs = standard_levels() + custom
            with recorder.stage("weave"):
                report, weaver = weave_benchmark(app, configs)
                check_diagnostics = self._verify_weave(app, weaver)
            with recorder.stage("profile"):
                exploration = self._profile(app, configs, dse_strategy)
            with recorder.stage("assemble"):
                adaptive = self._assemble(app, configs, exploration)
        return ToolflowResult(
            app=app,
            features=features,
            custom_flags=custom,
            compiler_configs=configs,
            weaving_report=report,
            weaver=weaver,
            exploration=exploration,
            adaptive=adaptive,
            stage_events=recorder.events,
            check_diagnostics=check_diagnostics,
        )

    # -- stages ------------------------------------------------------------------

    def _verify_weave(self, app: BenchmarkApp, weaver: Weaver):
        """Post-weave gate: hard error on structural violations.

        Runs the full static check (race lint + weave verifier) over
        the woven unit.  Error-severity diagnostics raise
        :class:`WeaveVerificationError`; warnings are surfaced through
        the observability layer as
        ``socrates_check_diagnostics_total{rule=...}`` counters and
        audit check traces.
        """
        from repro.analysis import Severity, check_unit

        diagnostics = check_unit(
            weaver.unit,
            filename=f"{app.name}.weaved.c",
            phase="woven",
            plan=weaver.plan,
        )
        for diag in diagnostics:
            self.obs.metrics.counter(
                "socrates_check_diagnostics_total",
                "Static-analysis diagnostics emitted by the post-weave gate",
                labels={"rule": diag.rule},
            ).inc()
            if self.obs.audit is not None:
                from repro.obs import CheckTrace

                self.obs.audit.record_check(
                    CheckTrace(
                        app=app.name,
                        rule=diag.rule,
                        severity=diag.severity.value,
                        message=diag.message,
                        location=diag.location,
                    )
                )
        errors = [d for d in diagnostics if d.severity is Severity.ERROR]
        if errors:
            details = "; ".join(
                f"[{d.rule}] {d.message} at {d.location}" for d in errors[:5]
            )
            raise WeaveVerificationError(
                f"weave verification failed for {app.name!r} with "
                f"{len(errors)} structural violation(s): {details}"
            )
        return diagnostics

    def _characterize(self, app: BenchmarkApp) -> FeatureVector:
        return self._engine.features(app)

    def _prune_compiler_space(
        self,
        app: BenchmarkApp,
        features: FeatureVector,
        training_apps: Optional[Sequence[BenchmarkApp]],
    ) -> List[FlagConfiguration]:
        tuner = self._trained_tuner(app, training_apps)
        with self.obs.tracer.span("cobayn.predict", k=self._cobayn_k):
            return tuner.predict_top(features, self._cobayn_k)

    def _trained_tuner(
        self,
        app: BenchmarkApp,
        training_apps: Optional[Sequence[BenchmarkApp]],
    ) -> CobaynAutotuner:
        if training_apps is None:
            from repro.polybench.suite import all_apps

            training_apps = [
                candidate for candidate in all_apps() if candidate.name != app.name
            ]
        key = tuple(sorted(candidate.name for candidate in training_apps))
        if key not in self._tuner_cache:
            with self.obs.tracer.span(
                "cobayn.corpus", training_apps=len(training_apps)
            ):
                corpus = build_corpus(training_apps, self._engine)
            tuner = CobaynAutotuner()
            with self.obs.tracer.span(
                "cobayn.train", examples=len(corpus.examples)
            ):
                tuner.train(corpus)
            self._tuner_cache[key] = tuner
        return self._tuner_cache[key]

    def _profile(
        self,
        app: BenchmarkApp,
        configs: Sequence[FlagConfiguration],
        dse_strategy: Optional[SamplingStrategy],
    ) -> ExplorationResult:
        profile = self._engine.profile(app)
        pins, capacities = self.machine.cluster_pins()
        space = DesignSpace(
            compiler_configs=list(configs),
            thread_counts=self._thread_counts,
            clusters=pins,
            cluster_capacities=capacities,
        )
        explorer = DesignSpaceExplorer(self._engine, repetitions=self._dse_repetitions)
        return explorer.explore(profile, space, strategy=dse_strategy, seed=self._seed)

    def _assemble(
        self,
        app: BenchmarkApp,
        configs: Sequence[FlagConfiguration],
        exploration: ExplorationResult,
    ) -> AdaptiveApplication:
        profile = self._engine.profile(app)
        versions = build_version_table(
            self._engine, profile, configs, clusters=self.machine.cluster_pins()[0]
        )
        meter = RaplMeter(self.executor.power_model, seed=self._seed ^ 0xFF)
        return AdaptiveApplication(
            name=app.name,
            versions=versions,
            knowledge=exploration.knowledge,
            executor=self.executor,
            omp=self.omp,
            meter=meter,
            obs=self.obs,
        )
