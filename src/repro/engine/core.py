"""The unified evaluation engine: one compile→place→run path.

Every layer that needs a measurement — the SOCRATES toolflow, the
design-space explorer, the COBAYN corpus builder and its
leave-one-out evaluation — receives one :class:`EvaluationEngine`.
The engine owns:

* the **measurement components** — the stateless
  :class:`~repro.gcc.compiler.Compiler`, the seeded
  :class:`~repro.machine.executor.MachineExecutor` and the
  :class:`~repro.machine.openmp.OpenMPRuntime` of one machine;
* the **compile cache** — one compilation per distinct
  ``(WorkloadProfile, FlagConfiguration.label)`` pair;
* the **profile cache** — one parse + workload analysis per app;
* the **batched evaluation API** — :meth:`evaluate` turns a list of
  design points into :class:`ProfiledSample` measurements, computing
  each missing model truth once, in-process and in order;
* the **counters** the telemetry layer snapshots per pipeline stage.

Determinism contract: model truths are pure functions of
``(kernel, placement)``, and measurement noise is drawn from the
executor's single seeded stream in canonical point order — two pairs
per repetition, exactly as the historical per-run draws — *before*
truths are computed, so samples reproduce the pre-engine hand-rolled
loops byte for byte.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.engine.caching import CompileCache, ProfileCache
from repro.engine.model import DesignPoint, ProfiledSample
from repro.gcc.compiler import CompiledKernel, Compiler
from repro.gcc.flags import FlagConfiguration
from repro.machine.executor import MachineExecutor
from repro.machine.openmp import BindingPolicy, OpenMPRuntime, ThreadPlacement
from repro.machine.registry import resolve_machine
from repro.machine.topology import Machine
from repro.milepost.features import FeatureVector
from repro.obs import NULL_OBS, Observability
from repro.obs.metrics import DEFAULT_SIZE_BUCKETS
from repro.polybench.apps.base import BenchmarkApp
from repro.polybench.workload import WorkloadProfile

#: Truth-cache key, one flat tuple: (app, kernel, flag label, threads,
#: binding, cluster).
TruthKey = Tuple[str, str, str, int, str, Optional[str]]


@dataclass(frozen=True)
class EngineCounters:
    """Snapshot of the engine's monotonic counters."""

    compile_hits: int
    compile_misses: int
    profile_hits: int
    profile_misses: int
    truth_hits: int
    truth_misses: int
    points_evaluated: int


class EvaluationEngine:
    """Cached, batched kernel evaluation."""

    def __init__(
        self,
        machine: Union[str, Machine, None] = None,
        seed: int = 0x50C7,
        obs: Optional[Observability] = None,
    ) -> None:
        """``seed`` seeds the executor's measurement-noise stream."""
        self._machine = resolve_machine(machine)
        self._compiler = Compiler()
        self._executor = MachineExecutor(self._machine, seed=seed)
        self._omp = OpenMPRuntime(self._machine)
        self._obs = obs if obs is not None else NULL_OBS
        # instrument handles are resolved once; with the null registry
        # these are shared no-op sinks, so hot paths stay cheap
        metrics = self._obs.metrics
        self._metric_points = metrics.counter(
            "socrates_engine_points_evaluated_total",
            help="design points measured through evaluate()",
        )
        self._metric_truth_hits = metrics.counter(
            "socrates_engine_truth_cache_hits_total",
            help="truth-cache hits across evaluate() batches",
        )
        self._metric_truth_misses = metrics.counter(
            "socrates_engine_truth_cache_misses_total",
            help="truth-cache misses (model evaluations paid)",
        )
        self._metric_batch = metrics.histogram(
            "socrates_engine_batch_points",
            boundaries=DEFAULT_SIZE_BUCKETS,
            help="points per evaluate() batch",
        )
        self._compile_cache = CompileCache(self._compiler)
        self._profile_cache = ProfileCache()
        # model truths are pure functions of (kernel, placement): cache
        # them so repeated visits (leave-one-out corpus rebuilds, suite
        # sweeps) never re-run the machine model; each key maps to its
        # offset in ``_truths``, which holds (time, power) pairs unboxed
        self._truth_cache: Dict[TruthKey, int] = {}
        self._truths = array("d")
        self._truth_hits = 0
        self._truth_misses = 0
        self._points_evaluated = 0

    # -- shared components ---------------------------------------------------

    @property
    def machine(self) -> Machine:
        return self._machine

    @property
    def compiler(self) -> Compiler:
        return self._compiler

    @property
    def executor(self) -> MachineExecutor:
        return self._executor

    @property
    def omp(self) -> OpenMPRuntime:
        return self._omp

    @property
    def obs(self) -> Observability:
        return self._obs

    @property
    def compile_cache(self) -> CompileCache:
        return self._compile_cache

    @property
    def profile_cache(self) -> ProfileCache:
        return self._profile_cache

    # -- cached characterization ---------------------------------------------

    def unit(self, app: BenchmarkApp):
        """The shared read-only AST of ``app`` (parsed once)."""
        return self._profile_cache.unit(app)

    def profile(
        self, app: BenchmarkApp, kernel: Optional[str] = None
    ) -> WorkloadProfile:
        """The cached workload profile of ``app``'s kernel."""
        return self._profile_cache.profile(app, kernel)

    def features(
        self, app: BenchmarkApp, kernel: Optional[str] = None
    ) -> FeatureVector:
        """The cached Milepost feature vector of ``app``'s kernel."""
        return self._profile_cache.features(app, kernel)

    # -- cached compilation ----------------------------------------------------

    def compile(
        self, profile: WorkloadProfile, config: FlagConfiguration
    ) -> CompiledKernel:
        """Compile through the counting cache (one compile per CF)."""
        return self._compile_cache.get(profile, config)

    # -- batched evaluation ----------------------------------------------------

    def evaluate(
        self,
        profile: WorkloadProfile,
        points: Sequence[DesignPoint],
        repetitions: int = 1,
        noisy: bool = True,
    ) -> List[ProfiledSample]:
        """Measure ``points``, ``repetitions`` times each.

        Compiles each distinct configuration exactly once, draws the
        noise factors for every (point, repetition) in canonical order
        from the executor's seeded stream, then computes the noise-free
        truths the truth cache does not hold yet.  ``noisy=False`` skips
        the noise draws entirely (iterative-compilation mode) and leaves
        the executor's stream untouched.
        """
        if repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {repetitions}")
        with self._obs.tracer.span(
            "engine.evaluate",
            kernel=profile.kernel,
            points=len(points),
            repetitions=repetitions,
            noisy=noisy,
        ):
            return self._evaluate(profile, points, repetitions, noisy)

    def _evaluate(
        self,
        profile: WorkloadProfile,
        points: Sequence[DesignPoint],
        repetitions: int,
        noisy: bool,
    ) -> List[ProfiledSample]:
        kernels: Dict[str, CompiledKernel] = {}
        for point in points:
            label = point.compiler.label
            if label not in kernels:
                kernels[label] = self.compile(profile, point.compiler)
        # Noise is drawn before the truths are computed: the draw order
        # (point-major, repetition-minor, time then power) matches the
        # historical interleaved run() loop, keeping the stream state
        # bit-identical while paying only one model evaluation per point.
        factor_blocks = (
            [self._executor.noise_factors(repetitions) for _ in points]
            if noisy
            else None
        )
        point_keys: List[TruthKey] = [
            (
                profile.name,
                profile.kernel,
                point.compiler.label,
                point.threads,
                point.binding.value,
                point.cluster,
            )
            for point in points
        ]
        missing: Dict[TruthKey, CompiledKernel] = {}
        for point, key in zip(points, point_keys):
            if key not in self._truth_cache and key not in missing:
                missing[key] = kernels[point.compiler.label]
        if missing:
            tracer = self._obs.tracer
            # one in-order pass over the missing truths; placements are
            # memoized per batch
            computed: List[Tuple[float, float]] = []
            with tracer.span("backend.run_truths", items=len(missing)):
                placements: Dict[Tuple[int, str, Optional[str]], ThreadPlacement] = {}
                for key, kernel in missing.items():
                    _, _, _, threads, binding, cluster = key
                    placement = placements.get((threads, binding, cluster))
                    if placement is None:
                        placement = self._omp.place(
                            threads, BindingPolicy(binding), cluster=cluster
                        )
                        placements[(threads, binding, cluster)] = placement
                    if tracer.enabled:
                        name = f"truth:{profile.kernel}@{threads}t/{binding}"
                        if cluster is not None:
                            name += f"/{cluster}"
                        with tracer.span(name, compiler=kernel.config.label):
                            result = self._executor.evaluate(kernel, placement)
                    else:
                        result = self._executor.evaluate(kernel, placement)
                    computed.append((result.time_s, result.power_w))
            for key, truth in zip(missing, computed):
                self._truth_cache[key] = len(self._truths)
                self._truths.extend(truth)
        self._truth_misses += len(missing)
        self._truth_hits += len(points) - len(missing)
        self._metric_truth_misses.inc(len(missing))
        self._metric_truth_hits.inc(len(points) - len(missing))
        self._metric_batch.observe(len(points))
        samples: List[ProfiledSample] = []
        for index, point in enumerate(points):
            offset = self._truth_cache[point_keys[index]]
            time_truth, power_truth = self._truths[offset], self._truths[offset + 1]
            if factor_blocks is not None:
                block = factor_blocks[index]
                times = [time_truth * time_factor for time_factor, _ in block]
                powers = [power_truth * power_factor for _, power_factor in block]
            else:
                times = [time_truth] * repetitions
                powers = [power_truth] * repetitions
            samples.append(ProfiledSample(point=point, times=times, powers=powers))
        self._points_evaluated += len(points)
        self._metric_points.inc(len(points))
        return samples

    # -- accounting -------------------------------------------------------------

    @property
    def counters(self) -> EngineCounters:
        return EngineCounters(
            compile_hits=self._compile_cache.stats.hits,
            compile_misses=self._compile_cache.stats.misses,
            profile_hits=self._profile_cache.stats.hits,
            profile_misses=self._profile_cache.stats.misses,
            truth_hits=self._truth_hits,
            truth_misses=self._truth_misses,
            points_evaluated=self._points_evaluated,
        )

    def stats(self) -> Dict[str, object]:
        """JSON-able cache/evaluation statistics."""
        return {
            "compile_cache": {
                **self._compile_cache.stats.as_dict(),
                "entries": len(self._compile_cache),
            },
            "profile_cache": self._profile_cache.stats.as_dict(),
            "truth_cache": {
                "hits": self._truth_hits,
                "misses": self._truth_misses,
                "entries": len(self._truth_cache),
            },
            "points_evaluated": self._points_evaluated,
        }
