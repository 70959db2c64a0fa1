"""Iterative-compilation training corpus for COBAYN.

For each training kernel, every one of the 128 flag combinations is
evaluated (compile + run on the simulated machine at a fixed reference
operating point) and the fastest fraction become *positive examples*:
the configurations whose distribution the Bayesian network learns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.engine.core import EvaluationEngine
from repro.engine.model import DesignPoint
from repro.gcc.compiler import Compiler
from repro.gcc.flags import ALL_FLAGS, Flag, FlagConfiguration, OptLevel, cobayn_space
from repro.machine.executor import MachineExecutor
from repro.machine.openmp import BindingPolicy, OpenMPRuntime
from repro.milepost.features import FeatureVector
from repro.polybench.apps.base import BenchmarkApp

#: Reference operating point for iterative compilation (all physical
#: cores of one socket pair, close binding) — flag effects are ranked
#: at a fixed parallel setting, as COBAYN does on the real machine.
REFERENCE_THREADS = 16
REFERENCE_BINDING = BindingPolicy.CLOSE


def flag_assignment(config: FlagConfiguration) -> Dict[str, int]:
    """Encode a flag configuration as BN variables.

    ``level`` is 0 for -O2 and 1 for -O3 (the COBAYN space bases);
    each transformation flag is its own binary variable.
    """
    row: Dict[str, int] = {"level": 1 if config.level is OptLevel.O3 else 0}
    for flag in ALL_FLAGS:
        row[flag.value] = 1 if config.has(flag) else 0
    return row


def assignment_to_config(row: Mapping[str, int]) -> FlagConfiguration:
    """Inverse of :func:`flag_assignment`."""
    level = OptLevel.O3 if row["level"] else OptLevel.O2
    flags = frozenset(flag for flag in ALL_FLAGS if row.get(flag.value))
    return FlagConfiguration(level=level, flags=flags)


@dataclass
class KernelExamples:
    """Per-kernel iterative-compilation outcome."""

    kernel: str
    features: FeatureVector
    timings: List[Tuple[FlagConfiguration, float]]
    good_configs: List[FlagConfiguration]


@dataclass
class TrainingCorpus:
    """Positive examples plus the feature vectors they came from."""

    examples: List[KernelExamples] = field(default_factory=list)

    @property
    def kernels(self) -> List[str]:
        return [example.kernel for example in self.examples]

    def feature_vectors(self) -> List[FeatureVector]:
        return [example.features for example in self.examples]

    def rows(self, discretizer) -> List[Dict[str, int]]:
        """BN training rows: feature bins + flag variables per good config."""
        rows: List[Dict[str, int]] = []
        for example in self.examples:
            feature_bins = discretizer.transform(example.features)
            for config in example.good_configs:
                row = dict(feature_bins)
                row.update(flag_assignment(config))
                rows.append(row)
        return rows


def reference_points(
    configs: Sequence[FlagConfiguration],
    max_threads: Optional[int] = None,
) -> List[DesignPoint]:
    """The iterative-compilation design points: every configuration at
    the fixed reference operating point.

    ``max_threads`` caps the reference team at the machine's capability
    (a big.LITTLE part may have fewer than 16 logical CPUs); the
    paper's testbed is unaffected.
    """
    threads = (
        REFERENCE_THREADS
        if max_threads is None
        else min(REFERENCE_THREADS, max_threads)
    )
    return [
        DesignPoint(compiler=config, threads=threads, binding=REFERENCE_BINDING)
        for config in configs
    ]


def evaluate_configuration(
    app: BenchmarkApp,
    config: FlagConfiguration,
    compiler: Compiler,
    executor: MachineExecutor,
    omp: OpenMPRuntime,
    engine: Optional[EvaluationEngine] = None,
) -> float:
    """Noise-free execution time of ``app`` under ``config`` at the
    reference operating point."""
    engine = engine or EvaluationEngine(compiler=compiler, executor=executor, omp=omp)
    profile = engine.profile(app)
    (sample,) = engine.evaluate(
        profile,
        reference_points([config], max_threads=engine.machine.logical_cpus),
        repetitions=1,
        noisy=False,
    )
    return sample.times[0]


def build_corpus(
    apps: Sequence[BenchmarkApp],
    compiler: Compiler,
    executor: MachineExecutor,
    omp: OpenMPRuntime,
    good_fraction: float = 0.1,
    engine: Optional[EvaluationEngine] = None,
) -> TrainingCorpus:
    """Run iterative compilation for every app and keep the best combos.

    ``good_fraction`` of the 128-point space (at least 4 combos) is
    labelled positive per kernel.  ``engine`` shares the profile and
    compile caches with the rest of a toolflow build; when omitted a
    private engine wraps the given components.
    """
    if not 0.0 < good_fraction <= 1.0:
        raise ValueError("good_fraction must be in (0, 1]")
    engine = engine or EvaluationEngine(compiler=compiler, executor=executor, omp=omp)
    tracer = engine.obs.tracer
    space = cobayn_space()
    points = reference_points(space, max_threads=engine.machine.logical_cpus)
    corpus = TrainingCorpus()
    for app in apps:
        with tracer.span("cobayn.iterative", app=app.name, configs=len(points)):
            profile = engine.profile(app)
            features = engine.features(app)
            samples = engine.evaluate(profile, points, repetitions=1, noisy=False)
        timings = [
            (config, sample.times[0]) for config, sample in zip(space, samples)
        ]
        timings.sort(key=lambda item: item[1])
        keep = max(4, int(round(len(space) * good_fraction)))
        good = [config for config, _ in timings[:keep]]
        corpus.examples.append(
            KernelExamples(
                kernel=app.name,
                features=features,
                timings=timings,
                good_configs=good,
            )
        )
    return corpus
