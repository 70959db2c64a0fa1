"""The DSE driver: profile the autotuning space into a knowledge base.

For every selected design point (compiler configuration, thread count,
binding policy) the explorer measures the kernel ``repetitions`` times
on the simulated machine (as mARGOt's profiling task does on the real
one) and stores mean/std of each EFP as an operating point.

The measurements themselves run through the shared
:class:`~repro.engine.EvaluationEngine` — compilation is memoized per
configuration and each model truth is computed once, in-process.  The
``DesignPoint`` / ``DesignSpace`` / ``ProfiledSample`` types are
re-exported from :mod:`repro.engine.model` for compatibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dse.strategies import FullFactorialStrategy, SamplingStrategy
from repro.engine.core import EvaluationEngine
from repro.engine.model import DesignPoint, DesignSpace, ProfiledSample
from repro.gcc.compiler import Compiler
from repro.machine.executor import MachineExecutor
from repro.machine.openmp import OpenMPRuntime
from repro.margot.knowledge import KnowledgeBase
from repro.polybench.workload import WorkloadProfile

__all__ = [
    "DesignPoint",
    "DesignSpace",
    "DesignSpaceExplorer",
    "ExplorationResult",
    "ProfiledSample",
    "KNOB_BINDING",
    "KNOB_CLUSTER",
    "KNOB_COMPILER",
    "KNOB_THREADS",
]

#: Names of the knobs every SOCRATES operating point carries.
KNOB_COMPILER = "compiler"
KNOB_THREADS = "threads"
KNOB_BINDING = "binding"
#: The fourth knob, present only on heterogeneous machines (operating
#: points from an unpinned, whole-machine run omit it entirely so the
#: paper's three-knob knowledge bases stay unchanged).
KNOB_CLUSTER = "cluster"


@dataclass
class ExplorationResult:
    """The knowledge base the DSE built for one kernel, with its coverage.

    The raw repetitions are folded into the knowledge base's statistics
    and not kept.
    """

    kernel: str
    knowledge: KnowledgeBase
    explored_points: int
    space_size: int

    @property
    def coverage(self) -> float:
        return self.explored_points / self.space_size if self.space_size else 0.0


class DesignSpaceExplorer:
    """Profiles design points on the simulated machine."""

    def __init__(
        self,
        compiler: Compiler,
        executor: MachineExecutor,
        omp: OpenMPRuntime,
        repetitions: int = 5,
        engine: Optional[EvaluationEngine] = None,
    ) -> None:
        """``engine`` shares caches with other measurement consumers;
        when omitted, a private engine wraps the given components."""
        if repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        self._engine = engine or EvaluationEngine(
            compiler=compiler, executor=executor, omp=omp
        )
        self._compiler = self._engine.compiler
        self._executor = self._engine.executor
        self._omp = self._engine.omp
        self._repetitions = repetitions

    @property
    def engine(self) -> EvaluationEngine:
        return self._engine

    def explore(
        self,
        profile: WorkloadProfile,
        space: DesignSpace,
        strategy: Optional[SamplingStrategy] = None,
        seed: int = 0xD5E,
    ) -> ExplorationResult:
        """Profile ``profile`` over ``space`` and build the knowledge base."""
        strategy = strategy or FullFactorialStrategy()
        rng = np.random.default_rng(seed)
        selected = strategy.select(space.points(), rng)
        tracer = self._engine.obs.tracer
        with tracer.span(
            "dse.explore",
            kernel=profile.kernel,
            strategy=type(strategy).__name__,
            space_size=space.size,
            selected=len(selected),
            repetitions=self._repetitions,
        ):
            samples = self._engine.evaluate(
                profile, selected, repetitions=self._repetitions
            )
            knowledge = self._to_knowledge(samples)
        return ExplorationResult(
            kernel=profile.kernel,
            knowledge=knowledge,
            explored_points=len(selected),
            space_size=space.size,
        )

    # -- internals ----------------------------------------------------------

    @staticmethod
    def _to_knowledge(samples: Sequence[ProfiledSample]) -> KnowledgeBase:
        """One operating point per sample: the mean and the sample std
        (0 for one repetition) of each metric over its repetitions, one
        reduction per metric over the (points x repetitions) matrices."""
        if not samples:
            return KnowledgeBase()
        times = np.array([sample.times for sample in samples], dtype=np.float64)
        powers = np.array([sample.powers for sample in samples], dtype=np.float64)

        def stats(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
            if values.shape[1] > 1:
                return values.mean(axis=1), values.std(axis=1, ddof=1)
            return values.mean(axis=1), np.zeros(len(values))

        knobs: Dict[str, List[object]] = {
            KNOB_COMPILER: [sample.point.compiler.label for sample in samples],
            KNOB_THREADS: [sample.point.threads for sample in samples],
            KNOB_BINDING: [sample.point.binding.value for sample in samples],
        }
        clusters = [sample.point.cluster for sample in samples]
        if None not in clusters:
            knobs[KNOB_CLUSTER] = clusters
        elif any(cluster is not None for cluster in clusters):
            raise ValueError("inconsistent knob schema: only some points pin a cluster")
        return KnowledgeBase.from_columns(
            knobs,
            {
                "time": stats(times),
                "throughput": stats(1.0 / times),
                "power": stats(powers),
                "energy": stats(times * powers),
            },
        )
