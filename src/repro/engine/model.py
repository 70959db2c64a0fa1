"""Data model of the evaluation engine: design points and samples.

These types used to live in :mod:`repro.dse.explorer`; they are defined
here so every measurement consumer (toolflow, DSE, COBAYN corpus) can
share them without importing the explorer.  The explorer re-exports
them, so existing ``from repro.dse.explorer import DesignPoint`` code
keeps working.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Sequence

from repro.compat import slotted_dataclass
from repro.gcc.flags import FlagConfiguration
from repro.machine.openmp import BindingPolicy


@slotted_dataclass(frozen=True)
class DesignPoint:
    """One configuration of the paper's autotuning space.

    ``cluster`` is the fourth knob (which cluster type the thread team
    is pinned to); ``None`` — the only value on homogeneous machines —
    means the whole machine, the paper's original three-knob space.
    """

    compiler: FlagConfiguration
    threads: int
    binding: BindingPolicy
    cluster: Optional[str] = None


@dataclass(frozen=True)
class DesignSpace:
    """The cartesian autotuning space CO x TN x BP (paper Section II),
    extended with the cluster knob (CO x TN x BP x CL) on heterogeneous
    machines.

    ``clusters`` defaults to ``(None,)`` — no cluster pinning, the
    degenerate case that keeps the space identical to the paper's.
    ``cluster_capacities`` (when given) maps each cluster value to its
    logical-CPU count so thread counts that cannot be placed there are
    dropped instead of failing at placement time.
    """

    compiler_configs: Sequence[FlagConfiguration]
    thread_counts: Sequence[int]
    bindings: Sequence[BindingPolicy] = (BindingPolicy.CLOSE, BindingPolicy.SPREAD)
    clusters: Sequence[Optional[str]] = (None,)
    cluster_capacities: Optional[Mapping[Optional[str], int]] = None

    def _fits(self, cluster: Optional[str], threads: int) -> bool:
        if self.cluster_capacities is None:
            return True
        capacity = self.cluster_capacities.get(cluster)
        return capacity is None or threads <= capacity

    def points(self) -> List[DesignPoint]:
        return [
            DesignPoint(
                compiler=config, threads=threads, binding=binding, cluster=cluster
            )
            for config in self.compiler_configs
            for binding in self.bindings
            for cluster in self.clusters
            for threads in self.thread_counts
            if self._fits(cluster, threads)
        ]

    @property
    def size(self) -> int:
        if self.cluster_capacities is not None:
            return len(self.points())
        return (
            len(self.compiler_configs)
            * len(self.thread_counts)
            * len(self.bindings)
            * len(self.clusters)
        )


@slotted_dataclass
class ProfiledSample:
    """Raw repetition measurements of one design point."""

    point: DesignPoint
    times: List[float] = field(default_factory=list)
    powers: List[float] = field(default_factory=list)
