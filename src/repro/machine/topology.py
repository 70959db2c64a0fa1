"""Hardware topology of the simulated platform.

A :class:`Machine` is an ordered list of :class:`Cluster`\\ s — groups
of identical cores sharing a last-level cache, a memory interface and
a power envelope.  Each cluster occupies one socket / NUMA position in
the place enumeration.  The paper's testbed (2x Xeon E5-2630 v3) is
the degenerate case of two identical ``xeon`` clusters;
asymmetric big.LITTLE parts (see :mod:`repro.machine.registry`) mix
clusters with different core counts, clocks, roofline terms and DVFS
state tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class ClusterPower:
    """Per-cluster power envelope (watts), consumed by
    :class:`~repro.machine.power.PowerModel`.

    The defaults are the calibrated Xeon E5-2630 v3 constants.
    """

    uncore_w: float = 13.0
    idle_core_w: float = 0.75
    active_core_w: float = 4.6
    smt_thread_w: float = 0.65
    dram_max_w: float = 9.0
    #: dynamic power roughly follows f^power_exponent (f V^2 with V ~ f)
    power_exponent: float = 1.9


@dataclass(frozen=True)
class Cluster:
    """One group of identical cores (a Xeon socket, a P- or E-cluster).

    The defaults describe one socket of the paper's testbed: a Xeon
    E5-2630 v3 (Haswell-EP, 8 cores @ 2.4 GHz, 20 MB L3, 4-channel
    DDR4-1866).  ``dvfs_states`` lists the available frequency steps
    (Hz).  An empty table means the cluster runs at its fixed nominal
    clock — how the default Xeon folds turbo effects into calibrated
    constants.
    """

    name: str = "xeon"
    cores: int = 8
    threads_per_core: int = 2
    frequency_hz: float = 2.4e9
    llc_bytes: float = 20e6
    bandwidth_bytes_s: float = 55e9
    per_thread_bandwidth: float = 13e9
    smt_speedup: float = 0.28  # extra throughput from the 2nd hw thread
    dvfs_states: Tuple[float, ...] = ()
    power: ClusterPower = ClusterPower()

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError(f"cluster {self.name!r} needs >= 1 core")
        if self.threads_per_core < 1:
            raise ValueError(f"cluster {self.name!r} needs >= 1 thread per core")
        if self.frequency_hz <= 0:
            raise ValueError(f"cluster {self.name!r} needs a positive clock")
        if any(state <= 0 for state in self.dvfs_states):
            raise ValueError(f"cluster {self.name!r} has a non-positive DVFS state")
        if self.dvfs_states and tuple(sorted(self.dvfs_states)) != self.dvfs_states:
            raise ValueError(
                f"cluster {self.name!r} DVFS states must be sorted ascending"
            )

    @property
    def logical_cpus(self) -> int:
        return self.cores * self.threads_per_core

    def effective_frequency(self, active_cores: int) -> float:
        """Clock at which this cluster runs ``active_cores`` busy cores.

        With a DVFS table the governor race-to-idles: one busy core gets
        the top state and the clock walks down toward the bottom state
        as the cluster fills up (thermal/power headroom shrinks), snapped
        to the nearest available state below the interpolated target.
        Without a table the cluster runs at its fixed nominal clock.
        """
        if not self.dvfs_states:
            return self.frequency_hz
        low, high = self.dvfs_states[0], self.dvfs_states[-1]
        cores = min(max(active_cores, 1), self.cores)
        fraction = (cores - 1) / (self.cores - 1) if self.cores > 1 else 1.0
        target = high - fraction * (high - low)
        chosen = low
        for state in self.dvfs_states:
            if state <= target + 1e-6:
                chosen = state
        return chosen

    def freq_power_factor(self, active_cores: int) -> float:
        """Dynamic-power multiplier of the DVFS state in effect."""
        if not self.dvfs_states:
            return 1.0
        return (
            self.effective_frequency(active_cores) / self.frequency_hz
        ) ** self.power.power_exponent


@dataclass(frozen=True)
class LogicalCpu:
    """One hardware thread: (socket, core, hw_thread) coordinates.

    ``place_index`` is the CPU's position in the owning machine's
    enumerated ``OMP_PLACES=cores`` place list (see
    :meth:`Machine.core_places`); it is assigned during enumeration
    rather than derived arithmetically, so place ids stay collision-free
    on machines whose clusters have different core counts.
    """

    socket: int
    core: int
    hw_thread: int
    place_index: int = -1

    @property
    def place_id(self) -> int:
        """Index of this CPU's *core place* under ``OMP_PLACES=cores``."""
        return self.place_index


class Machine:
    """An ordered list of clusters; one cluster per socket/NUMA node.

    ``numa_remote_factor`` is the share of its bandwidth a socket other
    than socket 0 delivers (first-touch places the data on socket 0).
    The registry (:mod:`repro.machine.registry`) names the platforms.
    """

    def __init__(
        self,
        clusters: Sequence[Cluster],
        *,
        name: Optional[str] = None,
        numa_remote_factor: float = 0.62,
    ) -> None:
        self._clusters = tuple(clusters)
        if not self._clusters:
            raise ValueError("a machine needs at least one cluster")
        self._name = name or "custom"
        self._numa_remote_factor = numa_remote_factor
        # the enumerated place list IS the source of place identity
        self._places: Tuple[Tuple[int, int], ...] = tuple(
            (socket, core)
            for socket, cluster in enumerate(self._clusters)
            for core in range(cluster.cores)
        )
        self._place_index: Dict[Tuple[int, int], int] = {
            place: index for index, place in enumerate(self._places)
        }

    # -- identity --------------------------------------------------------------

    @property
    def name(self) -> str:
        return self._name

    @property
    def clusters(self) -> Tuple[Cluster, ...]:
        return self._clusters

    @property
    def numa_remote_factor(self) -> float:
        """Remote-socket effective bandwidth share."""
        return self._numa_remote_factor

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Machine):
            return NotImplemented
        return (
            self._clusters == other._clusters
            and self._numa_remote_factor == other._numa_remote_factor
        )

    def __hash__(self) -> int:
        return hash((self._clusters, self._numa_remote_factor))

    def __repr__(self) -> str:
        shape = "+".join(
            f"{cluster.cores}x{cluster.name}" for cluster in self._clusters
        )
        return f"Machine({self._name!r}, {shape})"

    # -- cluster views ---------------------------------------------------------

    @property
    def sockets(self) -> int:
        return len(self._clusters)

    def cluster(self, socket: int) -> Cluster:
        """The cluster occupying ``socket``."""
        return self._clusters[socket]

    @property
    def is_homogeneous(self) -> bool:
        """True when every socket hosts an identical cluster.

        Such a machine has no cluster knob: its teams are never pinned
        (see :meth:`cluster_pins`), which keeps the paper's three-knob
        space.
        """
        return all(cluster == self._clusters[0] for cluster in self._clusters[1:])

    def cluster_names(self) -> Tuple[str, ...]:
        """Distinct cluster type names in enumeration order."""
        names: List[str] = []
        for cluster in self._clusters:
            if cluster.name not in names:
                names.append(cluster.name)
        return tuple(names)

    def cluster_sockets(self, name: str) -> Tuple[int, ...]:
        """Socket indices occupied by cluster type ``name``."""
        sockets = tuple(
            socket
            for socket, cluster in enumerate(self._clusters)
            if cluster.name == name
        )
        if not sockets:
            raise ValueError(
                f"machine {self._name!r} has no cluster named {name!r} "
                f"(known: {', '.join(self.cluster_names())})"
            )
        return sockets

    def cluster_logical_cpus(self, name: str) -> int:
        """Logical CPUs across every socket of cluster type ``name``."""
        return sum(
            self._clusters[socket].logical_cpus
            for socket in self.cluster_sockets(name)
        )

    def cluster_pins(
        self,
    ) -> Tuple[Tuple[Optional[str], ...], Optional[Dict[str, int]]]:
        """Values of the cluster knob and the logical CPUs behind each.

        A homogeneous machine has the single value ``None`` (no pin, the
        paper's three-knob space) and no capacities; a heterogeneous one
        has one pin per cluster type, each capped at that type's
        logical CPUs.
        """
        if self.is_homogeneous:
            return (None,), None
        pins = self.cluster_names()
        return pins, {name: self.cluster_logical_cpus(name) for name in pins}

    # -- enumeration -----------------------------------------------------------

    @property
    def physical_cores(self) -> int:
        return sum(cluster.cores for cluster in self._clusters)

    @property
    def logical_cpus(self) -> int:
        return sum(cluster.logical_cpus for cluster in self._clusters)

    def cpus(self) -> List[LogicalCpu]:
        """All logical CPUs, ordered socket-major then core then SMT."""
        result: List[LogicalCpu] = []
        for socket, cluster in enumerate(self._clusters):
            for core in range(cluster.cores):
                place_index = self._place_index[(socket, core)]
                for hw_thread in range(cluster.threads_per_core):
                    result.append(
                        LogicalCpu(socket, core, hw_thread, place_index=place_index)
                    )
        return result

    def core_places(self) -> List[Tuple[int, int]]:
        """The OMP_PLACES=cores place list: (socket, core) pairs.

        Places are enumerated socket-major, matching how libgomp sees a
        machine whose logical CPUs are numbered socket-by-socket.
        """
        return list(self._places)

    def place_id(self, socket: int, core: int) -> int:
        """Index of a core place in the enumerated place list."""
        return self._place_index[(socket, core)]

    def cluster_places(self, name: str) -> List[Tuple[int, int]]:
        """The place-list slice belonging to cluster type ``name``."""
        sockets = set(self.cluster_sockets(name))
        return [place for place in self._places if place[0] in sockets]


def default_machine() -> Machine:
    """The paper's platform: 2x Xeon E5-2630 v3, 32 logical CPUs.

    Resolved through the machine registry (``xeon_2s``), so every layer
    that falls back to the default agrees on one shared definition.
    """
    from repro.machine.registry import DEFAULT_MACHINE, get_machine

    return get_machine(DEFAULT_MACHINE)
