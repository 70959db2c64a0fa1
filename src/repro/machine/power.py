"""Power model and RAPL-like meter for the simulated platform.

Calibrated to the paper's envelope: Figure 4 sweeps a power budget
from 45 W (near idle) to 140 W (all cores busy on a hot kernel), and
Figure 5's measured package power for 2mm moves between roughly 80 W
and 145 W.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.machine.openmp import IDLE_SOCKET, ThreadPlacement
from repro.machine.topology import Machine

#: RAPL-style power domains reported by the virtual meter.  ``package``
#: is the per-socket aggregate; the other three partition it exactly
#: (``core + uncore + dram == package``).
DOMAINS: Tuple[str, ...] = ("package", "core", "uncore", "dram")

#: Domains that partition the package plane (sum to ``package``).
COMPONENT_DOMAINS: Tuple[str, ...] = ("core", "uncore", "dram")


def cluster_domain(cluster: str, domain: str) -> str:
    """Key of a per-cluster power plane (e.g. ``"P:package"``).

    Heterogeneous machines report, next to the machine-wide domains,
    one additional plane per (cluster type, domain) pair; the same
    conservation invariant holds within each cluster.
    """
    return f"{cluster}:{domain}"


def invocation_energy(time_s: float, power_w: float) -> float:
    """Energy of one kernel invocation (joules).

    The single definition shared by the executor's ground truth, the
    adaptive runtime's measured records, and the energy ledger's
    consistency checks — so ``energy_j`` can never drift between the
    producer and a consumer recomputing it.
    """
    return time_s * power_w


@dataclass(frozen=True)
class DomainPower:
    """One socket's power split into RAPL-style planes (watts).

    ``cluster`` names the cluster type occupying the socket (empty for
    breakdowns computed without cluster attribution).
    """

    socket: int
    core_w: float
    uncore_w: float
    dram_w: float
    cluster: str = ""

    @property
    def package_w(self) -> float:
        """The socket's package plane: cores + uncore + DRAM."""
        return self.core_w + self.uncore_w + self.dram_w

    def as_dict(self) -> Dict[str, float]:
        return {
            "package": self.package_w,
            "core": self.core_w,
            "uncore": self.uncore_w,
            "dram": self.dram_w,
        }


@dataclass(frozen=True)
class PowerBreakdown:
    """Whole-machine power split per socket and per domain.

    The aggregate :attr:`package_w` equals
    :meth:`PowerModel.active_power` (same model terms, summed
    per-socket instead of globally) to within floating-point
    reassociation — the conservation tests pin it at 1e-9.
    """

    sockets: Tuple[DomainPower, ...]

    @property
    def package_w(self) -> float:
        return sum(s.package_w for s in self.sockets)

    @property
    def core_w(self) -> float:
        return sum(s.core_w for s in self.sockets)

    @property
    def uncore_w(self) -> float:
        return sum(s.uncore_w for s in self.sockets)

    @property
    def dram_w(self) -> float:
        return sum(s.dram_w for s in self.sockets)

    def domain(self, name: str) -> float:
        """Total watts of one domain across sockets."""
        if name not in DOMAINS:
            raise ValueError(f"unknown power domain {name!r} (known: {DOMAINS})")
        return {
            "package": self.package_w,
            "core": self.core_w,
            "uncore": self.uncore_w,
            "dram": self.dram_w,
        }[name]

    def totals(self) -> Dict[str, float]:
        """``{domain: watts}`` across all sockets."""
        return {name: self.domain(name) for name in DOMAINS}

    def cluster_names(self) -> Tuple[str, ...]:
        """Distinct (non-empty) cluster tags in socket order."""
        names = []
        for s in self.sockets:
            if s.cluster and s.cluster not in names:
                names.append(s.cluster)
        return tuple(names)

    def cluster_totals(self) -> Dict[str, float]:
        """Per-cluster power planes, keyed :func:`cluster_domain`.

        Each cluster's package plane is computed as the sum of its
        component planes, so the per-cluster conservation invariant
        (``core + uncore + dram == package``) holds exactly.
        """
        planes: Dict[str, float] = {}
        for name in self.cluster_names():
            members = [s for s in self.sockets if s.cluster == name]
            core = sum(s.core_w for s in members)
            uncore = sum(s.uncore_w for s in members)
            dram = sum(s.dram_w for s in members)
            planes[cluster_domain(name, "core")] = core
            planes[cluster_domain(name, "uncore")] = uncore
            planes[cluster_domain(name, "dram")] = dram
            planes[cluster_domain(name, "package")] = core + uncore + dram
        return planes

    def scaled(self, factor: float) -> "PowerBreakdown":
        """Every plane multiplied by ``factor`` (measurement noise is
        multiplicative, so a noisy package reading scales all domains
        proportionally)."""
        return PowerBreakdown(
            sockets=tuple(
                DomainPower(
                    socket=s.socket,
                    core_w=s.core_w * factor,
                    uncore_w=s.uncore_w * factor,
                    dram_w=s.dram_w * factor,
                    cluster=s.cluster,
                )
                for s in self.sockets
            )
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "totals_w": self.totals(),
            "sockets": [s.as_dict() for s in self.sockets],
        }


@dataclass(frozen=True)
class PowerModel:
    """Package-level power as a function of activity.

    Each socket pays its cluster's :class:`ClusterPower` envelope:
    ``uncore_w`` per powered socket regardless of load (LLC, memory
    controllers, fabric); ``idle_core_w`` per core; ``active_core_w``
    per busy core, scaled by the workload's power intensity (vector FP
    burns more than stalled memory waits) and by the dynamic-power
    factor of the cluster's DVFS state; ``smt_thread_w`` per second SMT
    thread on a busy core; and DRAM power rising with the consumed
    bandwidth share.
    """

    def idle_power(self, machine: Machine) -> float:
        """Whole-package idle power (all sockets powered)."""
        total = 0.0
        for cluster in machine.clusters:
            total += cluster.power.uncore_w + cluster.cores * cluster.power.idle_core_w
        return total

    def active_power(
        self,
        machine: Machine,
        placement: ThreadPlacement,
        intensity: float,
        utilization: float,
        bandwidth_share: float,
        freq_power: Optional[Mapping[int, float]] = None,
    ) -> float:
        """Average package power while the kernel runs.

        ``intensity`` is the compiled kernel's power-intensity factor,
        ``utilization`` the fraction of time cores do work rather than
        stall, and ``bandwidth_share`` the fraction of total DRAM
        bandwidth in use.  ``freq_power`` maps sockets to the
        dynamic-power factor of the DVFS state their cluster is running
        at (absent sockets run at 1.0).  The scalar is the breakdown's
        package plane, so conservation is exact by construction.
        """
        return self.active_breakdown(
            machine,
            placement,
            intensity,
            utilization,
            bandwidth_share,
            freq_power=freq_power,
        ).package_w

    # -- per-domain breakdowns (the virtual-RAPL meters) -----------------------

    def idle_breakdown(self, machine: Machine) -> PowerBreakdown:
        """Per-socket, per-domain power of the idle machine.

        The idle floor between kernel invocations: every socket pays
        its uncore power and its cores' idle leakage; DRAM draws
        nothing without traffic.
        """
        sockets = []
        for socket, cluster in enumerate(machine.clusters):
            env = cluster.power
            sockets.append(
                DomainPower(
                    socket=socket,
                    core_w=cluster.cores * env.idle_core_w,
                    uncore_w=env.uncore_w,
                    dram_w=0.0,
                    cluster=cluster.name,
                )
            )
        return PowerBreakdown(sockets=tuple(sockets))

    def active_breakdown(
        self,
        machine: Machine,
        placement: ThreadPlacement,
        intensity: float,
        utilization: float,
        bandwidth_share: float,
        freq_power: Optional[Mapping[int, float]] = None,
    ) -> PowerBreakdown:
        """Per-socket, per-domain split of :meth:`active_power`.

        Same model terms, attributed to the socket that pays them: each
        socket's cores pay their idle leakage plus the active/SMT power
        of the busy cores placed there; DRAM power lands on the sockets
        the team actually uses.  Summing the breakdown reproduces
        :meth:`active_power` (modulo floating-point reassociation).
        """
        occupancy = placement.occupancy
        sockets = []
        for socket, cluster in enumerate(machine.clusters):
            env = cluster.power
            load = occupancy.get(socket, IDLE_SOCKET)
            core_w = cluster.cores * env.idle_core_w
            active_w = load.cores * env.active_core_w * intensity * utilization
            factor = freq_power.get(socket, 1.0) if freq_power else 1.0
            if factor != 1.0:
                active_w *= factor
            core_w += active_w
            core_w += load.smt_pairs * env.smt_thread_w * utilization
            dram_w = env.dram_max_w * bandwidth_share if socket in occupancy else 0.0
            sockets.append(
                DomainPower(
                    socket=socket,
                    core_w=core_w,
                    uncore_w=env.uncore_w,
                    dram_w=dram_w,
                    cluster=cluster.name,
                )
            )
        return PowerBreakdown(sockets=tuple(sockets))


class RaplMeter:
    """Samples 'measured' power with realistic meter noise.

    Mirrors reading the RAPL energy counters around a kernel region:
    the returned values wobble around the model's truth with a small
    multiplicative log-normal error.
    """

    def __init__(self, model: PowerModel, seed: int = 0xE5C0) -> None:
        self._model = model
        self._rng = np.random.default_rng(seed)

    @property
    def model(self) -> PowerModel:
        return self._model

    def measure(self, true_power_w: float, sigma: float = 0.015) -> float:
        """One noisy power reading around ``true_power_w``."""
        return float(true_power_w * self._rng.lognormal(mean=0.0, sigma=sigma))

    def reseed(self, seed: int) -> None:
        """Reset the meter's noise stream (for reproducible campaigns)."""
        self._rng = np.random.default_rng(seed)
