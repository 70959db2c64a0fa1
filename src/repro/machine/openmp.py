"""OpenMP runtime model: thread-team placement under OMP_PLACES=cores.

SOCRATES controls two OpenMP knobs (paper Section II): the team size
(``num_threads``, 1..32 on the testbed) and the binding policy
(``proc_bind(close)`` or ``proc_bind(spread)``), with
``OMP_PLACES=cores``.  This module reproduces libgomp's placement
semantics for those settings.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from repro.machine.topology import Machine


class BindingPolicy(enum.Enum):
    """OpenMP proc_bind policy (the paper's BP knob)."""

    CLOSE = "close"
    SPREAD = "spread"

    @property
    def omp_name(self) -> str:
        return self.value


@dataclass(frozen=True)
class SocketLoad:
    """One socket's share of a thread team."""

    threads: int
    #: distinct busy cores
    cores: int
    #: cores running two (or more) threads via hyperthreading
    smt_pairs: int


#: The load of a socket the team does not touch.
IDLE_SOCKET = SocketLoad(threads=0, cores=0, smt_pairs=0)


@dataclass(frozen=True)
class ThreadPlacement:
    """Where a thread team landed on the machine.

    ``assignments`` maps each OpenMP thread id to its (socket, core)
    place; with more threads than places, several threads share a core
    via SMT.  ``cluster`` names the cluster type the team was pinned to
    (``None`` = the whole machine).
    """

    policy: BindingPolicy
    assignments: Tuple[Tuple[int, int], ...]
    cluster: Optional[str] = None

    @property
    def num_threads(self) -> int:
        return len(self.assignments)

    @property
    def sockets_used(self) -> Tuple[int, ...]:
        return tuple(sorted({socket for socket, _ in self.assignments}))

    @cached_property
    def occupancy(self) -> Dict[int, SocketLoad]:
        """Per-socket load, keyed in order of first appearance in the team.

        Counted once per placement; the machine and power models read
        it on every evaluation.
        """
        loads: Dict[int, SocketLoad] = {}
        for (socket, _core), threads in Counter(self.assignments).items():
            load = loads.get(socket, IDLE_SOCKET)
            loads[socket] = SocketLoad(
                threads=load.threads + threads,
                cores=load.cores + 1,
                smt_pairs=load.smt_pairs + (threads > 1),
            )
        return loads


class OpenMPRuntime:
    """Places OpenMP thread teams on a :class:`Machine`."""

    def __init__(self, machine: Machine) -> None:
        self._machine = machine
        self._places = machine.core_places()

    @property
    def machine(self) -> Machine:
        return self._machine

    def max_threads(self, cluster: Optional[str] = None) -> int:
        """OMP_NUM_THREADS upper bound: the number of logical CPUs.

        With ``cluster``, the bound of a team pinned to that cluster
        type (its logical CPUs across all sockets hosting it).
        """
        if cluster is None:
            return self._machine.logical_cpus
        return self._machine.cluster_logical_cpus(cluster)

    def place(
        self,
        num_threads: int,
        policy: BindingPolicy,
        cluster: Optional[str] = None,
    ) -> ThreadPlacement:
        """Assign ``num_threads`` OpenMP threads to core places.

        * ``close``: threads fill consecutive places, so a small team
          stays on one socket (good locality, single-socket bandwidth).
        * ``spread``: threads are distributed as evenly as possible
          over all places, so even a 2-thread team spans both sockets
          (double bandwidth, cross-socket synchronization).

        ``cluster`` restricts the place list to one cluster type (the
        fourth knob: an ``OMP_PLACES`` subset naming only that
        cluster's cores); the close/spread semantics then apply within
        the restricted list.

        Teams larger than the number of places wrap around, stacking a
        second SMT thread per core.
        """
        if num_threads < 1:
            raise ValueError("num_threads must be >= 1")
        if num_threads > self.max_threads(cluster):
            where = (
                f"cluster {cluster!r}'s" if cluster is not None else "the machine's"
            )
            raise ValueError(
                f"num_threads={num_threads} exceeds {where} "
                f"{self.max_threads(cluster)} logical CPUs"
            )
        places = (
            self._places
            if cluster is None
            else self._machine.cluster_places(cluster)
        )
        count = len(places)
        assignments: List[Tuple[int, int]] = []
        if policy is BindingPolicy.CLOSE:
            for thread in range(num_threads):
                assignments.append(places[thread % count])
        else:  # SPREAD
            # libgomp partitions the place list into num_threads chunks
            # and puts one thread at the start of each chunk
            teams = min(num_threads, count)
            for slot in range(teams):
                index = (slot * count) // teams
                assignments.append(places[index])
            # a team larger than the place list stacks SMT threads; the
            # extras are spread over the places with the same rule so
            # both sockets stay balanced
            extras = num_threads - teams
            for extra in range(extras):
                index = (extra * count) // max(extras, 1)
                assignments.append(places[index])
        return ThreadPlacement(
            policy=policy, assignments=tuple(assignments), cluster=cluster
        )
