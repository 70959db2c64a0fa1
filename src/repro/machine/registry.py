"""The machine registry: named platform definitions.

Every layer that needs a platform resolves it here instead of
instantiating its own — ``--machine <name>`` on the CLI, the toolflow,
the evaluation engine and the bench scenarios all share these
definitions.

* ``xeon_2s`` — the paper's testbed (2x Xeon E5-2630 v3, 32 logical
  CPUs).  This is the default.
* ``xeon_1s`` — a single-socket cut of the same part, handy for
  experiments without NUMA effects.
* ``biglittle_4p4e`` — an asymmetric part in the spirit of Novaes et
  al.: 4 performance cores (high clock, deep DVFS table, expensive
  watts) next to 4 efficiency cores (half the clock at a quarter of
  the active power).  One package: no NUMA bandwidth penalty.
* ``biglittle_8p8e`` — the same clusters doubled (two P sockets, two E
  sockets), so thread teams can straddle a cluster-type boundary.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Union

from repro.machine.topology import Cluster, ClusterPower, Machine

#: Name every implicit machine resolution falls back to.
DEFAULT_MACHINE = "xeon_2s"

_XEON = Cluster(name="xeon")

_P_CLUSTER = Cluster(
    name="P",
    cores=4,
    threads_per_core=1,
    frequency_hz=3.2e9,
    llc_bytes=8e6,
    bandwidth_bytes_s=30e9,
    per_thread_bandwidth=10e9,
    smt_speedup=0.0,
    dvfs_states=(1.2e9, 2.0e9, 2.8e9, 3.2e9),
    power=ClusterPower(
        uncore_w=8.0,
        idle_core_w=0.9,
        active_core_w=6.5,
        smt_thread_w=0.0,
        dram_max_w=6.0,
    ),
)

_E_CLUSTER = Cluster(
    name="E",
    cores=4,
    threads_per_core=1,
    frequency_hz=1.6e9,
    llc_bytes=4e6,
    bandwidth_bytes_s=20e9,
    per_thread_bandwidth=7e9,
    smt_speedup=0.0,
    dvfs_states=(0.8e9, 1.2e9, 1.6e9),
    power=ClusterPower(
        uncore_w=4.0,
        idle_core_w=0.3,
        active_core_w=1.6,
        smt_thread_w=0.0,
        dram_max_w=4.0,
    ),
)


def _xeon_2s() -> Machine:
    return Machine((_XEON, _XEON), name="xeon_2s")


def _xeon_1s() -> Machine:
    return Machine((_XEON,), name="xeon_1s")


def _biglittle_4p4e() -> Machine:
    return Machine(
        (_P_CLUSTER, _E_CLUSTER), name="biglittle_4p4e", numa_remote_factor=1.0
    )


def _biglittle_8p8e() -> Machine:
    return Machine(
        (_P_CLUSTER, _P_CLUSTER, _E_CLUSTER, _E_CLUSTER),
        name="biglittle_8p8e",
        numa_remote_factor=1.0,
    )


_REGISTRY: Dict[str, Callable[[], Machine]] = {
    "xeon_2s": _xeon_2s,
    "xeon_1s": _xeon_1s,
    "biglittle_4p4e": _biglittle_4p4e,
    "biglittle_8p8e": _biglittle_8p8e,
}


def machine_names() -> List[str]:
    """Registered machine names, sorted."""
    return sorted(_REGISTRY)


def get_machine(name: str) -> Machine:
    """The registered machine called ``name``."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown machine {name!r} (known: {', '.join(machine_names())})"
        ) from None
    return factory()


def resolve_machine(machine: Union[str, Machine, None]) -> Machine:
    """One central resolution rule for every machine parameter.

    ``None`` means the default platform; a string is looked up in the
    registry; a :class:`Machine` passes through unchanged.
    """
    if machine is None:
        return get_machine(DEFAULT_MACHINE)
    if isinstance(machine, str):
        return get_machine(machine)
    return machine
