"""The application-facing mARGOt facade.

This mirrors the generated ``margot.h`` interface that the LARA
Autotuner strategy weaves into the application:

.. code-block:: c

   margot::init();
   while (work) {
     margot::kernel::update(&cf, &nt, &bind);   /* pick configuration  */
     margot::kernel::start_monitor();
     kernel_wrapper(cf, nt, bind, ...);
     margot::kernel::stop_monitor();
     margot::kernel::log();
   }

Here the same sequence is exposed to Python callers (and to the
simulated adaptive application in :mod:`repro.core`).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Dict, Mapping, Optional

from repro.margot.asrtm import ApplicationRuntimeManager
from repro.margot.knowledge import KnowledgeBase, OperatingPoint
from repro.margot.monitor import Monitor, PowerMonitor, ThroughputMonitor, TimeMonitor
from repro.obs import NULL_OBS, Observability


@dataclass
class LogRecord:
    """One row of mARGOt's log() output."""

    timestamp: float
    knobs: Mapping[str, object]
    observations: Mapping[str, float]
    state: str


class MargotManager:
    """Per-kernel manager bundling the AS-RTM and its monitors."""

    def __init__(
        self,
        kernel_name: str,
        knowledge: KnowledgeBase,
        obs: Optional[Observability] = None,
    ) -> None:
        self.kernel_name = kernel_name
        self._obs = obs if obs is not None else NULL_OBS
        self._asrtm = ApplicationRuntimeManager(knowledge, audit=self._obs.audit)
        self._time_monitor = TimeMonitor()
        self._throughput_monitor = ThroughputMonitor()
        self._power_monitor = PowerMonitor()
        self._asrtm.attach_monitor("time", self._time_monitor)
        self._asrtm.attach_monitor("throughput", self._throughput_monitor)
        self._asrtm.attach_monitor("power", self._power_monitor)
        self._region_open = False

    # -- the four weaved calls -----------------------------------------------

    def update(self, now: Optional[float] = None) -> OperatingPoint:
        """Select the configuration for the next region execution.

        ``now`` (virtual time) only stamps adaptation-audit entries."""
        return self._asrtm.update(now=now)

    def start_monitor(self, now: float) -> None:
        if self._region_open:
            raise RuntimeError("region started twice")
        self._region_open = True
        self._time_monitor.start(now)
        self._throughput_monitor.start(now)

    def stop_monitor(self, now: float, power_w: Optional[float] = None) -> None:
        if not self._region_open:
            raise RuntimeError("region stopped before start")
        self._region_open = False
        self._time_monitor.stop(now)
        self._throughput_monitor.stop(now)
        if power_w is not None:
            self._power_monitor.push(power_w)

    def log(self, now: float) -> LogRecord:
        """The current observations as one log row (returned, not kept)."""
        current = self._asrtm.current
        observations: Dict[str, float] = {}
        for name, monitor in (
            ("time", self._time_monitor),
            ("throughput", self._throughput_monitor),
            ("power", self._power_monitor),
        ):
            if not monitor.empty:
                observations[name] = monitor.last()
        return LogRecord(
            timestamp=now,
            knobs=dict(current.knobs) if current is not None else {},
            observations=observations,
            state=self._asrtm.active_state.name,
        )

    # -- passthroughs -----------------------------------------------------------

    @property
    def obs(self) -> Observability:
        return self._obs

    @property
    def asrtm(self) -> ApplicationRuntimeManager:
        return self._asrtm

    @property
    def monitors(self) -> Dict[str, Monitor]:
        return {
            "time": self._time_monitor,
            "throughput": self._throughput_monitor,
            "power": self._power_monitor,
        }
