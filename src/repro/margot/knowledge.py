"""Design-time application knowledge: the operating-point list.

An *operating point* (OP) relates one software-knob configuration to
the expected distribution (mean, standard deviation) of every profiled
extra-functional property.  The knowledge base is built by the DSE
(:mod:`repro.dse`) and consumed by the AS-RTM.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.compat import slotted_dataclass


@slotted_dataclass(frozen=True)
class MetricStats:
    """Profiled distribution of one metric at one operating point."""

    mean: float
    std: float = 0.0

    def upper(self, confidence: float) -> float:
        """Mean plus ``confidence`` standard deviations."""
        return self.mean + confidence * self.std

    def lower(self, confidence: float) -> float:
        return self.mean - confidence * self.std


@slotted_dataclass(frozen=True)
class OperatingPoint:
    """One knob configuration with its expected metric distributions.

    ``knobs`` maps knob names to values (hashable: strings/numbers);
    ``metrics`` maps metric names to :class:`MetricStats`.
    """

    knobs: Mapping[str, object]
    metrics: Mapping[str, MetricStats]

    def knob(self, name: str) -> object:
        return self.knobs[name]

    def metric(self, name: str) -> MetricStats:
        return self.metrics[name]

    @property
    def key(self) -> Tuple[Tuple[str, object], ...]:
        """Hashable identity of the knob configuration."""
        return tuple(sorted(self.knobs.items(), key=lambda item: item[0]))


class KnowledgeBase:
    """The list of operating points known at design time.

    Enforces schema consistency: every OP must define the same knob
    and metric names, and knob configurations must be unique.
    """

    def __init__(self, points: Optional[Iterable[OperatingPoint]] = None) -> None:
        self._points: List[OperatingPoint] = []
        self._knob_names: Optional[Tuple[str, ...]] = None
        self._metric_names: Optional[Tuple[str, ...]] = None
        # knob values in ``_knob_names`` order -> the point with them
        self._seen: Dict[Tuple[object, ...], OperatingPoint] = {}
        for point in points or ():
            self.add(point)

    def add(self, point: OperatingPoint) -> None:
        """Insert one operating point, validating the schema."""
        knob_names = tuple(sorted(point.knobs))
        metric_names = tuple(sorted(point.metrics))
        if self._knob_names is None:
            self._knob_names = knob_names
            self._metric_names = metric_names
        else:
            if knob_names != self._knob_names:
                raise ValueError(
                    f"inconsistent knob schema: {knob_names} vs {self._knob_names}"
                )
            if metric_names != self._metric_names:
                raise ValueError(
                    f"inconsistent metric schema: {metric_names} vs {self._metric_names}"
                )
        key = tuple(point.knobs[name] for name in knob_names)
        if key in self._seen:
            raise ValueError(f"duplicate operating point for knobs {dict(point.knobs)}")
        self._seen[key] = point
        self._points.append(point)

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self) -> Iterator[OperatingPoint]:
        return iter(self._points)

    def __bool__(self) -> bool:
        return bool(self._points)

    @property
    def knob_names(self) -> Tuple[str, ...]:
        return self._knob_names or ()

    @property
    def metric_names(self) -> Tuple[str, ...]:
        return self._metric_names or ()

    def points(self) -> List[OperatingPoint]:
        return list(self._points)

    def find(self, **knobs: object) -> OperatingPoint:
        """The unique OP with exactly these knob values.

        Raises ``KeyError`` when absent.
        """
        if tuple(sorted(knobs)) == self._knob_names:
            point = self._seen.get(tuple(knobs[name] for name in self._knob_names))
            if point is not None:
                return point
        raise KeyError(f"no operating point with knobs {knobs}")

    def metric_bounds(self, metric: str) -> Tuple[float, float]:
        """(min, max) of a metric's mean over all OPs."""
        values = [point.metric(metric).mean for point in self._points]
        if not values:
            raise ValueError("empty knowledge base")
        return min(values), max(values)


def make_operating_point(
    knobs: Mapping[str, object], metrics: Mapping[str, Tuple[float, float]]
) -> OperatingPoint:
    """Convenience constructor from ``{metric: (mean, std)}`` pairs."""
    return OperatingPoint(
        knobs=dict(knobs),
        metrics={name: MetricStats(mean=m, std=s) for name, (m, s) in metrics.items()},
    )
