"""Design-time application knowledge: the operating-point list.

An *operating point* (OP) relates one software-knob configuration to
the expected distribution (mean, standard deviation) of every profiled
extra-functional property.  The knowledge base is built by the DSE
(:mod:`repro.dse`) and consumed by the AS-RTM.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

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


class _KnobColumn:
    """One knob by row: a code per row into the knob's distinct values.

    Equal values share one code, so a column holds no per-row object.
    """

    __slots__ = ("values", "codes", "rows")

    def __init__(self) -> None:
        self.values: List[object] = []
        self.codes: Dict[object, int] = {}
        self.rows = array("q")

    def code(self, value: object) -> int:
        """The code of ``value``, assigning the next one if it is new."""
        code = self.codes.get(value)
        if code is None:
            code = self.codes[value] = len(self.values)
            self.values.append(value)
        return code


class KnowledgeBase:
    """The list of operating points known at design time.

    Stored by column: one :class:`_KnobColumn` per knob and one float64
    mean column and one std column per metric, with no per-point object
    kept.  :meth:`points`, iteration and :meth:`find` build
    :class:`OperatingPoint` objects on demand, with the knobs and metrics
    in the order the first point gave them.

    Enforces schema consistency: every OP must define the same knob
    and metric names, and knob configurations must be unique.
    """

    def __init__(self, points: Optional[Iterable[OperatingPoint]] = None) -> None:
        self._knob_names: Optional[Tuple[str, ...]] = None
        self._metric_names: Optional[Tuple[str, ...]] = None
        self._knobs: Dict[str, _KnobColumn] = {}
        # metric -> (mean column, std column)
        self._metrics: Dict[str, Tuple[array, array]] = {}
        self._size = 0
        for point in points or ():
            self.add(point)

    @classmethod
    def from_columns(
        cls,
        knobs: Mapping[str, Sequence[object]],
        metrics: Mapping[str, Tuple[np.ndarray, np.ndarray]],
    ) -> "KnowledgeBase":
        """A knowledge base from whole columns: ``knobs`` maps each knob to
        its value per point, ``metrics`` each metric to its (mean, std)
        arrays.  Rejects ragged columns and duplicate knob configurations."""
        sizes = {len(values) for values in knobs.values()}
        sizes.update(len(column) for pair in metrics.values() for column in pair)
        if len(sizes) > 1:
            raise ValueError(f"columns of different lengths: {sorted(sizes)}")
        knowledge = cls()
        size = sizes.pop() if sizes else 0
        if not size:
            return knowledge
        knowledge._set_schema(knobs, metrics)
        for name, values in knobs.items():
            column = knowledge._knobs[name]
            column.rows.extend(map(column.code, values))
        columns = [column.rows for column in knowledge._knobs.values()]
        if len(set(zip(*columns)) if columns else {()}) != size:
            raise ValueError("duplicate operating point in knob columns")
        for name, pair in metrics.items():
            for target, values in zip(knowledge._metrics[name], pair):
                target.frombytes(np.ascontiguousarray(values, dtype=np.float64).tobytes())
        knowledge._size = size
        return knowledge

    def _set_schema(self, knobs: Iterable[str], metrics: Iterable[str]) -> None:
        self._knobs = {name: _KnobColumn() for name in knobs}
        self._metrics = {name: (array("d"), array("d")) for name in metrics}
        self._knob_names = tuple(sorted(self._knobs))
        self._metric_names = tuple(sorted(self._metrics))

    def add(self, point: OperatingPoint) -> None:
        """Insert one operating point, validating the schema."""
        knob_names = tuple(sorted(point.knobs))
        metric_names = tuple(sorted(point.metrics))
        if self._knob_names is None:
            self._set_schema(point.knobs, point.metrics)
        else:
            if knob_names != self._knob_names:
                raise ValueError(
                    f"inconsistent knob schema: {knob_names} vs {self._knob_names}"
                )
            if metric_names != self._metric_names:
                raise ValueError(
                    f"inconsistent metric schema: {metric_names} vs {self._metric_names}"
                )
        stats = [
            (float(point.metrics[name].mean), float(point.metrics[name].std))
            for name in self._metrics
        ]
        codes = {
            name: column.code(point.knobs[name]) for name, column in self._knobs.items()
        }
        if self._row(codes) is not None:
            raise ValueError(f"duplicate operating point for knobs {dict(point.knobs)}")
        for name, code in codes.items():
            self._knobs[name].rows.append(code)
        for (means, stds), (mean, std) in zip(self._metrics.values(), stats):
            means.append(mean)
            stds.append(std)
        self._size += 1

    def _row(self, codes: Mapping[str, int]) -> Optional[int]:
        """The first row whose knobs have these codes, if any."""
        match = np.ones(self._size, dtype=bool)
        for name, code in codes.items():
            match &= np.frombuffer(self._knobs[name].rows, dtype=np.int64) == code
        rows = np.flatnonzero(match)
        return int(rows[0]) if len(rows) else None

    def _point(self, row: int) -> OperatingPoint:
        return OperatingPoint(
            knobs={
                name: column.values[column.rows[row]]
                for name, column in self._knobs.items()
            },
            metrics={
                name: MetricStats(means[row], stds[row])
                for name, (means, stds) in self._metrics.items()
            },
        )

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[OperatingPoint]:
        return map(self._point, range(self._size))

    def __bool__(self) -> bool:
        return self._size > 0

    @property
    def knob_names(self) -> Tuple[str, ...]:
        return self._knob_names or ()

    @property
    def metric_names(self) -> Tuple[str, ...]:
        return self._metric_names or ()

    def points(self) -> List[OperatingPoint]:
        return list(self)

    def find(self, **knobs: object) -> OperatingPoint:
        """The unique OP with exactly these knob values.

        Raises ``KeyError`` when absent.
        """
        if self._size and tuple(sorted(knobs)) == self._knob_names:
            codes = {
                name: self._knobs[name].codes.get(value) for name, value in knobs.items()
            }
            row = None if None in codes.values() else self._row(codes)
            if row is not None:
                return self._point(row)
        raise KeyError(f"no operating point with knobs {knobs}")

    def metric_bounds(self, metric: str) -> Tuple[float, float]:
        """(min, max) of a metric's mean over all OPs."""
        if not self._size:
            raise ValueError("empty knowledge base")
        means, _ = self._metrics[metric]
        return min(means), max(means)


def make_operating_point(
    knobs: Mapping[str, object], metrics: Mapping[str, Tuple[float, float]]
) -> OperatingPoint:
    """Convenience constructor from ``{metric: (mean, std)}`` pairs."""
    return OperatingPoint(
        knobs=dict(knobs),
        metrics={name: MetricStats(mean=m, std=s) for name, (m, s) in metrics.items()},
    )
