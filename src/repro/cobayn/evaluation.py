"""Leave-one-out evaluation of COBAYN's prediction quality.

The COBAYN paper evaluates by leave-one-out cross-validation: train on
all applications but one, predict flag combinations for the held-out
one, and measure where the predictions land in the *true* ranking of
all 128 combinations (obtained by exhaustively evaluating the space).
This module provides that protocol as a library API, used by the
pruning ablation and by quality-tracking tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.cobayn.autotuner import CobaynAutotuner
from repro.cobayn.corpus import build_corpus, reference_points
from repro.engine.core import EvaluationEngine
from repro.gcc.flags import FlagConfiguration, OptLevel, cobayn_space
from repro.polybench.apps.base import BenchmarkApp


@dataclass(frozen=True)
class LoocvEntry:
    """Prediction quality for one held-out application."""

    app: str
    predicted_ranks: List[int]  # true rank of each predicted combo (0 = best)
    speedup_vs_o3: float  # best predicted combo vs plain -O3

    @property
    def best_rank(self) -> int:
        return min(self.predicted_ranks)

    @property
    def mean_rank(self) -> float:
        return sum(self.predicted_ranks) / len(self.predicted_ranks)


@dataclass(frozen=True)
class LoocvReport:
    """The full leave-one-out sweep."""

    entries: List[LoocvEntry]
    k: int
    space_size: int

    @property
    def mean_best_rank(self) -> float:
        return sum(entry.best_rank for entry in self.entries) / len(self.entries)

    @property
    def worst_best_rank(self) -> int:
        return max(entry.best_rank for entry in self.entries)

    @property
    def mean_rank(self) -> float:
        return sum(entry.mean_rank for entry in self.entries) / len(self.entries)

    def random_baseline_mean_rank(self) -> float:
        """Expected mean rank of a uniform random k-subset."""
        return (self.space_size - 1) / 2.0

    def to_table(self) -> str:
        lines = [
            f"{'app':14s} {'pred ranks (of ' + str(self.space_size) + ')':28s} "
            f"{'best':>5s} {'speedup vs -O3':>15s}"
        ]
        for entry in self.entries:
            ranks = ",".join(f"{rank:3d}" for rank in sorted(entry.predicted_ranks))
            lines.append(
                f"{entry.app:14s} {ranks:28s} {entry.best_rank:5d} "
                f"{entry.speedup_vs_o3:15.2f}"
            )
        lines.append(
            f"{'mean':14s} {'':28s} {self.mean_best_rank:5.1f} "
            f"(random k-subset mean rank: {self.random_baseline_mean_rank():.0f})"
        )
        return "\n".join(lines)


def loocv_report(
    apps: Sequence[BenchmarkApp],
    engine: EvaluationEngine,
    k: int = 4,
    tuner_factory=CobaynAutotuner,
) -> LoocvReport:
    """Run the leave-one-out protocol over ``apps``, measuring through
    ``engine`` at the same reference operating point as the corpus."""
    if len(apps) < 3:
        raise ValueError("leave-one-out needs at least three applications")
    if len({app.name for app in apps}) < len(apps):
        raise ValueError("leave-one-out applications must be distinct")
    space = cobayn_space()
    points = reference_points(space, engine.machine.logical_cpus)
    entries: List[LoocvEntry] = []
    for target in apps:
        training = [app for app in apps if app.name != target.name]
        corpus = build_corpus(training, engine)
        tuner = tuner_factory()
        tuner.train(corpus)
        predicted = tuner.predict_top(engine.features(target), k)

        samples = engine.evaluate(
            engine.profile(target), points, repetitions=1, noisy=False
        )
        timings = {
            config: sample.times[0] for config, sample in zip(space, samples)
        }
        truth = sorted(space, key=lambda config: timings[config])
        rank_of = {config: rank for rank, config in enumerate(truth)}
        o3_time = timings[FlagConfiguration(OptLevel.O3)]
        best_predicted_time = min(timings[config] for config in predicted)
        entries.append(
            LoocvEntry(
                app=target.name,
                predicted_ranks=[rank_of[config] for config in predicted],
                speedup_vs_o3=o3_time / best_predicted_time,
            )
        )
    return LoocvReport(entries=entries, k=k, space_size=len(space))
