"""Tests for design-space exploration and Pareto filtering."""

import gc
import json
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from repro.dse.explorer import (
    DesignPoint,
    DesignSpace,
    DesignSpaceExplorer,
)
from repro.dse.pareto import pareto_filter, pareto_front
from repro.dse.strategies import (
    FullFactorialStrategy,
    LatinHypercubeStrategy,
    RandomStrategy,
)
from repro.engine.core import EvaluationEngine
from repro.gcc.flags import FlagConfiguration, OptLevel, paper_custom_flags, standard_levels
from repro.machine.openmp import BindingPolicy
from repro.margot.knowledge import KnowledgeBase, MetricStats, OperatingPoint
from repro.polybench.suite import BENCHMARK_NAMES, load
from repro.polybench.workload import profile_kernel

SEEDED_FRONTS = Path(__file__).parent / "data" / "dse_fronts.json"


@pytest.fixture(scope="module")
def small_space():
    return DesignSpace(
        compiler_configs=standard_levels(),
        thread_counts=[1, 4, 16],
    )


@pytest.fixture(scope="module")
def exploration(small_space):
    explorer = DesignSpaceExplorer(EvaluationEngine(), repetitions=4)
    return explorer.explore(profile_kernel(load("2mm")), small_space)


def simple_op(threads, time, power):
    return OperatingPoint(
        knobs={"threads": threads},
        metrics={
            "time": MetricStats(time),
            "power": MetricStats(power),
            "throughput": MetricStats(1.0 / time),
        },
    )


class TestDesignSpace:
    def test_size(self, small_space):
        assert small_space.size == 4 * 3 * 2

    def test_points_enumerated(self, small_space):
        points = small_space.points()
        assert len(points) == small_space.size
        assert len(set(points)) == small_space.size

    def test_point_fields(self, small_space):
        point = small_space.points()[0]
        assert isinstance(point, DesignPoint)
        assert point.binding in BindingPolicy


class TestStrategies:
    def test_full_factorial_selects_all(self, small_space):
        rng = np.random.default_rng(0)
        selected = FullFactorialStrategy().select(small_space.points(), rng)
        assert len(selected) == small_space.size

    def test_random_fraction(self, small_space):
        rng = np.random.default_rng(0)
        selected = RandomStrategy(fraction=0.5, minimum=1).select(
            small_space.points(), rng
        )
        assert len(selected) == small_space.size // 2
        assert len(set(selected)) == len(selected)

    def test_random_minimum_enforced(self, small_space):
        rng = np.random.default_rng(0)
        selected = RandomStrategy(fraction=0.01, minimum=5).select(
            small_space.points(), rng
        )
        assert len(selected) == 5

    def test_random_invalid_fraction(self):
        with pytest.raises(ValueError):
            RandomStrategy(fraction=0.0)

    def test_lhs_covers_strata(self, small_space):
        rng = np.random.default_rng(0)
        points = small_space.points()
        selected = LatinHypercubeStrategy(samples=6).select(points, rng)
        assert len(selected) == 6
        # one point per sixth of the (ordered) space
        indices = sorted(points.index(point) for point in selected)
        for stratum, index in enumerate(indices):
            assert stratum * 4 <= index < (stratum + 1) * 4

    def test_lhs_more_samples_than_points(self, small_space):
        rng = np.random.default_rng(0)
        selected = LatinHypercubeStrategy(samples=999).select(
            small_space.points(), rng
        )
        assert len(selected) == small_space.size


class TestExplorer:
    def test_knowledge_has_all_points(self, exploration, small_space):
        assert len(exploration.knowledge) == small_space.size
        assert exploration.coverage == 1.0

    def test_operating_point_schema(self, exploration):
        assert set(exploration.knowledge.knob_names) == {
            "compiler",
            "threads",
            "binding",
        }
        assert set(exploration.knowledge.metric_names) == {
            "time",
            "throughput",
            "power",
            "energy",
        }

    def test_repetitions_produce_std(self, exploration):
        stds = [point.metric("time").std for point in exploration.knowledge]
        assert any(std > 0 for std in stds)

    def test_samples_recorded(self, small_space, monkeypatch):
        """Every point is profiled with all repetitions, and the
        knowledge base records each sample's statistics."""
        engine = EvaluationEngine()
        explorer = DesignSpaceExplorer(engine, repetitions=4)
        evaluate = engine.evaluate
        recorded = []

        def spy(*args, **kwargs):
            samples = evaluate(*args, **kwargs)
            recorded.extend(samples)
            return samples

        monkeypatch.setattr(engine, "evaluate", spy)
        exploration = explorer.explore(profile_kernel(load("2mm")), small_space)
        assert len(recorded) == small_space.size
        assert all(len(sample.times) == 4 for sample in recorded)
        assert len(exploration.knowledge) == small_space.size
        for sample in recorded:
            point = exploration.knowledge.find(
                compiler=sample.point.compiler.label,
                threads=sample.point.threads,
                binding=sample.point.binding.value,
            )
            assert point.metric("time").mean == np.mean(sample.times)
            assert point.metric("time").std == np.std(sample.times, ddof=1)

    def test_throughput_consistent_with_time(self, exploration):
        for point in exploration.knowledge:
            time = point.metric("time").mean
            throughput = point.metric("throughput").mean
            assert throughput == pytest.approx(1.0 / time, rel=0.05)

    def test_more_threads_more_power(self, exploration):
        one = exploration.knowledge.find(compiler="-O2", threads=1, binding="close")
        sixteen = exploration.knowledge.find(
            compiler="-O2", threads=16, binding="close"
        )
        assert sixteen.metric("power").mean > one.metric("power").mean

    def test_invalid_repetitions(self):
        with pytest.raises(ValueError):
            DesignSpaceExplorer(EvaluationEngine(), repetitions=0)

    def test_seeded_exploration_reproducible(self, small_space):
        profile = profile_kernel(load("2mm"))
        results = []
        for _ in range(2):
            explorer = DesignSpaceExplorer(EvaluationEngine(seed=77), repetitions=2)
            outcome = explorer.explore(profile, small_space, seed=5)
            results.append(
                [point.metric("time").mean for point in outcome.knowledge]
            )
        assert results[0] == results[1]


class TestPareto:
    def test_dominated_point_removed(self):
        points = [
            simple_op(1, time=1.0, power=50.0),
            simple_op(2, time=0.9, power=45.0),  # dominates the first
        ]
        front = pareto_filter(points, [("time", False), ("power", False)])
        assert len(front) == 1
        assert front[0].knob("threads") == 2

    def test_incomparable_points_kept(self):
        points = [
            simple_op(1, time=1.0, power=40.0),
            simple_op(2, time=0.5, power=90.0),
        ]
        front = pareto_filter(points, [("time", False), ("power", False)])
        assert len(front) == 2

    def test_duplicate_points_both_kept(self):
        points = [
            simple_op(1, time=1.0, power=50.0),
            simple_op(2, time=1.0, power=50.0),
        ]
        front = pareto_filter(points, [("time", False), ("power", False)])
        assert len(front) == 2  # neither strictly dominates

    def test_maximize_orientation(self):
        points = [
            simple_op(1, time=1.0, power=50.0),  # throughput 1.0
            simple_op(2, time=2.0, power=50.0),  # throughput 0.5, same power
        ]
        front = pareto_filter(points, [("throughput", True), ("power", False)])
        assert [p.knob("threads") for p in front] == [1]

    def test_pareto_front_builds_knowledge_base(self, exploration):
        front = pareto_front(
            exploration.knowledge, [("throughput", True), ("power", False)]
        )
        assert isinstance(front, KnowledgeBase)
        assert 0 < len(front) <= len(exploration.knowledge)

    def test_front_members_not_dominated(self, exploration):
        objectives = [("throughput", True), ("power", False)]
        front = pareto_front(exploration.knowledge, objectives)
        all_points = exploration.knowledge.points()
        for member in front:
            for other in all_points:
                better_thr = other.metric("throughput").mean > member.metric(
                    "throughput"
                ).mean
                better_pow = other.metric("power").mean < member.metric("power").mean
                not_worse_thr = other.metric("throughput").mean >= member.metric(
                    "throughput"
                ).mean
                not_worse_pow = other.metric("power").mean <= member.metric("power").mean
                assert not (
                    not_worse_thr and not_worse_pow and (better_thr or better_pow)
                )


class TestSeededFronts:
    """The seeded full-factorial DSE (seed 0xD5E, 3 repetitions) of the
    standard 256-point xeon lattice yields the recorded Pareto front of
    every registry app: same knobs, bit-identical metric mean and std."""

    @staticmethod
    def _front(name):
        engine = EvaluationEngine()
        explorer = DesignSpaceExplorer(engine, repetitions=3)
        space = DesignSpace(
            compiler_configs=standard_levels(),
            thread_counts=list(range(1, engine.machine.logical_cpus + 1)),
        )
        assert space.size == 256
        result = explorer.explore(engine.profile(load(name)), space, seed=0xD5E)
        front = pareto_front(result.knowledge, [("throughput", True), ("power", False)])
        return [
            {
                "knobs": dict(op.knobs),
                "metrics": {m: [s.mean, s.std] for m, s in op.metrics.items()},
            }
            for op in front
        ]

    def test_registry_is_pinned(self):
        assert sorted(json.loads(SEEDED_FRONTS.read_text())) == sorted(BENCHMARK_NAMES)

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_matches_recorded_front(self, name):
        expected = json.loads(SEEDED_FRONTS.read_text())[name]
        assert self._front(name) == expected


class TestKnowledgeMemory:
    """The knowledge base keeps columns, not one object per point."""

    def test_seeded_2mm_knowledge_retains_under_100kb(self):
        engine = EvaluationEngine()
        explorer = DesignSpaceExplorer(engine, repetitions=5)
        space = DesignSpace(
            compiler_configs=standard_levels() + paper_custom_flags(),
            thread_counts=list(range(1, engine.machine.logical_cpus + 1)),
        )
        profile = engine.profile(load("2mm"))
        tracemalloc.start()
        try:
            result = explorer.explore(profile, space, seed=0xD5E)
            assert len(result.knowledge) == space.size == 512
            gc.collect()
            with_knowledge = tracemalloc.get_traced_memory()[0]
            alive = weakref.ref(result.knowledge)
            result.knowledge = None
            gc.collect()
            assert alive() is None  # the measurement below freed it all
            retained = with_knowledge - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < 100_000, f"knowledge base retains {retained} bytes"
