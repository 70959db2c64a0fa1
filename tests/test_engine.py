"""Tests for the unified evaluation engine (repro.engine).

The engine is the single compile→place→run path behind the toolflow,
the design-space explorer and the COBAYN corpus builder.  These tests
pin down its three contracts:

* **caching** — one compilation per distinct (profile, flag label),
  one parse/profile per app, exact hit/miss accounting;
* **determinism** — ``evaluate`` reproduces the historical
  hand-rolled ``run()`` loops byte for byte;
* **telemetry** — a full toolflow build emits one stage event per
  Figure 1 stage, with counter deltas that add up.
"""

from __future__ import annotations

import pytest

import repro.engine.caching as engine_caching
from repro.core.toolflow import SocratesToolflow
from repro.engine import (
    CompileCache,
    DesignPoint,
    DesignSpace,
    EvaluationEngine,
    ProfileCache,
    stage_report,
)
from repro.gcc.compiler import Compiler
from repro.gcc.flags import standard_levels
from repro.machine.executor import MachineExecutor
from repro.machine.openmp import BindingPolicy, OpenMPRuntime
from repro.machine.topology import default_machine
from repro.obs import Observability


def make_engine(seed=0x50C7, obs=None):
    return EvaluationEngine(default_machine(), seed=seed, obs=obs)


def small_space(configs=None, threads=(1, 4)):
    return DesignSpace(
        compiler_configs=list(configs or standard_levels()),
        thread_counts=list(threads),
    )


class TestCompileCache:
    def test_one_compile_per_flag_label(self, two_mm):
        engine = make_engine()
        profile = engine.profile(two_mm)
        points = small_space().points()  # 4 configs x 2 threads x 2 bindings
        engine.evaluate(profile, points, repetitions=2)
        # one cache lookup (and one compilation) per distinct label,
        # no matter how many thread/binding variants visit it
        assert engine.compile_cache.stats.misses == 4
        assert engine.compile_cache.stats.hits == 0
        assert len(engine.compile_cache) == 4
        assert len(engine.compile_cache.entries_for(profile)) == 4

    def test_second_batch_hits(self, two_mm):
        engine = make_engine()
        profile = engine.profile(two_mm)
        points = small_space().points()
        engine.evaluate(profile, points)
        misses = engine.compile_cache.stats.misses
        engine.evaluate(profile, points)
        assert engine.compile_cache.stats.misses == misses
        assert engine.compile_cache.stats.hits == 4

    def test_distinct_profiles_do_not_collide(self, two_mm, apps):
        other = next(app for app in apps if app.name != two_mm.name)
        engine = make_engine()
        config = standard_levels()[0]
        kernel_a = engine.compile(engine.profile(two_mm), config)
        kernel_b = engine.compile(engine.profile(other), config)
        assert kernel_a is not kernel_b
        assert engine.compile_cache.stats.misses == 2


class TestProfileCache:
    def test_profile_parsed_once(self, two_mm):
        engine = make_engine()
        first = engine.profile(two_mm)
        second = engine.profile(two_mm)
        assert first is second
        assert engine.profile_cache.stats.misses == 1
        assert engine.profile_cache.stats.hits == 1

    def test_features_share_the_cached_unit(self, two_mm):
        engine = make_engine()
        unit = engine.unit(two_mm)
        assert engine.unit(two_mm) is unit
        vector = engine.features(two_mm)
        assert engine.features(two_mm) is vector


class TestTruthCache:
    def test_repeat_visits_skip_the_model(self, two_mm):
        engine = make_engine()
        profile = engine.profile(two_mm)
        points = small_space().points()
        engine.evaluate(profile, points)
        counters = engine.counters
        assert counters.truth_misses == len(points)
        assert counters.truth_hits == 0
        engine.evaluate(profile, points)
        counters = engine.counters
        assert counters.truth_misses == len(points)
        assert counters.truth_hits == len(points)

    def test_cached_truths_do_not_change_noise(self, two_mm):
        """Noise draws stay per-visit even when the truth is cached."""
        cold = make_engine(seed=99)
        profile = cold.profile(two_mm)
        points = small_space().points()
        twice_cold = [
            s.times for s in cold.evaluate(profile, points, repetitions=2)
        ]
        warm = make_engine(seed=99)
        warm.evaluate(warm.profile(two_mm), points, repetitions=2)
        # second pass on the warm engine consumed the same stream span
        assert [
            s.times for s in warm.evaluate(warm.profile(two_mm), points, repetitions=2)
        ] != twice_cold

    def test_traced_truths_one_span_per_miss(self, two_mm):
        obs = Observability()
        engine = make_engine(obs=obs)
        tracer = obs.tracer
        profile = engine.profile(two_mm)
        points = small_space().points()
        engine.evaluate(profile, points)
        truths = [s for s in tracer.spans if s.name.startswith("truth:")]
        assert len(truths) == engine.counters.truth_misses == len(points)
        (run,) = tracer.find("backend.run_truths")
        (evaluate,) = tracer.find("engine.evaluate")
        assert run.parent_id == evaluate.span_id
        labels = {point.compiler.label for point in points}
        for span in truths:
            assert span.parent_id == run.span_id
            assert span.attributes["compiler"] in labels
        # a batch of cache hits computes no truth, so it records none
        before = len(tracer.spans)
        engine.evaluate(profile, points)
        added = [span.name for span in tracer.spans[before:]]
        assert added == ["engine.evaluate"]


class TestEvaluateSemantics:
    def test_invalid_repetitions_rejected(self, two_mm):
        engine = make_engine()
        profile = engine.profile(two_mm)
        with pytest.raises(ValueError, match="repetitions"):
            engine.evaluate(profile, small_space().points(), repetitions=0)

    def test_noiseless_mode_leaves_the_stream_untouched(self, two_mm):
        engine = make_engine(seed=7)
        profile = engine.profile(two_mm)
        engine.evaluate(profile, small_space().points(), noisy=False)
        witness = make_engine(seed=7)
        assert (
            engine.executor.noise_factors(1) == witness.executor.noise_factors(1)
        )

    def test_noiseless_samples_repeat_the_truth(self, two_mm):
        engine = make_engine()
        profile = engine.profile(two_mm)
        samples = engine.evaluate(
            profile, small_space().points(), repetitions=3, noisy=False
        )
        for sample in samples:
            assert sample.times == [sample.times[0]] * 3
            assert sample.powers == [sample.powers[0]] * 3

    def test_bit_identical_to_the_historical_run_loop(self, two_mm):
        """engine.evaluate == compile + place + noisy run(), per rep."""
        seed, repetitions = 0xBEEF, 3
        engine = make_engine(seed=seed)
        profile = engine.profile(two_mm)
        points = small_space(threads=(1, 2, 8)).points()
        samples = engine.evaluate(profile, points, repetitions=repetitions)

        machine = default_machine()
        compiler = Compiler()
        executor = MachineExecutor(machine, seed=seed)
        omp = OpenMPRuntime(machine)
        for sample, point in zip(samples, points):
            kernel = compiler.compile(profile, point.compiler)
            placement = omp.place(point.threads, point.binding)
            for rep in range(repetitions):
                result = executor.run(kernel, placement)
                assert sample.times[rep] == result.time_s
                assert sample.powers[rep] == result.power_w


class TestToolflowValidation:
    def test_zero_repetitions_rejected(self):
        with pytest.raises(ValueError, match="dse_repetitions"):
            SocratesToolflow(dse_repetitions=0)

    def test_zero_cobayn_k_rejected(self):
        with pytest.raises(ValueError, match="cobayn_k"):
            SocratesToolflow(cobayn_k=0)

    def test_toolflow_adopts_engine_components(self):
        """The toolflow's components are its one engine's, built for its
        machine and seeded with its seed."""
        obs = Observability()
        flow = SocratesToolflow("biglittle_4p4e", seed=11, obs=obs)
        engine = flow.engine
        assert flow.machine is engine.machine
        assert engine.machine.name == "biglittle_4p4e"
        assert flow.compiler is engine.compiler
        assert flow.executor is engine.executor
        assert flow.omp is engine.omp
        assert flow.obs is engine.obs is obs
        witness = EvaluationEngine("biglittle_4p4e", seed=11)
        assert (
            flow.executor.noise_factors(2) == witness.executor.noise_factors(2)
        )


class TestToolflowTelemetry:
    STAGES = ["characterize", "prune", "weave", "profile", "assemble"]

    def test_every_stage_emits_one_event_in_order(self, built_2mm):
        assert [event.stage for event in built_2mm.stage_events] == self.STAGES
        assert all(event.wall_time_s >= 0.0 for event in built_2mm.stage_events)

    def test_stage_accounting(self, built_2mm, toolflow):
        by_stage = {event.stage: event for event in built_2mm.stage_events}
        # leave-one-out corpus: 11 training apps x 128 configurations
        assert by_stage["prune"].points_evaluated == 11 * 128
        # full-factorial DSE: 8 configs x |thread sweep| x 2 bindings
        expected = 8 * len(toolflow._thread_counts) * 2
        assert by_stage["profile"].points_evaluated == expected
        assert by_stage["profile"].compile_misses == 8
        # assemble reuses every (config, binding) kernel from the cache
        assert by_stage["assemble"].compile_misses == 0
        assert by_stage["assemble"].compile_hits == 16
        assert by_stage["characterize"].points_evaluated == 0
        assert by_stage["weave"].points_evaluated == 0

    def test_stage_report_totals_add_up(self, built_2mm):
        report = built_2mm.stage_report()
        assert [entry["stage"] for entry in report["stages"]] == self.STAGES
        for counter in (
            "compile_hits",
            "compile_misses",
            "points_evaluated",
            "truth_misses",
        ):
            assert report["totals"][counter] == sum(
                entry[counter] for entry in report["stages"]
            )

    def test_engine_stats_shape(self, toolflow, built_2mm):
        stats = toolflow.engine.stats()
        for section in ("compile_cache", "profile_cache", "truth_cache"):
            assert "hits" in stats[section] and "misses" in stats[section]
        assert stats["points_evaluated"] > 0


class TestProfileRunsOncePerBuild:
    def test_full_build_profiles_each_app_exactly_once(self, two_mm, monkeypatch):
        """Regression: the pre-engine toolflow profiled the target app
        twice (once in _profile, once in _assemble)."""
        calls = []
        original = engine_caching.profile_kernel

        def counting(app, kernel=None, size_overrides=None, unit=None):
            calls.append(app.name)
            return original(
                app, kernel=kernel, size_overrides=size_overrides, unit=unit
            )

        monkeypatch.setattr(engine_caching, "profile_kernel", counting)
        flow = SocratesToolflow(dse_repetitions=1, thread_counts=[1, 2])
        result = flow.build(two_mm)
        assert calls.count(two_mm.name) == 1
        # every training app profiled exactly once as well
        assert sorted(set(calls)) == sorted(calls)
        # one compilation per distinct (profile, CF) pair for the target
        profile = flow.engine.profile(two_mm)
        assert len(flow.engine.compile_cache.entries_for(profile)) == len(
            result.compiler_configs
        )


class TestEngineExports:
    def test_explorer_reexports_the_engine_model(self):
        from repro.dse import explorer
        from repro.engine import model

        assert explorer.DesignPoint is model.DesignPoint
        assert explorer.DesignSpace is model.DesignSpace
        assert explorer.ProfiledSample is model.ProfiledSample

    def test_caches_are_importable_from_the_package_root(self):
        assert CompileCache is engine_caching.CompileCache
        assert ProfileCache is engine_caching.ProfileCache

    def test_design_point_is_hashable(self):
        config = standard_levels()[0]
        point = DesignPoint(compiler=config, threads=2, binding=BindingPolicy.CLOSE)
        assert point == DesignPoint(
            compiler=config, threads=2, binding=BindingPolicy.CLOSE
        )
        assert len({point, point}) == 1

    def test_stage_report_empty(self):
        report = stage_report([])
        assert report["stages"] == []
        assert report["totals"]["points_evaluated"] == 0
