"""Small-unit coverage: value objects, helpers and properties that the
bigger suites exercise only indirectly."""

import numpy as np
import pytest

from repro.cir import Type, parse
from repro.gcc.compiler import Compiler
from repro.gcc.flags import Flag, FlagConfiguration, OptLevel
from repro.machine.executor import ExecutionResult
from repro.machine.topology import Cluster, Machine, default_machine
from repro.polybench.apps.base import init_matrix, init_vector, scaled
from repro.polybench.suite import load
from repro.polybench.workload import profile_kernel


class TestTypeObject:
    def test_plain(self):
        assert str(Type(name="int")) == "int"

    def test_qualified_pointer(self):
        text = str(Type(name="double", pointers=1, qualifiers=("static",)))
        assert text == "static double *"

    def test_double_pointer(self):
        assert str(Type(name="char", pointers=2)).endswith("**")

    def test_is_floating(self):
        assert Type(name="double").is_floating
        assert Type(name="long double").is_floating
        assert not Type(name="unsigned long").is_floating

    def test_is_void(self):
        assert Type(name="void").is_void
        assert not Type(name="void", pointers=1).is_void


class TestFlagEnums:
    def test_gcc_names(self):
        assert OptLevel.O3.gcc_name == "-O3"
        assert Flag.NO_IVOPTS.gcc_name == "-fno-ivopts"

    def test_pragma_name_strips_f(self):
        assert Flag.UNROLL_ALL_LOOPS.pragma_name == "unroll-all-loops"

    def test_str_is_label(self):
        config = FlagConfiguration(OptLevel.O2, frozenset({Flag.NO_IVOPTS}))
        assert str(config) == config.label


class TestCompiledKernelProperties:
    def test_label_and_memory_share(self):
        compiled = Compiler().compile(
            profile_kernel(load("atax")), FlagConfiguration(OptLevel.O2)
        )
        assert compiled.label == "-O2"
        assert 0.0 <= compiled.memory_bound_share <= 1.0


class TestExecutionResultProperties:
    def test_zero_division_guarded_by_construction(self):
        result = ExecutionResult(time_s=2.0, power_w=50.0, energy_j=100.0)
        assert result.throughput == 0.5
        assert result.throughput_per_watt_sq == pytest.approx(0.5 / 2500.0)


class TestMachineObject:
    def test_custom_geometry(self):
        machine = Machine((Cluster(cores=4, threads_per_core=1),))
        assert machine.physical_cores == 4
        assert machine.logical_cpus == 4
        assert len(machine.core_places()) == 4

    def test_cpu_place_ids_unique_per_core(self):
        machine = default_machine()
        ids = {cpu.place_id for cpu in machine.cpus()}
        assert len(ids) == machine.physical_cores


class TestPolybenchHelpers:
    def test_scaled_respects_minimums(self):
        sizes = scaled({"N": 1000, "TSTEPS": 500}, 0.0001)
        assert sizes["N"] == 4
        assert sizes["TSTEPS"] == 2

    def test_scaled_identity_at_one(self):
        assert scaled({"N": 100}, 1.0) == {"N": 100}

    def test_init_matrix_deterministic_per_seed(self):
        a = init_matrix(np.random.default_rng(1), 5, 6)
        b = init_matrix(np.random.default_rng(1), 5, 6)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (5, 6)

    def test_init_vector_range(self):
        v = init_vector(np.random.default_rng(2), 100)
        assert v.shape == (100,)
        assert np.all(v >= 0.0) and np.all(v < 1.2)

    def test_app_parse_returns_fresh_units(self):
        app = load("mvt")
        unit1, unit2 = app.parse(), app.parse()
        assert unit1 is not unit2
        unit1.decls.clear()
        assert unit2.decls  # independent


class TestWorkloadProperties:
    @pytest.fixture(scope="class")
    def profile(self):
        return profile_kernel(load("syrk"))

    def test_density_properties_bounded(self, profile):
        assert 0.0 <= profile.branch_density <= 1.0
        assert 0.0 <= profile.call_density <= 1.0
        assert profile.div_density >= 0.0
        assert profile.math_call_density >= 0.0

    def test_total_ops_composition(self, profile):
        assert profile.total_ops == pytest.approx(
            profile.flops + profile.int_ops + profile.loads + profile.stores
        )

    def test_naive_bytes_eight_per_access(self, profile):
        assert profile.naive_bytes == pytest.approx(
            8.0 * (profile.loads + profile.stores)
        )


class TestWeaverMiscellany:
    def test_weave_error_formatting(self):
        from repro.lara.weaver import WeaveError, Weaver

        weaver = Weaver(parse("void f(void) { }"))
        with pytest.raises(WeaveError, match="no function"):
            weaver.select_function("ghost")

    def test_metrics_start_at_zero(self):
        from repro.lara.weaver import Weaver

        weaver = Weaver(parse("void f(void) { }"))
        assert weaver.metrics.attributes_checked == 0
        assert weaver.metrics.actions_performed == 0

    def test_version_spec_description(self):
        from repro.lara.strategies.multiversioning import VersionSpec
        from repro.machine.openmp import BindingPolicy

        spec = VersionSpec(FlagConfiguration(OptLevel.O2), BindingPolicy.SPREAD)
        assert "-O2" in spec.description and "spread" in spec.description
        assert spec.suffix == "O2_spread"


class TestKnowledgeMisc:
    def test_operating_point_key_order_insensitive(self):
        from repro.margot.knowledge import MetricStats, OperatingPoint

        a = OperatingPoint(knobs={"x": 1, "y": 2}, metrics={"m": MetricStats(1.0)})
        b = OperatingPoint(knobs={"y": 2, "x": 1}, metrics={"m": MetricStats(1.0)})
        assert a.key == b.key

    def test_exploration_result_coverage(self):
        from repro.dse.explorer import ExplorationResult
        from repro.margot.knowledge import KnowledgeBase

        result = ExplorationResult(
            kernel="k",
            knowledge=KnowledgeBase(),
            explored_points=32,
            space_size=128,
        )
        assert result.coverage == 0.25
