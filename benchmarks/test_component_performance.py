"""Component performance benchmarks (tooling speed, not paper results).

These time the reproduction's own hot paths with pytest-benchmark's
statistical repetition: the C frontend, the weaver, the analytical
compiler + machine model, the AS-RTM decision, and Bayesian-network
inference.  They guard against performance regressions that would make
the experiment harnesses (full-factorial DSE = tens of thousands of
model evaluations) impractically slow.

Every benchmarked callable is wrapped in a
:class:`repro.bench.SpanTimer` span, so these tier-2 numbers and the
``socrates bench`` scenario baselines come from the same measurement
code path (the obs tracer) rather than ad-hoc ``time.perf_counter()``
pairs; each test cross-checks that the span record saw every
pytest-benchmark round.
"""

from __future__ import annotations

import pytest

from repro.bench import SpanTimer
from repro.cir import parse, to_source
from repro.gcc.compiler import Compiler
from repro.gcc.flags import FlagConfiguration, OptLevel, standard_levels
from repro.lara.metrics import weave_benchmark
from repro.machine.executor import MachineExecutor
from repro.machine.openmp import BindingPolicy, OpenMPRuntime
from repro.machine.topology import default_machine
from repro.margot.asrtm import ApplicationRuntimeManager
from repro.margot.state import OptimizationState, minimize_time
from repro.polybench.suite import load
from repro.polybench.workload import profile_kernel


@pytest.fixture(scope="module")
def machine():
    return default_machine()


@pytest.fixture(scope="module")
def source_2mm():
    return load("2mm").source


@pytest.fixture()
def timer():
    """A fresh span timer per test; asserts it actually recorded spans."""
    span_timer = SpanTimer()
    yield span_timer
    assert span_timer.tracer.spans, "benchmark bypassed the span timer"


def test_perf_parser(benchmark, timer, source_2mm):
    unit = benchmark(timer.wrap("cir.parse", parse), source_2mm)
    assert unit.has_function("kernel_2mm")
    assert timer.count("cir.parse") >= 1
    assert timer.total_s("cir.parse") > 0.0


def test_perf_printer(benchmark, timer, source_2mm):
    unit = parse(source_2mm)
    text = benchmark(timer.wrap("cir.to_source", to_source), unit)
    assert "kernel_2mm" in text
    assert timer.count("cir.to_source") >= 1


def test_perf_workload_profile(benchmark, timer):
    app = load("2mm")
    profile = benchmark(timer.wrap("workload.profile", profile_kernel), app)
    assert profile.flops > 0
    assert timer.count("workload.profile") >= 1


def test_perf_weave(benchmark, timer):
    app = load("mvt")
    configs = standard_levels()
    report, _ = benchmark(timer.wrap("lara.weave", weave_benchmark), app, configs)
    assert report.weaved_loc > report.original_loc
    assert timer.count("lara.weave") >= 1


def test_perf_compile(benchmark, timer):
    profile = profile_kernel(load("2mm"))
    compiler = Compiler()
    config = FlagConfiguration(OptLevel.O3)

    def compile_uncached():
        compiler._cache.clear()
        return compiler.compile(profile, config)

    kernel = benchmark(timer.wrap("gcc.compile", compile_uncached))
    assert kernel.total_cycles > 0
    assert timer.count("gcc.compile") >= 1


def test_perf_machine_evaluate(benchmark, timer, machine):
    compiled = Compiler().compile(profile_kernel(load("2mm")), FlagConfiguration(OptLevel.O2))
    omp = OpenMPRuntime(machine)
    executor = MachineExecutor(machine)
    placement = omp.place(16, BindingPolicy.CLOSE)
    result = benchmark(
        timer.wrap("machine.evaluate", executor.evaluate), compiled, placement
    )
    assert result.time_s > 0
    assert timer.count("machine.evaluate") >= 1


def test_perf_asrtm_update(benchmark, timer, machine):
    """One mARGOt decision over a 512-point knowledge base — the cost
    the weaved update() call pays per kernel invocation."""
    from repro.dse.explorer import DesignSpace, DesignSpaceExplorer

    omp = OpenMPRuntime(machine)
    explorer = DesignSpaceExplorer(Compiler(), MachineExecutor(machine), omp, repetitions=1)
    space = DesignSpace(compiler_configs=standard_levels(), thread_counts=list(range(1, 33)))
    knowledge = explorer.explore(profile_kernel(load("2mm")), space).knowledge
    asrtm = ApplicationRuntimeManager(knowledge)
    asrtm.add_state(OptimizationState("perf", rank=minimize_time()))
    point = benchmark(timer.wrap("asrtm.update", asrtm.update))
    assert point.metric("time").mean > 0
    assert timer.count("asrtm.update") >= 1


def _cobayn_rows(features, count):
    """COBAYN-shaped BN data: ``features`` 3-level feature nodes, the
    level and the six flags, with ``count`` random rows."""
    import numpy as np

    from repro.cobayn.bn import NodeSpec
    from repro.gcc.flags import ALL_FLAGS

    nodes = [NodeSpec(f"ft{i}", 3) for i in range(features)]
    nodes.append(NodeSpec("level", 2))
    nodes.extend(NodeSpec(flag.value, 2) for flag in ALL_FLAGS)
    rng = np.random.default_rng(0)
    rows = []
    for _ in range(count):
        row = {f"ft{i}": int(rng.integers(3)) for i in range(features)}
        row["level"] = int(rng.integers(2))
        for flag in ALL_FLAGS:
            row[flag.value] = int(rng.integers(2))
        rows.append(row)
    return nodes, rows


def test_perf_bn_posterior(benchmark, timer):
    """One COBAYN posterior over the 128-combo space."""
    from repro.cobayn.bn import DiscreteBayesianNetwork
    from repro.cobayn.corpus import flag_assignment
    from repro.gcc.flags import cobayn_space

    nodes, rows = _cobayn_rows(features=4, count=150)
    network = DiscreteBayesianNetwork(nodes)
    network.fit(rows)
    evidence = {f"ft{i}": 1 for i in range(4)}
    query = flag_assignment(cobayn_space()[77])

    probability = benchmark(timer.wrap("bn.posterior", network.posterior), query, evidence)
    assert 0.0 <= probability <= 1.0
    assert timer.count("bn.posterior") >= 1


def test_perf_bn_learn_structure(benchmark, timer):
    """One COBAYN structure search on a corpus-shaped data set: 143 rows
    over 13 nodes (six feature nodes that receive no arcs, the level and
    the six flags), one parent per node, as the autotuner trains."""
    from repro.cobayn.bn import learn_structure

    nodes, rows = _cobayn_rows(features=6, count=143)
    features = {f"ft{i}" for i in range(6)}
    network = benchmark(
        timer.wrap("bn.learn_structure", learn_structure),
        nodes,
        rows,
        max_parents=1,
        forbidden_children=features,
    )
    assert len(network.node_names) == 13
    assert all(child not in features for _, child in network.edges())
    assert timer.count("bn.learn_structure") >= 1
