"""Self-tests of the benchmark: the oracles are not vacuous, and every
workload runs at minimal length and reports every declared metric.

    python -m pytest -q perfbench/test_perfbench.py

Corruptions are applied to copies only: a woven clone's loop body, and the
operating point a run executes.  Both oracles must then report failures.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.cir import ArrayRef, Assign, BinOp, FloatLit, For, parse, walk  # noqa: E402
from repro.core.toolflow import SocratesToolflow  # noqa: E402
from repro.margot.manager import MargotManager  # noqa: E402
from repro.polybench.suite import load  # noqa: E402

from perfbench import run, workloads  # noqa: E402
from perfbench.oracles import BuildOracle, SelectionOracle, interpret, tiny_sizes  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def toolflow():
    return SocratesToolflow("xeon_2s", thread_counts=[1, 2, 4], dse_repetitions=1, seed=3)


@pytest.fixture(scope="module")
def built(toolflow):
    return workloads.timed_build(toolflow, load("2mm"), workloads.NULL_SPANS)


def _corrupt_selected_clone(result):
    """A copy of ``result`` whose dispatched clone computes something else."""
    weaver = copy.deepcopy(result.weaver)
    header = parse(result.margot_header(list(workloads.fig5_states().values())), name="margot.h")
    version = interpret([header, weaver.unit], tiny_sizes(result.app.sizes)).global_value(
        "__socrates_version"
    )
    prefix = f"{result.app.kernels[0]}__v{version}_"
    clone = next(f for f in weaver.unit.functions() if f.name.startswith(prefix))
    loop = next(node for node in walk(clone.body) if isinstance(node, For))
    assign = next(
        node for node in walk(loop.body) if isinstance(node, Assign) and isinstance(node.lhs, ArrayRef)
    )
    assign.rhs = BinOp(op="+", lhs=assign.rhs, rhs=FloatLit(text="1.0"))
    return dataclasses.replace(result, weaver=weaver)


def test_build_oracle_passes_the_real_build(built, toolflow):
    assert built.error is None
    assert BuildOracle().check(built, toolflow, workloads.fig5_states()) == []


def test_build_oracle_catches_a_corrupted_clone(built, toolflow):
    broken = dataclasses.replace(built, result=_corrupt_selected_clone(built.result))
    failures = BuildOracle().check(broken, toolflow, workloads.fig5_states())
    assert any("differs from the original" in message for message in failures)
    # the original build is untouched
    assert BuildOracle().check(built, toolflow, workloads.fig5_states()) == []


def test_build_oracle_counts_a_failed_build(toolflow):
    failed = workloads.Build("2mm", 0.0, None, "WeaveVerificationError: injected")
    assert BuildOracle().check(failed, toolflow, workloads.fig5_states()) != []


def _deploy(built, toolflow, invocations=60):
    result = workloads.PassResult()

    def schedule(elapsed, index):
        if index >= invocations:
            return None
        return ("Thr/W^2" if index < invocations // 2 else "Throughput"), None

    workloads.deploy(
        built.result, toolflow, 3, workloads.fig5_states(), schedule, workloads.NULL_SPANS, result
    )
    return result.deployments[0]


def test_selection_oracle_passes_real_selections(built, toolflow):
    deployment = _deploy(built, toolflow)
    assert len(deployment.invocations) == 60
    assert SelectionOracle(deployment).check() == []


def test_selection_oracle_catches_a_forced_wrong_point(built, toolflow, monkeypatch):
    points = built.result.exploration.knowledge.points()
    original = MargotManager.update
    calls = []

    def wrong_every_tenth(self, now=None):
        best = original(self, now=now)
        calls.append(best)
        if len(calls) % 10 == 0:
            return next(p for p in points if p.key != best.key)
        return best

    monkeypatch.setattr(MargotManager, "update", wrong_every_tenth)
    failures = SelectionOracle(_deploy(built, toolflow)).check()
    assert len(failures) == 6


def test_selection_oracle_catches_a_violated_cap(built, toolflow):
    result = workloads.PassResult()
    low, high = built.result.exploration.knowledge.metric_bounds("power")
    cap = (low + high) / 2

    def schedule(elapsed, index):
        return None if index >= 20 else ("cap", cap)

    workloads.deploy(
        built.result, toolflow, 3, workloads.cap_state(cap), schedule, workloads.NULL_SPANS, result
    )
    deployment = result.deployments[0]
    assert SelectionOracle(deployment).check() == []
    # tell the oracle a tighter cap than the one the run obeyed
    deployment.invocations = [
        dataclasses.replace(invocation, cap=low) for invocation in deployment.invocations
    ]
    assert len(SelectionOracle(deployment).check()) == 20


SMOKE = {
    "suite_build": lambda: workloads.SuiteBuild(apps=["2mm", "atax"]),
    "fig5_runtime": lambda: workloads.Fig5Runtime(scale=0.05),
    "powercap_biglittle": lambda: workloads.PowercapBigLittle(scale=0.05),
}


def _assert_declared(metrics, declared):
    assert set(metrics) == {m["name"] for m in declared}
    for metric in declared:
        value, unit = metrics[metric["name"]]
        assert unit == metric["unit"]
        assert isinstance(value, float) and value == value


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_workload_smoke(name, tmp_path):
    metrics, attempted, failures, _ = run.run_untraced(name, 5, 0.0, SMOKE[name]())
    assert attempted > 0 and failures == []
    _assert_declared(metrics, SPEC["end_to_end"])
    assert all(value > 0 for value, _ in metrics.values())

    metrics, attempted, failures, _ = run.run_traced(name, 5, tmp_path / "spans.jsonl.gz", SMOKE[name]())
    assert attempted > 0 and failures == []
    _assert_declared(metrics, SPEC["per_layer"])
    assert (tmp_path / "spans.jsonl.gz").stat().st_size > 0


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(workloads.WORKLOADS) == sorted(run.WORKLOAD_NAMES)
