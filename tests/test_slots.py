"""Slotted data classes (``repro.compat.slotted_dataclass``).

Every slotted class must hold its fields in slots only, and its
instances must survive ``pickle``, ``copy.deepcopy`` and ``Node.clone``
unchanged: ``copy.deepcopy`` of a frozen slotted class goes through the
same ``__getstate__``/``__setstate__`` pair that ``repro.compat`` installs
for ``pickle``.
``slotted_dataclass`` rebuilds the class, so no method may use zero-argument
``super()``.
"""

import copy
import dataclasses
import pickle

import pytest

from repro.cir import ast, parse
from repro.cir.visitor import walk
from repro.compat import slotted_dataclass
from repro.core.adaptive import InvocationRecord, KernelVersion
from repro.engine.model import DesignPoint, ProfiledSample
from repro.gcc.compiler import Compiler
from repro.gcc.flags import Flag, FlagConfiguration, OptLevel
from repro.machine.openmp import BindingPolicy
from repro.margot.knowledge import MetricStats, OperatingPoint
from repro.polybench.suite import load
from repro.polybench.workload import profile_kernel

#: One of every concrete node kind.
SNIPPET = r"""
#include <stdio.h>
#define N 10
#ifdef DEBUG
#endif
typedef double real;
static int helper(int x);
int kernel(int n, double A[N][N], real *p) {
  int i, j;
  double s = 0.0;
  int v[3] = {1, 2, 3};
  char c = 'a';
  const char *msg = "hi";
  #pragma omp parallel for
  for (i = 0; i < n; i++) {
    while (i < 0) { break; }
    do { continue; } while (0);
    if (i > 2) s += A[i][0]; else s -= (double) i;
    s = i > 1 ? s : -s;
    j = sizeof(double) + sizeof s;
    j = p.x + helper(j);
    ;
  }
  return (int) s;
}
"""


def node_classes():
    found, pending = [], [ast.Node]
    while pending:
        cls = pending.pop()
        found.append(cls)
        pending.extend(cls.__subclasses__())
    return found


def artifact_instances():
    config = FlagConfiguration(OptLevel.O3, frozenset({Flag.NO_IVOPTS}))
    compiled = Compiler().compile(profile_kernel(load("2mm")), config)
    point = DesignPoint(compiler=config, threads=8, binding=BindingPolicy.SPREAD)
    stats = MetricStats(mean=2.5, std=0.25)
    return [
        config,
        stats,
        OperatingPoint(knobs={"compiler": config.label, "threads": 8}, metrics={"time": stats}),
        InvocationRecord(0.5, "Thr/W^2", config.label, 8, "spread", 0.01, 40.0, 0.4),
        KernelVersion(index=3, compiled=compiled, binding=BindingPolicy.CLOSE),
        compiled,
        point,
        ProfiledSample(point=point, times=[0.01, 0.02], powers=[40.0, 41.0]),
    ]


def ast_instances():
    first = {}
    for node in walk(parse(SNIPPET)):
        first.setdefault(type(node), node)
    return list(first.values())


ARTIFACTS = artifact_instances()
NODES = ast_instances()
INSTANCES = ARTIFACTS + NODES
SLOTTED = node_classes() + [type(instance) for instance in ARTIFACTS]


def test_every_concrete_node_kind_is_covered():
    concrete = {cls for cls in node_classes() if cls not in (ast.Node, ast.Expr, ast.Stmt)}
    assert concrete <= {type(node) for node in NODES}


@pytest.mark.parametrize("cls", SLOTTED, ids=lambda cls: cls.__name__)
def test_every_class_in_the_hierarchy_declares_slots(cls):
    for klass in cls.__mro__[:-1]:
        assert "__slots__" in klass.__dict__, klass


@pytest.mark.parametrize("instance", INSTANCES, ids=lambda obj: type(obj).__name__)
class TestSlottedInstance:
    def test_no_instance_dict(self, instance):
        assert not hasattr(instance, "__dict__")
        with pytest.raises(AttributeError):
            instance.not_a_field = 1

    def test_pickle_round_trip(self, instance):
        assert pickle.loads(pickle.dumps(instance)) == instance

    def test_deepcopy(self, instance):
        duplicate = copy.deepcopy(instance)
        assert duplicate == instance
        assert duplicate is not instance


@pytest.mark.parametrize("node", NODES, ids=lambda node: type(node).__name__)
def test_clone(node):
    duplicate = node.clone()
    assert duplicate == node
    assert (duplicate is node) == isinstance(node, ast.Type)


def test_clones_share_types_and_copy_everything_else():
    function = parse(SNIPPET).function("kernel")
    duplicate = function.clone()
    originals = list(walk(function))
    copies = list(walk(duplicate))
    assert copies == originals
    for original, copied in zip(originals, copies):
        assert (copied is original) == isinstance(original, ast.Type)


def _functions(cls):
    for value in vars(cls).values():
        if isinstance(value, (staticmethod, classmethod)):
            value = value.__func__
        if isinstance(value, property):
            yield from (f for f in (value.fget, value.fset, value.fdel) if f)
        elif hasattr(value, "__code__"):
            yield value


@pytest.mark.parametrize("cls", SLOTTED, ids=lambda cls: cls.__name__)
def test_no_zero_argument_super(cls):
    for function in _functions(cls):
        assert "__class__" not in function.__code__.co_freevars, function


@pytest.mark.parametrize("name", ["mean", "not_a_field"])
def test_frozen_instances_stay_frozen_after_a_round_trip(name):
    stats = pickle.loads(pickle.dumps(MetricStats(mean=1.0, std=0.5)))
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(stats, name, 2.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(stats, name)


def test_defaults_survive_the_rebuild():
    @slotted_dataclass
    class Sample:
        name: str
        count: int = 3
        tags: list = dataclasses.field(default_factory=list)

    sample = Sample("a")
    assert (sample.count, sample.tags) == (3, [])
    assert Sample.__slots__ == ("name", "count", "tags")
    assert Sample.__qualname__.endswith("Sample")
