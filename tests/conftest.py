"""Shared fixtures.

Expensive artifacts (the COBAYN corpus, a full toolflow build) are
session-scoped so the many tests that need them pay the cost once.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.gcc.compiler import Compiler
from repro.machine.executor import MachineExecutor
from repro.machine.openmp import OpenMPRuntime
from repro.machine.topology import default_machine
from repro.polybench.suite import all_apps, load


@pytest.fixture(scope="session")
def machine():
    return default_machine()


@pytest.fixture(scope="session")
def omp(machine):
    return OpenMPRuntime(machine)


@pytest.fixture(scope="session")
def compiler():
    return Compiler()


@pytest.fixture(scope="session")
def executor(machine):
    return MachineExecutor(machine)


@pytest.fixture(scope="session")
def apps():
    return all_apps()


@pytest.fixture(scope="session")
def two_mm():
    return load("2mm")


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def corpus(apps):
    from repro.cobayn.corpus import build_corpus
    from repro.engine.core import EvaluationEngine

    return build_corpus(apps, EvaluationEngine())


@pytest.fixture(scope="session")
def toolflow():
    """A toolflow with a reduced thread sweep to keep tests quick."""
    from repro.core.toolflow import SocratesToolflow

    return SocratesToolflow(
        dse_repetitions=3, thread_counts=[1, 2, 4, 8, 16, 24, 32]
    )


@pytest.fixture(scope="session")
def built_2mm(toolflow, two_mm):
    """A fully built adaptive 2mm (the expensive end-to-end artifact)."""
    return toolflow.build(two_mm)
