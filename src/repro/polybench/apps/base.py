"""Common machinery shared by the twelve Polybench application modules.

Each app module exposes a single :class:`BenchmarkApp`: the C-subset
source (parsed on demand into a CIR translation unit), the kernel
function names the SOCRATES toolchain targets, the dataset dimensions,
and a numpy *reference implementation* used for functional validation
(the knobs of the paper change extra-functional properties only, so
every woven/compiled variant must compute the same output).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Tuple

import numpy as np

from repro.cir import TranslationUnit, parse

Arrays = Dict[str, np.ndarray]


@dataclass(frozen=True)
class BenchmarkApp:
    """One Polybench application in both source and functional form.

    Attributes:
        name: Polybench benchmark name (``"2mm"``, ``"jacobi-2d"``, ...).
        source: the full C source text of the benchmark.
        kernels: names of the kernel functions SOCRATES autotunes.
        sizes: dataset dimensions (the ``#define`` values in ``source``).
        make_inputs: ``(rng, scale) -> arrays`` builds input arrays;
            ``scale`` shrinks dimensions for fast functional tests.
        reference: ``arrays -> outputs`` numpy implementation of the
            kernels' semantics (o = f(i), independent of any knob).
        category: coarse Polybench category (used in docs/reports).
    """

    name: str
    source: str
    kernels: Tuple[str, ...]
    sizes: Mapping[str, int]
    make_inputs: Callable[[np.random.Generator, float], Arrays]
    reference: Callable[[Arrays], Arrays]
    category: str = "linear-algebra"

    def parse(self) -> TranslationUnit:
        """Parse the benchmark source into a fresh translation unit."""
        return parse(self.source, name=f"{self.name}.c")

    def scaled_sizes(self, scale: float) -> Dict[str, int]:
        """Dataset dimensions shrunk by ``scale`` (minimum 4)."""
        return {key: max(4, int(round(value * scale))) for key, value in self.sizes.items()}


def scaled(sizes: Mapping[str, int], scale: float) -> Dict[str, int]:
    """Shrink every dimension in ``sizes`` by ``scale`` (minimum 4).

    Time-step counts (keys starting with ``TSTEPS``) are shrunk more
    aggressively (minimum 2) so functional tests stay fast.
    """
    result: Dict[str, int] = {}
    for key, value in sizes.items():
        minimum = 2 if key.startswith("TSTEPS") else 4
        result[key] = max(minimum, int(round(value * scale)))
    return result


def init_matrix(
    rng: np.random.Generator, rows: int, cols: int, modulus: int = 100
) -> np.ndarray:
    """Deterministic Polybench-style initializer: ((i*j) % modulus) / modulus.

    A small random perturbation (from ``rng``) keeps inputs generic while
    staying reproducible under a seeded generator.
    """
    i = np.arange(rows, dtype=np.float64)[:, None]
    j = np.arange(cols, dtype=np.float64)[None, :]
    base = np.mod(i * j + i + 1.0, float(modulus)) / float(modulus)
    return base + 0.01 * rng.random((rows, cols))


def init_vector(rng: np.random.Generator, n: int, modulus: int = 100) -> np.ndarray:
    """Deterministic Polybench-style vector initializer."""
    i = np.arange(n, dtype=np.float64)
    return np.mod(i + 1.0, float(modulus)) / float(modulus) + 0.01 * rng.random(n)
