"""Memoizing caches of the evaluation engine.

Two caches back every measurement path:

* :class:`CompileCache` — one :class:`~repro.gcc.compiler.CompiledKernel`
  per ``(WorkloadProfile identity, FlagConfiguration.label)``, so a
  CF x TN x BP exploration compiles each CF exactly once no matter how
  many thread-count/binding variants visit it;
* :class:`ProfileCache` — one parse and one
  :class:`~repro.polybench.workload.WorkloadProfile` per application,
  so a full toolflow build characterizes, profiles and assembles from
  a single AST analysis.

Both keep hit/miss counters that the telemetry layer snapshots around
every pipeline stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.gcc.compiler import Compiler, CompiledKernel
from repro.gcc.flags import FlagConfiguration
from repro.milepost.features import FeatureVector, extract_features
from repro.polybench.apps.base import BenchmarkApp
from repro.polybench.workload import WorkloadProfile, profile_kernel


@dataclass
class CacheStats:
    """Mutable hit/miss accounting for one cache."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {"hits": self.hits, "misses": self.misses, "hit_rate": self.hit_rate}


#: Cache key of one compiled kernel: profile identity + flag label.
CompileKey = Tuple[str, str, str]


class CompileCache:
    """Memoizes :meth:`Compiler.compile` with hit/miss accounting.

    The one compile memo (the :class:`Compiler` itself is stateless),
    keyed on the human-readable ``label`` so telemetry and tests can
    reason about *how many distinct compilations* a pipeline performed.
    """

    def __init__(self, compiler: Compiler) -> None:
        self._compiler = compiler
        self._kernels: Dict[CompileKey, CompiledKernel] = {}
        self.stats = CacheStats()

    @staticmethod
    def key(profile: WorkloadProfile, config: FlagConfiguration) -> CompileKey:
        return (profile.name, profile.kernel, config.label)

    def get(
        self, profile: WorkloadProfile, config: FlagConfiguration
    ) -> CompiledKernel:
        key = self.key(profile, config)
        kernel = self._kernels.get(key)
        if kernel is None:
            self.stats.misses += 1
            kernel = self._compiler.compile(profile, config)
            self._kernels[key] = kernel
        else:
            self.stats.hits += 1
        return kernel

    def keys(self) -> List[CompileKey]:
        return list(self._kernels)

    def entries_for(self, profile: WorkloadProfile) -> List[CompileKey]:
        """Cache keys belonging to one workload profile."""
        return [
            key
            for key in self._kernels
            if key[0] == profile.name and key[1] == profile.kernel
        ]

    def __len__(self) -> int:
        return len(self._kernels)


class ProfileCache:
    """Per-application parse / profile / feature memoization.

    Keyed on the benchmark name (unique within the suite).  The cached
    translation unit is shared by read-only analyses only — the weaver
    mutates its AST and therefore always parses its own copy.
    """

    def __init__(self) -> None:
        self._units: Dict[str, object] = {}
        self._profiles: Dict[Tuple[str, Optional[str]], WorkloadProfile] = {}
        self._features: Dict[Tuple[str, Optional[str]], FeatureVector] = {}
        self.stats = CacheStats()

    def unit(self, app: BenchmarkApp):
        """The (read-only) parsed translation unit of ``app``."""
        unit = self._units.get(app.name)
        if unit is None:
            unit = app.parse()
            self._units[app.name] = unit
        return unit

    def profile(
        self, app: BenchmarkApp, kernel: Optional[str] = None
    ) -> WorkloadProfile:
        key = (app.name, kernel)
        profile = self._profiles.get(key)
        if profile is None:
            self.stats.misses += 1
            profile = profile_kernel(app, kernel=kernel, unit=self.unit(app))
            self._profiles[key] = profile
        else:
            self.stats.hits += 1
        return profile

    def features(
        self, app: BenchmarkApp, kernel: Optional[str] = None
    ) -> FeatureVector:
        key = (app.name, kernel)
        features = self._features.get(key)
        if features is None:
            features = extract_features(self.unit(app), kernel or app.kernels[0])
            self._features[key] = features
        return features
