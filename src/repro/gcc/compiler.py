"""The analytical compiler: profile + flags -> compiled kernel costs.

The output of :meth:`Compiler.compile` is a :class:`CompiledKernel`
holding everything the machine model needs: per-invocation cycle
counts split into serial and parallel shares, the memory profile, and
power/code-size factors.
"""

from __future__ import annotations

from repro.compat import slotted_dataclass
from repro.gcc.flags import FlagConfiguration
from repro.gcc.passes import CodegenEffect, build_effect
from repro.polybench.workload import WorkloadProfile


@slotted_dataclass(frozen=True)
class CompiledKernel:
    """Cost model of one kernel compiled under one flag configuration.

    Cycle counts are per kernel invocation on ONE core; the machine
    model divides the parallel share across the thread team.
    """

    profile: WorkloadProfile
    config: FlagConfiguration
    total_cycles: float
    serial_cycles: float
    parallel_cycles: float
    vector_width: float
    code_size: float
    power_intensity: float

    @property
    def label(self) -> str:
        return self.config.label

    @property
    def memory_bound_share(self) -> float:
        """Rough fraction of cycles spent on memory operations."""
        ops = self.profile.loads + self.profile.stores
        if self.total_cycles == 0:
            return 0.0
        return min(1.0, ops * 0.55 / self.total_cycles)


class Compiler:
    """Compile workload profiles against flag configurations.

    Stateless: a compilation is a pure function of ``(profile,
    config)``.  The evaluation engine's compile cache memoizes it.
    """

    def compile(
        self, profile: WorkloadProfile, config: FlagConfiguration
    ) -> CompiledKernel:
        """Produce the :class:`CompiledKernel` for ``profile`` x ``config``."""
        return self._lower(profile, config, build_effect(profile, config))

    def _lower(
        self,
        profile: WorkloadProfile,
        config: FlagConfiguration,
        effect: CodegenEffect,
    ) -> CompiledKernel:
        vector = effect.vector_width if effect.vectorizable else 1.0
        # vector code also issues vector loads/stores and, being unrolled
        # by the lane count, executes proportionally less loop control
        fp_cycles = profile.flops / (effect.fp_rate * vector)
        int_cycles = profile.int_ops / (effect.int_rate * (1.0 + (vector - 1.0) * 0.5))
        mem_cycles = (profile.loads + profile.stores) * effect.mem_op_cost / vector
        call_cycles = profile.call_ops * effect.call_cost
        branch_cycles = profile.branch_ops * effect.branch_cost
        # the FP, load/store and integer pipes of an out-of-order core
        # largely overlap: charge the slowest pipe fully and a fraction
        # of the remainder for issue-width contention
        pipes = (fp_cycles, mem_cycles, int_cycles)
        bottleneck = max(pipes)
        overlapped = bottleneck + 0.30 * (sum(pipes) - bottleneck)
        total = overlapped + call_cycles + branch_cycles
        serial = total * (1.0 - profile.parallel_fraction)
        parallel = total * profile.parallel_fraction
        return CompiledKernel(
            profile=profile,
            config=config,
            total_cycles=total,
            serial_cycles=serial,
            parallel_cycles=parallel,
            vector_width=vector,
            code_size=effect.code_size,
            power_intensity=effect.power_intensity,
        )
