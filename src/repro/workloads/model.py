"""Workload model: threads, barrier intervals, benchmarks.

The paper's optimisation layer consumes, per barrier interval and per
thread: the instruction count ``N_i``, the error-free base CPI, and
the thread's error-probability function for the pipe stage under
study.  These classes are that contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Tuple

if TYPE_CHECKING:
    from repro.errors.probability import ErrorFunction

__all__ = ["ThreadWorkload", "BarrierInterval", "Benchmark"]


@dataclass(frozen=True)
class ThreadWorkload:
    """One thread's behaviour within one barrier interval.

    Attributes
    ----------
    instructions:
        ``N_i``: instructions the thread executes in the interval.
    cpi_base:
        Error-free cycles per instruction (paper Eq. 4.1).
    error_functions:
        Per-pipe-stage error-probability functions ``err_i(r)``.
    """

    instructions: int
    cpi_base: float
    error_functions: Mapping[str, ErrorFunction]

    def __post_init__(self):
        if self.instructions <= 0:
            raise ValueError("instructions must be positive")
        if self.cpi_base <= 0:
            raise ValueError("cpi_base must be positive")

    def error_function(self, stage: str) -> ErrorFunction:
        try:
            return self.error_functions[stage]
        except KeyError:
            raise KeyError(
                f"no error model for stage {stage!r}; have "
                f"{sorted(self.error_functions)}"
            ) from None


@dataclass(frozen=True)
class BarrierInterval:
    """One barrier-to-barrier phase of a multi-threaded program."""

    threads: Tuple[ThreadWorkload, ...]

    def __post_init__(self):
        if not self.threads:
            raise ValueError("a barrier interval needs at least one thread")

    @property
    def n_threads(self) -> int:
        return len(self.threads)

    def total_instructions(self) -> int:
        return sum(t.instructions for t in self.threads)


@dataclass(frozen=True)
class Benchmark:
    """A multi-threaded benchmark: a sequence of barrier intervals.

    ``heterogeneous`` records whether the benchmark exhibits
    thread-level variation in error probabilities (the paper reports
    results only for the seven heterogeneous SPLASH-2 programs).
    """

    name: str
    intervals: Tuple[BarrierInterval, ...]
    heterogeneous: bool

    def __post_init__(self):
        if not self.intervals:
            raise ValueError("a benchmark needs at least one barrier interval")
        n = self.intervals[0].n_threads
        if any(iv.n_threads != n for iv in self.intervals):
            raise ValueError("all intervals must have the same thread count")

    @property
    def n_threads(self) -> int:
        return self.intervals[0].n_threads

    @property
    def n_intervals(self) -> int:
        return len(self.intervals)
