"""Benchmark suite: MiniC workloads modelled on the paper's Mediabench
applications and DSP kernels (Section 4.1)."""

from .registry import (
    Benchmark,
    all_benchmarks,
    get,
    mediabench,
    names,
    register,
)

__all__ = [
    "Benchmark",
    "all_benchmarks",
    "get",
    "mediabench",
    "names",
    "register",
]
