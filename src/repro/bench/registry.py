"""Benchmark registry.

Each benchmark is a MiniC program modelled on the Mediabench / DSP-kernel
workloads of the paper's evaluation (Section 4.1).  A benchmark carries
its source, a description, and the expected ``print_int`` output trace so
the interpreter's execution can be checked for correctness before any
partitioning experiment trusts its profile.
"""

from __future__ import annotations

from typing import Dict, List


class Benchmark:
    """One MiniC workload."""

    def __init__(
        self,
        name: str,
        source: str,
        description: str,
        category: str,
    ):
        self.name = name
        self.source = source
        self.description = description
        self.category = category  # "mediabench" | "dsp"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<benchmark {self.name}>"


_REGISTRY: Dict[str, Benchmark] = {}


def register(benchmark: Benchmark) -> Benchmark:
    if benchmark.name in _REGISTRY:
        raise ValueError(f"duplicate benchmark {benchmark.name!r}")
    _REGISTRY[benchmark.name] = benchmark
    return benchmark


def get(name: str) -> Benchmark:
    _ensure_loaded()
    return _REGISTRY[name]


def names() -> List[str]:
    _ensure_loaded()
    return sorted(_REGISTRY)


def all_benchmarks() -> List[Benchmark]:
    _ensure_loaded()
    return [_REGISTRY[n] for n in sorted(_REGISTRY)]


def mediabench() -> List[Benchmark]:
    return [b for b in all_benchmarks() if b.category == "mediabench"]


_loaded = False


def _ensure_loaded() -> None:
    """Import the kernel modules exactly once (they self-register)."""
    global _loaded
    if _loaded:
        return
    from . import (  # noqa: F401
        adpcm,
        dsp,
        epic,
        fftbench,
        g721,
        gsm,
        huffman,
        jpeg,
        mpeg2,
        pegwit,
        unepic,
        viterbi,
    )

    _loaded = True
