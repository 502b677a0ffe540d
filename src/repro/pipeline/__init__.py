"""End-to-end pipeline: preparation, the four Table-1 schemes, and the
one driver that runs them (artifact cache + degradation ladder)."""

from .driver import RESEED_STRIDE, Pipeline
from .prepared import PreparedProgram
from .schemes import (
    SCHEME_TABLE,
    finalize_and_evaluate,
    SchemeOutcome,
    run_scheme,
)

__all__ = [
    "Pipeline",
    "RESEED_STRIDE",
    "PreparedProgram",
    "SCHEME_TABLE",
    "finalize_and_evaluate",
    "SchemeOutcome",
    "run_scheme",
]
