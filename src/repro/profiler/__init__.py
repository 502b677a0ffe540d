"""Profiling interpreter: executes IR modules and gathers the dynamic
profile (block counts, per-object access counts, heap sizes) consumed by
the partitioning algorithms."""

from .interp import MAX_STEPS, Interpreter, InterpreterError, StepLimitExceeded
from .memory import Memory, MemoryError_
from .profiledata import ProfileData

__all__ = [
    "Interpreter",
    "InterpreterError",
    "StepLimitExceeded",
    "MAX_STEPS",
    "Memory",
    "MemoryError_",
    "ProfileData",
]
