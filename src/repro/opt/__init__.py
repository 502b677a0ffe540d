"""Classic scalar optimizations run before partitioning/scheduling:
constant folding, copy propagation, local CSE, and dead-code elimination."""

from .cleanup import (
    eliminate_common_subexpressions,
    eliminate_dead_code,
    optimize_function,
    optimize_module,
    propagate_copies,
)
from .constfold import fold_constants

__all__ = [
    "eliminate_common_subexpressions",
    "eliminate_dead_code",
    "optimize_function",
    "optimize_module",
    "propagate_copies",
    "fold_constants",
]
