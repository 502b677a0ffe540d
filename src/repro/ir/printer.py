"""Textual IR printing with optional annotation overlays.

``print_module``/``print_function`` render the canonical textual form used
in tests and examples.  ``print_partitioned`` overlays a cluster assignment
so a partitioning result can be inspected side by side with the code.
"""

from __future__ import annotations

from typing import Dict, Optional

from .function import Function
from .module import Module


def print_module(module: Module) -> str:
    """Render a whole module as text."""
    parts = [f"; module {module.name}"]
    for var in module.globals.values():
        parts.append(str(var))
    for func in module:
        parts.append(print_function(func))
    return "\n\n".join(parts)


def print_function(func: Function, assignment: Optional[Dict[int, int]] = None) -> str:
    """Render a function; if ``assignment`` maps op uid -> cluster, prefix it."""
    params = ", ".join(f"{p}: {p.ty}" for p in func.params)
    lines = [f"func @{func.name}({params}) -> {func.return_type} {{"]
    for block in func:
        lines.append(f"{block.name}:")
        for op in block.ops:
            prefix = ""
            if assignment is not None and op.uid in assignment:
                prefix = f"[c{assignment[op.uid]}] "
            lines.append(f"  {prefix}{op}")
    lines.append("}")
    return "\n".join(lines)


def print_partitioned(func: Function, assignment: Dict[int, int]) -> str:
    """Render a function with per-operation cluster labels."""
    return print_function(func, assignment)
