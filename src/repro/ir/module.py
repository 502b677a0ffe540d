"""Modules: the whole-program container (globals + functions)."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Union

from .function import Function
from .types import IRType
from .values import GlobalAddress


class GlobalVariable:
    """A module-level data object with static storage.

    ``initializer`` is ``None`` (zero-initialised), a scalar int/float, or a
    flat list of scalars for arrays.  The size in bytes is derived from the
    type and is what the data partitioner balances across cluster memories.
    """

    def __init__(
        self,
        name: str,
        ty: IRType,
        initializer: Union[None, int, float, Sequence] = None,
    ):
        self.name = name
        self.ty = ty
        self.initializer = initializer

    def size(self) -> int:
        return self.ty.size()

    def address(self) -> GlobalAddress:
        return GlobalAddress(self.name, self.ty)

    def __str__(self) -> str:
        init = "" if self.initializer is None else f" = {self.initializer!r}"
        return f"global @{self.name}: {self.ty} ({self.size()} bytes){init}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<global {self.name}: {self.ty}>"


class Module:
    """A complete program: named globals and functions.

    The module is the unit the Global Data Partitioner operates on — it
    builds its program-level data-flow graph from every function here and
    assigns every global (and every heap allocation site) a home cluster.
    """

    def __init__(self, name: str = "module"):
        self.name = name
        self.globals: Dict[str, GlobalVariable] = {}
        self.functions: Dict[str, Function] = {}

    # -- globals --------------------------------------------------------------

    def add_global(
        self,
        name: str,
        ty: IRType,
        initializer: Union[None, int, float, Sequence] = None,
    ) -> GlobalVariable:
        if name in self.globals:
            raise ValueError(f"duplicate global {name!r}")
        var = GlobalVariable(name, ty, initializer)
        self.globals[name] = var
        return var

    # -- functions --------------------------------------------------------------

    def add_function(self, func: Function) -> Function:
        if func.name in self.functions:
            raise ValueError(f"duplicate function {func.name!r}")
        self.functions[func.name] = func
        return func

    def function(self, name: str) -> Function:
        return self.functions[name]

    def has_function(self, name: str) -> bool:
        return name in self.functions

    @property
    def main(self) -> Function:
        """The program entry point (a function named ``main``)."""
        if "main" not in self.functions:
            raise ValueError(f"module {self.name} has no main function")
        return self.functions["main"]

    # -- iteration --------------------------------------------------------------

    def __iter__(self) -> Iterator[Function]:
        return iter(self.functions.values())

    def op_count(self) -> int:
        return sum(f.op_count() for f in self.functions.values())

    # -- printing --------------------------------------------------------------

    def __str__(self) -> str:
        lines = [f"module {self.name}"]
        lines.extend(str(g) for g in self.globals.values())
        lines.extend(str(f) for f in self.functions.values())
        return "\n\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<module {self.name} [{len(self.globals)} globals, "
            f"{len(self.functions)} functions, {self.op_count()} ops]>"
        )
