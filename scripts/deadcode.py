"""Dead code that no installed check sees: unused imports and test-only knobs.

Two reports, each a list of findings; any finding fails the run.

``imports``
    ruff's F401 in the standard library, for hosts without ruff: an
    imported name that its module never reads, in ``src/``, ``tests/``
    and ``scripts/``.  A name counts as read when the module loads it
    anywhere, lists it in ``__all__`` or names it inside a string
    annotation.  ``from __future__`` imports and imports whose statement
    or name line carries ``# noqa: F401`` (or a bare ``# noqa``) are
    skipped.

``census``
    every keyword default of a ``def`` (or dataclass field) in
    ``src/repro`` that no call outside the tests sets.  Calls are matched
    by name over ``src/``, ``scripts/``, ``benchmarks/`` and
    ``perfbench/``: a class is called by its own name, a function or
    method by its name, whatever the receiver.  A call sets a parameter
    when it passes it by keyword, passes enough positional arguments, or
    spreads ``*args`` / ``**kwargs``.  A default that no call sets is a
    value only a test varies, so it belongs in a constant; ``ALLOWED``
    names the few that stay, each with its reason.  An ``ALLOWED`` entry
    that matches no finding fails too, so the list can only shrink.

Run from the repository root:

    python scripts/deadcode.py                # both reports
    python scripts/deadcode.py census         # one of them
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Set

ROOT = Path(__file__).resolve().parent.parent

IMPORT_DIRS = ("src", "tests", "scripts")
CALLER_DIRS = ("src", "scripts", "benchmarks", "perfbench")
PACKAGE = "src/repro"

# Keyword defaults no non-test caller sets that stay parameters, keyed
# ``path-under-src/repro::qualname(param)`` as the census prints them.
ALLOWED: Dict[str, str] = {
    "resilience/budget.py::Budget(clock)":
        "tests substitute a fake clock",
    "resilience/report.py::PhaseTimer(clock)":
        "tests substitute a fake clock",
    "resilience/report.py::RunReport(clock)":
        "tests substitute a fake clock",
    "exec/engine.py::ParallelRunner.sweep(schemes)":
        "the sweep axes a cluster-aware oracle run will choose",
    "exec/engine.py::ParallelRunner.sweep(tiers)":
        "the sweep axes a cluster-aware oracle run will choose",
    "exec/engine.py::ParallelRunner.sweep(sources)":
        "the sweep axes a cluster-aware oracle run will choose",
    "cli.py::main(argv)":
        "the console entry point reads sys.argv; tests pass argv",
    "service/journal.py::Journal(faults)":
        "the chaos fault seam of the durable journal",
    "machine/resources.py::ClusterConfig(memory_bytes)":
        "the only input of partcheck's scratchpad-capacity rule",
    "pipeline/driver.py::Pipeline.compare(schemes)":
        "the examples compare a chosen subset of schemes",
    "service/client.py::ServiceClient.events(since)":
        "client half of the HTTP ?since= contract",
    "lang/errors.py::MiniCError(loc)":
        "set through its subclasses' super().__init__",
    "service/http.py::ServiceServer.stop(drain)":
        "set through Thread(kwargs={'drain': drain})",
}

_NOQA = re.compile(r"#\s*noqa(?::[^#]*\bF401\b|(?!:))", re.IGNORECASE)


class Finding(NamedTuple):
    path: str
    line: int
    what: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.what}"


def _python_files(dirs: Sequence[str], root: Path) -> Iterator[Path]:
    for name in dirs:
        yield from sorted((root / name).rglob("*.py"))


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


# -- imports -----------------------------------------------------------------

def _string_names(node: ast.AST) -> Iterator[str]:
    """Names read inside the string parts of an annotation."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                parsed = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            yield from (n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))


def _annotations(tree: ast.Module) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _dunder_all(tree: ast.Module) -> Set[str]:
    names: Set[str] = set()
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                   else [])
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            names.update(n.value for n in ast.walk(node.value)
                         if isinstance(n, ast.Constant) and isinstance(n.value, str))
    return names


def unused_imports(path: Path, root: Path = ROOT) -> List[Finding]:
    """Every import binding in *path* that its module never reads."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    read |= _dunder_all(tree)
    for annotation in _annotations(tree):
        read.update(_string_names(annotation))
    rel = path.relative_to(root).as_posix()
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if alias.name == "*":
                continue
            bound = alias.asname or alias.name.split(".")[0]
            line = getattr(alias, "lineno", node.lineno)
            if bound in read or any(_NOQA.search(lines[n - 1])
                                    for n in {node.lineno, line}):
                continue
            found.append(Finding(rel, line, f"unused import {bound!r}"))
    return found


def import_report(root: Path = ROOT) -> List[Finding]:
    return [finding for path in _python_files(IMPORT_DIRS, root)
            for finding in unused_imports(path, root)]


# -- census ------------------------------------------------------------------

class Default(NamedTuple):
    key: str        # ``path-under-src/repro::qualname(param)``
    line: int
    callee: str     # the name a call uses
    param: str
    index: Optional[int]   # positional slot after self/cls, None if keyword-only


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for deco in cls.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _function_defaults(fn: ast.FunctionDef, qualname: str, callee: str,
                       bound: bool, rel: str) -> Iterator[Default]:
    args = fn.args
    positional = args.posonlyargs + args.args
    if bound:
        positional = positional[1:]
    first_default = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional):
        if i >= first_default:
            yield Default(f"{rel}::{qualname}({arg.arg})", fn.lineno, callee, arg.arg, i)
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield Default(f"{rel}::{qualname}({arg.arg})", fn.lineno, callee, arg.arg, None)


def _field_defaults(cls: ast.ClassDef, rel: str) -> Iterator[Default]:
    fields = [s for s in cls.body
              if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
              and "ClassVar" not in ast.dump(s.annotation)]
    for i, field in enumerate(fields):
        if field.value is not None:
            name = field.target.id
            yield Default(f"{rel}::{cls.name}({name})", field.lineno, cls.name, name, i)


def _defaults_in(body: List[ast.stmt], prefix: str, in_class: Optional[ast.ClassDef],
                 rel: str) -> Iterator[Default]:
    for node in body:
        if isinstance(node, ast.ClassDef):
            if _is_dataclass(node):
                yield from _field_defaults(node, rel)
            yield from _defaults_in(node.body, f"{prefix}{node.name}.", node, rel)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            static = any(getattr(d, "id", "") == "staticmethod" for d in node.decorator_list)
            bound = in_class is not None and not static
            if in_class is not None and node.name == "__init__":
                qualname, callee = prefix[:-1], in_class.name
            else:
                qualname, callee = prefix + node.name, node.name
            yield from _function_defaults(node, qualname, callee, bound, rel)
            yield from _defaults_in(node.body, f"{prefix}{node.name}.", None, rel)


def keyword_defaults(root: Path = ROOT) -> List[Default]:
    package = root / PACKAGE
    return [default for path in sorted(package.rglob("*.py"))
            for default in _defaults_in(_parse(path).body, "", None,
                                        path.relative_to(package).as_posix())]


class _Setting(NamedTuple):
    positional: int
    keywords: Set[str]
    spread: bool


def _calls(root: Path) -> Dict[str, List[_Setting]]:
    calls: Dict[str, List[_Setting]] = {}
    for path in _python_files(CALLER_DIRS, root):
        for node in ast.walk(_parse(path)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute) else None)
            if name is None:
                continue
            spread = (any(isinstance(a, ast.Starred) for a in node.args)
                      or any(k.arg is None for k in node.keywords))
            calls.setdefault(name, []).append(_Setting(
                len(node.args), {k.arg for k in node.keywords if k.arg}, spread))
    return calls


def census(root: Path = ROOT) -> List[Default]:
    """Every keyword default in the package that no non-test call sets."""
    calls = _calls(root)

    def is_set(d: Default) -> bool:
        return any(c.spread or d.param in c.keywords
                   or (d.index is not None and c.positional > d.index)
                   for c in calls.get(d.callee, ()))

    return [d for d in keyword_defaults(root) if not is_set(d)]


def census_report(root: Path = ROOT,
                  allowed: Optional[Dict[str, str]] = None) -> List[Finding]:
    allowed = ALLOWED if allowed is None else allowed
    unset = census(root)
    found = [Finding(f"{PACKAGE}/{d.key.split('::')[0]}", d.line,
                     f"default {d.key.split('::')[1]} is set by no non-test caller")
             for d in unset if d.key not in allowed]
    keys = {d.key for d in unset}
    found += [Finding("scripts/deadcode.py", 0, f"stale ALLOWED entry {key!r}")
              for key in allowed if key not in keys]
    return found


REPORTS = {"imports": import_report, "census": census_report}


def main(argv: Optional[Sequence[str]] = None) -> int:
    chosen = list(sys.argv[1:] if argv is None else argv) or list(REPORTS)
    unknown = [name for name in chosen if name not in REPORTS]
    if unknown:
        print(f"usage: deadcode.py [{' | '.join(REPORTS)}] ...; unknown {unknown}",
              file=sys.stderr)
        return 2
    failed = False
    for name in chosen:
        findings = REPORTS[name]()
        for finding in findings:
            print(finding)
        extra = f", {len(ALLOWED)} allowed" if name == "census" else ""
        print(f"deadcode {name}: {len(findings)} finding(s){extra}")
        failed = failed or bool(findings)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
