"""``scripts/deadcode.py`` fails on what it exists to catch and passes
what ruff's F401 passes: planted files in a temporary tree check both
sides of each report, and both reports are clean on this tree."""

import importlib.util
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "deadcode", ROOT / "scripts" / "deadcode.py"
)
deadcode = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(deadcode)


def plant(root, files):
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))


def flagged_imports(root):
    return sorted(
        (f.path, f.what.split("'")[1]) for f in deadcode.import_report(root)
    )


class TestImports:
    def test_unused_import_fails(self, tmp_path):
        plant(tmp_path, {
            "src/repro/mod.py": """\
                import os
                from typing import Dict, List

                def f() -> Dict[str, int]:
                    return {}
            """,
            "tests/test_mod.py": "import pytest\n",
            "scripts/tool.py": "import json as js\n",
        })
        assert flagged_imports(tmp_path) == [
            ("scripts/tool.py", "js"),
            ("src/repro/mod.py", "List"),
            ("src/repro/mod.py", "os"),
            ("tests/test_mod.py", "pytest"),
        ]

    def test_all_noqa_string_annotation_and_future_pass(self, tmp_path):
        plant(tmp_path, {
            "src/repro/__init__.py": """\
                from .mod import exported
                __all__ = ["exported"]
            """,
            "src/repro/seam.py": """\
                from . import plugins  # noqa: F401
                from .mod import (  # noqa: F401
                    a_payload,
                    b_payload,
                )
            """,
            "src/repro/hints.py": """\
                from __future__ import annotations
                from typing import TYPE_CHECKING
                if TYPE_CHECKING:
                    from .mod import Thing

                def f(x: "Thing") -> "list[Thing]":
                    return [x]
            """,
        })
        assert flagged_imports(tmp_path) == []

    def test_other_noqa_codes_do_not_excuse(self, tmp_path):
        plant(tmp_path, {"scripts/tool.py": "import sys  # noqa: E402\n"})
        assert flagged_imports(tmp_path) == [("scripts/tool.py", "sys")]


CENSUS_TREE = {
    "src/repro/knobs.py": """\
        def run(source, retries=0, verbose=False):
            return source

        class Engine:
            def __init__(self, jobs=1, clock=None):
                self.jobs = jobs

            def go(self, scheme="gdp", *, trace=False):
                return scheme
    """,
    "scripts/driver.py": """\
        from repro.knobs import Engine, run

        run("x", 3)
        Engine(jobs=2).go(**{})
    """,
    "tests/test_knobs.py": """\
        from repro.knobs import Engine, run

        run("x", verbose=True)
        Engine(clock=lambda: 0.0)
    """,
}


class TestCensus:
    def test_default_only_a_test_sets_fails(self, tmp_path):
        plant(tmp_path, CENSUS_TREE)
        unset = [d.key for d in deadcode.census(tmp_path)]
        assert unset == ["knobs.py::run(verbose)", "knobs.py::Engine(clock)"]
        findings = deadcode.census_report(tmp_path, allowed={})
        assert [f.path for f in findings] == ["src/repro/knobs.py"] * 2

    def test_allowed_default_passes(self, tmp_path):
        plant(tmp_path, CENSUS_TREE)
        allowed = {
            "knobs.py::run(verbose)": "reason",
            "knobs.py::Engine(clock)": "reason",
        }
        assert deadcode.census_report(tmp_path, allowed=allowed) == []

    def test_stale_allow_list_entry_fails(self, tmp_path):
        plant(tmp_path, CENSUS_TREE)
        allowed = {
            "knobs.py::run(verbose)": "reason",
            "knobs.py::Engine(clock)": "reason",
            "knobs.py::run(retries)": "a caller sets it now",
        }
        [finding] = deadcode.census_report(tmp_path, allowed=allowed)
        assert "stale" in finding.what and "run(retries)" in finding.what

    def test_dataclass_field_default_is_counted(self, tmp_path):
        plant(tmp_path, {
            "src/repro/cfg.py": """\
                from dataclasses import dataclass
                from typing import ClassVar

                @dataclass(frozen=True)
                class Config:
                    name: str
                    seed: int = 0
                    size: int = 4
                    KINDS: ClassVar[tuple] = ()
            """,
            "scripts/use.py": "Config('a', 1)\n",
        })
        assert [d.key for d in deadcode.census(tmp_path)] == ["cfg.py::Config(size)"]


def test_both_reports_clean_on_this_tree(capsys):
    assert deadcode.main([]) == 0
    out = capsys.readouterr().out
    assert "deadcode imports: 0 finding(s)" in out
    assert "deadcode census: 0 finding(s)" in out
