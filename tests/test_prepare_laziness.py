"""The prepared program builds its program-level DFG and access-pattern
merge only when something reads them, and each DFG solves def-use once
per function."""

import json
import os

import pytest

from repro.analysis import dfg
from repro.exec import RunConfig
from repro.exec.artifacts import prepared_from_payload, prepared_to_payload
from repro.machine import two_cluster_machine
from repro.pipeline import Pipeline, PreparedProgram, prepared, run_scheme

SRC = """
int a[16];
int b[16];
int scale(int x, int k) { return x * k + 1; }
int sum(int *p, int n) {
  int s = 0;
  for (int i = 0; i < n; i = i + 1) { s = s + p[i]; }
  return s;
}
int main() {
  for (int i = 0; i < 16; i = i + 1) {
    a[i] = scale(i, 3);
    b[i] = scale(a[i], 2);
  }
  print_int(sum(a, 16) + sum(b, 16));
  return 0;
}
"""


@pytest.fixture
def counts(monkeypatch):
    """Constructions of ProgramGraph / DefUse-inside-the-DFG and calls of
    the merge, counted through the names their callers look up."""
    tally = {"graph": 0, "defuse": 0, "merge": 0}

    graph_init = dfg.ProgramGraph.__init__

    def counting_graph_init(self, *args, **kwargs):
        tally["graph"] += 1
        graph_init(self, *args, **kwargs)

    defuse = dfg.DefUse

    def counting_defuse(*args, **kwargs):
        tally["defuse"] += 1
        return defuse(*args, **kwargs)

    merge = prepared.access_pattern_merge

    def counting_merge(*args, **kwargs):
        tally["merge"] += 1
        return merge(*args, **kwargs)

    monkeypatch.setattr(dfg.ProgramGraph, "__init__", counting_graph_init)
    monkeypatch.setattr(dfg, "DefUse", counting_defuse)
    monkeypatch.setattr(prepared, "access_pattern_merge", counting_merge)
    return tally


def test_unified_and_naive_build_no_graph(counts):
    prog = PreparedProgram.from_source(SRC, "t")
    machine = two_cluster_machine()
    for scheme in ("unified", "naive"):
        run_scheme(prog, machine, scheme)
    assert counts == {"graph": 0, "defuse": 0, "merge": 0}


def test_gdp_then_profilemax_share_one_graph(counts):
    prog = PreparedProgram.from_source(SRC, "t")
    machine = two_cluster_machine()
    run_scheme(prog, machine, "gdp")
    run_scheme(prog, machine, "profilemax")
    assert counts["graph"] == 1
    assert counts["merge"] == 1


def test_rehydrated_program_builds_nothing_until_merge_is_read(counts):
    payload = prepared_to_payload(PreparedProgram.from_source(SRC, "t"))
    again = prepared_from_payload(payload)
    assert counts == {"graph": 0, "defuse": 0, "merge": 0}
    groups = again.merge.object_groups()
    assert groups
    assert counts["graph"] == 1 and counts["merge"] == 1
    assert again.merge is again.merge
    assert again.program_graph is again.program_graph
    assert counts["graph"] == 1 and counts["merge"] == 1


def test_one_defuse_per_function(counts):
    prog = PreparedProgram.from_source(SRC, "t")
    calls = sum(
        op.is_call() for func in prog.module for op in func.operations()
    )
    assert calls > len(prog.module.functions)  # call sites outnumber functions
    prog.program_graph
    assert counts["defuse"] == len(prog.module.functions)


def test_stored_prepared_payload_has_no_merge_groups(tmp_path, counts):
    pipe = Pipeline(RunConfig(cache="on", cache_dir=str(tmp_path)))
    pipe.prepare(SRC, "t")
    assert counts["graph"] == 0
    entries = []
    for root, _dirs, files in os.walk(tmp_path):
        for name in files:
            if name.endswith(".json"):
                with open(os.path.join(root, name)) as handle:
                    entries.append(json.load(handle))
    prepared_entries = [e for e in entries if e["kind"] == "prepared"]
    assert len(prepared_entries) == 1
    assert "merge_groups" not in prepared_entries[0]["payload"]


def test_payload_with_legacy_merge_groups_still_loads():
    prog = PreparedProgram.from_source(SRC, "t")
    payload = prepared_to_payload(prog)
    payload["merge_groups"] = [["g:a"], ["g:b"]]
    again = prepared_from_payload(payload)
    assert [sorted(g.object_ids) for g in again.merge.object_groups()] == [
        sorted(g.object_ids) for g in prog.merge.object_groups()
    ]
