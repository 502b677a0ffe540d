"""Tests for the resilience layer: budgets, faults, retry/fallback, reports.

The heart of this file is the pair of determinism tests (same FaultPlan
seed → byte-identical deterministic RunReport JSON) and the golden-file
test that pins the full degradation ladder: an injected GDP fault, a
reseed retry that fails again, and the fallback to Profile Max.
"""

import json
import os

import pytest

from repro.exec import RunConfig
from repro.exec.runconfig import SCHEMES
from repro.lint import check_scheme_outcome
from repro.machine import two_cluster_machine
from repro.partition.gdp import GDPConfig
from repro.partition.multilevel import MultilevelPartitioner, PartitionGraph
from repro.partition.rhop import RHOPConfig
from repro.pipeline import Pipeline, PreparedProgram
from repro.resilience import (
    Budget,
    FaultClause,
    FaultPlan,
    InjectedFault,
    LadderExhausted,
    PhaseError,
    PhaseTimer,
    RunReport,
    as_phase_error,
    budget_expired,
    scrub,
)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")

SRC = """
int a[16];
int b[16];
int hist[8];
int main() {
  int i;
  int s = 0;
  for (i = 0; i < 16; i = i + 1) { a[i] = i * 3; }
  for (i = 0; i < 16; i = i + 1) {
    b[i] = a[i] + i;
    hist[b[i] & 7] = hist[b[i] & 7] + 1;
    s = s + b[i];
  }
  print_int(s);
  return s & 255;
}
"""


@pytest.fixture(scope="module")
def prepared():
    return PreparedProgram.from_source(SRC, "resil")


def resilient(**fields) -> Pipeline:
    """A pipeline with this file's defaults: every attempt validated,
    no artifact cache."""
    return Pipeline(RunConfig(**{"validate": True, "cache": "off", **fields}))


# -- Budget -------------------------------------------------------------------


class TestBudget:
    def test_unlimited_never_expires(self):
        budget = Budget()
        assert not budget.expired()
        assert budget.remaining() is None
        assert budget.allows_attempt(10_000)

    def test_wall_clock_expiry_with_fake_clock(self):
        now = [0.0]
        budget = Budget(max_seconds=5.0, clock=lambda: now[0])
        assert not budget.expired()
        assert budget.remaining() == 5.0
        now[0] = 4.9
        assert not budget.expired()
        now[0] = 5.0
        assert budget.expired()
        assert budget.remaining() == 0.0
        budget.restart()
        assert not budget.expired()

    def test_attempt_cap(self):
        budget = Budget(max_attempts=2)
        assert budget.allows_attempt(1)
        assert budget.allows_attempt(2)
        assert not budget.allows_attempt(3)

    def test_validation(self):
        with pytest.raises(ValueError):
            Budget(max_seconds=-1)
        with pytest.raises(ValueError):
            Budget(max_attempts=0)

    def test_budget_expired_helper(self):
        assert not budget_expired(None)
        assert budget_expired(Budget(max_seconds=0.0))


# -- Errors -------------------------------------------------------------------


class TestErrors:
    def test_phase_error_carries_context(self):
        err = PhaseError("gdp", "boom", scheme="profilemax")
        assert err.phase == "gdp"
        assert err.scheme == "profilemax"
        assert "gdp" in str(err)

    def test_as_phase_error_wraps_and_chains(self):
        original = RuntimeError("underlying")
        err = as_phase_error(original, "rhop", "gdp")
        assert isinstance(err, PhaseError)
        assert err.phase == "rhop"
        assert err.__cause__ is original

    def test_as_phase_error_passes_through(self):
        err = InjectedFault("gdp", "injected", scheme="gdp")
        assert as_phase_error(err, "other", "other") is err


# -- FaultPlan ----------------------------------------------------------------


class TestFaultPlan:
    def test_parse_round_trips(self):
        plan = FaultPlan.parse(
            "seed=7; raise:gdp@1; corrupt-homes:gdp:2; unlock:naive:3@2; "
            "slow-moves:2.5"
        )
        assert plan.seed == 7
        assert [str(c) for c in plan.clauses] == [
            "raise:gdp@1",
            "corrupt-homes:gdp:2",
            "unlock:naive:3@2",
            "slow-moves:2.5",
        ]

    @pytest.mark.parametrize("spec", [
        "seed=7",                    # no fault clauses
        "raise:gdp@0",               # attempt < 1
        "raise:gdp@x",               # bad attempt
        "corrupt-homes:gdp",         # missing count
        "corrupt-homes:gdp:0",       # count < 1
        "slow-moves:0",              # factor <= 0
        "explode:gdp",               # unknown kind
        "seed=nope;raise:gdp",       # bad seed
    ])
    def test_parse_rejects(self, spec):
        with pytest.raises(ValueError):
            FaultPlan.parse(spec)

    def test_clause_matching(self):
        every = FaultClause("raise", phase="gdp")
        once = FaultClause("raise", phase="*", attempt=2)
        assert every.matches("gdp", 1) and every.matches("gdp", 7)
        assert not every.matches("rhop", 1)
        assert once.matches("anything", 2)
        assert not once.matches("anything", 1)

    def test_maybe_raise_fires_and_records(self):
        plan = FaultPlan.parse("raise:gdp")
        plan.begin_attempt("gdp", 1)
        with pytest.raises(InjectedFault):
            plan.maybe_raise("gdp")
        fired = plan.drain_fired()
        assert len(fired) == 1
        assert fired[0]["clause"] == "raise:gdp"
        assert plan.drain_fired() == []  # drained

    def test_corrupt_homes_is_seed_deterministic(self):
        homes = {f"g:o{i}": i % 2 for i in range(8)}
        accessed = {obj: 1 for obj in homes}

        def corrupted(seed):
            plan = FaultPlan.parse(f"seed={seed};corrupt-homes:gdp:3")
            plan.begin_attempt("gdp", 1)
            return plan.corrupt_homes(dict(homes), 2, "gdp", accessed)

        assert corrupted(5) == corrupted(5)
        assert corrupted(5) != corrupted(6)
        flipped = {
            obj for obj, home in corrupted(5).items() if homes[obj] != home
        }
        assert len(flipped) == 3

    def test_drop_locks_removes_exactly_m(self):
        locks = {uid: uid % 2 for uid in range(10)}
        plan = FaultPlan.parse("seed=1;unlock:gdp:4")
        plan.begin_attempt("gdp", 1)
        remaining = plan.drop_locks(locks, "gdp")
        assert len(remaining) == 6
        assert set(remaining) <= set(locks)

    def test_machine_for_inflates_move_latency(self):
        machine = two_cluster_machine(move_latency=5)
        plan = FaultPlan.parse("slow-moves:4")
        plan.begin_attempt("gdp", 1)
        slowed = plan.machine_for(machine)
        assert slowed.move_latency == 20
        assert machine.move_latency == 5  # original untouched


# -- RunReport ----------------------------------------------------------------


class TestRunReport:
    def test_phase_timer_accumulates(self):
        now = [0.0]
        timer = PhaseTimer(clock=lambda: now[0])
        with timer.phase("rhop"):
            now[0] += 2.0
        with timer.phase("rhop"):
            now[0] += 1.0
        with timer.phase("gdp"):
            now[0] += 0.5
        assert timer.timings == {"rhop": 3.0, "gdp": 0.5}

    def test_attempt_and_final_seconds_read_the_report_clock(self):
        now = [10.0]
        report = RunReport(clock=lambda: now[0])
        now[0] = 11.0
        report.start_attempt()
        now[0] = 13.5
        report.record_attempt("gdp", 1, "error", phases={"rhop": 9.0})
        report.start_attempt()
        now[0] = 14.0
        report.record_attempt("naive", 1, "ok")
        now[0] = 15.0
        report.record_final("gdp", "naive", "ok")
        attempts = report.attempts()
        assert [e["seconds"] for e in attempts] == [2.5, 0.5]
        # Phase clocks are the caller's; the report copies them.
        assert attempts[0]["phases"] == {"rhop": 9.0}
        # ``final`` counts from the report's creation.
        assert report.final()["seconds"] == 5.0

    def test_deterministic_json_zeroes_clocks_only(self, prepared):
        now = [0.0]
        report = RunReport(clock=lambda: now[0])
        report.record_run("gdp", ["gdp", "naive"])
        report.start_attempt()
        now[0] = 12.5
        report.record_attempt("gdp", 1, "ok", phases={"rhop": 3.25})
        report.record_final("gdp", "gdp", "ok")
        data = json.loads(report.to_json(deterministic=True))
        attempt = [e for e in data["events"] if e["kind"] == "attempt"][0]
        assert attempt["seconds"] == 0.0
        assert attempt["phases"] == {"rhop": 0.0}
        # non-clock structure is preserved
        assert data["final"] == {
            "requested": "gdp", "scheme": "gdp", "status": "ok",
        }
        live = json.loads(report.to_json())
        assert [e for e in live["events"] if e["kind"] == "attempt"][0][
            "seconds"
        ] == 12.5
        # The deterministic form is the one scrub of the live form, also
        # on a fault-injected ladder run (faults, retries, a fallback).
        ladder = RunReport()
        resilient(retries=1, fault_spec="seed=3;raise:gdp").run(
            prepared, "gdp", report=ladder
        )
        assert ladder.fallbacks() and ladder.faults()
        assert scrub(ladder.to_dict()) == ladder.to_dict(deterministic=True)
        assert scrub(ladder.to_dict()) != ladder.to_dict()

    @staticmethod
    def _finals(*finals):
        report = RunReport(clock=lambda: 0.0)
        for requested, scheme, status in finals:
            report.record_final(requested, scheme, status)
        return report

    def test_outcome_state_without_final_is_failed(self):
        assert RunReport().outcome_state() == "failed"

    def test_outcome_state_one_exhausted_final_fails_the_run(self):
        report = self._finals(
            ("unified", "unified", "ok"), ("gdp", None, "failed"),
            ("naive", "naive", "ok"),
        )
        assert report.outcome_state() == "failed"

    def test_outcome_state_profile_fallback_is_degraded(self):
        report = RunReport(clock=lambda: 0.0)
        report.record_fallback("profile:dynamic", "profile:static", "boom")
        report.record_final("gdp", "gdp", "ok")
        assert report.outcome_state() == "degraded"

    def test_outcome_state_other_answering_scheme_is_degraded(self):
        # A warm hit on a degraded outcome records no fallback event.
        report = self._finals(("gdp", "profilemax", "ok"))
        assert report.fallbacks() == []
        assert report.outcome_state() == "degraded"

    def test_outcome_state_clean_run_is_ok(self):
        report = self._finals(("unified", "unified", "ok"), ("gdp", "gdp", "ok"))
        assert report.outcome_state() == "ok"


# -- Anytime partitioning under budgets ---------------------------------------


def _ring_graph(n=24):
    graph = PartitionGraph()
    for node in range(n):
        graph.add_node(node, 1.0)
    for node in range(n):
        graph.add_edge(node, (node + 1) % n, 1.0)
    return graph


class TestAnytimeBudget:
    def test_expired_budget_still_yields_complete_partition(self):
        budget = Budget(max_seconds=0.0)
        partitioner = MultilevelPartitioner(
            k=2, imbalance=1.2, seed=3, budget=budget
        )
        assignment = partitioner.partition(_ring_graph())
        assert set(assignment) == set(range(24))
        assert set(assignment.values()) == {0, 1}

    def test_generous_budget_matches_no_budget(self):
        free = MultilevelPartitioner(k=2, imbalance=1.2, seed=3)
        capped = MultilevelPartitioner(
            k=2, imbalance=1.2, seed=3, budget=Budget(max_seconds=3600)
        )
        assert free.partition(_ring_graph()) == capped.partition(_ring_graph())

    def test_scheme_under_expired_budget_is_valid(self, prepared):
        pipe = resilient(max_seconds=0.0, retries=2)
        result = pipe.run(prepared, "gdp")
        assert result.scheme == "gdp"
        diag = check_scheme_outcome(prepared, result)
        assert not diag.has_errors

    def test_attempt_cap_stops_ladder(self, prepared):
        pipe = resilient(retries=2, fault_spec="seed=1;raise:*")
        pipe.budget = Budget(max_attempts=2)
        with pytest.raises(LadderExhausted) as excinfo:
            pipe.run(prepared, "gdp")
        report = excinfo.value.run_report
        assert len(report.attempts()) == 2
        assert any(e["kind"] == "budget" for e in report.events)

    def test_config_reseeded_preserves_and_overrides(self):
        budget = Budget(max_seconds=10)
        gdp = GDPConfig(seed=100).reseeded(7, budget=budget)
        assert gdp.seed == 107 and gdp.budget is budget
        rhop = RHOPConfig(seed=200).reseeded(7, budget=budget)
        assert rhop.seed == 207 and rhop.budget is budget


# -- The ladder ---------------------------------------------------------------


class TestResilientPipeline:
    def test_clean_run_has_no_fallback(self, prepared):
        result = resilient(retries=1).run(prepared, "gdp")
        assert result.scheme == "gdp" and not result.fell_back
        assert result.requested == "gdp"
        assert result.report.final()["status"] == "ok"
        assert len(result.report.attempts()) == 1
        assert result.cycles > 0

    def test_transient_fault_recovers_via_reseed_retry(self, prepared):
        pipe = resilient(retries=1, fault_spec="seed=3;raise:gdp@1")
        result = pipe.run(prepared, "gdp")
        assert result.scheme == "gdp" and not result.fell_back
        statuses = [(a["attempt"], a["status"]) for a in result.report.attempts()]
        assert statuses == [(1, "error"), (2, "ok")]

    def test_persistent_fault_falls_back_to_profilemax(self, prepared):
        """The acceptance-criteria scenario: injected GDP fault with
        fallback enabled completes with a Profile Max outcome whose
        assignment passes the partition validity checker."""
        pipe = resilient(retries=1, fallback=True, fault_spec="seed=3;raise:gdp")
        result = pipe.run(prepared, "gdp")
        assert result.fell_back and result.scheme == "profilemax"
        report = result.report
        assert len(report.faults()) == 2          # original + retry
        assert len(report.attempts("gdp")) == 2   # retry-with-reseed happened
        assert [f["from"] for f in report.fallbacks()] == ["gdp"]
        assert report.final() == report.events[-1]
        diag = check_scheme_outcome(prepared, result)
        assert not diag.has_errors

    def test_corrupt_homes_rejected_by_validity_checker(self, prepared):
        pipe = resilient(retries=0, fault_spec="seed=9;corrupt-homes:gdp:2")
        result = pipe.run(prepared, "gdp")
        assert result.fell_back
        bad = result.report.attempts("gdp")[0]
        assert bad["status"] == "invalid"
        assert any("lock-violation" in d for d in bad["diagnostics"])

    def test_no_fallback_raises_ladder_exhausted(self, prepared):
        pipe = resilient(
            retries=0, fallback=False, fault_spec="seed=3;raise:gdp"
        )
        with pytest.raises(LadderExhausted) as excinfo:
            pipe.run(prepared, "gdp")
        report = excinfo.value.run_report
        assert report is not None
        assert report.final()["status"] == "failed"

    def test_whole_ladder_exhausted(self, prepared):
        pipe = resilient(retries=0, fault_spec="seed=3;raise:*")
        with pytest.raises(LadderExhausted) as excinfo:
            pipe.run(prepared, "gdp")
        attempts = excinfo.value.run_report.attempts()
        assert [a["scheme"] for a in attempts] == list(SCHEMES)

    def test_ladder_starts_at_requested_rung(self, prepared):
        pipe = resilient(retries=0, fault_spec="seed=3;raise:naive")
        result = pipe.run(prepared, "naive")
        assert result.scheme == "unified"
        assert [a["scheme"] for a in result.report.attempts()] == [
            "naive", "unified",
        ]

    def test_run_all_dedupes_schemes(self, prepared):
        pipe = resilient(retries=0)
        outcomes = pipe.run_all(
            prepared, ["unified", "gdp", "unified", "gdp"]
        )
        assert list(outcomes) == ["unified", "gdp"]
        report = outcomes["gdp"].report
        assert len(report.attempts("unified")) == 1

    def test_compare_ratios(self, prepared):
        rel = resilient(retries=0).compare(
            prepared, schemes=("gdp", "naive")
        )
        assert set(rel) == {"gdp", "naive"}
        assert all(0 < v <= 1.5 for v in rel.values())

    def test_rejects_negative_retries(self):
        with pytest.raises(ValueError):
            resilient(retries=-1)


# -- Determinism and goldens --------------------------------------------------


class TestDeterminism:
    def _ladder_json(self, prepared):
        pipe = resilient(retries=1, fault_spec="seed=3;raise:gdp")
        result = pipe.run(prepared, "gdp")
        return result.report.to_json(deterministic=True)

    def test_same_seed_byte_identical_json(self, prepared):
        assert self._ladder_json(prepared) == self._ladder_json(prepared)

    def test_different_seed_same_path_for_raise(self, prepared):
        # 'raise' ignores the rng, so only the seed in the clause string
        # would differ — structure must still be deterministic per seed.
        first = self._ladder_json(prepared)
        assert json.loads(first)["summary"]["fallbacks"] == 1

    def test_corrupt_homes_json_byte_identical(self, prepared):
        def run():
            pipe = resilient(
                retries=1, fault_spec="seed=11;corrupt-homes:gdp:2"
            )
            report = RunReport()
            pipe.run(prepared, "gdp", report=report)
            return report.to_json(deterministic=True)

        assert run() == run()

    def test_degradation_ladder_matches_golden(self, prepared):
        """Pins the full story: fault on GDP attempt 1, reseed retry
        faults again, ladder falls back, Profile Max succeeds."""
        with open(os.path.join(GOLDEN_DIR, "degradation_ladder.json")) as fh:
            golden = fh.read()
        assert self._ladder_json(prepared) + "\n" == golden


# -- Pipeline driver satellite ------------------------------------------------


class TestPipelineDedupe:
    def test_run_all_runs_unified_once(self, prepared, monkeypatch):
        pipe = Pipeline(RunConfig(cache="off"))
        calls = []
        real_run = Pipeline.run

        def counting_run(self, prep, scheme, *args, **kwargs):
            calls.append(scheme)
            return real_run(self, prep, scheme, *args, **kwargs)

        monkeypatch.setattr(Pipeline, "run", counting_run)
        pipe.run_all(prepared, ["unified", "gdp", "unified"])
        assert calls == ["unified", "gdp"]

    def test_compare_with_unified_in_list(self, prepared, monkeypatch):
        pipe = Pipeline(RunConfig(cache="off"))
        calls = []
        real_run = Pipeline.run

        def counting_run(self, prep, scheme, *args, **kwargs):
            calls.append(scheme)
            return real_run(self, prep, scheme, *args, **kwargs)

        monkeypatch.setattr(Pipeline, "run", counting_run)
        rel = pipe.compare(prepared, schemes=("unified", "gdp"))
        assert calls.count("unified") == 1
        assert rel["unified"] == 1.0
