"""Precision-vs-cycles: does a sharper points-to tier buy partition quality?

The paper leans on "sophisticated interprocedural pointer analysis" to
annotate memory ops before partitioning; this bench makes that axis
measurable.  For each benchmark and each precision tier it reports the
average per-op points-to set size, the may-alias pair count, and the GDP
cycle count — and asserts the refinement contract: sharper tiers may only
shrink target sets, and on the pointer-heavy benchmarks the shrink is
strict while no scheme's cycle count gets worse.
"""

from harness import outcome, prepared

from repro.analysis import TIERS
from repro.evalmodel import format_table
from repro.exec.engine import SWEEP_SCHEMES

#: Benchmarks whose pointer idioms (pointer tables, struct-of-pointers,
#: pointer-returning helpers) give the sharper tiers something to win.
POINTER_SUITE = ("cjpeg", "djpeg", "unepic", "epic", "pegwit")

#: Globals-only controls: precision is already maxed out at the baseline,
#: so every tier must report identical stats and cycles.
CONTROL_SUITE = ("rawcaudio", "huffman")

LATENCY = 5


def _row(name, tier):
    stats = prepared(name, tier).pointsto.stats()
    cycles = outcome(name, "gdp", LATENCY, tier).cycles
    return stats, cycles


def test_precision_vs_cycles_table(benchmark):
    def build():
        rows = []
        for name in POINTER_SUITE + CONTROL_SUITE:
            for tier in TIERS:
                stats, cycles = _row(name, tier)
                rows.append([
                    name, tier, f"{stats.avg_set_size:.3f}",
                    f"{stats.singleton_ratio:.0%}",
                    str(stats.mayalias_pairs), f"{cycles:.0f}",
                ])
        return rows

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    print()
    print(f"Points-to precision vs GDP cycles @ {LATENCY}-cycle latency")
    print(format_table(
        ["benchmark", "tier", "avg|pts|", "singleton", "mayalias", "gdp cycles"],
        rows,
    ))
    assert len(rows) == len(TIERS) * (len(POINTER_SUITE) + len(CONTROL_SUITE))


def test_sharper_tiers_strictly_shrink_on_pointer_suite():
    """Acceptance: on >= 3 benchmarks some sharper tier strictly shrinks
    the average points-to set size while no scheme's cycle count gets
    worse under that tier.  (A sharper tier may also shift a placement
    heuristic for the worse — cjpeg's cs tier does exactly that to
    ProfileMax — so the clean-win tier need not be the sharpest one.)"""
    clean_wins = set()
    shrink_log = []
    for name in POINTER_SUITE:
        base = prepared(name, "andersen").pointsto.stats()
        for tier in TIERS[1:]:
            sharp = prepared(name, tier).pointsto.stats()
            assert sharp.avg_set_size <= base.avg_set_size + 1e-9, (
                name, tier, "a sharper tier may never grow the average set"
            )
            if sharp.avg_set_size < base.avg_set_size - 1e-9:
                shrink_log.append((name, tier))
                regressed = any(
                    outcome(name, scheme, LATENCY, tier).cycles
                    > outcome(name, scheme, LATENCY, "andersen").cycles
                    for scheme in SWEEP_SCHEMES
                )
                if not regressed:
                    clean_wins.add(name)
    assert len(clean_wins) >= 3, (clean_wins, shrink_log)


def test_control_suite_is_tier_invariant():
    """Globals-only benchmarks are already singleton-precise: every tier
    must agree exactly, so the knob is a no-op where it should be."""
    for name in CONTROL_SUITE:
        base = prepared(name, "andersen").pointsto.stats()
        assert base.singleton_ratio == 1.0
        for tier in TIERS[1:]:
            sharp = prepared(name, tier).pointsto.stats()
            assert sharp.avg_set_size == base.avg_set_size
            assert sharp.mayalias_pairs == base.mayalias_pairs
            assert (
                outcome(name, "gdp", LATENCY, tier).cycles
                == outcome(name, "gdp", LATENCY, "andersen").cycles
            )

