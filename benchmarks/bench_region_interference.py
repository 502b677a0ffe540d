"""Acceptance for the region-granular analysis stack (PR 9).

Three suite-wide gates:

* ``regioncheck`` reports **zero ERROR-level violations** for every
  registered bench × scheme × points-to tier — the region-located
  contracts refine invariants every valid partition already satisfies,
  so any error here is a checker or partitioner bug;
* at least **three benches carry ``region-splittable`` advisories** —
  the sub-object partitioning candidates the ROADMAP item needs to
  exist before a splitter is worth building;
* every scheme outcome's **roofline ratio is ≥ 1.0** — the red-blue
  pebble I/O lower bound must actually be a lower bound.
"""

from harness import FULL_SUITE, outcome, prepared

from repro.analysis.modref import ModRefAnalysis
from repro.analysis.pointsto import TIERS
from repro.exec.runconfig import SCHEMES
from repro.lint.regioncheck import check_region_outcome

LAT = 5


def test_regioncheck_zero_errors_suite_wide():
    """No region-granular contract is violated by any scheme under any
    points-to tier (the annotation-driven checker inherits each prep
    tier's object sets, covering the whole refinement chain)."""
    failures = []
    checked = 0
    for name in FULL_SUITE:
        for tier in TIERS:
            prep = prepared(name, tier)
            for scheme in SCHEMES:
                out = outcome(name, scheme, LAT, tier)
                report = check_region_outcome(prep, out)
                checked += 1
                for diag in report.errors:
                    failures.append(f"{name}/{tier}/{scheme}: {diag.render()}")
    assert checked == len(FULL_SUITE) * len(TIERS) * len(SCHEMES)
    assert not failures, "\n".join(failures[:20])


def test_splittable_advisories_on_at_least_three_benches():
    """≥3 benches own objects whose MOD/REF regions decompose into
    disjoint never-co-accessed intervals (cjpeg's plane pointers and the
    epic family's level slots are the expected candidates)."""
    with_advisories = {}
    for name in FULL_SUITE:
        modref = ModRefAnalysis(prepared(name).module)
        splittable = modref.splittable_objects()
        if splittable:
            with_advisories[name] = {
                obj: len(parts) for obj, parts in splittable.items()
            }
    print()
    for name, objs in sorted(with_advisories.items()):
        print(f"{name}: {objs}")
    assert len(with_advisories) >= 3, with_advisories


def test_splittable_components_are_disjoint_and_sorted():
    """Each advisory's component list is a canonical region decomposition:
    sorted, non-empty, pairwise non-overlapping intervals (adjacent
    slots like ``[0,4)+[4,8)`` are disjoint — no shared bytes — and are
    exactly what distinct affine slots produce)."""
    seen_any = False
    for name in FULL_SUITE:
        modref = ModRefAnalysis(prepared(name).module)
        for obj, parts in modref.splittable_objects().items():
            seen_any = True
            assert len(parts) >= 2, (name, obj)
            for lo, hi in parts:
                assert lo < hi, (name, obj, parts)
            for (_, prev_hi), (next_lo, _) in zip(parts, parts[1:]):
                assert prev_hi <= next_lo, (name, obj, parts)
    assert seen_any


def test_roofline_ratio_sound_for_every_scheme():
    """total traffic / I/O lower bound ≥ 1.0 everywhere, with a positive
    bound (an empty bound would make the ratio vacuous)."""
    for name in FULL_SUITE:
        for scheme in SCHEMES:
            out = outcome(name, scheme, LAT)
            roofline = out.roofline
            assert roofline is not None, (name, scheme)
            assert roofline["lower_bound_bytes"] > 0, (name, scheme)
            assert roofline["ratio"] >= 1.0, (name, scheme, roofline)
            assert (
                roofline["total_traffic_bytes"]
                >= roofline["memory_traffic_bytes"]
            )


def test_roofline_move_term_orders_schemes():
    """The move term prices data placement: on every bench the unified
    machine (no intercluster moves) must sit at least as close to the
    optimum as the naive post-pass placement."""
    for name in FULL_SUITE:
        unified = outcome(name, "unified", LAT).roofline
        naive = outcome(name, "naive", LAT).roofline
        assert unified["ratio"] <= naive["ratio"] + 1e-9, (
            name, unified, naive,
        )
