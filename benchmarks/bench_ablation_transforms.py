"""Ablation — the frontend transform pipeline (region ILP recovery).

DESIGN.md documents why the reproduction needs if-conversion + unrolling
(+ scalar optimization): the paper's Trimaran regions are hyperblocks
with real ILP.  This bench quantifies each stage's effect on region size
and on the unified baseline, and checks the scheme ordering survives
without the optimizer.
"""

from functools import lru_cache

from repro.bench import get
from repro.evalmodel import arithmetic_mean, format_table
from repro.exec import RunConfig
from repro.lang import compile_source
from repro.opt import optimize_module
from repro.pipeline import Pipeline, PreparedProgram

SAMPLE = ("rawcaudio", "fir", "mpeg2enc", "fsed")
LAT = 5

CONFIGS = {
    "plain": dict(unroll=0, ifc=False, opt=False),
    "+ifconvert": dict(unroll=0, ifc=True, opt=False),
    "+unroll": dict(unroll=4, ifc=True, opt=False),
    "+optimize": dict(unroll=4, ifc=True, opt=True),
}


@lru_cache(maxsize=None)
def build(name: str, config_key: str):
    cfg = CONFIGS[config_key]
    module = compile_source(
        get(name).source, name, unroll_factor=cfg["unroll"],
        if_convert=cfg["ifc"],
    )
    if cfg["opt"]:
        optimize_module(module)
    return PreparedProgram(module)


@lru_cache(maxsize=None)
def outcomes(name: str, config_key: str):
    pipe = Pipeline(
        RunConfig(latency=LAT, cache="off", fallback=False, retries=0)
    )
    return pipe.run_all(build(name, config_key))


def region_stats():
    rows = []
    for name in SAMPLE:
        row = [name]
        for key in CONFIGS:
            prep = build(name, key)
            biggest = max(len(b) for f in prep.module for b in f)
            row.append(biggest)
        rows.append(row)
    return rows


def test_ablation_region_sizes(benchmark):
    rows = benchmark.pedantic(region_stats, rounds=1, iterations=1)
    print()
    print("Ablation: largest region (ops) per transform stage")
    print(format_table(["benchmark"] + list(CONFIGS), rows))
    for row in rows:
        plain, final = row[1], row[4]
        assert final > plain, f"{row[0]}: transforms should grow regions"


def test_ablation_transform_effect_on_schemes():
    print()
    rows = []
    for key in ("plain", "+optimize"):
        gs, ns = [], []
        for name in SAMPLE:
            out = outcomes(name, key)
            base = out["unified"].cycles
            gs.append(base / out["gdp"].cycles)
            ns.append(base / out["naive"].cycles)
        rows.append([key, round(arithmetic_mean(gs), 3),
                     round(arithmetic_mean(ns), 3)])
    print("Ablation: scheme quality vs transform pipeline (rel to unified)")
    print(format_table(["config", "GDP", "naive"], rows))
    # With the full pipeline GDP must remain in a healthy band.
    assert rows[-1][1] > 0.75


def test_unified_baseline_improves_with_transforms():
    """The transforms exist to strengthen the baseline: unified cycles
    must drop monotonically-ish from plain to fully transformed."""
    improved = 0
    for name in SAMPLE:
        plain = outcomes(name, "plain")["unified"].cycles
        final = outcomes(name, "+optimize")["unified"].cycles
        if final < plain:
            improved += 1
    assert improved >= len(SAMPLE) - 1
