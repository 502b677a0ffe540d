"""Benchmark-suite validity: every kernel compiles, runs, and is stable.

The golden outputs freeze each benchmark's ``print_int`` trace; a change
here means a benchmark's semantics changed and all measured figures move.
"""

import pytest

from repro.bench import all_benchmarks, get, mediabench, names
from repro.lang import compile_source
from repro.profiler import Interpreter

GOLDEN_OUTPUTS = {
    "cjpeg": [568, 510, 9127721],
    "djpeg": [4, 61937],
    "epic": [661, 202, 101978],
    "fft": [8, 1492],
    "fir": [16687909],
    "fsed": [733, 7716526],
    "g721dec": [541267],
    "g721enc": [430477, 3750],
    "gsmenc": [
        4416084, 3658847, 3650840, 3870757, 4147404, 4564360, 7531059,
    ],
    "huffman": [160, 14258457],
    "latnrm": [23218],
    "mpeg2dec": [784],
    "mpeg2enc": [84953],
    "pegwit": [
        16048326, 472685, 16216185, 15753426, 9997740, 7825966, 4180967,
        8996422, 12449412,
    ],
    "rawcaudio": [403105, 21137, 50],
    "rawdaudio": [1238067, 88],
    "sobel": [272, 466, 250, 71, 5, 0, 0, 0, 109350],
    "unepic": [256, 16713567],
    "viterbi": [392, 4206816],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_OUTPUTS))
def test_golden_output(name):
    module = compile_source(get(name).source, name)
    interp = Interpreter(module)
    interp.run()
    assert interp.profile.output == GOLDEN_OUTPUTS[name]


def test_suite_size_matches_paper_scale():
    assert len(names()) >= 14


def test_categories_partition_suite():
    med = {b.name for b in mediabench()}
    dsp = {b.name for b in all_benchmarks() if b.category == "dsp"}
    assert med and dsp
    assert not (med & dsp)
    assert med | dsp == set(names())


def test_fig9_benchmarks_present():
    assert "rawcaudio" in names() and "rawdaudio" in names()


def test_get_unknown_raises():
    with pytest.raises(KeyError):
        get("not-a-benchmark")


@pytest.mark.parametrize("name", names())
def test_benchmark_compiles_plain(name):
    module = compile_source(get(name).source, name)
    assert module.op_count() > 50


@pytest.mark.parametrize("name", names())
def test_benchmark_has_partitionable_objects(name):
    """The paper kept only benchmarks "that [have] enough data objects
    where making a partitioning choice about the memory was important"."""
    module = compile_source(get(name).source, name)
    assert len(module.globals) >= 4


@pytest.mark.parametrize("name", names())
def test_benchmark_runs_and_is_deterministic(name):
    module = compile_source(get(name).source, name)
    i1 = Interpreter(module)
    r1 = i1.run()
    module2 = compile_source(get(name).source, name)
    i2 = Interpreter(module2)
    r2 = i2.run()
    assert r1 == r2
    assert i1.profile.output == i2.profile.output
    assert i1.profile.output, "benchmarks must print a checksum"


@pytest.mark.parametrize("name", names())
def test_transforms_preserve_benchmark_semantics(name):
    plain = compile_source(get(name).source, name)
    transformed = compile_source(
        get(name).source, name, unroll_factor=4, if_convert=True
    )
    a, b = Interpreter(plain), Interpreter(transformed)
    ra, rb = a.run(), b.run()
    assert ra == rb
    assert a.profile.output == b.profile.output
