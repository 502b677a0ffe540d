"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.ir.serialize import loads

DEMO = """
int t[8] = {5, 3, 8, 1, 9, 2, 7, 4};
int out[8];
int main() {
  int s = 0;
  for (int i = 0; i < 8; i = i + 1) { out[i] = t[i] * 2; s = s + out[i]; }
  print_int(s);
  return s;
}
"""


@pytest.fixture()
def demo_file(tmp_path):
    path = tmp_path / "demo.mc"
    path.write_text(DEMO)
    return str(path)


class TestRun:
    def test_run_prints_output(self, demo_file, capsys):
        assert main(["run", demo_file]) == 0
        out = capsys.readouterr().out
        assert "78" in out
        assert "exit 78" in out

    def test_run_with_transforms(self, demo_file, capsys):
        assert main(["run", demo_file, "--unroll", "4", "--if-convert",
                     "--optimize"]) == 0
        assert "78" in capsys.readouterr().out

    def test_run_from_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(DEMO))
        assert main(["run", "-"]) == 0
        assert "78" in capsys.readouterr().out


class TestCompile:
    def test_compile_serialized_roundtrips(self, demo_file, capsys):
        assert main(["compile", demo_file, "--name", "demo"]) == 0
        text = capsys.readouterr().out
        module = loads(text)
        assert module.name == "demo"
        assert "t" in module.globals

    def test_compile_pretty(self, demo_file, capsys):
        assert main(["compile", demo_file, "--pretty"]) == 0
        out = capsys.readouterr().out
        assert "func @main" in out

    def test_compile_to_file(self, demo_file, tmp_path, capsys):
        out_path = tmp_path / "demo.ir"
        assert main(["compile", demo_file, "-o", str(out_path)]) == 0
        assert loads(out_path.read_text()).has_function("main")


class TestPartitionAndCompare:
    def test_partition_gdp(self, demo_file, capsys):
        assert main(["partition", demo_file, "--scheme", "gdp"]) == 0
        out = capsys.readouterr().out
        assert "cycles:" in out
        assert "object placement:" in out
        assert "g:t" in out

    def test_partition_unified_has_no_placement(self, demo_file, capsys):
        assert main(["partition", demo_file, "--scheme", "unified"]) == 0
        out = capsys.readouterr().out
        assert "object placement:" not in out

    def test_compare_table(self, demo_file, capsys):
        assert main(["compare", demo_file, "--latency", "5"]) == 0
        out = capsys.readouterr().out
        for scheme in ("unified", "gdp", "profilemax", "naive"):
            assert scheme in out

    def test_bad_scheme_rejected(self, demo_file):
        with pytest.raises(SystemExit):
            main(["partition", demo_file, "--scheme", "nonsense"])

    def test_run_report_keeps_the_artifact_cache(self, demo_file, tmp_path,
                                                  capsys):
        """A resilience flag (here --run-report) must not bypass
        --cache on: the second run is answered by the outcome cache."""
        reports, cycles = [], []
        for run in ("cold", "warm"):
            report = tmp_path / f"{run}.json"
            assert main([
                "partition", demo_file, "--cache", "on",
                "--cache-dir", str(tmp_path / "cache"),
                "--run-report", str(report),
            ]) == 0
            reports.append(json.loads(report.read_text()))
            cycles.append([
                line for line in capsys.readouterr().out.splitlines()
                if line.startswith("cycles:")
            ])
        cold, warm = ([
            (e["cache"], e["status"]) for e in r["events"]
            if e["kind"] == "cache"
        ] for r in reports)
        assert ("outcome", "miss") in cold
        assert ("outcome", "hit") in warm
        assert cycles[0] == cycles[1] and len(cycles[0]) == 1

    def test_profiler_fault_fires_over_a_warm_cache(self, demo_file,
                                                     tmp_path, capsys):
        """A prepared artifact from an earlier clean run must not answer
        a faulted run: the injected profiler fault still fires."""
        cache = ["--cache", "on", "--cache-dir", str(tmp_path / "cache")]
        assert main(["partition", demo_file, *cache]) == 0
        capsys.readouterr()
        assert main([
            "partition", demo_file, *cache,
            "--fault-spec", "raise:profiler",
        ]) == 1
        assert "profile: static (fallback from dynamic)" in (
            capsys.readouterr().out
        )


class TestBench:
    def test_bench_listing(self, capsys):
        assert main(["bench"]) == 0
        out = capsys.readouterr().out
        assert "rawcaudio" in out
        assert "mediabench" in out

    def test_bench_single(self, capsys):
        assert main(["bench", "rawdaudio", "--latency", "1"]) == 0
        out = capsys.readouterr().out
        assert "gdp" in out and "vs unified" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
