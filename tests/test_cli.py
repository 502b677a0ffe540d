"""Tests for the command-line interface."""

import json
from pathlib import Path

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

    def test_partition_resolves_extensionless_example(self, capsys):
        quickstart = Path(__file__).resolve().parents[1] / "examples/quickstart"
        assert main(["partition", str(quickstart)]) == 0
        assert "cycles" in capsys.readouterr().out

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

    def test_compare_roofline_names_the_answering_scheme(self, demo_file,
                                                         tmp_path, capsys):
        path = tmp_path / "report.json"
        assert main([
            "compare", demo_file, "--fallback",
            "--fault-spec", "seed=7;raise:gdp", "--run-report", str(path),
        ]) == 1
        events = json.loads(path.read_text())["events"]
        answered = [e["scheme"] for e in events if e["kind"] == "final"]
        rooflines = [e["scheme"] for e in events if e["kind"] == "roofline"]
        assert answered == ["unified", "profilemax", "profilemax", "naive"]
        assert rooflines == answered


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

    def test_bench_single_writes_run_report(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        assert main(["bench", "rawdaudio", "--run-report", str(path)]) == 0
        events = json.loads(path.read_text())["events"]
        finals = [e for e in events if e["kind"] == "final"]
        assert len(finals) == 4
        assert f"[run report written to {path}]" in capsys.readouterr().out

    def test_bench_single_exhausted_ladder_exits_2(self, monkeypatch,
                                                    capsys):
        """``bench NAME`` shares the exit rule of ``partition`` and
        ``compare``: a scheme whose every rung fails is a hard failure,
        reported in one line, not a traceback."""
        def failing(prepared, machine, scheme, **kwargs):
            raise RuntimeError(f"{scheme} refused")

        monkeypatch.setattr("repro.pipeline.driver.run_scheme", failing)
        assert main(["bench", "rawdaudio"]) == 2
        out = capsys.readouterr().out
        assert "all rungs of ladder ['unified'] failed" in out
        assert "unified refused" in out


class TestLint:
    def test_stdin_with_verify_partition(self, capsys, monkeypatch):
        """The source is read once: stdin still holds the program when
        --verify-partition prepares it."""
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(DEMO))
        assert main(["lint", "-", "--verify-partition"]) == 0
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert "stats[regioncheck]" in captured.out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    @pytest.mark.parametrize("command", ["partition", "lint", "compile"])
    def test_missing_file_is_an_invalid_invocation(self, command, tmp_path,
                                                   capsys):
        missing = str(tmp_path / "nope.mc")
        with pytest.raises(SystemExit) as excinfo:
            main([command, missing])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.strip() == (
            f"repro: error: cannot read {missing}: No such file or directory"
        )

    def test_script_without_source_block_is_an_invalid_invocation(
        self, tmp_path, capsys
    ):
        script = tmp_path / "empty.py"
        script.write_text("print('no program here')\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", str(script)])
        assert excinfo.value.code == 2
        assert "no MiniC SOURCE" in capsys.readouterr().err
