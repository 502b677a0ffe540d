"""Execution engine: RunConfig, artifact cache, parallel sweeps, CLI."""

import json
import os
import warnings

import pytest

from repro.exec import (
    SCHEMA_VERSION,
    ArtifactCache,
    ParallelRunner,
    RunConfig,
    RunConfigError,
    canonical_key,
    lookup_cached_outcome,
)
from repro.exec.artifacts import (
    outcome_key_material,
    prepared_key_material,
)
from repro.pipeline import Pipeline, PreparedProgram
from repro.resilience import RunReport

SOURCE = """
int N = 12;
int a[12];
int b[12];
int main() {
  int i;
  for (i = 0; i < N; i = i + 1) { a[i] = i * 3; }
  for (i = 0; i < N; i = i + 1) { b[i] = a[i] + a[(i + 1) % N]; }
  print_int(b[5]);
  return 0;
}
"""

#: The same program with one constant changed — a real IR mutation.
MUTATED_SOURCE = SOURCE.replace("i * 3", "i * 5")


@pytest.fixture(scope="module")
def tiny_prepared():
    return PreparedProgram.from_source(SOURCE, "tiny")


# -- RunConfig ----------------------------------------------------------------


class TestRunConfig:
    def test_round_trip(self):
        cfg = RunConfig(scheme="profilemax", latency=10, seed=3,
                        pointsto_tier="field", jobs=2, cache="readonly")
        assert RunConfig.from_json(cfg.to_json()) == cfg

    def test_defaults_round_trip(self):
        assert RunConfig.from_json(RunConfig().to_json()) == RunConfig()

    def test_unknown_field_rejected(self):
        data = RunConfig().to_dict()
        data["frobnicate"] = True
        with pytest.raises(ValueError, match="frobnicate"):
            RunConfig.from_dict(data)

    def test_future_schema_version_rejected(self):
        data = RunConfig().to_dict()
        data["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema_version"):
            RunConfig.from_dict(data)

    @pytest.mark.parametrize("field,value", [
        ("scheme", "bogus"),
        ("pointsto_tier", "bogus"),
        ("machine", "bogus"),
        ("cache", "bogus"),
        ("retries", -1),
        ("jobs", 0),
        ("max_seconds", -1.0),
    ])
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            RunConfig(**{field: value})

    def test_replace_is_fresh_frozen_copy(self):
        cfg = RunConfig()
        other = cfg.replace(scheme="naive")
        assert other.scheme == "naive" and cfg.scheme == "gdp"
        with pytest.raises(Exception):
            cfg.scheme = "naive"  # frozen

    def test_cache_key_material_excludes_how_knobs(self):
        material = RunConfig(jobs=7, retries=5, cache="refresh").cache_key_material()
        assert "jobs" not in material and "retries" not in material
        assert material["scheme"] == "gdp" and material["latency"] == 5

    def test_cacheable_results_gates(self):
        assert RunConfig().cacheable_results
        assert not RunConfig(cache="off").cacheable_results
        assert not RunConfig(max_seconds=1.0).cacheable_results
        assert not RunConfig(fault_spec="raise:gdp").cacheable_results

    def test_effective_jobs(self):
        assert RunConfig(jobs=3).effective_jobs == 3
        assert RunConfig().effective_jobs >= 1

    def test_build_machine_presets(self):
        assert RunConfig(machine="two_cluster", latency=10).build_machine().move_latency == 10
        assert RunConfig(machine="four_cluster").build_machine().num_clusters == 4
        assert RunConfig(machine="single_cluster").build_machine().num_clusters == 1


class TestRunConfigError:
    """The structured rejection contract service boundaries rely on:
    every refusal is a RunConfigError naming the offending field(s)."""

    def test_is_a_value_error(self):
        assert issubclass(RunConfigError, ValueError)

    def test_unknown_fields_named(self):
        data = RunConfig().to_dict()
        data["frobnicate"] = True
        data["zap"] = 1
        with pytest.raises(RunConfigError) as exc:
            RunConfig.from_dict(data)
        assert exc.value.fields == ("frobnicate", "zap")

    def test_schema_version_named(self):
        with pytest.raises(RunConfigError) as exc:
            RunConfig.from_dict({"schema_version": SCHEMA_VERSION + 1})
        assert exc.value.fields == ("schema_version",)

    @pytest.mark.parametrize("field,value", [
        ("scheme", "bogus"),
        ("pointsto_tier", "bogus"),
        ("profile", "bogus"),
        ("machine", "bogus"),
        ("cache", "bogus"),
        ("retries", -1),
        ("jobs", 0),
        ("max_seconds", -1.0),
    ])
    def test_bad_values_name_their_field(self, field, value):
        with pytest.raises(RunConfigError) as exc:
            RunConfig(**{field: value})
        assert exc.value.fields == (field,)

    def test_wrong_json_type_wrapped_not_type_error(self):
        with pytest.raises(RunConfigError, match="malformed"):
            RunConfig.from_dict({"retries": "many"})

    def test_non_dict_rejected(self):
        with pytest.raises(RunConfigError):
            RunConfig.from_dict(["not", "a", "dict"])


# -- RunConfig is the only front door ----------------------------------------


class TestConfigFrontDoor:
    def test_config_constructors_do_not_warn(self):
        cfg = RunConfig(validate=True, pointsto_tier="field", retries=2,
                        cache="off")
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            pipe = Pipeline(cfg)
            prepared = PreparedProgram.from_source(SOURCE, "tiny", config=cfg)
        assert pipe.config is cfg and prepared.pointsto_tier == "field"

    def test_legacy_keywords_rejected(self):
        with pytest.raises(TypeError):
            Pipeline(validate=True)
        with pytest.raises(TypeError):
            PreparedProgram.from_source(SOURCE, "tiny", pointsto_tier="field")


# -- Artifact cache -----------------------------------------------------------


def _prepare(cfg, cache, source=SOURCE):
    """(prepared, IR hash, prepared-cache status) via the driver."""
    report = RunReport()
    prepared = Pipeline(cfg, cache=cache).prepare(source, "tiny", report)
    [event] = report.cache_events()
    return prepared, prepared.fingerprint(), event["status"]


def _run(cfg, cache, prepared, scheme):
    """(outcome, outcome-cache status) via the driver."""
    report = RunReport()
    outcome = Pipeline(cfg, cache=cache).run(prepared, scheme, report)
    [event] = report.cache_events()
    return outcome, event["status"]


class TestArtifactCache:
    def test_prepared_miss_then_hit(self, tmp_path):
        cfg = RunConfig(cache_dir=str(tmp_path))
        cache = ArtifactCache(cfg.cache_dir, cfg.cache)
        _p1, hash1, status1 = _prepare(cfg, cache)
        _p2, hash2, status2 = _prepare(cfg, cache)
        assert (status1, status2) == ("miss", "hit")
        assert hash1 == hash2
        assert cache.hits == 1 and cache.misses == 1 and cache.stores == 1

    def test_ir_mutation_invalidates(self, tmp_path):
        cfg = RunConfig(cache_dir=str(tmp_path))
        cache = ArtifactCache(cfg.cache_dir, cfg.cache)
        _p, hash1, _ = _prepare(cfg, cache)
        _p, hash2, status = _prepare(cfg, cache, MUTATED_SOURCE)
        assert status == "miss", "a mutated program must never hit"
        assert hash1 != hash2, "IR mutation must change the module hash"

    def test_outcome_roundtrip_preserves_result(self, tmp_path, tiny_prepared):
        cfg = RunConfig(cache_dir=str(tmp_path))
        cache = ArtifactCache(cfg.cache_dir, cfg.cache)
        fresh, s1 = _run(cfg, cache, tiny_prepared, "gdp")
        warm, s2 = _run(cfg, cache, tiny_prepared, "gdp")
        assert (s1, s2) == ("miss", "hit")
        assert warm.cycles == fresh.cycles
        assert warm.dynamic_moves == fresh.dynamic_moves
        assert warm.object_home == fresh.object_home
        assert warm.scheme == "gdp" and warm.module.op_count() > 0
        assert len(warm.assignment) == len(fresh.assignment)

    def test_seed_and_machine_in_outcome_key(self, tiny_prepared):
        machine = RunConfig().build_machine()
        base = outcome_key_material("abc", machine, "andersen", "gdp", 0)
        seeded = outcome_key_material("abc", machine, "andersen", "gdp", 7)
        other = outcome_key_material(
            "abc", RunConfig(latency=1).build_machine(), "andersen", "gdp", 0
        )
        assert canonical_key(base) != canonical_key(seeded)
        assert canonical_key(base) != canonical_key(other)

    def test_stale_schema_entry_dropped(self, tmp_path):
        cache = ArtifactCache(str(tmp_path), "on")
        material = prepared_key_material("src", "x", "andersen")
        cache.store("prepared", material, {"payload": 1})
        key = canonical_key(material)
        path = cache._path("prepared", key)
        entry = json.load(open(path))
        entry["schema"] = SCHEMA_VERSION + 1
        json.dump(entry, open(path, "w"))
        assert cache.load("prepared", material) is None
        assert cache.stale == 1
        assert not os.path.exists(path), "stale entries are deleted"

    def test_corrupt_entry_quarantined(self, tmp_path):
        cache = ArtifactCache(str(tmp_path), "on")
        material = prepared_key_material("src", "x", "andersen")
        cache.store("prepared", material, {"payload": 1})
        path = cache._path("prepared", canonical_key(material))
        with open(path, "w") as fh:
            fh.write("not json{")
        assert cache.load("prepared", material) is None
        assert cache.corrupt == 1 and cache.quarantined == 1
        assert not os.path.exists(path)

    def test_policies(self, tmp_path):
        material = prepared_key_material("src", "x", "andersen")
        on = ArtifactCache(str(tmp_path), "on")
        assert on.store("prepared", material, {"v": 1})
        readonly = ArtifactCache(str(tmp_path), "readonly")
        assert readonly.load("prepared", material) == {"v": 1}
        assert not readonly.store("prepared", material, {"v": 2})
        refresh = ArtifactCache(str(tmp_path), "refresh")
        assert refresh.load("prepared", material) is None  # forced recompute
        assert refresh.store("prepared", material, {"v": 3})
        off = ArtifactCache(str(tmp_path), "off")
        assert off.load("prepared", material) is None
        assert not off.store("prepared", material, {"v": 4})

    def test_stats_gc_clear(self, tmp_path):
        cache = ArtifactCache(str(tmp_path), "on")
        for i in range(3):
            cache.store(
                "prepared",
                prepared_key_material(f"src{i}", "x", "andersen"),
                {"v": i},
            )
        stats = cache.stats()
        assert stats["entries"] == 3 and stats["disk"]["prepared"]["entries"] == 3
        assert cache.gc(max_age_days=1)["removed"] == 0
        assert cache.gc(max_bytes=0)["removed"] == 3
        cache.store(
            "prepared", prepared_key_material("z", "x", "andersen"), {"v": 9}
        )
        assert cache.clear() == 1
        assert cache.stats()["entries"] == 0


class TestCacheIntegrity:
    """Every load verifies the entry's SHA-256 digest; corruption is
    quarantined (kept for forensics, out of the lookup path) and the
    artifact recomputes — self-healing, never a crash or a wrong answer.
    """

    def _store_one(self, tmp_path, payload=None):
        cache = ArtifactCache(str(tmp_path), "on")
        material = prepared_key_material("src", "x", "andersen")
        cache.store("prepared", material, payload or {"payload": 1})
        path = cache._path("prepared", canonical_key(material))
        return cache, material, path

    def test_byte_flip_anywhere_is_detected(self, tmp_path):
        from repro.exec.cache import entry_digest

        cache, material, path = self._store_one(tmp_path)
        entry = json.load(open(path))
        assert entry["digest"] == entry_digest(entry)
        # Flip a value *outside* the payload — still caught, because the
        # digest covers the whole entry, not just the payload.
        entry["created"] = entry.get("created", 0) + 1
        json.dump(entry, open(path, "w"))
        assert cache.load("prepared", material) is None
        assert cache.corrupt == 1 and cache.quarantined == 1

    def test_quarantine_preserves_the_evidence(self, tmp_path):
        cache, material, path = self._store_one(tmp_path)
        original = open(path, "rb").read()
        damaged = bytearray(original)
        damaged[len(damaged) // 2] ^= 0xFF
        with open(path, "wb") as fh:
            fh.write(bytes(damaged))
        assert cache.load("prepared", material) is None
        qdir = os.path.join(str(tmp_path), "quarantine")
        quarantined = os.listdir(qdir)
        assert quarantined == [os.path.basename(path)]
        kept = open(os.path.join(qdir, quarantined[0]), "rb").read()
        assert kept == bytes(damaged)

    def test_pre_digest_entry_is_stale_not_corrupt(self, tmp_path):
        # Entries written before the digest upgrade lack the field:
        # they recompute (stale), they are not treated as damage.
        cache, material, path = self._store_one(tmp_path)
        entry = json.load(open(path))
        del entry["digest"]
        json.dump(entry, open(path, "w"))
        assert cache.load("prepared", material) is None
        assert cache.stale == 1 and cache.quarantined == 0

    def test_corruption_self_heals_on_restore(self, tmp_path):
        cache, material, path = self._store_one(tmp_path)
        with open(path, "w") as fh:
            fh.write("}{")
        assert cache.load("prepared", material) is None  # quarantined
        assert cache.store("prepared", material, {"payload": 1})
        assert cache.load("prepared", material) == {"payload": 1}

    def test_quarantine_in_stats_and_cleared(self, tmp_path):
        cache, material, path = self._store_one(tmp_path)
        with open(path, "w") as fh:
            fh.write("}{")
        cache.load("prepared", material)
        stats = cache.stats()
        assert stats["session"]["corrupt"] == 1
        assert stats["quarantine"]["entries"] == 1
        assert stats["quarantine"]["bytes"] > 0
        # The quarantine is part of the store: clear() empties it too.
        cache.clear()
        assert cache.stats()["quarantine"] == {"entries": 0, "bytes": 0}

    def test_run_cell_recomputes_through_corruption(self, tmp_path):
        from repro.exec.engine import run_cell

        spec = {"bench": "tiny", "source": SOURCE,
                "config": {"cache": "on", "cache_dir": str(tmp_path)}}
        fresh = run_cell(dict(spec))
        # Damage every stored artifact, then re-run: digests catch all
        # of it, and the recomputed cell is identical.
        for dirpath, _dirs, files in os.walk(os.path.join(str(tmp_path),
                                                          "objects")):
            for name in files:
                target = os.path.join(dirpath, name)
                blob = bytearray(open(target, "rb").read())
                blob[len(blob) // 2] ^= 0xFF
                with open(target, "wb") as fh:
                    fh.write(bytes(blob))
        healed = run_cell(dict(spec))
        assert healed["cycles"] == fresh["cycles"]
        assert healed["dynamic_moves"] == fresh["dynamic_moves"]
        assert healed["status"] == fresh["status"]
        cache = ArtifactCache(str(tmp_path), "on")
        assert cache.stats()["quarantine"]["entries"] >= 1


def _hammer_one_cache_dir(args):
    """Pool worker for the multi-process cache race test: store, gc with
    a grace window, read back.  Returns how many just-written entries a
    concurrent eviction managed to lose (must be zero)."""
    root, worker_id, rounds = args
    cache = ArtifactCache(root, "on")
    lost = 0
    for i in range(rounds):
        material = {"writer": worker_id, "round": i}
        payload = {"writer": worker_id, "round": i}
        cache.store("prepared", material, payload)
        # Aggressive concurrent eviction: size budget zero would delete
        # everything, but the grace window must protect entries other
        # processes just wrote and are about to read back.
        cache.gc(max_bytes=0, grace_seconds=120.0)
        if cache.load("prepared", material) != payload:
            lost += 1
    return lost


class TestCacheConcurrency:
    """Satellite 1: gc/eviction racing a concurrent writer must never
    delete a just-written entry (generation grace + store lock)."""

    def test_multiprocess_writers_survive_concurrent_gc(self, tmp_path):
        from concurrent.futures import ProcessPoolExecutor

        args = [(str(tmp_path), worker, 10) for worker in range(4)]
        with ProcessPoolExecutor(max_workers=4) as pool:
            lost = list(pool.map(_hammer_one_cache_dir, args))
        assert lost == [0, 0, 0, 0]
        # Every write really landed (nothing silently dropped either).
        assert ArtifactCache(str(tmp_path), "on").stats()["entries"] == 40

    def test_grace_window_protects_fresh_entries(self, tmp_path):
        cache = ArtifactCache(str(tmp_path), "on")
        material = prepared_key_material("fresh", "x", "andersen")
        cache.store("prepared", material, {"v": 1})
        result = cache.gc(max_bytes=0, grace_seconds=3600.0)
        assert result == {"removed": 0, "kept": 1}
        assert cache.load("prepared", material) == {"v": 1}
        # Without the window the same budget evicts it.
        result = cache.gc(max_bytes=0)
        assert result["removed"] == 1
        assert cache.load("prepared", material) is None

    def test_grace_never_shields_stale_schema(self, tmp_path):
        cache = ArtifactCache(str(tmp_path), "on")
        material = prepared_key_material("stale", "x", "andersen")
        cache.store("prepared", material, {"v": 1})
        key = canonical_key(material)
        path = cache._path("prepared", key)
        with open(path) as fh:
            entry = json.load(fh)
        entry["schema"] = SCHEMA_VERSION - 1
        with open(path, "w") as fh:
            json.dump(entry, fh)
        result = cache.gc(grace_seconds=3600.0)
        assert result["removed"] == 1  # schema mismatch trumps freshness

    def test_size_eviction_is_least_recently_used(self, tmp_path):
        import time as _time

        cache = ArtifactCache(str(tmp_path), "on")
        materials = [
            prepared_key_material(f"s{i}", "x", "andersen") for i in range(3)
        ]
        for i, material in enumerate(materials):
            cache.store("prepared", material, {"v": i})
        # Everything was written "long ago"...
        old = _time.time() - 1000.0
        paths = [
            cache._path("prepared", canonical_key(m)) for m in materials
        ]
        for path in paths:
            os.utime(path, (old, old))
        # ...then entry 0 is *used*, which refreshes its recency.
        assert cache.load("prepared", materials[0]) == {"v": 0}
        budget = os.path.getsize(paths[0])
        result = cache.gc(max_bytes=budget)
        assert result["removed"] == 2
        assert cache.load("prepared", materials[0]) == {"v": 0}
        assert cache.load("prepared", materials[1]) is None
        assert cache.load("prepared", materials[2]) is None

    def test_eviction_counter_and_stats_keys(self, tmp_path):
        cache = ArtifactCache(str(tmp_path), "on")
        for i in range(2):
            cache.store(
                "prepared",
                prepared_key_material(f"e{i}", "x", "andersen"),
                {"v": i},
            )
        cache.gc(max_bytes=0)
        assert cache.evictions == 2
        cache.store(
            "prepared", prepared_key_material("e9", "x", "andersen"), {"v": 9}
        )
        cache.clear()
        assert cache.evictions == 3
        stats = cache.stats()
        assert stats["session"]["evictions"] == 3
        assert "hit_ratio" in stats

    def test_stats_reports_shards(self, tmp_path):
        cache = ArtifactCache(str(tmp_path), "on")
        for i in range(8):
            cache.store(
                "prepared",
                prepared_key_material(f"sh{i}", "x", "andersen"),
                {"v": i},
            )
        stats = cache.stats()
        assert 1 <= stats["disk"]["prepared"]["shards"] <= 8


class TestLookupCachedOutcome:
    def test_job_keyed_probe(self, tmp_path):
        cfg = RunConfig(cache_dir=str(tmp_path))
        assert lookup_cached_outcome(SOURCE, "tiny", cfg) is None
        from repro.exec.engine import run_cell

        cell = run_cell(
            {"bench": "tiny", "source": SOURCE, "config": cfg.to_dict()}
        )
        assert cell["status"] == "ok"
        payload = lookup_cached_outcome(SOURCE, "tiny", cfg)
        assert payload is not None
        assert payload["eval"]["cycles"] == cell["cycles"]
        # Result-affecting knobs change the probe's answer...
        assert lookup_cached_outcome(
            SOURCE, "tiny", cfg.replace(seed=5)
        ) is None
        # ...and non-cacheable configs never probe at all.
        assert lookup_cached_outcome(
            SOURCE, "tiny", cfg.replace(fault_spec="raise:gdp")
        ) is None

    def test_probe_never_writes(self, tmp_path):
        cfg = RunConfig(cache_dir=str(tmp_path))
        lookup_cached_outcome(SOURCE, "tiny", cfg)
        assert ArtifactCache(str(tmp_path), "on").stats()["entries"] == 0


# -- Pipeline on the engine ---------------------------------------------------


class TestPipelineCachePath:
    def test_run_all_served_from_cache(self, tmp_path, tiny_prepared, monkeypatch):
        cfg = RunConfig(cache_dir=str(tmp_path))
        first = Pipeline(cfg).run_all(tiny_prepared)
        # Second pipeline must answer entirely from the artifact store:
        # recomputing is made impossible.
        import repro.pipeline.driver as driver

        def boom(*a, **k):
            raise AssertionError("cache miss: run_scheme was called")

        monkeypatch.setattr(driver, "run_scheme", boom)
        second = Pipeline(cfg).run_all(tiny_prepared)
        for name, outcome in first.items():
            assert second[name].cycles == outcome.cycles

    def test_custom_partitioner_config_bypasses_cache(self, tmp_path, tiny_prepared):
        from repro.partition.rhop import RHOPConfig

        cfg = RunConfig(cache_dir=str(tmp_path))
        pipe = Pipeline(cfg, rhop_config=RHOPConfig())
        assert not pipe.outcomes_cacheable
        outcomes = pipe.run_all(tiny_prepared, ["unified"])
        assert outcomes["unified"].cycles > 0
        assert ArtifactCache(str(tmp_path), "on").stats()["entries"] == 0


# -- Parallel sweeps ----------------------------------------------------------


class TestParallelRunner:
    def test_serial_and_parallel_byte_identical(self, tmp_path):
        sources = {"tiny": SOURCE}
        serial = ParallelRunner(
            RunConfig(cache_dir=str(tmp_path / "serial"))
        ).sweep(["tiny"], schemes=("unified", "gdp"), sources=sources, jobs=1)
        parallel = ParallelRunner(
            RunConfig(cache_dir=str(tmp_path / "parallel"))
        ).sweep(["tiny"], schemes=("unified", "gdp"), sources=sources, jobs=2)
        assert serial.jobs == 1 and parallel.jobs == 2
        assert serial.to_json(deterministic=True) == parallel.to_json(
            deterministic=True
        )
        assert [c["status"] for c in serial.cells] == ["ok", "ok"]

    def test_warm_sweep_hits_cache(self, tmp_path):
        runner = ParallelRunner(RunConfig(cache_dir=str(tmp_path)))
        sources = {"tiny": SOURCE}
        cold = runner.sweep(["tiny"], schemes=("unified", "gdp"),
                            sources=sources, jobs=1)
        warm = runner.sweep(["tiny"], schemes=("unified", "gdp"),
                            sources=sources, jobs=1)
        assert cold.cache_hit_ratio("outcome") == 0.0
        assert warm.cache_hit_ratio("outcome") == 1.0
        for i, cell in enumerate(warm.cells):
            assert cell["cycles"] == cold.cells[i]["cycles"]

    def test_failed_cell_degrades_not_kills(self, tmp_path):
        cfg = RunConfig(
            cache_dir=str(tmp_path), fault_spec="seed=3;raise:unified",
            fallback=False, retries=0,
        )
        result = ParallelRunner(cfg).sweep(
            ["tiny"], schemes=("unified", "gdp"),
            sources={"tiny": SOURCE}, jobs=1,
        )
        by_scheme = {c["scheme"]: c for c in result.cells}
        assert by_scheme["unified"]["status"] == "failed"
        assert by_scheme["unified"]["error"]
        assert by_scheme["gdp"]["status"] == "ok"
        assert result.counts() == {"ok": 1, "degraded": 0, "failed": 1}

    def test_fallback_cell_reports_degraded(self, tmp_path):
        cfg = RunConfig(
            cache_dir=str(tmp_path), fault_spec="seed=3;raise:gdp",
            fallback=True, retries=0,
        )
        result = ParallelRunner(cfg).sweep(
            ["tiny"], schemes=("gdp",), sources={"tiny": SOURCE}, jobs=1
        )
        cell = result.cells[0]
        assert cell["status"] == "degraded"
        assert cell["ran_as"] == "profilemax"
        assert result.summary()["fallbacks"] == 1

    def test_unknown_bench_fails_cell(self, tmp_path):
        result = ParallelRunner(
            RunConfig(cache_dir=str(tmp_path))
        ).sweep(["no-such-bench"], schemes=("unified",), jobs=1)
        assert result.cells[0]["status"] == "failed"

    def test_sweep_report_merges_cache_and_speedup_columns(self, tmp_path):
        runner = ParallelRunner(RunConfig(cache_dir=str(tmp_path)))
        result = runner.sweep(["tiny"], schemes=("unified", "gdp"),
                              sources={"tiny": SOURCE}, jobs=1)
        payload = result.to_dict()
        assert payload["jobs"] == 1
        assert payload["wall_seconds"] > 0
        assert payload["cache"]["outcome"]["miss"] == 2
        assert "speedup" in payload
        table = result.render_table()
        assert "cache" in table and "speedup" in table


# -- CLI ----------------------------------------------------------------------


class TestCli:
    @pytest.fixture()
    def demo_file(self, tmp_path):
        path = tmp_path / "demo.mc"
        path.write_text(SOURCE)
        return str(path)

    def test_config_show_json_round_trips(self, capsys):
        from repro.cli import main

        assert main(["config", "show", "--format", "json", "--seed", "9",
                     "--pointsto", "field", "--jobs", "2"]) == 0
        cfg = RunConfig.from_json(capsys.readouterr().out)
        assert cfg.seed == 9 and cfg.pointsto_tier == "field" and cfg.jobs == 2

    def test_config_show_text(self, capsys):
        from repro.cli import main

        assert main(["config", "show"]) == 0
        out = capsys.readouterr().out
        assert "scheme" in out and "cache" in out

    def test_partition_warm_cache_and_exit_codes(self, demo_file, tmp_path, capsys):
        from repro.cli import main

        cache_dir = str(tmp_path / "cache")
        argv = ["partition", demo_file, "--cache", "on",
                "--cache-dir", cache_dir]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first.splitlines()[0] == second.splitlines()[0]
        stats = ArtifactCache(cache_dir, "on").stats()
        assert stats["disk"]["prepared"]["entries"] == 1
        assert stats["disk"]["outcome"]["entries"] == 1

    def test_partition_fallback_exits_degraded(self, demo_file, capsys):
        from repro.cli import main

        code = main(["partition", demo_file, "--fallback", "--retries", "0",
                     "--fault-spec", "seed=3;raise:gdp"])
        out = capsys.readouterr().out
        assert code == 1, out
        assert "fallback from gdp" in out

    def test_partition_exhausted_exits_hard(self, demo_file, capsys):
        from repro.cli import main

        code = main(["partition", demo_file, "--retries", "0",
                     "--scheme", "unified",
                     "--fault-spec", "seed=3;raise:unified"])
        assert code == 2

    def test_cache_cli_stats_gc_clear(self, tmp_path, capsys):
        from repro.cli import main

        cache_dir = str(tmp_path)
        cache = ArtifactCache(cache_dir, "on")
        cache.store("prepared",
                    prepared_key_material("s", "x", "andersen"), {"v": 1})
        assert main(["cache", "stats", "--cache-dir", cache_dir,
                     "--format", "json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 1
        assert main(["cache", "gc", "--cache-dir", cache_dir,
                     "--max-bytes", "0"]) == 0
        assert "removed 1" in capsys.readouterr().out
        cache.store("prepared",
                    prepared_key_material("s2", "x", "andersen"), {"v": 2})
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert ArtifactCache(cache_dir, "on").stats()["entries"] == 0

    def test_cache_gc_grace_seconds_flag(self, tmp_path, capsys):
        from repro.cli import main

        cache_dir = str(tmp_path)
        cache = ArtifactCache(cache_dir, "on")
        cache.store("prepared",
                    prepared_key_material("g", "x", "andersen"), {"v": 1})
        assert main(["cache", "gc", "--cache-dir", cache_dir,
                     "--max-bytes", "0", "--grace-seconds", "3600"]) == 0
        assert "removed 0" in capsys.readouterr().out
        assert ArtifactCache(cache_dir, "on").stats()["entries"] == 1

    def test_bench_all_sweep(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["bench", "rawcaudio", "--all", "--jobs", "1",
                     "--cache", "on", "--cache-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "speedup" in out and "rawcaudio" in out


# -- RunReport cache events ---------------------------------------------------


class TestReportCacheEvents:
    def test_cache_events_recorded_and_scrubbed(self):
        from repro.resilience import RunReport

        report = RunReport()
        report.record_cache("outcome", "hit")
        report.record_run("gdp", ["gdp"])
        report.record_final("gdp", "gdp", "ok")
        assert report.cache_events()[0]["status"] == "hit"
        full = report.to_dict()
        deterministic = report.to_dict(deterministic=True)
        assert any(e["kind"] == "cache" for e in full["events"])
        assert not any(
            e["kind"] == "cache" for e in deterministic["events"]
        ), "cache locality must not leak into deterministic serialisation"
