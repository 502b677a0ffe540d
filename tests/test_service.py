"""Partitioning-as-a-service: job model, fair queue, broker, HTTP."""

import json
import os
import threading

import pytest

from repro.exec import RunConfig
from repro.exec.engine import run_cell
from repro.service import (
    CANCELLED,
    DEGRADED,
    DONE,
    FAILED,
    Broker,
    FairQueue,
    Job,
    ServiceClient,
    ServiceError,
    ServiceServer,
    job_key,
    scrub_events,
)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")

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

OTHER_SOURCE = SOURCE.replace("i * 3", "i * 7")


def make_broker(tmp_path, **kwargs):
    kwargs.setdefault(
        "config", RunConfig(cache_dir=str(tmp_path / "cache"), jobs=1)
    )
    return Broker(**kwargs)


def make_job(job_id="j1", tenant="default", priority=0, config=None):
    config = config or RunConfig()
    return Job(job_id, job_key("tiny", SOURCE, config), "tiny", SOURCE,
               config, tenant=tenant, priority=priority)


# -- job identity and scrubbing -----------------------------------------------


class TestJobKey:
    def test_execution_knobs_do_not_change_key(self):
        base = job_key("tiny", SOURCE, RunConfig())
        assert job_key("tiny", SOURCE, RunConfig(jobs=7)) == base
        assert job_key("tiny", SOURCE, RunConfig(cache="refresh")) == base
        assert job_key(
            "tiny", SOURCE, RunConfig(cache_dir="/elsewhere")
        ) == base

    def test_result_affecting_fields_change_key(self):
        base = job_key("tiny", SOURCE, RunConfig())
        assert job_key("tiny", SOURCE, RunConfig(scheme="naive")) != base
        assert job_key("tiny", SOURCE, RunConfig(seed=1)) != base
        assert job_key("tiny", SOURCE, RunConfig(latency=9)) != base
        assert job_key("tiny", OTHER_SOURCE, RunConfig()) != base
        assert job_key("other", SOURCE, RunConfig()) != base

    def test_scrub_events_masks_execution_artifacts(self):
        events = [{
            "seq": 0, "ts": 1.25, "job": "j000009", "kind": "started",
            "state": "running", "worker": "w1", "queue_wait": 0.5,
        }]
        scrubbed = scrub_events(events)
        assert scrubbed[0]["ts"] == 0.0
        assert scrubbed[0]["queue_wait"] == 0.0
        assert scrubbed[0]["job"] == "-" and scrubbed[0]["worker"] == "-"
        assert scrubbed[0]["kind"] == "started"  # structure preserved
        assert events[0]["ts"] == 1.25  # input untouched
        # The one table (``resilience.report.SCRUBBED``) applies at any
        # depth, keeps each replacement's type, zeroes a mapping's values
        # and drops cache events from every list.
        nested = [{
            "kind": "finished", "seconds": 3.5, "wall_seconds": 2.0,
            "cell_seconds": 4.0, "speedup": 2.0, "uptime_seconds": 9.0,
            "cycles": 812,
            "report": {"events": [
                {"kind": "attempt", "seconds": 1.5,
                 "phases": {"gdp": 0.25, "rhop": 1.0}},
                {"kind": "cache", "cache": "outcome", "status": "hit"},
                {"kind": "pointsto", "stats": {
                    "solve_seconds": 0.01, "solver_iterations": 42,
                    "nodes": 9}},
            ]},
        }, {"kind": "cache", "cache": "prepared", "status": "miss"}]
        assert scrub_events(nested) == [{
            "kind": "finished", "seconds": 0.0, "wall_seconds": 0.0,
            "cell_seconds": 0.0, "speedup": 0.0, "uptime_seconds": 0.0,
            "cycles": 812,
            "report": {"events": [
                {"kind": "attempt", "seconds": 0.0,
                 "phases": {"gdp": 0.0, "rhop": 0.0}},
                {"kind": "pointsto", "stats": {
                    "solve_seconds": 0, "solver_iterations": 0,
                    "nodes": 9}},
            ]},
        }]
        solver = scrub_events(nested)[0]["report"]["events"][1]["stats"]
        assert type(solver["solve_seconds"]) is int


# -- the fair queue -----------------------------------------------------------


class TestFairQueue:
    def test_fifo_within_tenant(self):
        queue = FairQueue()
        jobs = [make_job(f"j{i}") for i in range(3)]
        for job in jobs:
            queue.push(job)
        assert [queue.pop() for _ in range(3)] == jobs

    def test_priority_buckets_drain_highest_first(self):
        queue = FairQueue()
        low = make_job("low", priority=0)
        high = make_job("high", priority=5)
        queue.push(low)
        queue.push(high)
        assert queue.pop() is high
        assert queue.pop() is low

    def test_round_robin_across_tenants(self):
        queue = FairQueue()
        a1 = make_job("a1", tenant="a")
        a2 = make_job("a2", tenant="a")
        b1 = make_job("b1", tenant="b")
        for job in (a1, a2, b1):
            queue.push(job)
        # A flooding first does not starve B: a1, then B's turn, then a2.
        assert [queue.pop() for _ in range(3)] == [a1, b1, a2]

    def test_quota_bounds_in_flight_per_tenant(self):
        queue = FairQueue(quota=1)
        a1 = make_job("a1", tenant="a")
        a2 = make_job("a2", tenant="a")
        b1 = make_job("b1", tenant="b")
        for job in (a1, a2, b1):
            queue.push(job)
        assert queue.pop() is a1
        assert queue.pop() is b1          # a2 blocked: tenant a at quota
        assert queue.pop(timeout=0.05) is None
        queue.task_done(a1)
        assert queue.pop(timeout=1.0) is a2
        assert queue.stats()["running"] == {"a": 1, "b": 1}

    def test_cancelled_jobs_skipped_at_pop(self):
        queue = FairQueue()
        doomed = make_job("doomed")
        live = make_job("live")
        queue.push(doomed)
        queue.push(live)
        assert queue.cancel(doomed)
        assert doomed.state == CANCELLED
        assert queue.pop() is live
        assert queue.stats()["cancelled"] == 1

    def test_cancel_refused_once_running(self):
        queue = FairQueue()
        job = make_job()
        queue.push(job)
        popped = queue.pop()
        popped.record("started", state="running")
        assert not queue.cancel(popped)

    def test_close_unblocks_consumers(self):
        queue = FairQueue()
        results = []
        thread = threading.Thread(
            target=lambda: results.append(queue.pop(timeout=30))
        )
        thread.start()
        queue.close()
        thread.join(timeout=5)
        assert results == [None]
        with pytest.raises(RuntimeError):
            queue.push(make_job())

    def test_cancel_at_quota_does_not_leak_the_slot(self):
        # A queued job cancelled while its tenant sits at quota must not
        # consume the slot when pop() later skips over it.
        queue = FairQueue(quota=1)
        a1 = make_job("a1", tenant="a")
        a2 = make_job("a2", tenant="a")
        b1 = make_job("b1", tenant="b")
        for job in (a1, a2, b1):
            queue.push(job)
        assert queue.pop() is a1            # tenant a now at quota
        assert queue.cancel(a2)
        assert queue.pop() is b1
        queue.task_done(a1)
        # a2 is dropped at pop time, never returned, never "running".
        assert queue.pop(timeout=0.05) is None
        assert queue.stats()["cancelled"] == 1
        assert queue.stats()["running"] == {"b": 1}

    def test_sustained_high_priority_starves_low_by_design(self):
        # Priority is strict between buckets (fairness is *within* a
        # bucket): a sustained high-priority stream defers low-priority
        # work until the high bucket is empty.  This documents the
        # contract — quotas, not priorities, are the anti-starvation knob.
        queue = FairQueue()
        low = make_job("low", priority=0)
        queue.push(low)
        order = []
        for i in range(3):
            high = make_job(f"high{i}", priority=9)
            queue.push(high)           # refilled between pops
            order.append(queue.pop().id)
        order.append(queue.pop().id)
        assert order == ["high0", "high1", "high2", "low"]

    def test_requeue_after_crash_goes_to_the_fifo_back(self):
        # A worker-crash requeue re-enters through push(): the job loses
        # its place and runs after its tenant's already-queued work, so
        # a crashing job cannot head-of-line-block its own tenant.
        queue = FairQueue()
        first = make_job("first")
        second = make_job("second")
        queue.push(first)
        queue.push(second)
        crashed = queue.pop()
        assert crashed is first
        queue.task_done(crashed)
        queue.push(crashed)                 # the requeue path
        assert [queue.pop().id, queue.pop().id] == ["second", "first"]


# -- broker admission and validation ------------------------------------------


class TestBrokerAdmission:
    @pytest.fixture()
    def broker(self, tmp_path):
        broker = make_broker(tmp_path, workers=1, start=False)
        yield broker
        broker.shutdown(wait=False)

    def test_unknown_request_field_is_400(self, broker):
        with pytest.raises(ServiceError) as exc:
            broker.submit({"source": SOURCE, "frobnicate": 1})
        assert exc.value.status == 400
        assert exc.value.fields == ("frobnicate",)

    def test_unknown_config_field_is_400_with_field(self, broker):
        with pytest.raises(ServiceError) as exc:
            broker.submit(
                {"source": SOURCE, "config": {"scheme": "gdp", "bogus": 1}}
            )
        assert exc.value.status == 400
        assert exc.value.code == "invalid_config"
        assert exc.value.fields == ("bogus",)

    def test_schema_version_mismatch_is_400(self, broker):
        from repro.exec import SCHEMA_VERSION

        with pytest.raises(ServiceError) as exc:
            broker.submit({
                "source": SOURCE,
                "config": {"schema_version": SCHEMA_VERSION + 1},
            })
        assert exc.value.status == 400
        assert exc.value.fields == ("schema_version",)

    def test_bad_config_value_is_400(self, broker):
        with pytest.raises(ServiceError) as exc:
            broker.submit({"source": SOURCE, "config": {"scheme": "bogus"}})
        assert exc.value.status == 400
        assert exc.value.fields == ("scheme",)

    def test_source_and_bench_are_exclusive(self, broker):
        with pytest.raises(ServiceError) as exc:
            broker.submit({"source": SOURCE, "bench": "rawcaudio"})
        assert exc.value.status == 400
        with pytest.raises(ServiceError):
            broker.submit({})

    def test_unknown_bench_is_404(self, broker):
        with pytest.raises(ServiceError) as exc:
            broker.submit({"bench": "no-such-bench"})
        assert exc.value.status == 404
        assert exc.value.code == "unknown_bench"

    def test_bad_priority_is_400(self, broker):
        with pytest.raises(ServiceError) as exc:
            broker.submit({"source": SOURCE, "priority": "high"})
        assert exc.value.fields == ("priority",)

    def test_server_cache_settings_override_submission(self, broker):
        job, created = broker.submit({
            "source": SOURCE,
            "config": {"cache": "off", "cache_dir": "/clients/idea",
                       "jobs": 64},
        })
        assert created
        assert job.config.cache == broker.config.cache
        assert job.config.cache_dir == broker.config.cache_dir
        assert job.config.jobs is None

    def test_error_envelope_shape(self):
        err = ServiceError(400, "invalid_config", "nope", fields=("x",))
        assert err.to_dict() == {
            "error": {"code": "invalid_config", "message": "nope",
                      "fields": ["x"]}
        }


# -- broker execution ---------------------------------------------------------


class TestBrokerExecution:
    def test_job_runs_to_done_and_matches_direct_run(self, tmp_path):
        broker = make_broker(tmp_path, workers=1)
        try:
            job, created = broker.submit(
                {"source": SOURCE, "name": "tiny",
                 "config": {"scheme": "gdp"}}
            )
            assert created and job.wait(timeout=120)
            assert job.state == DONE
            direct = run_cell({
                "bench": "tiny", "source": SOURCE,
                "config": job.config.to_dict(),
            })
            summary = job.result_summary()
            assert summary["cycles"] == direct["cycles"]
            assert summary["dynamic_moves"] == direct["dynamic_moves"]
            assert summary["status"] == "ok"
            kinds = [e["kind"] for e in job.snapshot_events()]
            assert kinds == ["queued", "started", "finished"]
        finally:
            broker.shutdown()

    def test_inflight_duplicates_coalesce(self, tmp_path):
        broker = make_broker(tmp_path, workers=2, start=False)
        request = {"source": SOURCE, "config": {"scheme": "gdp"}}
        first, created = broker.submit(request)
        second, dup = broker.submit(request)
        third, _ = broker.submit(dict(request, tenant="other"))
        assert created and not dup
        assert second is first and third is first
        assert first.coalesced == 2
        counts = broker.stats()["jobs"]
        assert counts["submitted"] == 3 and counts["coalesced"] == 2
        # Distinct work is NOT coalesced.
        other, fresh = broker.submit(
            {"source": SOURCE, "config": {"scheme": "naive"}}
        )
        assert fresh and other is not first
        broker.start()
        try:
            assert first.wait(timeout=120) and other.wait(timeout=120)
            assert first.state == DONE
            # One execution served all three submissions.
            assert broker.stats()["jobs"]["completed"] == 2
        finally:
            broker.shutdown()

    def test_completed_duplicate_becomes_new_warm_job(self, tmp_path):
        broker = make_broker(tmp_path, workers=1)
        try:
            request = {"source": SOURCE, "config": {"scheme": "gdp"}}
            first, _ = broker.submit(request)
            assert first.wait(timeout=120)
            second, created = broker.submit(request)
            assert created and second is not first  # no longer in flight
            assert second.warm  # artifact cache answers it
            assert second.wait(timeout=120)
            assert second.result["cache"]["outcome"] == "hit"
            assert (
                second.result_summary()["cycles"]
                == first.result_summary()["cycles"]
            )
        finally:
            broker.shutdown()

    def test_worker_crash_requeues_and_completes(self, tmp_path):
        broker = make_broker(tmp_path, workers=1, max_requeues=1)
        try:
            job, _ = broker.submit({
                "source": SOURCE,
                "config": {"scheme": "gdp",
                           "fault_spec": "raise:worker@1"},
            })
            assert job.wait(timeout=120)
            assert job.state == DONE
            assert job.requeues == 1 and job.attempt == 2
            kinds = [e["kind"] for e in job.snapshot_events()]
            assert kinds == ["queued", "started", "worker-crash",
                            "requeued", "started", "finished"]
            counts = broker.stats()["jobs"]
            assert counts["worker_crashes"] == 1 and counts["requeued"] == 1
            # The server survived: it still executes new work.
            after, _ = broker.submit(
                {"source": SOURCE, "config": {"scheme": "naive"}}
            )
            assert after.wait(timeout=120) and after.state == DONE
        finally:
            broker.shutdown()

    def test_persistent_crash_exhausts_requeues_to_failed(self, tmp_path):
        broker = make_broker(tmp_path, workers=1, max_requeues=1)
        try:
            job, _ = broker.submit({
                "source": SOURCE,
                "config": {"scheme": "gdp", "fault_spec": "raise:worker"},
            })
            assert job.wait(timeout=120)
            assert job.state == FAILED
            assert job.requeues == 1
            assert "InjectedFault" in job.error
            survivor, _ = broker.submit(
                {"source": SOURCE, "config": {"scheme": "unified"}}
            )
            assert survivor.wait(timeout=120) and survivor.state == DONE
        finally:
            broker.shutdown()

    def test_ladder_fallback_surfaces_as_degraded(self, tmp_path):
        broker = make_broker(tmp_path, workers=1)
        try:
            job, _ = broker.submit({
                "source": SOURCE,
                "config": {"scheme": "gdp",
                           "fault_spec": "seed=3;raise:gdp"},
            })
            assert job.wait(timeout=120)
            assert job.state == DEGRADED
            events = {e["kind"]: e for e in job.snapshot_events()}
            assert events["degraded"]["ran_as"] == "profilemax"
            assert events["degraded"]["requested"] == "gdp"
            assert job.result_summary()["status"] == "degraded"
        finally:
            broker.shutdown()

    def test_profiler_fallback_surfaces_as_degraded(self, tmp_path):
        """A dead profiler degrades to the static profile: the requested
        scheme still answers, but the job is degraded, not done."""
        broker = make_broker(tmp_path, workers=1)
        try:
            job, _ = broker.submit({
                "source": SOURCE,
                "config": {"scheme": "gdp",
                           "fault_spec": "seed=1;raise:profiler"},
            })
            assert job.wait(timeout=120)
            assert job.state == DEGRADED
            events = {e["kind"]: e for e in job.snapshot_events()}
            assert events["degraded"]["ran_as"] == "gdp"
            assert events["degraded"]["requested"] == "gdp"
        finally:
            broker.shutdown()

    def test_cancel_queued_job(self, tmp_path):
        broker = make_broker(tmp_path, workers=1, start=False)
        job, _ = broker.submit(
            {"source": SOURCE, "config": {"scheme": "gdp"}}
        )
        cancelled = broker.cancel(job.id)
        assert cancelled.state == CANCELLED
        with pytest.raises(ServiceError) as exc:
            broker.cancel(job.id)
        assert exc.value.status == 409
        # The slot is free again: an identical submission is a new job,
        # not a coalesce onto the cancelled one.
        fresh, created = broker.submit(
            {"source": SOURCE, "config": {"scheme": "gdp"}}
        )
        assert created and fresh is not job
        broker.shutdown(wait=False)

    def test_stats_counters(self, tmp_path):
        broker = make_broker(tmp_path, workers=1)
        try:
            request = {"source": SOURCE, "config": {"scheme": "unified"}}
            job, _ = broker.submit(request)
            broker.submit(request)  # may coalesce or warm-hit; both count
            assert job.wait(timeout=120)
            stats = broker.stats()
            assert stats["jobs"]["submitted"] == 2
            assert (
                stats["jobs"]["coalesced"]
                + stats["jobs"]["created"] == 2
            )
            assert set(stats) >= {"uptime_seconds", "jobs", "queue",
                                  "workers", "cache", "coalesce_ratio",
                                  "warm"}
            assert stats["workers"]["alive"] == 1
            assert stats["cache"]["root"] == broker.config.cache_dir
        finally:
            broker.shutdown()


# -- the 200-submission acceptance --------------------------------------------


class TestConcurrentAcceptance:
    def test_200_concurrent_submissions_zero_lost_byte_identical(
        self, tmp_path
    ):
        """ISSUE 7 acceptance: >= 200 concurrent submissions of a mixed
        bench x scheme matrix complete with zero lost or duplicated jobs,
        results byte-identical to serial execution, and every duplicate
        RunConfig coalesces at least once."""
        schemes = ("unified", "gdp", "profilemax", "naive")
        cells = [
            (name, source, scheme)
            for name, source in (("tiny", SOURCE), ("other", OTHER_SOURCE))
            for scheme in schemes
        ]
        total = 200
        requests = [
            {
                "source": cells[i % len(cells)][1],
                "name": cells[i % len(cells)][0],
                "config": {"scheme": cells[i % len(cells)][2]},
                "tenant": f"t{i % 5}",
            }
            for i in range(total)
        ]
        broker = make_broker(tmp_path, workers=4, start=False)
        replies = []
        errors = []
        lock = threading.Lock()

        def submit_many(chunk):
            for request in chunk:
                try:
                    job, created = broker.submit(request)
                except Exception as exc:  # noqa: BLE001 - fail the test
                    with lock:
                        errors.append(exc)
                    return
                with lock:
                    replies.append((job, created))

        threads = [
            threading.Thread(target=submit_many, args=(requests[i::16],))
            for i in range(16)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert len(replies) == total

        # Zero lost, zero duplicated: every submission is accounted for
        # exactly once — as a created job or a coalesce onto one — and
        # the 8 distinct cells map to exactly 8 jobs.
        jobs = {job.id: job for job, _ in replies}
        assert len(jobs) == len(cells)
        assert sum(1 + job.coalesced for job in jobs.values()) == total
        for job in jobs.values():
            assert job.coalesced >= 1  # every duplicate config coalesced

        broker.start()
        try:
            for job in jobs.values():
                assert job.wait(timeout=300), f"{job} never finished"
                assert job.state == DONE
        finally:
            broker.shutdown()

        # Byte-identical to serial: the deterministic projection of every
        # job equals the same cell run serially in this process.
        for job in jobs.values():
            direct = run_cell({
                "bench": job.bench, "source": job.source,
                "config": job.config.replace(
                    cache="off", cache_dir=None
                ).to_dict(),
            })
            summary = job.result_summary()
            assert summary["cycles"] == direct["cycles"]
            assert summary["dynamic_moves"] == direct["dynamic_moves"]
            assert summary["ran_as"] == direct["ran_as"]
        stats = broker.stats()
        assert stats["jobs"]["submitted"] == total
        assert stats["jobs"]["coalesced"] == total - len(cells)
        assert stats["coalesce_ratio"] > 0.9


# -- the HTTP surface ---------------------------------------------------------


class TestHttpService:
    @pytest.fixture()
    def server(self, tmp_path):
        server = ServiceServer(
            broker=make_broker(tmp_path, workers=2), port=0
        ).start()
        yield server
        server.stop()

    def test_submit_wait_events_roundtrip(self, server):
        client = ServiceClient(server.url)
        assert client.healthz()["status"] == "ok"
        reply = client.submit(
            source=SOURCE, name="tiny", config={"scheme": "gdp"}
        )
        assert reply["state"] in ("queued", "running", "done")
        assert not reply["coalesced_onto"]
        final = client.wait(reply["id"], timeout=120)
        assert final["state"] == "done"
        assert final["result"]["cycles"] > 0
        assert final["resilience"]["attempts"] >= 1
        kinds = [e["kind"] for e in client.events(reply["id"])]
        assert kinds[0] == "queued" and kinds[-1] == "finished"
        follow = [
            e["kind"]
            for e in client.events(reply["id"], follow=True, timeout=10)
        ]
        assert follow == kinds  # terminal job: follow drains and closes
        assert any(j["id"] == reply["id"] for j in client.jobs())

    def test_error_envelope_maps_back_to_service_error(self, server):
        client = ServiceClient(server.url)
        with pytest.raises(ServiceError) as exc:
            client.submit(source=SOURCE, config={"scheme": "gdp",
                                                 "frobnicate": 1})
        assert exc.value.status == 400
        assert exc.value.code == "invalid_config"
        assert exc.value.fields == ("frobnicate",)
        with pytest.raises(ServiceError) as exc:
            client.job("j999999")
        assert exc.value.status == 404
        with pytest.raises(ServiceError) as exc:
            client._request("GET", "/v1/nope")
        assert exc.value.status == 404

    def test_stats_exposes_machine_readable_counters(self, server):
        client = ServiceClient(server.url)
        reply = client.submit(source=SOURCE, config={"scheme": "unified"})
        client.wait(reply["id"], timeout=120)
        stats = client.stats()
        assert stats["jobs"]["submitted"] == 1
        assert stats["queue"]["pushed"] == 1
        assert "session" in stats["cache"]
        assert "hit_ratio" in stats["cache"]

    def test_healthz_walks_no_cache_directory(self, server, monkeypatch):
        from repro.exec.cache import ArtifactCache

        walks = []
        original = ArtifactCache._entries

        def counted(self, *args, **kwargs):
            walks.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(ArtifactCache, "_entries", counted)
        client = ServiceClient(server.url)
        for _ in range(5):
            assert client.healthz() == {"status": "ok", "workers_alive": 2}
        assert walks == []
        client.stats()  # the counter does see the walk /v1/stats makes
        assert walks

    def test_cancel_over_http(self, tmp_path):
        server = ServiceServer(
            broker=make_broker(tmp_path, workers=1, start=False), port=0
        ).start()
        try:
            client = ServiceClient(server.url)
            reply = client.submit(source=SOURCE, config={"scheme": "gdp"})
            cancelled = client.cancel(reply["id"])
            assert cancelled["state"] == "cancelled"
            with pytest.raises(ServiceError) as exc:
                client.cancel(reply["id"])
            assert exc.value.status == 409
        finally:
            server.stop()

    def test_graceful_shutdown_endpoint(self, tmp_path):
        import urllib.error
        import urllib.request

        server = ServiceServer(
            broker=make_broker(tmp_path, workers=1), port=0
        ).start()
        client = ServiceClient(server.url)
        assert client.shutdown()["status"] == "stopping"
        server._stopped.wait(timeout=10)
        deadline = threading.Event()
        for _ in range(50):
            try:
                urllib.request.urlopen(server.url + "/v1/healthz",
                                       timeout=1)
            except (urllib.error.URLError, ConnectionError, OSError):
                deadline.set()
                break
            import time

            time.sleep(0.1)
        assert deadline.is_set()  # listener actually closed

    def test_submissions_refused_while_stopping(self, tmp_path):
        broker = make_broker(tmp_path, workers=1)
        broker.shutdown(wait=True)
        with pytest.raises(ServiceError) as exc:
            broker.submit({"source": SOURCE})
        assert exc.value.status == 503


# -- CLI round trip -----------------------------------------------------------


class TestServiceCli:
    def test_submit_cli_against_live_server(self, tmp_path, capsys):
        from repro.cli import main

        source_file = tmp_path / "tiny.mc"
        source_file.write_text(SOURCE)
        server = ServiceServer(
            broker=make_broker(tmp_path, workers=1), port=0
        ).start()
        try:
            code = main([
                "submit", str(source_file), "--url", server.url,
                "--scheme", "gdp", "--follow",
            ])
            out = capsys.readouterr().out
            assert code == 0
            assert "[submitted job" in out
            assert '"kind": "finished"' in out
            assert '"state": "done"' in out
            # A second submission is answered from the artifact cache.
            code = main([
                "submit", str(source_file), "--url", server.url,
                "--scheme", "gdp",
            ])
            assert code == 0
            assert '"warm": true' in capsys.readouterr().out
        finally:
            server.stop()

    def test_submit_cli_requires_program(self, capsys):
        from repro.cli import main

        assert main(["submit"]) == 2
        assert "source file or --bench" in capsys.readouterr().err


# -- deterministic lifecycle golden -------------------------------------------


class TestLifecycleGolden:
    def _lifecycle_json(self, tmp_path, run_tag):
        broker = make_broker(
            tmp_path / run_tag, workers=1, max_requeues=1
        )
        try:
            job, _ = broker.submit({
                "source": SOURCE,
                "name": "tiny",
                "config": {
                    "scheme": "gdp",
                    "fault_spec": "seed=3;raise:worker@1;raise:gdp",
                },
            })
            assert job.wait(timeout=120)
        finally:
            broker.shutdown()
        return json.dumps(
            scrub_events(job.snapshot_events()), indent=2, sort_keys=True
        )

    def test_same_lifecycle_byte_identical(self, tmp_path):
        assert self._lifecycle_json(tmp_path, "a") == self._lifecycle_json(
            tmp_path, "b"
        )

    def test_lifecycle_matches_golden(self, tmp_path):
        """Pins the canonical service story end to end: queued, started,
        the worker dies (injected), the supervisor requeues, the retry's
        ladder degrades GDP -> Profile Max, and the job finishes in the
        ``degraded`` terminal state — with every wall clock and identity
        scrubbed, byte-stable."""
        with open(
            os.path.join(GOLDEN_DIR, "job_lifecycle_events.json")
        ) as fh:
            golden = fh.read()
        assert self._lifecycle_json(tmp_path, "golden") + "\n" == golden
