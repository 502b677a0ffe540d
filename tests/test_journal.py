"""Durability: the crash-safe journal, recovery, drain, backpressure.

Covers the write-ahead log itself (checksums, torn tails, compaction,
fault injection), the broker's recovery/drain machinery built on it, the
admission-control 429 path end to end through the HTTP client's backoff,
and the client's fail-fast socket contracts.
"""

import json
import os
import socket
import threading

import pytest

from repro.exec import RunConfig
from repro.exec.engine import run_cell
from repro.resilience import InjectedFault
from repro.service import (
    CANCELLED,
    DONE,
    QUEUED,
    Broker,
    Journal,
    ServiceClient,
    ServiceError,
    ServiceServer,
)
from repro.service import client as client_module
from repro.service.journal import record_checksum

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
THIRD_SOURCE = SOURCE.replace("i * 3", "i * 11")


def submit_record(journal, job="j000001", source=SOURCE, **over):
    fields = {
        "job": job, "key": f"key-{job}", "bench": "tiny", "source": source,
        "config": RunConfig().to_dict(), "tenant": "default", "priority": 0,
    }
    fields.update(over)
    return journal.append("submit", **fields)


def make_broker(tmp_path, **kwargs):
    kwargs.setdefault(
        "config", RunConfig(cache_dir=str(tmp_path / "cache"), jobs=1)
    )
    kwargs.setdefault("journal_dir", str(tmp_path / "journal"))
    return Broker(**kwargs)


def request(source=SOURCE, **over):
    body = {"source": source, "name": "tiny", "config": {}}
    body.update(over)
    return body


# -- the journal itself --------------------------------------------------------


class TestJournal:
    @pytest.mark.timeout(30)
    def test_roundtrip_replay(self, tmp_path):
        journal = Journal(str(tmp_path))
        submit_record(journal)
        journal.append("start", job="j000001", attempt=1)
        journal.append("finish", job="j000001", state=DONE,
                       error=None, summary={"cycles": 42})
        journal.close()

        state = Journal(str(tmp_path)).load()
        assert state.replayed == 3 and state.torn == 0
        job = state.jobs["j000001"]
        assert job["state"] == DONE
        assert job["summary"] == {"cycles": 42}

    @pytest.mark.timeout(30)
    def test_fsync_policy_validated(self, tmp_path):
        with pytest.raises(ValueError, match="fsync policy"):
            Journal(str(tmp_path), fsync="sometimes")

    @pytest.mark.timeout(30)
    def test_tampered_record_truncates_from_there(self, tmp_path):
        journal = Journal(str(tmp_path))
        submit_record(journal, "j000001")
        submit_record(journal, "j000002")
        submit_record(journal, "j000003")
        journal.close()

        # Flip one byte inside the *second* record: it and everything
        # after it (framing is untrusted past a bad line) must go.
        lines = open(journal.journal_path, "rb").read().splitlines(True)
        broken = bytearray(lines[1])
        broken[len(broken) // 2] ^= 0xFF
        with open(journal.journal_path, "wb") as handle:
            handle.write(lines[0] + bytes(broken) + lines[2])

        state = Journal(str(tmp_path)).load()
        assert state.torn == 1
        assert list(state.jobs) == ["j000001"]
        # The truncation is physical: a second load sees a clean log.
        again = Journal(str(tmp_path)).load()
        assert again.torn == 0 and list(again.jobs) == ["j000001"]

    @pytest.mark.timeout(30)
    def test_torn_tail_half_record(self, tmp_path):
        journal = Journal(str(tmp_path))
        submit_record(journal, "j000001")
        journal.close()
        with open(journal.journal_path, "ab") as handle:
            handle.write(b'{"seq": 2, "kind": "sta')  # crash mid-write

        state = Journal(str(tmp_path)).load()
        assert state.torn == 1 and state.replayed == 1
        assert list(state.jobs) == ["j000001"]
        assert state.jobs["j000001"]["state"] == QUEUED

    @pytest.mark.timeout(30)
    def test_compaction_snapshot_plus_suffix(self, tmp_path):
        journal = Journal(str(tmp_path))
        submit_record(journal, "j000001")
        journal.append("finish", job="j000001", state=DONE,
                       error=None, summary=None)
        state = Journal(str(tmp_path), fsync="never").load()
        journal.compact(list(state.jobs.values()))
        assert os.path.getsize(journal.journal_path) == 0
        # Records after the snapshot keep climbing the same seq line.
        journal.append("cancel", job="j000001")
        journal.close()

        recovered = Journal(str(tmp_path)).load()
        assert recovered.from_snapshot
        assert recovered.jobs["j000001"]["state"] == CANCELLED
        assert recovered.last_seq == 3

    @pytest.mark.timeout(30)
    def test_corrupt_snapshot_falls_back_to_log(self, tmp_path):
        journal = Journal(str(tmp_path))
        submit_record(journal, "j000001")
        state = journal.load()
        journal.compact(list(state.jobs.values()))
        snapshot = json.load(open(journal.snapshot_path))
        snapshot["crc"] = "0" * 16
        json.dump(snapshot, open(journal.snapshot_path, "w"))
        submit_record(journal, "j000002")
        journal.close()

        recovered = Journal(str(tmp_path)).load()
        # Snapshot rejected (bad crc) -> only the log suffix survives.
        assert not recovered.from_snapshot
        assert list(recovered.jobs) == ["j000002"]

    @pytest.mark.timeout(30)
    def test_orphaned_and_unknown_records(self, tmp_path):
        journal = Journal(str(tmp_path))
        journal.append("start", job="jghost", attempt=1)
        submit_record(journal, "j000001")
        journal.append("hologram", job="j000001")  # future record kind
        journal.close()
        state = Journal(str(tmp_path)).load()
        assert state.orphaned == 1
        assert state.jobs["j000001"]["state"] == QUEUED

    @pytest.mark.timeout(30)
    def test_record_checksum_ignores_crc_field(self):
        record = {"seq": 1, "kind": "submit", "job": "j1"}
        crc = record_checksum(record)
        assert record_checksum(dict(record, crc=crc)) == crc
        assert record_checksum(dict(record, job="j2")) != crc

    @pytest.mark.timeout(30)
    def test_injected_journal_fault_raises(self, tmp_path):
        journal = Journal(str(tmp_path), faults="seed=1;raise:journal@2")
        submit_record(journal, "j000001")
        with pytest.raises(InjectedFault):
            submit_record(journal, "j000002")

    @pytest.mark.timeout(30)
    def test_injected_torn_write_is_recovered_from(self, tmp_path):
        journal = Journal(str(tmp_path), faults="seed=1;torn-write:journal@2")
        submit_record(journal, "j000001")
        submit_record(journal, "j000002")  # written, but cut in half
        journal.close()
        state = Journal(str(tmp_path)).load()
        assert state.torn == 1
        assert list(state.jobs) == ["j000001"]

    @pytest.mark.timeout(30)
    def test_stats_shape(self, tmp_path):
        journal = Journal(str(tmp_path), fsync="interval")
        submit_record(journal)
        stats = journal.stats()
        assert stats["enabled"] and stats["fsync"] == "interval"
        assert stats["appended"] == 1 and stats["log_bytes"] > 0


# -- broker recovery -----------------------------------------------------------


class TestRecovery:
    @pytest.mark.timeout(120)
    def test_queued_at_crash_requeues_and_completes(self, tmp_path):
        # start=False: the job is journaled + queued but never runs —
        # then the broker is abandoned without shutdown, like a kill -9.
        crashed = make_broker(tmp_path, start=False)
        job, created = crashed.submit(request())
        assert created
        crashed.journal.close()

        broker = make_broker(tmp_path)
        try:
            stats = broker.stats()
            assert stats["recovery"]["recovered"] == 1
            assert stats["recovery"]["requeued"] == 1
            revived = broker.get(job.id)
            assert revived.recovered
            revived.wait(timeout=60.0)
            assert revived.state == DONE
            assert revived.summary["cycles"] > 0
        finally:
            broker.shutdown()

    @pytest.mark.timeout(120)
    def test_terminal_jobs_recovered_as_history(self, tmp_path):
        first = make_broker(tmp_path)
        job, _created = first.submit(request())
        job.wait(timeout=60.0)
        summary = job.summary
        first.shutdown(drain=True)

        broker = make_broker(tmp_path, start=False)
        try:
            revived = broker.get(job.id)
            assert revived.state == DONE and revived.terminal
            # History answers without recompute: the summary rides the
            # journal; the report and cache sections stayed with the
            # broker that ran the job.
            assert revived.summary == summary
            descriptor = revived.to_dict()
            assert descriptor["result"] == summary
            assert "resilience" not in descriptor
            assert "cache" not in descriptor
            assert broker.stats()["recovery"]["requeued"] == 0
        finally:
            broker.shutdown(wait=False)

    @pytest.mark.timeout(120)
    def test_recovery_is_warm_when_outcome_was_cached(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_cell({"bench": "tiny", "source": SOURCE,
                  "config": {"cache": "on", "cache_dir": cache_dir}})
        crashed = make_broker(tmp_path, start=False)
        job, _created = crashed.submit(request())
        crashed.journal.close()

        broker = make_broker(tmp_path)
        try:
            revived = broker.get(job.id)
            revived.wait(timeout=60.0)
            assert revived.state == DONE
            assert revived.warm  # the rerun was served from the cache
            assert revived.to_dict()["cache"]["outcome"] == "hit"
        finally:
            broker.shutdown()

    @pytest.mark.timeout(120)
    def test_cancelled_job_stays_cancelled(self, tmp_path):
        crashed = make_broker(tmp_path, start=False)
        job, _created = crashed.submit(request())
        crashed.cancel(job.id)
        crashed.journal.close()

        broker = make_broker(tmp_path, start=False)
        try:
            assert broker.get(job.id).state == CANCELLED
            assert broker.stats()["recovery"]["requeued"] == 0
        finally:
            broker.shutdown(wait=False)

    @pytest.mark.timeout(120)
    def test_coalesce_count_survives_the_crash(self, tmp_path):
        crashed = make_broker(tmp_path, start=False)
        job, _created = crashed.submit(request())
        dup, created = crashed.submit(request(tenant="other"))
        assert dup is job and not created
        crashed.journal.close()

        broker = make_broker(tmp_path, start=False)
        try:
            assert broker.get(job.id).coalesced == 1
        finally:
            broker.shutdown(wait=False)

    @pytest.mark.timeout(120)
    def test_torn_tail_end_to_end(self, tmp_path):
        crashed = make_broker(tmp_path, start=False)
        job1, _ = crashed.submit(request())
        job2, _ = crashed.submit(request(source=OTHER_SOURCE))
        crashed.journal.close()
        with open(crashed.journal.journal_path, "ab") as handle:
            handle.write(b'{"seq": 99, "kind": "fin')

        broker = make_broker(tmp_path, start=False)
        try:
            assert broker.journal.torn_at_load == 1
            assert {job1.id, job2.id} <= {j.id for j in broker.jobs()}
            assert broker.stats()["recovery"]["requeued"] == 2
        finally:
            broker.shutdown(wait=False)

    @pytest.mark.timeout(120)
    def test_new_submissions_do_not_reuse_recovered_ids(self, tmp_path):
        crashed = make_broker(tmp_path, start=False)
        job, _created = crashed.submit(request())
        crashed.journal.close()

        broker = make_broker(tmp_path, start=False)
        try:
            fresh, created = broker.submit(request(source=OTHER_SOURCE))
            assert created and fresh.id != job.id
        finally:
            broker.shutdown(wait=False)


# -- graceful drain ------------------------------------------------------------


class TestDrain:
    @pytest.mark.timeout(120)
    def test_drain_finishes_admitted_work(self, tmp_path):
        broker = make_broker(tmp_path, workers=1)
        job, _created = broker.submit(request())
        broker.shutdown(drain=True, timeout=60.0)
        assert job.state == DONE
        assert broker.stats()["recovery"]["parked"] == 0

    @pytest.mark.timeout(120)
    def test_drain_parks_what_it_cannot_finish(self, tmp_path):
        broker = make_broker(tmp_path, start=False)
        job, _created = broker.submit(request())
        broker.shutdown(drain=True, timeout=0.2)
        assert broker.stats()["recovery"]["parked"] == 1
        assert job.events[-1]["kind"] == "parked"

        # The park record hands the job to the next boot.
        revived = make_broker(tmp_path)
        try:
            recovered = revived.get(job.id)
            recovered.wait(timeout=60.0)
            assert recovered.state == DONE
        finally:
            revived.shutdown()

    @pytest.mark.timeout(120)
    def test_admission_refused_while_draining(self, tmp_path):
        broker = make_broker(tmp_path, start=False)
        broker._stopping = True
        with pytest.raises(ServiceError) as excinfo:
            broker.submit(request())
        assert excinfo.value.status == 503
        broker.shutdown(wait=False)


# -- admission control (backpressure) ------------------------------------------


class TestBackpressure:
    @pytest.mark.timeout(120)
    def test_depth_bound_yields_429_with_retry_after(self, tmp_path):
        broker = make_broker(tmp_path, start=False, journal_dir=None,
                             max_depth=1, retry_after=2.5)
        try:
            broker.submit(request())
            with pytest.raises(ServiceError) as excinfo:
                broker.submit(request(source=OTHER_SOURCE))
            err = excinfo.value
            assert err.status == 429 and err.code == "overloaded"
            assert err.retry_after == 2.5
            assert "retry_after" in err.to_dict()["error"]
            assert broker.stats()["admission"]["rejected_depth"] == 1
        finally:
            broker.shutdown(wait=False)

    @pytest.mark.timeout(120)
    def test_coalescing_bypasses_the_depth_bound(self, tmp_path):
        broker = make_broker(tmp_path, start=False, journal_dir=None,
                             max_depth=1)
        try:
            job, _created = broker.submit(request())
            dup, created = broker.submit(request(tenant="other"))
            assert dup is job and not created  # no 429: zero added work
        finally:
            broker.shutdown(wait=False)

    @pytest.mark.timeout(120)
    def test_tenant_bound_yields_429_for_that_tenant_only(self, tmp_path):
        broker = make_broker(tmp_path, start=False, journal_dir=None,
                             tenant_pending=1)
        try:
            broker.submit(request(tenant="a"))
            with pytest.raises(ServiceError) as excinfo:
                broker.submit(request(source=OTHER_SOURCE, tenant="a"))
            assert excinfo.value.code == "tenant_overloaded"
            # Another tenant is not collateral damage.
            job, created = broker.submit(
                request(source=OTHER_SOURCE, tenant="b")
            )
            assert created and job.tenant == "b"
            assert broker.stats()["admission"]["rejected_tenant"] == 1
        finally:
            broker.shutdown(wait=False)

    @pytest.mark.timeout(120)
    def test_tenant_slot_released_at_terminal(self, tmp_path):
        broker = make_broker(tmp_path, start=False, journal_dir=None,
                             tenant_pending=1)
        try:
            job, _created = broker.submit(request(tenant="a"))
            broker.cancel(job.id)
            # The cancel released the slot: the same tenant fits again.
            job2, created = broker.submit(
                request(source=OTHER_SOURCE, tenant="a")
            )
            assert created and job2.tenant == "a"
        finally:
            broker.shutdown(wait=False)

    @pytest.mark.timeout(120)
    def test_http_429_retry_after_header_and_client_backoff(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(client_module, "BACKOFF_BASE", 0.01)
        server = ServiceServer(
            broker=make_broker(tmp_path, journal_dir=None, workers=1,
                               max_depth=1),
            port=0,
        ).start()
        accepted = []
        process_request = server._httpd.process_request
        server._httpd.process_request = lambda request, address: (
            accepted.append(address), process_request(request, address))
        try:
            client = ServiceClient(server.url, timeout=30.0,
                                   retry_budget=60.0)
            replies = [
                client.submit(source=src, name="tiny")
                for src in (SOURCE, OTHER_SOURCE, THIRD_SOURCE)
            ]
            finals = [client.wait(r["id"], timeout=60.0) for r in replies]
            assert all(f["state"] in ("done", "degraded") for f in finals)
            # The bound actually pushed back, and backoff absorbed it.
            stats = client.stats()
            assert stats["admission"]["rejected_depth"] >= 1
            assert client.retries >= 1
            # Every request, 429s and retries included, on one connection.
            assert len(accepted) == 1
        finally:
            server.stop()

    @pytest.mark.timeout(120)
    def test_client_raises_when_retry_budget_exhausted(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(client_module, "BACKOFF_BASE", 0.01)
        # start=False: the queue never drains, so the 429 never clears.
        server = ServiceServer(
            broker=make_broker(tmp_path, journal_dir=None, start=False,
                               max_depth=1, retry_after=0.05),
            port=0,
        ).start()
        try:
            client = ServiceClient(server.url, timeout=30.0,
                                   retry_budget=0.2)
            client.submit(source=SOURCE, name="tiny")
            with pytest.raises(ServiceError) as excinfo:
                client.submit(source=OTHER_SOURCE, name="tiny")
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after is not None
            assert client.retries >= 1
        finally:
            server.stop()


# -- client fail-fast contracts ------------------------------------------------


class TestClientTimeouts:
    @pytest.mark.timeout(30)
    def test_timeout_must_be_finite_and_positive(self):
        with pytest.raises(ValueError):
            ServiceClient("http://127.0.0.1:1", timeout=None)
        with pytest.raises(ValueError):
            ServiceClient("http://127.0.0.1:1", timeout=0)

    @pytest.mark.timeout(30)
    def test_hung_server_surfaces_within_the_socket_timeout(self):
        # A listener that accepts and then says nothing: a socket would
        # block forever without the client's socket timeout.
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]
        conns = []
        accepter = threading.Thread(
            target=lambda: conns.append(listener.accept()), daemon=True
        )
        accepter.start()
        try:
            client = ServiceClient(f"http://127.0.0.1:{port}", timeout=0.3)
            with pytest.raises(OSError):  # socket.timeout is an OSError
                client.healthz()
        finally:
            listener.close()
            for conn, _addr in conns:
                conn.close()

    @pytest.mark.timeout(120)
    def test_wait_long_poll_is_chunked_by_poll_cap(self, tmp_path, monkeypatch):
        monkeypatch.setattr(client_module, "POLL_CAP", 0.1)
        server = ServiceServer(
            broker=make_broker(tmp_path, journal_dir=None, start=False),
            port=0,
        ).start()
        try:
            client = ServiceClient(server.url, timeout=5.0)
            reply = client.submit(source=SOURCE, name="tiny")
            # Never-running job: wait() must time out via short legs
            # rather than hang for the whole window in one request.
            with pytest.raises(TimeoutError):
                client.wait(reply["id"], timeout=0.5)
        finally:
            server.stop()
