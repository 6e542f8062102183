"""Service durability tests: crash recovery, idempotency, degradation.

The crash model throughout is SIGKILL-equivalent: the journal has been
fsynced (that happens once per drain, before any op is acknowledged)
but nothing else survives — no final checkpoint, no in-memory state.
``crash()`` simulates exactly that by suppressing the shutdown
checkpoint; recovery must then come purely from snapshot + journal
replay through :meth:`SchedulerService.open`.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.config import ExperimentConfig
from repro.service import (
    SchedulerService,
    ServiceClient,
    ServiceConfig,
    ServiceDaemon,
    ServiceError,
)
from repro.service.core import default_service_config
from repro.service.journal import JournalError
from repro.service.load import compare_records
from repro.service.protocol import ProtocolError
from repro.units import GiB


def small_config(num_jobs: int = 40, **scheduler) -> ExperimentConfig:
    config = default_service_config()
    config.workload = dict(config.workload, num_jobs=num_jobs)
    if scheduler:
        config.scheduler = dict(config.scheduler, **scheduler)
    return config


def durable_config(tmp_path, **overrides) -> ServiceConfig:
    settings = {"mode": "replay", "state_dir": str(tmp_path / "state")}
    settings.update(overrides)
    return ServiceConfig(**settings)


SPEC = {"nodes": 1, "walltime": 600.0, "runtime": 300.0, "mem_per_node": 4 * GiB}


def crash(service: SchedulerService) -> None:
    """Stop the engine thread as if the process had been SIGKILLed.

    The final checkpoint is suppressed, so everything the reopened
    service knows must come from the write-ahead journal (plus any
    mid-run snapshot the cadence already produced).
    """
    service._final_checkpoint = lambda: None  # type: ignore[method-assign]
    service.stop()


def drive(service: SchedulerService, jobs: int = 6) -> dict:
    """Push a deterministic little workload; return records by job id."""
    records = {}
    for index in range(jobs):
        spec = dict(SPEC, submit_time=float(10 * index))
        service.advance(float(10 * index))
        (record,) = service.submit([spec], idempotency_key=f"job-{index}")
        records[record["job_id"]] = record
    return records


class TestCrashRecovery:
    def test_journal_only_recovery_is_identical(self, tmp_path):
        """Kill with NO snapshot ever written: replay must rebuild the
        whole run and report byte-identical records."""
        experiment = small_config()
        svc_config = durable_config(tmp_path, checkpoint_every=0)
        service = SchedulerService.open(experiment, svc_config).start()
        before = drive(service)
        service.advance(200.0)
        before = {jid: service.query(jid) for jid in before}
        crash(service)

        recovered = SchedulerService.open(experiment, svc_config)
        assert recovered.recovery["resumed"]
        assert recovered.recovery["snapshot_seq"] == 0
        assert recovered.recovery["replayed_records"] > 0
        with recovered:
            after = {jid: recovered.query(jid) for jid in before}
        for jid in before:
            live, rec = dict(before[jid]), dict(after[jid])
            live.pop("service", None), rec.pop("service", None)
            assert rec == live, f"job {jid} diverged across recovery"

    def test_snapshot_plus_suffix_recovery(self, tmp_path):
        """With an aggressive checkpoint cadence, recovery restores the
        newest snapshot and replays only the journal suffix."""
        experiment = small_config(backfill="conservative")
        svc_config = durable_config(tmp_path, checkpoint_every=2)
        service = SchedulerService.open(experiment, svc_config).start()
        before = drive(service, jobs=8)
        service.advance(500.0)
        before = {jid: service.query(jid) for jid in before}
        crash(service)

        recovered = SchedulerService.open(experiment, svc_config)
        assert recovered.recovery["snapshot_seq"] > 0
        with recovered:
            after = {jid: recovered.query(jid) for jid in before}
            # The recovered engine keeps scheduling: drain to terminal
            # states to prove the restored event calendar is live.
            recovered.advance(None)
            drained = {jid: recovered.query(jid) for jid in before}
        for jid in before:
            assert after[jid]["state"] == before[jid]["state"]
            assert after[jid]["start_time"] == before[jid]["start_time"]
            assert drained[jid]["state"] in ("completed", "killed")

    def test_recovered_service_continues_id_space(self, tmp_path):
        experiment = small_config()
        svc_config = durable_config(tmp_path)
        service = SchedulerService.open(experiment, svc_config).start()
        ids = {r["job_id"] for r in service.submit([dict(SPEC)] * 3)}
        crash(service)
        recovered = SchedulerService.open(experiment, svc_config)
        with recovered:
            (record,) = recovered.submit([dict(SPEC)])
        assert record["job_id"] not in ids
        assert record["job_id"] == max(ids) + 1

    def test_graceful_stop_checkpoints_everything(self, tmp_path):
        """A clean stop() writes a final snapshot: the reopened service
        replays zero journal records."""
        experiment = small_config()
        svc_config = durable_config(tmp_path, checkpoint_every=0)
        service = SchedulerService.open(experiment, svc_config)
        with service:
            drive(service)
        # Ordinary stop — the graceful path, not crash().
        recovered = SchedulerService.open(experiment, svc_config)
        assert recovered.recovery["replayed_records"] == 0
        assert recovered.recovery["snapshot_seq"] > 0
        assert recovered.recovery["resumed"]

    def test_mismatched_experiment_refused(self, tmp_path):
        svc_config = durable_config(tmp_path)
        service = SchedulerService.open(small_config(), svc_config).start()
        service.submit([dict(SPEC)])
        crash(service)
        with pytest.raises(JournalError, match="different configuration"):
            SchedulerService.open(small_config(backfill="conservative"), svc_config)

    def test_cancel_survives_recovery(self, tmp_path):
        experiment = small_config()
        svc_config = durable_config(tmp_path, checkpoint_every=0)
        service = SchedulerService.open(experiment, svc_config).start()
        blocker = dict(SPEC, nodes=32, walltime=5000.0, runtime=5000.0)
        (running,) = service.submit([blocker])
        (waiting,) = service.submit([dict(SPEC)])
        service.cancel(waiting["job_id"])
        assert service.query(waiting["job_id"])["state"] == "cancelled"
        crash(service)
        recovered = SchedulerService.open(experiment, svc_config)
        with recovered:
            assert recovered.query(waiting["job_id"])["state"] == "cancelled"
            assert recovered.query(running["job_id"])["state"] == "running"

    def test_metrics_report_recovery(self, tmp_path):
        experiment = small_config()
        svc_config = durable_config(tmp_path)
        service = SchedulerService.open(experiment, svc_config).start()
        service.submit([dict(SPEC)])
        crash(service)
        recovered = SchedulerService.open(experiment, svc_config)
        with recovered:
            durability = recovered.metrics()["durability"]
        assert durability["durable"]
        assert durability["recovery"]["resumed"]


class TestIdempotency:
    def test_duplicate_keyed_submit_applied_once(self, tmp_path):
        experiment = small_config()
        service = SchedulerService.open(experiment, durable_config(tmp_path))
        with service:
            first = service.submit([dict(SPEC)], idempotency_key="alpha")
            second = service.submit([dict(SPEC)], idempotency_key="alpha")
            assert [r["job_id"] for r in first] == [r["job_id"] for r in second]
            assert len(service.jobs()["jobs"]) == 1
            assert service.metrics()["counters"]["dedup_hits"] == 1

    def test_dedup_replay_returns_current_record(self, tmp_path):
        """The dedup hit re-renders the job's *current* state — the
        retried client sees completion, not a stale snapshot of the
        original reply."""
        experiment = small_config()
        service = SchedulerService.open(experiment, durable_config(tmp_path))
        with service:
            (first,) = service.submit([dict(SPEC)], idempotency_key="beta")
            assert first["state"] == "running"
            service.advance(10_000.0)
            (second,) = service.submit([dict(SPEC)], idempotency_key="beta")
            assert second["job_id"] == first["job_id"]
            assert second["state"] == "completed"

    def test_duplicate_keyed_cancel_applied_once(self, tmp_path):
        experiment = small_config()
        service = SchedulerService.open(experiment, durable_config(tmp_path))
        with service:
            (record,) = service.submit([dict(SPEC)])
            first = service.cancel(record["job_id"], idempotency_key="c1")
            second = service.cancel(record["job_id"], idempotency_key="c1")
            assert first["outcome"] == "killed"
            # Unkeyed re-cancel would say "already_terminal"; the keyed
            # retry reports the original outcome.
            assert second["outcome"] == "killed"

    def test_dedup_survives_crash(self, tmp_path):
        """The retry window spans a restart: a client retrying into the
        recovered service must still hit the dedup entry."""
        experiment = small_config()
        svc_config = durable_config(tmp_path, checkpoint_every=0)
        service = SchedulerService.open(experiment, svc_config).start()
        first = service.submit([dict(SPEC)], idempotency_key="gamma")
        crash(service)
        recovered = SchedulerService.open(experiment, svc_config)
        with recovered:
            second = recovered.submit([dict(SPEC)], idempotency_key="gamma")
            assert len(recovered.jobs()["jobs"]) == 1
        assert [r["job_id"] for r in second] == [r["job_id"] for r in first]

    def test_invalid_key_rejected(self, tmp_path):
        service = SchedulerService.open(small_config(), durable_config(tmp_path))
        with service:
            with pytest.raises(ProtocolError) as err:
                service.submit([dict(SPEC)], idempotency_key="")
            assert err.value.code == "invalid_key"
            with pytest.raises(ProtocolError):
                service.submit([dict(SPEC)], idempotency_key="x" * 201)

    def test_dedup_window_evicts_lru(self, tmp_path):
        service = SchedulerService.open(
            small_config(), durable_config(tmp_path, dedup_window=2)
        )
        with service:
            service.submit([dict(SPEC)], idempotency_key="k1")
            service.submit([dict(SPEC)], idempotency_key="k2")
            service.submit([dict(SPEC)], idempotency_key="k3")  # evicts k1
            retried = service.submit([dict(SPEC)], idempotency_key="k1")
            # k1 fell out of the window: the retry is a fresh admission.
            assert len(service.jobs()["jobs"]) == 4
            assert retried[0]["job_id"] == 4

    @staticmethod
    def _conflict(call) -> None:
        with pytest.raises(ProtocolError) as err:
            call()
        assert err.value.status == 409
        assert err.value.code == "idempotency_conflict"

    def test_key_reused_with_different_body_conflicts(self, tmp_path):
        """A key names one request: a different body under it is
        refused, and neither journaled nor applied."""
        service = SchedulerService.open(small_config(), durable_config(tmp_path))
        with service:
            (first,) = service.submit([dict(SPEC)], idempotency_key="delta")
            records = service.metrics()["counters"]["journal_records"]
            self._conflict(lambda: service.submit(
                [dict(SPEC, nodes=4)], idempotency_key="delta"
            ))
            counters = service.metrics()["counters"]
            assert counters["journal_records"] == records
            assert counters["dedup_hits"] == 0
            assert [r["job_id"] for r in service.jobs()["jobs"]] == [first["job_id"]]
            # The entry is intact: the original request still retries.
            (again,) = service.submit([dict(SPEC)], idempotency_key="delta")
            assert again["job_id"] == first["job_id"]
            assert again["nodes"] == 1

    def test_cancel_reusing_submit_key_conflicts(self, tmp_path):
        """A cancel under a submit's key is not applied and does not
        overwrite the submit's entry, so retrying the submit is still
        answered from it instead of admitting a duplicate job."""
        service = SchedulerService.open(small_config(), durable_config(tmp_path))
        with service:
            (first,) = service.submit([dict(SPEC)], idempotency_key="eps")
            self._conflict(
                lambda: service.cancel(first["job_id"], idempotency_key="eps")
            )
            assert service.query(first["job_id"])["state"] == "running"
            (again,) = service.submit([dict(SPEC)], idempotency_key="eps")
            assert again["job_id"] == first["job_id"]
            assert len(service.jobs()["jobs"]) == 1

    def test_submit_reusing_cancel_key_conflicts(self, tmp_path):
        service = SchedulerService.open(small_config(), durable_config(tmp_path))
        with service:
            (record,) = service.submit([dict(SPEC)])
            service.cancel(record["job_id"], idempotency_key="zeta")
            self._conflict(
                lambda: service.submit([dict(SPEC)], idempotency_key="zeta")
            )
            assert len(service.jobs()["jobs"]) == 1
            retried = service.cancel(record["job_id"], idempotency_key="zeta")
            assert retried["outcome"] == "killed"

    def test_conflict_survives_crash(self, tmp_path):
        """Fingerprints are journaled: after a crash and restart, a
        reused key still tells its own retry from a different request."""
        experiment = small_config()
        svc_config = durable_config(tmp_path, checkpoint_every=0)
        service = SchedulerService.open(experiment, svc_config).start()
        (first,) = service.submit([dict(SPEC)], idempotency_key="eta")
        (other,) = service.submit([dict(SPEC)])
        service.cancel(other["job_id"], idempotency_key="theta")
        crash(service)
        recovered = SchedulerService.open(experiment, svc_config)
        with recovered:
            assert recovered.recovery["replayed_records"] > 0
            self._conflict(lambda: recovered.submit(
                [dict(SPEC, nodes=4)], idempotency_key="eta"
            ))
            self._conflict(
                lambda: recovered.cancel(first["job_id"], idempotency_key="theta")
            )
            (again,) = recovered.submit([dict(SPEC)], idempotency_key="eta")
            assert again["job_id"] == first["job_id"]
            assert recovered.query(first["job_id"])["state"] == "running"
            assert len(recovered.jobs()["jobs"]) == 2

    def test_conflict_survives_snapshot(self, tmp_path):
        experiment = small_config()
        svc_config = durable_config(tmp_path)
        with SchedulerService.open(experiment, svc_config) as service:
            (first,) = service.submit([dict(SPEC)], idempotency_key="iota")
        recovered = SchedulerService.open(experiment, svc_config)
        assert recovered.recovery["replayed_records"] == 0
        with recovered:
            self._conflict(lambda: recovered.submit(
                [dict(SPEC, nodes=4)], idempotency_key="iota"
            ))
            (again,) = recovered.submit([dict(SPEC)], idempotency_key="iota")
            assert again["job_id"] == first["job_id"]

    def test_entry_without_fingerprint_is_a_hit(self, tmp_path):
        """State written before fingerprints were kept has three-field
        dedup entries; any body of the same operation still hits."""
        experiment = small_config()
        svc_config = durable_config(tmp_path)
        with SchedulerService.open(experiment, svc_config) as service:
            (first,) = service.submit([dict(SPEC)], idempotency_key="kappa")
        service = SchedulerService.open(experiment, svc_config)
        state = service._service_state()
        state["dedup"] = [entry[:3] for entry in state["dedup"]]
        service._load_service_state(state)
        with service:
            (again,) = service.submit(
                [dict(SPEC, nodes=4)], idempotency_key="kappa"
            )
            assert again["job_id"] == first["job_id"]
            self._conflict(
                lambda: service.cancel(first["job_id"], idempotency_key="kappa")
            )


    @staticmethod
    def _one_drain(service: SchedulerService, *calls) -> list:
        """Start ``service`` and run ``calls`` from their own threads
        so that they land, in order, in one inbox drain (a blocking
        submit parks the engine while they queue).  Returns each
        call's result, or the ProtocolError it raised."""
        busy, gate = gate_engine(service)
        service.start()
        blocker = threading.Thread(
            target=lambda: service.submit([dict(SPEC)]), daemon=True
        )
        blocker.start()
        busy.wait(timeout=10.0)
        outcomes: list = [None] * len(calls)

        def run(index, call):
            try:
                outcomes[index] = call()
            except ProtocolError as exc:
                outcomes[index] = exc

        threads = []
        for index, call in enumerate(calls):
            thread = threading.Thread(target=run, args=(index, call), daemon=True)
            thread.start()
            threads.append(thread)
            wait_for_inbox(service, index + 1)
        gate.set()
        for thread in [blocker, *threads]:
            thread.join(timeout=10.0)
        return outcomes

    def test_key_reuse_within_one_drain(self, tmp_path):
        """Group commit puts several requests in one drain: the first
        use of a key there claims it, a different request under it is
        refused, and an identical one is answered from the first."""
        experiment = small_config()
        svc_config = durable_config(tmp_path, checkpoint_every=0)
        service = SchedulerService.open(experiment, svc_config)
        outcomes = self._one_drain(
            service,
            lambda: service.submit([dict(SPEC)], idempotency_key="iota"),
            lambda: service.submit([dict(SPEC, nodes=4)], idempotency_key="iota"),
            lambda: service.cancel(1, idempotency_key="iota"),
            lambda: service.submit([dict(SPEC)], idempotency_key="iota"),
        )
        first, other_body, cancel, repeat = outcomes
        try:
            assert [r["nodes"] for r in first] == [1]
            for refused in (other_body, cancel):
                assert isinstance(refused, ProtocolError)
                assert refused.status == 409
                assert refused.code == "idempotency_conflict"
            assert [r["job_id"] for r in repeat] == [r["job_id"] for r in first]
            counters = service.metrics()["counters"]
            assert counters["dedup_hits"] == 1
            # The blocker's drain and this one: nothing else journaled.
            assert counters["journal_records"] == 2
            assert len(service.jobs()["jobs"]) == 2
            assert service.query(1)["state"] == "running"
        finally:
            crash(service)
        recovered = SchedulerService.open(experiment, svc_config)
        with recovered:
            (again,) = recovered.submit([dict(SPEC)], idempotency_key="iota")
            assert again["job_id"] == first[0]["job_id"]
            assert len(recovered.jobs()["jobs"]) == 2
            assert recovered.query(1)["state"] == "running"


def gate_engine(service: SchedulerService):
    """Make the engine block mid-drain until the returned gate is set.

    While the engine is parked inside ``_process`` the inbox backs up
    behind it, which is exactly the overload the degradation paths are
    designed for — no sleeping, no timing guesswork.
    """
    busy = threading.Event()
    gate = threading.Event()
    original = service._process

    def gated(batch, wall):
        busy.set()
        gate.wait(timeout=30.0)
        original(batch, wall)

    service._process = gated  # type: ignore[method-assign]
    return busy, gate


def park_submit(service: SchedulerService, outcome: dict) -> threading.Thread:
    def run():
        try:
            outcome.setdefault("results", []).append(
                service.submit([dict(SPEC)])
            )
        except ProtocolError as exc:
            outcome["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread


def wait_for_inbox(service: SchedulerService, depth: int = 1) -> None:
    for _ in range(1000):
        with service._cond:
            if len(service._inbox) >= depth:
                return
        time.sleep(0.005)
    raise AssertionError("inbox never filled")


class TestDegradation:
    def test_overload_sheds_with_429(self):
        """A full inbox sheds new work *before* enqueueing it, so a
        shed op was never applied and any client may retry it."""
        config = small_config()
        service = SchedulerService(
            config.build_cluster(),
            config.build_scheduler(),
            ServiceConfig(mode="replay", max_inbox=1),
        )
        busy, gate = gate_engine(service)
        service.start()
        outcome: dict = {}
        first = park_submit(service, outcome)  # engine takes it, parks
        busy.wait(timeout=10.0)
        second = park_submit(service, outcome)  # fills the 1-slot inbox
        wait_for_inbox(service)
        with pytest.raises(ProtocolError) as err:
            service.submit([dict(SPEC)])
        assert err.value.status == 429
        assert err.value.code == "overloaded"
        assert err.value.retry_after > 0
        assert service.counters.shed_overload == 1
        gate.set()
        first.join(timeout=10.0)
        second.join(timeout=10.0)
        service.stop()
        assert "error" not in outcome
        assert len(outcome["results"]) == 2

    def test_deadline_shed_with_504(self):
        config = small_config()
        service = SchedulerService(
            config.build_cluster(),
            config.build_scheduler(),
            ServiceConfig(mode="replay", deadline_s=5.0),
        )
        busy, gate = gate_engine(service)
        service.start()
        blocker: dict = {}
        first = park_submit(service, blocker)  # parks the engine
        busy.wait(timeout=10.0)
        outcome: dict = {}
        aged = park_submit(service, outcome)  # queues behind the park
        wait_for_inbox(service)
        with service._cond:
            # Backdate the queued op far past the 5s budget — the wait
            # it models really happened, just without the wall time.
            service._inbox[0].received -= 60.0
        gate.set()
        first.join(timeout=10.0)
        aged.join(timeout=10.0)
        service.stop()
        assert outcome["error"].status == 504
        assert outcome["error"].code == "deadline_exceeded"
        assert service.counters.shed_deadline == 1
        # The first op beat its deadline (it was drained immediately).
        assert len(blocker.get("results", [])) == 1


class TestExactlyOnceOverHTTP:
    def test_severed_reply_then_retry_applies_once(self, tmp_path):
        """The acceptance scenario: the server applies a keyed submit
        but the client never reads the reply (connection severed).  The
        client's retry with the same key must observe the original
        admission — one job, not two."""
        config = small_config()
        service = SchedulerService.open(config, durable_config(tmp_path))
        with ServiceDaemon(service) as daemon:
            host, port = daemon.address
            body = (
                b'{"jobs": [{"nodes": 1, "walltime": 600.0, '
                b'"runtime": 300.0, "mem_per_node": 4096}], '
                b'"idempotency_key": "sever-1"}'
            )
            request = (
                b"POST /v1/submit HTTP/1.1\r\n"
                b"Host: %b\r\nContent-Type: application/json\r\n"
                b"Content-Length: %d\r\n\r\n%b"
                % (host.encode(), len(body), body)
            )
            with socket.create_connection((host, port)) as raw:
                raw.sendall(request)
                # Sever before reading: the reply is lost in flight.
                raw.setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER,
                    b"\x01\x00\x00\x00\x00\x00\x00\x00",
                )
            # Wait until the server has actually applied the orphaned
            # request (the handler keeps going; _reply eats the EPIPE).
            with ServiceClient(daemon.url) as client:
                for _ in range(200):
                    if client.jobs()["jobs"]:
                        break
                    time.sleep(0.01)
                applied = client.jobs()["jobs"]
                assert len(applied) == 1, "orphaned submit was not applied"
                retried = client.submit(
                    [dict(SPEC)], idempotency_key="sever-1"
                )
                assert retried[0]["job_id"] == applied[0]["job_id"]
                assert len(client.jobs()["jobs"]) == 1

    def test_client_retries_429_until_accepted(self):
        """End-to-end backpressure: a shedding server answers 429 with
        a retry_after hint, and the client's automatic backoff retry
        lands once the engine catches up."""
        config = small_config()
        service = SchedulerService(
            config.build_cluster(),
            config.build_scheduler(),
            ServiceConfig(mode="replay", max_inbox=1),
        )
        busy, gate = gate_engine(service)
        with ServiceDaemon(service) as daemon:
            outcome: dict = {}
            first = park_submit(service, outcome)  # engine takes, parks
            busy.wait(timeout=10.0)
            second = park_submit(service, outcome)  # fills the inbox
            wait_for_inbox(service)
            with ServiceClient(daemon.url, retries=0) as impatient:
                with pytest.raises(ServiceError) as err:
                    impatient.submit([dict(SPEC)])
                assert err.value.status == 429
                assert err.value.code == "overloaded"
                assert err.value.retry_after > 0
            # Release the engine shortly; the patient client's first
            # attempt sheds, its backoff retry then succeeds.
            threading.Timer(0.05, gate.set).start()
            with ServiceClient(daemon.url, retries=8, backoff_s=0.01) as patient:
                records = patient.submit([dict(SPEC)])
                assert records[0]["state"] in ("running", "pending")
            first.join(timeout=10.0)
            second.join(timeout=10.0)
            assert service.counters.shed_overload >= 2


class _ScriptedServer:
    """A socket stand-in for the daemon that plays a fixed script —
    one action per accepted request: ``"sever"`` closes the connection
    without replying (the lost-reply shape), ``(status, payload)``
    answers that JSON response.  Every reply closes the connection, so
    each script step is one client attempt."""

    def __init__(self, script):
        self.script = list(script)
        self.requests = []
        self._sock = socket.create_server(("127.0.0.1", 0))
        self._sock.settimeout(5.0)
        self.port = self._sock.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._sock.close()
        self._thread.join(timeout=5.0)

    @property
    def url(self):
        return f"http://127.0.0.1:{self.port}"

    def _serve(self):
        while self.script:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            with conn:
                conn.settimeout(5.0)
                data = b""
                while b"\r\n\r\n" not in data:
                    chunk = conn.recv(65536)
                    if not chunk:
                        break
                    data += chunk
                if b"\r\n\r\n" not in data:
                    continue
                head, _, body = data.partition(b"\r\n\r\n")
                length = 0
                for line in head.split(b"\r\n")[1:]:
                    name, _, value = line.partition(b":")
                    if name.strip().lower() == b"content-length":
                        length = int(value)
                while len(body) < length:
                    body += conn.recv(65536)
                self.requests.append(head.split(b"\r\n")[0].decode())
                action = self.script.pop(0)
                if action == "sever":
                    continue  # close with the reply still owed
                status, payload = action
                reply = json.dumps(payload).encode()
                conn.sendall(
                    b"HTTP/1.1 %d X\r\nContent-Type: application/json\r\n"
                    b"Content-Length: %d\r\nConnection: close\r\n\r\n%b"
                    % (status, len(reply), reply)
                )


def _shed(code):
    return (504, {"error": {"code": code, "message": "shed"}})


class TestSevered504Retry:
    def test_severed_then_deadline_shed_then_applied(self):
        """The compound failure: the first attempt's connection is
        severed before the reply (network-error retry path), the
        reconnected retry is deadline-shed with 504 — guaranteed
        unapplied, so it must retry too — and the third attempt
        lands."""
        record = {"jobs": [{"job_id": 1, "state": "pending"}]}
        script = ["sever", _shed("deadline_exceeded"), (200, record)]
        with _ScriptedServer(script) as server:
            with ServiceClient(
                server.url, retries=2, backoff_s=0.001
            ) as client:
                jobs = client.submit([dict(SPEC)])
        assert jobs == record["jobs"]
        assert len(server.requests) == 3

    def test_unkeyed_deadline_shed_retries(self):
        """``advise`` carries no idempotency key, but a deadline shed
        happens before any engine work — retry regardless."""
        script = [_shed("deadline_exceeded"), (200, {"ok": True})]
        with _ScriptedServer(script) as server:
            with ServiceClient(
                server.url, retries=1, backoff_s=0.001
            ) as client:
                assert client.advise(dict(SPEC)) == {"ok": True}
        assert len(server.requests) == 2

    def test_ambiguous_504_timeout_not_blindly_retried(self):
        """A 504 ``timeout`` reports an op that may still be applied
        after the reply window: without a safe-to-repeat guarantee the
        client must surface it, not resend."""
        with _ScriptedServer([_shed("timeout")]) as server:
            with ServiceClient(
                server.url, retries=3, backoff_s=0.001
            ) as client:
                with pytest.raises(ServiceError) as err:
                    client._request(
                        "POST", "/v1/submit", {"jobs": []}, idempotent=False
                    )
        assert err.value.status == 504
        assert err.value.code == "timeout"
        assert len(server.requests) == 1

    def test_keyed_504_timeout_retries_safely(self):
        """A keyed submit is deduplicated server-side, so even the
        ambiguous timeout may be repeated."""
        record = {"jobs": [{"job_id": 7, "state": "pending"}]}
        script = [_shed("timeout"), (200, record)]
        with _ScriptedServer(script) as server:
            with ServiceClient(
                server.url, retries=1, backoff_s=0.001
            ) as client:
                assert client.submit([dict(SPEC)]) == record["jobs"]
        assert len(server.requests) == 2
