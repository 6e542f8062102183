"""Service-layer tests: online engine, protocol, daemon, load harness.

The load-bearing property throughout is **decision identity**: a trace
streamed through the live daemon — concurrently, in arbitrary arrival
interleavings — must produce exactly the schedule the offline engine
produces for the same trace.  Everything else (protocol strictness,
cancel semantics, concurrent-client safety) protects the machinery
that keeps that property true.
"""

from __future__ import annotations

import http.client
import json
import math
import random
import socket
import threading
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.config import ExperimentConfig
from repro.engine.simulation import SchedulerSimulation
from repro.errors import ConfigurationError, SimulationError
from repro.service import (
    SchedulerService,
    ServiceClient,
    ServiceConfig,
    ServiceDaemon,
    ServiceError,
)
from repro.service.core import default_service_config, percentiles
from repro.service import load
from repro.service.load import compare_records, plan_windows, run_load
from repro.service.protocol import (
    ProtocolError,
    job_from_spec,
    job_to_record,
)
from repro.service.state import build_state_document
from repro.units import GiB
from repro.workload.job import JobState

from .conftest import make_job


def small_config(num_jobs: int = 60, **scheduler) -> ExperimentConfig:
    config = default_service_config()
    config.workload = dict(config.workload, num_jobs=num_jobs)
    if scheduler:
        config.scheduler = dict(config.scheduler, **scheduler)
    return config


def build_service(config: ExperimentConfig, **svc_kwargs) -> SchedulerService:
    return SchedulerService(
        config.build_cluster(),
        config.build_scheduler(),
        ServiceConfig(**svc_kwargs),
    )


def offline_records(config: ExperimentConfig, jobs):
    sim = SchedulerSimulation(
        config.build_cluster(),
        config.build_scheduler(),
        [job.copy_request() for job in jobs],
    )
    result = sim.run()
    return {
        job.job_id: job_to_record(job, result.promises.get(job.job_id))
        for job in result.jobs
    }


# ======================================================================
# online engine mode
# ======================================================================
class TestOnlineEngine:
    def test_run_is_refused_online(self, tiny_cluster):
        from repro.sched.base import Scheduler

        engine = SchedulerSimulation(tiny_cluster, Scheduler(), [], online=True)
        with pytest.raises(SimulationError):
            engine.run()

    def test_offline_requires_jobs(self, tiny_cluster):
        from repro.sched.base import Scheduler

        with pytest.raises(ConfigurationError):
            SchedulerSimulation(tiny_cluster, Scheduler(), [])

    def test_inject_advance_completes_jobs(self, tiny_cluster):
        from repro.sched.base import Scheduler

        engine = SchedulerSimulation(tiny_cluster, Scheduler(), [], online=True)
        engine.inject_jobs([make_job(job_id=1, runtime=100.0)])
        engine.advance_to(0.0)
        assert engine.job(1).state is JobState.RUNNING
        engine.advance_to(500.0)
        assert engine.job(1).state is JobState.COMPLETED

    def test_late_arrival_rejected(self, tiny_cluster):
        from repro.sched.base import Scheduler

        engine = SchedulerSimulation(tiny_cluster, Scheduler(), [], online=True)
        engine.advance_to(100.0)
        with pytest.raises(ConfigurationError):
            engine.inject_jobs([make_job(job_id=1, submit=50.0)])

    def test_duplicate_id_rejected(self, tiny_cluster):
        from repro.sched.base import Scheduler

        engine = SchedulerSimulation(tiny_cluster, Scheduler(), [], online=True)
        engine.inject_jobs([make_job(job_id=7)])
        with pytest.raises(ConfigurationError):
            engine.inject_jobs([make_job(job_id=7)])

    def test_clock_never_goes_backwards(self, tiny_cluster):
        from repro.sched.base import Scheduler

        engine = SchedulerSimulation(tiny_cluster, Scheduler(), [], online=True)
        engine.advance_to(10.0)
        with pytest.raises(SimulationError):
            engine.advance_to(5.0)

    def test_cancel_pending(self, tiny_cluster):
        from repro.sched.base import Scheduler

        engine = SchedulerSimulation(tiny_cluster, Scheduler(), [], online=True)
        engine.inject_jobs([make_job(job_id=1, submit=50.0)])
        assert engine.cancel_job(1) == "cancelled"
        job = engine.job(1)
        assert job.state is JobState.CANCELLED
        assert job.start_time is None and not job.assigned_nodes
        # The cancelled job's submit event must not resurrect it.
        engine.advance_to(100.0)
        assert engine.job(1).state is JobState.CANCELLED

    def test_cancel_running_kills_and_frees(self, tiny_cluster):
        from repro.sched.base import Scheduler

        engine = SchedulerSimulation(tiny_cluster, Scheduler(), [], online=True)
        engine.inject_jobs([make_job(job_id=1, nodes=4, runtime=1000.0)])
        engine.advance_to(0.0)
        assert engine.job(1).state is JobState.RUNNING
        assert engine.cancel_job(1) == "killed"
        job = engine.job(1)
        assert job.state is JobState.KILLED
        assert job.kill_reason == "cancelled"
        assert tiny_cluster.free_node_count == 4

    def test_cancel_unknown_and_terminal(self, tiny_cluster):
        from repro.sched.base import Scheduler

        engine = SchedulerSimulation(tiny_cluster, Scheduler(), [], online=True)
        assert engine.cancel_job(99) == "not_found"
        engine.inject_jobs([make_job(job_id=1, runtime=10.0)])
        engine.advance_to(100.0)
        assert engine.cancel_job(1) == "already_terminal"

    def test_streamed_identity_randomized_batches(self):
        """The anchor property: a shuffled, batched online replay is
        bit-identical to the offline run of the same trace."""
        config = small_config(num_jobs=80)
        jobs = config.build_jobs()
        expected = offline_records(config, jobs)

        engine = SchedulerSimulation(
            config.build_cluster(), config.build_scheduler(), [], online=True
        )
        rng = random.Random(7)
        for window in plan_windows(jobs, batch_target=9):
            batch = [job.copy_request() for job in window]
            rng.shuffle(batch)
            # Split the window into randomly sized sub-injections to
            # model concurrent clients racing; groups sharing a submit
            # instant still land before the advance, which is all the
            # identity property requires.
            while batch:
                cut = rng.randint(1, len(batch))
                engine.inject_jobs(batch[:cut])
                batch = batch[cut:]
            engine.advance_to(window[-1].submit_time)
        engine.drain()
        live = {
            job.job_id: job_to_record(job, engine.promise(job.job_id))
            for job in engine.jobs
        }
        assert compare_records(live, expected) == []


class TestStateDocument:
    def test_node_listing_entries(self):
        """An idle, a busy and a down node, pinned field by field and in
        key order: the listing is part of the ``/v1/state`` contract."""
        service = build_service(small_config(), mode="replay")
        service.engine.inject_jobs([make_job(job_id=7, nodes=2, mem=8 * GiB)])
        service.engine.advance_to(0.0)
        service.cluster.take_down(5)
        nodes = build_state_document(service)["cluster"]["nodes"]
        expected = {
            1: {"node_id": 1, "rack_id": 0, "state": "busy", "job_id": 7,
                "local_grant_mib": 8192, "local_mem_mib": 131072},
            2: {"node_id": 2, "rack_id": 0, "state": "idle", "job_id": None,
                "local_grant_mib": 0, "local_mem_mib": 131072},
            5: {"node_id": 5, "rack_id": 0, "state": "down", "job_id": None,
                "local_grant_mib": 0, "local_mem_mib": 131072},
        }
        for node_id, entry in expected.items():
            assert json.dumps(nodes[node_id]) == json.dumps(entry)
        assert [node["state"] for node in nodes].count("busy") == 2


# ======================================================================
# protocol
# ======================================================================
class TestProtocol:
    def test_round_trip(self):
        job = make_job(job_id=3, nodes=2, mem=8 * GiB, user="alice", tag="x")
        spec = {
            "job_id": 3, "submit_time": 0.0, "nodes": 2,
            "walltime": 3600.0, "runtime": 1800.0,
            "mem_per_node": 8 * GiB, "mem_used_per_node": 8 * GiB,
            "user": "alice", "group": "group0", "tag": "x",
        }
        rebuilt = job_from_spec(spec)
        assert job_to_record(rebuilt) == job_to_record(job)
        # And the record survives JSON.
        assert json.loads(json.dumps(job_to_record(rebuilt)))

    def test_unknown_field_rejected(self):
        with pytest.raises(ProtocolError) as err:
            job_from_spec({"nodes": 1, "walltime": 60, "mem_per_node": 1024,
                           "mem": 1024})
        assert err.value.code == "unknown_field"

    def test_missing_field_rejected(self):
        with pytest.raises(ProtocolError) as err:
            job_from_spec({"nodes": 1})
        assert err.value.code == "missing_field"

    def test_runtime_defaults_to_walltime(self):
        job = job_from_spec(
            {"nodes": 1, "walltime": 500.0, "mem_per_node": 1024},
            default_job_id=1, default_submit_time=0.0,
        )
        assert job.runtime == 500.0

    def test_non_numeric_rejected(self):
        with pytest.raises(ProtocolError) as err:
            job_from_spec({"nodes": "two", "walltime": 60,
                           "mem_per_node": 1024},
                          default_job_id=1, default_submit_time=0.0)
        assert err.value.status == 400

    def test_percentiles_nearest_rank(self):
        stats = percentiles([0.010, 0.020])
        assert stats["p50"] == 10.0  # lower of two samples, not upper
        assert stats["max"] == 20.0
        assert percentiles([])["p50"] is None


@pytest.mark.parametrize(
    "field", ["speed", "tick_s", "start_time", "deadline_s", "group_commit_s"]
)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_service_config_rejects_non_finite(field, value):
    """NaN slips past every sign check; infinities would park the
    virtual clock at inf or NaN.  Both are configuration errors."""
    with pytest.raises(ConfigurationError, match=f"{field} must be finite"):
        ServiceConfig(**{field: value})


# ======================================================================
# the daemon over real HTTP
# ======================================================================
@pytest.fixture
def daemon():
    config = small_config()
    service = build_service(config, mode="replay")
    with ServiceDaemon(service) as running:
        yield running


class TestDaemon:
    def test_health_and_state(self, daemon):
        with ServiceClient(daemon.url) as client:
            health = client.health()
            assert health["status"] == "ok"
            assert health["mode"] == "replay"
            state = client.state()
            assert state["cluster"]["num_nodes"] == 32
            assert state["scheduler"]["backfill"] == "easy"
            assert len(state["cluster"]["nodes"]) == 32

    def test_submit_query_lifecycle(self, daemon):
        with ServiceClient(daemon.url) as client:
            record = client.submit_one(
                {"nodes": 2, "walltime": 600.0, "runtime": 300.0,
                 "mem_per_node": 4 * GiB}
            )
            assert record["state"] == "running"
            assert record["start_time"] == 0.0
            assert len(record["assigned_nodes"]) == 2
            client.advance(1000.0)
            assert client.query(record["job_id"])["state"] == "completed"

    def test_auto_ids_are_unique(self, daemon):
        with ServiceClient(daemon.url) as client:
            records = client.submit(
                [{"nodes": 1, "walltime": 60.0, "mem_per_node": 1024}] * 5
            )
            ids = [record["job_id"] for record in records]
            assert len(set(ids)) == 5

    def test_error_envelopes(self, daemon):
        with ServiceClient(daemon.url) as client:
            with pytest.raises(ServiceError) as err:
                client.query(4242)
            assert err.value.status == 404
            assert err.value.code == "not_found"
            with pytest.raises(ServiceError) as err:
                client.submit_one({"nodes": 1})
            assert err.value.code == "missing_field"
            with pytest.raises(ServiceError) as err:
                client.advance(-5.0)
            assert err.value.code == "clock_backwards"
            with pytest.raises(ServiceError) as err:
                client._request("GET", "/v2/nope")
            assert err.value.status == 404

    def test_duplicate_submit_conflict(self, daemon):
        with ServiceClient(daemon.url) as client:
            client.submit_one({"job_id": 5, "nodes": 1, "walltime": 60.0,
                               "mem_per_node": 1024})
            with pytest.raises(ServiceError) as err:
                client.submit_one({"job_id": 5, "nodes": 1, "walltime": 60.0,
                                   "mem_per_node": 1024})
            assert err.value.status == 409
            assert err.value.code == "duplicate_job"

    def test_cancel_pending_and_running(self, daemon):
        with ServiceClient(daemon.url) as client:
            queued = client.submit_one(
                {"nodes": 1, "walltime": 60.0, "mem_per_node": 1024,
                 "submit_time": 500.0}
            )
            assert client.cancel(queued["job_id"])["outcome"] == "cancelled"
            running = client.submit_one(
                {"nodes": 1, "walltime": 600.0, "mem_per_node": 1024}
            )
            reply = client.cancel(running["job_id"])
            assert reply["outcome"] == "killed"
            assert reply["job"]["kill_reason"] == "cancelled"

    def test_advise_start_now_and_reject(self, daemon):
        with ServiceClient(daemon.url) as client:
            advice = client.advise(
                {"nodes": 2, "walltime": 600.0, "mem_per_node": 4 * GiB}
            )
            assert advice["verdict"] == "start_now"
            assert advice["bound"] == "none"
            assert len(advice["placement"]["node_ids"]) == 2
            advice = client.advise(
                {"nodes": 64, "walltime": 600.0, "mem_per_node": 4 * GiB}
            )
            assert advice["verdict"] == "reject"
            assert advice["bound"] == "machine-capacity"
            # Advise admits nothing.
            assert client.metrics()["counters"]["admitted"] == 0

    def test_advise_wait_on_busy_machine(self, daemon):
        with ServiceClient(daemon.url) as client:
            client.submit_one(
                {"nodes": 32, "walltime": 3600.0, "runtime": 3000.0,
                 "mem_per_node": 4 * GiB}
            )
            advice = client.advise(
                {"nodes": 4, "walltime": 600.0, "mem_per_node": 4 * GiB}
            )
            assert advice["verdict"] == "wait"
            assert advice["bound"] == "node-availability"
            assert advice["estimated_start"] > 0.0

    def test_wall_mode_owns_its_clock(self):
        service = build_service(small_config(), mode="wall", speed=3600.0)
        with ServiceDaemon(service) as running:
            with ServiceClient(running.url) as client:
                with pytest.raises(ServiceError) as err:
                    client.advance(10.0)
                assert err.value.code == "wall_clock"
                record = client.submit_one(
                    {"nodes": 1, "walltime": 60.0, "runtime": 30.0,
                     "mem_per_node": 1024}
                )
                deadline = threading.Event()
                for _ in range(100):
                    if client.query(record["job_id"])["state"] == "completed":
                        break
                    deadline.wait(0.05)
                else:
                    pytest.fail("wall clock never completed a 30s job")


# ======================================================================
# malformed input over real HTTP
# ======================================================================
_SPEC = {"nodes": 1, "walltime": 600.0, "mem_per_node": 1024}


def _submit_with(**fields):
    return "/v1/submit", {"jobs": [dict(_SPEC, **fields)]}


#: (path, body) pairs the service must refuse with a 4xx — every one of
#: them crashed the engine thread or parked its clock at ``inf`` once.
#: ``json.dumps`` writes nan/inf as the ``NaN``/``Infinity`` literals
#: ``json.loads`` accepts.
_MALFORMED = {
    "nodes-inf": _submit_with(nodes=math.inf),
    "nodes-fractional": _submit_with(nodes=1.5),
    "walltime-nan": _submit_with(walltime=math.nan),
    "walltime-inf": _submit_with(walltime=math.inf),
    "runtime-nan": _submit_with(runtime=math.nan),
    "submit-time-nan": _submit_with(submit_time=math.nan),
    "submit-time-inf": _submit_with(submit_time=math.inf),
    "job-id-nan": _submit_with(job_id=math.nan),
    "job-id-fractional": _submit_with(job_id=7.5),
    "mem-inf": _submit_with(mem_per_node=math.inf),
    "mem-fractional": _submit_with(mem_per_node=1024.5),
    "mem-used-nan": _submit_with(mem_used_per_node=math.nan),
    "mem-used-fractional": _submit_with(mem_used_per_node=512.5),
    "mem-huge": _submit_with(mem_per_node=10**400),
    "advance-nan": ("/v1/advance", {"to": math.nan}),
    "advance-inf": ("/v1/advance", {"to": math.inf}),
    "advance-neg-inf": ("/v1/advance", {"to": -math.inf}),
}


@pytest.fixture(scope="class")
def durable_daemon(tmp_path_factory):
    """One journaled daemon for the whole class: every case checks
    its own before/after journal bytes."""
    state_dir = tmp_path_factory.mktemp("malformed") / "state"
    service = SchedulerService.open(
        small_config(), ServiceConfig(mode="replay", state_dir=str(state_dir))
    )
    with ServiceDaemon(service) as running:
        yield running


def _journal(daemon) -> bytes:
    root = Path(daemon.service.config.state_dir)
    return b"".join(path.read_bytes() for path in sorted(root.glob("journal-*")))


def _raw_request(daemon, head: str, body: bytes = b"") -> bytes:
    """Send ``head`` (request line + headers, no blank line) and
    ``body`` verbatim; return everything the server sends until it
    closes the connection.  Times out instead of hanging if it never
    answers."""
    host, port = daemon.address
    with socket.create_connection((host, port), timeout=5.0) as sock:
        sock.sendall(head.encode() + b"\r\n\r\n" + body)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
        return reply


class TestMalformedInput:
    @pytest.mark.parametrize("case", sorted(_MALFORMED))
    def test_rejected_without_side_effects(self, durable_daemon, case):
        path, body = _MALFORMED[case]
        with ServiceClient(durable_daemon.url) as client:
            client.advance(100.0)  # one journaled mutation to compare against
            before = _journal(durable_daemon)
            host, port = durable_daemon.address
            conn = http.client.HTTPConnection(host, port, timeout=5.0)
            try:
                conn.request("POST", path, json.dumps(body),
                             {"Content-Type": "application/json"})
                reply = conn.getresponse()
                payload = json.loads(reply.read())
            finally:
                conn.close()
            assert reply.status == 400, payload
            expected = "invalid_request" if path == "/v1/advance" else "invalid_field"
            assert payload["error"]["code"] == expected
            assert client.health()["status"] == "ok"
            assert _journal(durable_daemon) == before
            # The engine still serves, and its clock never moved.
            assert client.submit_one(dict(_SPEC))["state"] == "running"
            assert client.metrics()["now"] == 100.0

    @pytest.mark.parametrize("length", ["-1", "abc", "1.5"])
    def test_bad_content_length(self, durable_daemon, length):
        before = _journal(durable_daemon)
        reply = _raw_request(
            durable_daemon,
            f"POST /v1/submit HTTP/1.1\r\nHost: x\r\nContent-Length: {length}",
            b"{}",
        )
        assert reply.startswith(b"HTTP/1.1 400"), reply
        assert b"bad_request" in reply
        with ServiceClient(durable_daemon.url) as client:
            assert client.health()["status"] == "ok"
        assert _journal(durable_daemon) == before


# ======================================================================
# concurrency
# ======================================================================
class TestConcurrentClients:
    def test_cancel_racing_submit(self, daemon):
        """A cancel fired the instant a submit returns must land on a
        well-defined state: cancelled, killed, or (rarely) completed —
        never an error, never a wedged engine."""
        outcomes = []
        lock = threading.Lock()

        def one_pair(index: int) -> None:
            with ServiceClient(daemon.url) as client:
                record = client.submit_one(
                    {"nodes": 1, "walltime": 600.0, "runtime": 300.0,
                     "mem_per_node": 1024, "submit_time": float(index % 3)}
                )
                reply = client.cancel(record["job_id"])
                with lock:
                    outcomes.append(reply["outcome"])

        threads = [
            threading.Thread(target=one_pair, args=(i,)) for i in range(12)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(outcomes) == 12
        assert set(outcomes) <= {"cancelled", "killed", "already_terminal"}
        with ServiceClient(daemon.url) as client:
            assert client.health()["status"] == "ok"
            for record in client.jobs()["jobs"]:
                assert record["state"] in ("cancelled", "killed")

    def test_queries_during_passes(self, daemon):
        """Readers hammering state/metrics while writers submit must
        always observe a consistent document."""
        stop = threading.Event()
        errors = []

        def reader() -> None:
            with ServiceClient(daemon.url) as client:
                while not stop.is_set():
                    try:
                        state = client.state()
                        busy = sum(
                            1 for node in state["cluster"]["nodes"]
                            if node["job_id"] is not None
                        )
                        running = len(state["running"])
                        nodes_held = sum(
                            len(entry["nodes"]) for entry in state["running"]
                        )
                        if busy != nodes_held:
                            errors.append(
                                f"torn snapshot: {busy} busy nodes vs "
                                f"{nodes_held} held by running jobs"
                            )
                        client.metrics()
                    except ServiceError as exc:
                        errors.append(str(exc))

        readers = [threading.Thread(target=reader) for _ in range(2)]
        for thread in readers:
            thread.start()
        with ServiceClient(daemon.url) as client:
            for index in range(20):
                client.submit_one(
                    {"nodes": 1 + index % 4, "walltime": 900.0,
                     "runtime": 450.0, "mem_per_node": 4 * GiB,
                     "submit_time": float(index * 10)}
                )
                client.advance(float(index * 10))
            client.drain()
        stop.set()
        for thread in readers:
            thread.join()
        assert errors == []


# ======================================================================
# the load harness: differential identity through a live daemon
# ======================================================================
class TestLoadHarness:
    def test_calibration_loop_sums_squares(self, monkeypatch):
        monkeypatch.setattr(load, "_CALIBRATION_N", 1000)
        assert load._calibration_loop() == 999 * 1000 * 1999 // 6

    def test_calibrate_is_the_median_of_its_repeats(self, monkeypatch):
        ticks = iter([0.0, 0.5, 1.0, 1.1, 2.0, 2.3])  # runs of 0.5, 0.1, 0.3 s
        monkeypatch.setattr(load, "_CALIBRATION_N", 10)
        monkeypatch.setattr(load, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
        assert load.calibrate(repeats=3) == pytest.approx(0.3)

    def test_calibrate_one_repeat_is_positive(self, monkeypatch):
        monkeypatch.setattr(load, "_CALIBRATION_N", 1000)
        assert load.calibrate(repeats=1) > 0

    def test_plan_windows_never_split_an_instant(self):
        jobs = [make_job(job_id=i, submit=float(i // 3)) for i in range(30)]
        windows = plan_windows(jobs, batch_target=4)
        for earlier, later in zip(windows, windows[1:]):
            assert earlier[-1].submit_time != later[0].submit_time
        assert sum(len(w) for w in windows) == 30

    def test_live_replay_decision_identical(self, tmp_path):
        config = small_config(num_jobs=70)
        service = build_service(config, mode="replay")
        out = tmp_path / "BENCH_SERVICE.json"
        with ServiceDaemon(service) as running:
            document = run_load(
                running.url, config, clients=3, batch_target=16,
                quick=True, num_jobs=70, output=out,
                thresholds={"min_submissions_per_sec": 0.0,
                            "max_decision_p99_ms": 1e9},
            )
        assert document["identity"]["checked"]
        assert document["identity"]["identical"], document["identity"]["problems"]
        assert document["ok"], document["failures"]
        assert document["jobs"] == 70
        written = json.loads(out.read_text())
        assert written["submissions_per_sec"] > 0
        assert written["server"]["decision_latency_ms"]["count"] == 70
        assert written["calibration_s"] > 0
        assert written["decision_p99_calibrated"] > 0

    def test_live_replay_conservative_backfill(self):
        config = small_config(num_jobs=50, backfill="conservative")
        service = build_service(config, mode="replay")
        with ServiceDaemon(service) as running:
            document = run_load(
                running.url, config, clients=2, quick=True, num_jobs=50,
                thresholds={"min_submissions_per_sec": 0.0,
                            "max_decision_p99_ms": 1e9},
            )
        assert document["identity"]["identical"], document["identity"]["problems"]

    def test_wall_mode_daemon_is_refused(self):
        service = build_service(small_config(), mode="wall")
        with ServiceDaemon(service) as running:
            with pytest.raises(ServiceError) as err:
                run_load(running.url, small_config(), quick=True)
            assert err.value.code == "wall_clock"

    def test_compare_records_reports_diffs(self):
        a = {1: {"state": "completed", "start_time": 0.0, "promise": None}}
        b = {1: {"state": "completed", "start_time": 5.0, "promise": None},
             2: {"state": "completed", "start_time": 0.0, "promise": None}}
        problems = compare_records(a, b)
        assert any("start_time" in p for p in problems)
        assert any("missing" in p for p in problems)
