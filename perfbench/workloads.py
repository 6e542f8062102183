"""The benchmark's three workloads: seeded inputs, runs and output checks.

Every input is derived from one *base* input (the one ``repro perf``
and ``repro load`` use, generated at :data:`BASE_SEED`).  The benchmark
seed perturbs it: any seed other than the base seed scales every job's
runtime by an independent draw from ``[0.95, 1.05]`` (capped at its
walltime).  Each seed therefore yields a different schedule with the
same arrival process and load, so one seed's run costs about what
another's does — a fresh W-MIX draw per seed moves the conservative
run time by +-30%, which would drown any regression bound.  The base
seed is the unperturbed input, so its counters and digests are the
ROADMAP's.

Offline runs (``wmix-conservative``, ``kth-replay``) execute in a
worker process (``worker.py``), so the peak RSS is the simulator's
own and a traced run never shares a process with an untraced one.
The service run drives a ``repro serve`` daemon from this process.
"""

from __future__ import annotations

import hashlib
import json
import random
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.spec import ClusterSpec
from repro.engine.results import canonical_json, job_record
from repro.sched.base import Scheduler, build_scheduler
from repro.units import GiB
from repro.workload.job import Job
from repro.workload.reference import generate_reference_jobs

from gauge import SpeedGauge

BASE_SEED = 42
PENALTY = {"kind": "linear", "beta": 0.3}

#: Jobs per workload at ``--scale 1``.
SIZES = {"wmix-conservative": 10_000, "kth-replay": 20_000, "service-mixed": 5_000}

KTH_NODES = 1024
KTH_SEGMENTS = 4


def scaled_jobs(workload: str, scale: float) -> int:
    return max(40, int(SIZES[workload] * scale))


def jitter(jobs: List[Job], seed: int) -> List[Job]:
    """The seed's perturbation of the base input (identity at the base seed)."""
    if seed == BASE_SEED:
        return jobs
    rng = random.Random(seed)
    for job in jobs:
        job.runtime = min(job.walltime, job.runtime * rng.uniform(0.95, 1.05))
    return jobs


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def wmix_jobs(seed: int, num_jobs: int) -> List[Job]:
    """``repro perf``'s e2e input: W-MIX on 64 nodes at load 0.9."""
    jobs = generate_reference_jobs(
        "W-MIX",
        seed=BASE_SEED,
        num_jobs=num_jobs,
        cluster_nodes=64,
        max_mem_per_node=512 * GiB,
        target_load=0.9,
    )
    return jitter(jobs, seed)


def wmix_engine_parts() -> Tuple[Cluster, Scheduler]:
    """``repro perf``'s 64-node thin machine with a global pool at half
    the fat-node DRAM, under conservative backfill."""
    spec = ClusterSpec.thin_node(
        num_nodes=64,
        nodes_per_rack=16,
        local_mem=128 * GiB,
        fat_local_mem=512 * GiB,
        pool_fraction=0.5,
        reach="global",
        name="PERF-THIN",
    )
    return Cluster(spec), build_scheduler(backfill="conservative", penalty=dict(PENALTY))


def write_kth_trace(path: Path, seed: int, num_jobs: int) -> None:
    """A W-KTH SWF trace for the 1024-node machine — what
    ``generate_trace`` writes for one batch, perturbed by the seed."""
    from repro.workload.swf import write_swf

    jobs = generate_reference_jobs(
        "W-KTH",
        seed=BASE_SEED,
        num_jobs=num_jobs,
        cluster_nodes=KTH_NODES,
        max_mem_per_node=512 * GiB,
        target_load=0.9,
    )
    jobs.sort(key=lambda job: job.submit_time)
    for index, job in enumerate(jobs, start=1):
        job.job_id = index
    write_swf(
        jitter(jobs, seed),
        path,
        header={"Computer": "synthetic W-KTH", "MaxNodes": str(KTH_NODES)},
    )


def kth_spec(trace: Path):
    from repro.runner.replay import ReplaySpec

    return ReplaySpec(
        trace=str(trace),
        cluster={
            "kind": "thin",
            "num_nodes": KTH_NODES,
            "nodes_per_rack": 16,
            "local_mem": "128GiB",
            "fat_local_mem": "512GiB",
            "pool_fraction": 0.5,
            "reach": "global",
            "name": f"PERF-TRACE-{KTH_NODES}",
        },
        scheduler={"backfill": "easy", "penalty": dict(PENALTY)},
        seed=BASE_SEED,
    )


def service_config(num_jobs: int):
    """``repro load``'s service-demo experiment (32-node thin, EASY)."""
    from repro.service import default_service_config

    config = default_service_config()
    config.workload = {**config.workload, "num_jobs": num_jobs, "seed": BASE_SEED}
    return config


# ----------------------------------------------------------------------
# digests
# ----------------------------------------------------------------------
def sha256_lines(lines: Iterable[str]) -> str:
    sha = hashlib.sha256()
    for line in lines:
        sha.update(line.encode())
        sha.update(b"\n")
    return sha.hexdigest()


def result_digest(result) -> str:
    """sha256 over the canonical job records of an offline result."""
    return sha256_lines(
        canonical_json(job_record(job, result.promises.get(job.job_id)))
        for job in sorted(result.jobs, key=lambda job: job.job_id)
    )


#: Decision-shaped fields of a service job record.
SCHEDULE_FIELDS = (
    "job_id", "state", "start_time", "end_time", "assigned_nodes",
    "pool_grants", "dilation", "kill_reason", "promise",
)


def schedule_digest(records: Iterable[Dict[str, Any]]) -> str:
    """sha256 over the decision fields of service job records."""
    rows = []
    for record in sorted(records, key=lambda rec: rec["job_id"]):
        row = {field: record.get(field) for field in SCHEDULE_FIELDS}
        promise = row["promise"]
        if promise is not None:
            row["promise"] = [promise.get("decided_at"), promise.get("promised_start")]
        rows.append(canonical_json(row))
    return sha256_lines(rows)


def load_pins(path: Path) -> Dict[str, str]:
    """Pinned digests keyed ``<workload>/<seed>/<jobs>``."""
    try:
        return json.loads(path.read_text())["digests"]
    except FileNotFoundError:
        return {}


def pin_key(workload: str, seed: int, num_jobs: int) -> str:
    return f"{workload}/{seed}/{num_jobs}"


# ----------------------------------------------------------------------
# offline ruler hook (the untraced run's one wrapper)
# ----------------------------------------------------------------------
class RulerHook:
    """Gives the gauge a chance to run its ruler after every scheduling
    pass, at the public ``Scheduler.schedule``.

    One wrapper and one clock read per pass: the rulers then fall
    between passes, never inside one.
    """

    def __init__(self, gauge: SpeedGauge) -> None:
        self.gauge = gauge
        self._original = None

    def install(self) -> "RulerHook":
        original = self._original = Scheduler.schedule
        tick = self.gauge.tick

        def schedule(sched, ctx):
            decisions = original(sched, ctx)
            tick()
            return decisions

        Scheduler.schedule = schedule
        return self

    def uninstall(self) -> None:
        if self._original is not None:
            Scheduler.schedule = self._original
            self._original = None


# ----------------------------------------------------------------------
# offline runs (called inside the worker process)
# ----------------------------------------------------------------------
def wmix_simulation(seed: int, num_jobs: int):
    """A wmix-conservative run's set-up: input and engine."""
    from repro.engine.simulation import SchedulerSimulation

    jobs = wmix_jobs(seed, num_jobs)
    cluster, scheduler = wmix_engine_parts()
    return SchedulerSimulation(cluster, scheduler, jobs)


def wmix_outcome(result, audit: bool) -> Dict[str, Any]:
    """Terminal count and digest of a wmix-conservative result."""
    rep = {
        "terminal": sum(1 for job in result.jobs if job.state.terminal),
        "digest": result_digest(result),
        "problems": [],
    }
    if audit:
        from repro.audit import deep_audit

        report = deep_audit(result)
        rep["problems"] += [str(v) for v in report.errors[:5]]
    return rep


def kth_outcome(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Record count and stitched sha256 of a ``replay_trace`` payload."""
    sharded = payload["chains"]["sharded"]
    return {"terminal": sharded["records"], "digest": sharded["sha256"], "problems": []}


# ----------------------------------------------------------------------
# service-mixed: the load generator
# ----------------------------------------------------------------------
#: A read follows every ``READ_AFTER``-th submit of a client (one
#: request in four is a read); of every three reads two are ``advise``.
READ_AFTER = 3


def drive_service(
    url: str, jobs: List[Job], gauge: SpeedGauge, clients: int = 2, batch_target: int = 32
) -> Dict[str, Any]:
    """Closed-loop replay of ``jobs`` through the daemon at ``url``.

    The windows follow ``repro load`` (:func:`plan_windows`); inside a
    window the jobs are dealt round-robin to ``clients`` connections,
    each on its own thread.  Client 0 also carries the control calls:
    ``advance`` to each window's last submit instant, then ``drain``.
    The gauge samples between windows, while no request is in flight;
    the caller converts the daemon's CPU time with its factor.
    Latencies come back in wall milliseconds.
    """
    from http.client import HTTPException

    from repro.service.client import ServiceClient, ServiceError
    from repro.service.load import plan_windows
    from repro.service.protocol import job_to_request_spec as spec_of

    # What a request can raise once the client's retries are spent: the
    # run counts it as a failed operation and goes on.
    request_errors = (ServiceError, OSError, HTTPException)

    windows = plan_windows(jobs, batch_target)
    upcoming = [job for window in windows for job in window]
    pool = [ServiceClient(url) for _ in range(clients)]
    control = pool[0]
    submit_ms: List[List[float]] = [[] for _ in range(clients)]
    advise_ms: List[List[float]] = [[] for _ in range(clients)]
    errors: List[List[str]] = [[] for _ in range(clients)]
    requests = [0] * clients
    accepted = [0] * clients
    reads = [0] * clients
    position = {job.job_id: index for index, job in enumerate(upcoming)}

    def worker(k: int, hand: List[Job]) -> None:
        client = pool[k]
        clock = time.perf_counter
        for job in hand:
            requests[k] += 1
            t0 = clock()
            try:
                client.submit([spec_of(job)])
                submit_ms[k].append((clock() - t0) * 1e3)
                accepted[k] += 1
            except request_errors as exc:
                errors[k].append(f"submit {job.job_id}: {exc}")
                continue
            if len(submit_ms[k]) % READ_AFTER:
                continue
            reads[k] += 1
            requests[k] += 1
            try:
                if reads[k] % 3:
                    ahead = upcoming[min(len(upcoming) - 1, position[job.job_id] + 64)]
                    t0 = clock()
                    client.advise(spec_of(ahead))
                    advise_ms[k].append((clock() - t0) * 1e3)
                else:
                    client.query(job.job_id)
            except request_errors as exc:
                errors[k].append(f"read after {job.job_id}: {exc}")

    control_errors: List[str] = []
    control_requests = 0
    gauge.start()
    try:
        for window in windows:
            hands = [window[k::clients] for k in range(clients)]
            threads = [
                threading.Thread(target=worker, args=(k, hand), daemon=True)
                for k, hand in enumerate(hands)
                if hand
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            control_requests += 1
            try:
                control.advance(window[-1].submit_time)
            except request_errors as exc:
                control_errors.append(f"advance: {exc}")
            gauge.tick()
        control_requests += 1
        try:
            control.drain()
        except request_errors as exc:
            control_errors.append(f"drain: {exc}")
        span = gauge.stop()
        live = control.jobs()["jobs"]
        metrics = control.metrics()
    finally:
        for client in pool:
            client.close()
    return {
        "load_wall_s": span.wall_s,
        "factor": span.factor,
        "attempted": sum(requests) + control_requests,
        "failed": sum(len(e) for e in errors) + len(control_errors),
        "errors": [e for errs in errors for e in errs][:10] + control_errors[:10],
        "accepted": sum(accepted),
        "submit_ms": [ms for samples in submit_ms for ms in samples],
        "advise_ms": [ms for samples in advise_ms for ms in samples],
        "live": live,
        "metrics": metrics,
    }
