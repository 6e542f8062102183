"""``repro load``: replay a trace through a live daemon, under load.

The harness answers two questions at once:

1. **Throughput/latency** — N concurrent client threads stream the
   trace's submissions at the daemon; the harness reports
   submissions/sec, client-side submit latency, and the server's own
   decision-latency percentiles (receipt → first scheduling pass) into
   ``BENCH_SERVICE.json``.
2. **Decision identity** — after draining the daemon, the same trace
   is run through the *offline* engine and every job record and
   promise is compared field-for-field.  The service is allowed to be
   a daemon; it is not allowed to schedule differently.

Replay discipline: the trace is cut into **windows** that never split
a same-submit-time group (the pass at instant *t* must see the whole
group, or the admission batch at *t* would differ from the offline
run).  Within a window, jobs are dealt round-robin to the clients and
submitted concurrently — arrival *interleaving* is deliberately
uncontrolled, which is exactly what the identity property must
survive; a barrier then advances the virtual clock to the window's
last submit instant.  Wall-clock throughput is measured around the
submission phase only (advances are the replay protocol's overhead,
not a submission cost — but they are included in the reported
``wall_elapsed_s`` for honesty).
"""

from __future__ import annotations

import json
import statistics
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from ..config import ExperimentConfig
from ..engine.simulation import SchedulerSimulation
from ..workload.job import Job
from .client import ServiceClient, ServiceError
from .core import default_service_config, percentiles
from .protocol import PROTOCOL_VERSION, job_to_record

__all__ = ["plan_windows", "run_load", "compare_records", "QUICK_THRESHOLDS"]

#: Quick-mode gates: deliberately lenient so CI smoke never flakes on a
#: loaded shared runner.  Real hardware clears these by an order of
#: magnitude (see docs/PERF.md "Service latency").
QUICK_THRESHOLDS = {
    "min_submissions_per_sec": 100.0,
    "max_decision_p99_ms": 2000.0,
}

#: Iterations of the calibration loop; sized to take O(50 ms) on a
#: contemporary core so three repeats stay under half a second.
_CALIBRATION_N = 1_000_000

#: The execution-record fields that must match the offline run exactly.
_IDENTITY_FIELDS = (
    "state",
    "start_time",
    "end_time",
    "assigned_nodes",
    "local_grant_per_node",
    "remote_per_node",
    "pool_grants",
    "dilation",
    "kill_reason",
)


def _calibration_loop() -> int:
    total = 0
    for i in range(_CALIBRATION_N):
        total += i * i
    return total


def calibrate(repeats: int = 3) -> float:
    """Median wall-clock of the fixed calibration loop, in seconds.

    ``decision_p99_calibrated`` divides the decision p99 by it, so the
    latency reads in loops rather than host-bound milliseconds.
    """
    runs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _calibration_loop()
        runs.append(time.perf_counter() - t0)
    return statistics.median(runs)


def plan_windows(jobs: Sequence[Job], batch_target: int) -> List[List[Job]]:
    """Cut a submit-time-sorted trace into admission windows.

    Windows aim for ``batch_target`` jobs but may only end on a
    submit-time boundary: all jobs sharing a submit instant land in
    one window, because the scheduling pass at that instant must see
    the complete group for the replay to be decision-identical.
    """
    ordered = sorted(jobs, key=lambda job: (job.submit_time, job.job_id))
    windows: List[List[Job]] = []
    current: List[Job] = []
    for job in ordered:
        if (
            current
            and len(current) >= batch_target
            and job.submit_time != current[-1].submit_time
        ):
            windows.append(current)
            current = []
        current.append(job)
    if current:
        windows.append(current)
    return windows


def _deal(window: Sequence[Job], clients: int) -> List[List[Job]]:
    hands: List[List[Job]] = [[] for _ in range(clients)]
    for index, job in enumerate(window):
        hands[index % clients].append(job)
    return hands


def _spec_of(job: Job) -> Dict[str, Any]:
    return {
        "job_id": job.job_id,
        "submit_time": job.submit_time,
        "nodes": job.nodes,
        "walltime": job.walltime,
        "runtime": job.runtime,
        "mem_per_node": job.mem_per_node,
        "mem_used_per_node": job.mem_used_per_node,
        "user": job.user,
        "group": job.group,
        "tag": job.tag,
    }


def compare_records(
    live: Dict[int, Dict[str, Any]],
    offline: Dict[int, Dict[str, Any]],
) -> List[str]:
    """Field-for-field identity check; returns human-readable diffs."""
    problems: List[str] = []
    missing = sorted(set(offline) - set(live))
    extra = sorted(set(live) - set(offline))
    if missing:
        problems.append(f"jobs missing from service: {missing[:10]}")
    if extra:
        problems.append(f"jobs the offline run never saw: {extra[:10]}")
    for job_id in sorted(set(live) & set(offline)):
        a, b = live[job_id], offline[job_id]
        for field in _IDENTITY_FIELDS:
            va, vb = a.get(field), b.get(field)
            if field == "pool_grants":
                va = {str(k): v for k, v in (va or {}).items()}
                vb = {str(k): v for k, v in (vb or {}).items()}
            if field == "assigned_nodes":
                va, vb = list(va or []), list(vb or [])
            if va != vb:
                problems.append(
                    f"job {job_id} field {field!r}: service={va!r} offline={vb!r}"
                )
        pa, pb = a.get("promise"), b.get("promise")
        if (pa is None) != (pb is None):
            problems.append(
                f"job {job_id} promise presence: service={pa!r} offline={pb!r}"
            )
        elif pa is not None and pb is not None:
            for key in ("decided_at", "promised_start"):
                if pa.get(key) != pb.get(key):
                    problems.append(
                        f"job {job_id} promise {key}: "
                        f"service={pa.get(key)!r} offline={pb.get(key)!r}"
                    )
    return problems


# ----------------------------------------------------------------------
def run_load(
    base_url: str,
    config: Optional[ExperimentConfig] = None,
    *,
    clients: int = 4,
    batch_target: int = 32,
    num_jobs: Optional[int] = None,
    quick: bool = False,
    output: Optional[str | Path] = None,
    thresholds: Optional[Dict[str, float]] = None,
    skip_identity: bool = False,
) -> Dict[str, Any]:
    """Drive the daemon at ``base_url``; return the bench document.

    The daemon must be in **replay** mode and freshly started (clock at
    the trace origin, no prior jobs) — identity is checked against an
    offline run of the same config, so any pre-existing state would
    show up as a diff.  ``quick=True`` trims the trace to 120 jobs and
    applies :data:`QUICK_THRESHOLDS`.
    """
    config = config or default_service_config()
    jobs = config.build_jobs()
    if quick and num_jobs is None:
        num_jobs = 120
    if num_jobs is not None:
        jobs = sorted(jobs, key=lambda j: (j.submit_time, j.job_id))[:num_jobs]
    if not jobs:
        raise ServiceError(400, "empty_trace", "the workload produced no jobs")
    clients = max(1, min(clients, len(jobs)))
    windows = plan_windows(jobs, batch_target)

    control = ServiceClient(base_url)
    health = control.health()
    if health.get("mode") != "replay":
        raise ServiceError(
            409, "wall_clock",
            "load replay needs a replay-mode daemon (start: repro serve)",
        )

    pool = [ServiceClient(base_url) for _ in range(clients)]
    submit_errors: List[str] = []
    submit_latencies: List[float] = []
    lock = threading.Lock()

    def worker(client: ServiceClient, hand: List[Job]) -> None:
        local_lat: List[float] = []
        local_err: List[str] = []
        for job in hand:
            t0 = time.monotonic()
            try:
                client.submit([_spec_of(job)])
                local_lat.append(time.monotonic() - t0)
            except ServiceError as exc:
                local_err.append(f"job {job.job_id}: {exc}")
        with lock:
            submit_latencies.extend(local_lat)
            submit_errors.extend(local_err)

    wall_start = time.monotonic()
    submit_elapsed = 0.0
    for window in windows:
        hands = [hand for hand in _deal(window, clients) if hand]
        t0 = time.monotonic()
        threads = [
            threading.Thread(target=worker, args=(client, hand), daemon=True)
            for client, hand in zip(pool, hands)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        submit_elapsed += time.monotonic() - t0
        # Barrier: run every pass due up to this window's last instant.
        control.advance(window[-1].submit_time)
    control.drain()
    wall_elapsed = time.monotonic() - wall_start

    live_jobs = control.jobs()["jobs"]
    metrics = control.metrics()
    state = control.state()
    for client in pool:
        client.close()

    # ------------------------------------------------------------------
    # identity: offline run of the same trace
    # ------------------------------------------------------------------
    identity: Dict[str, Any] = {"checked": False, "identical": None, "problems": []}
    if not skip_identity:
        offline_engine = SchedulerSimulation(
            config.build_cluster(),
            config.build_scheduler(),
            [job.copy_request() for job in jobs],
        )
        offline_result = offline_engine.run()
        offline_records = {
            job.job_id: job_to_record(
                job, offline_result.promises.get(job.job_id)
            )
            for job in offline_result.jobs
        }
        live_records = {record["job_id"]: record for record in live_jobs}
        problems = compare_records(live_records, offline_records)
        identity = {
            "checked": True,
            "identical": not problems,
            "problems": problems[:50],
            "offline_cycles": offline_result.cycles,
            "service_cycles": metrics.get("cycles"),
        }

    # ------------------------------------------------------------------
    # the bench document
    # ------------------------------------------------------------------
    rate = len(jobs) / submit_elapsed if submit_elapsed > 0 else float("inf")
    calibration_s = calibrate(repeats=1 if quick else 3)
    gates = dict(QUICK_THRESHOLDS if thresholds is None else thresholds)
    decision = metrics.get("decision_latency_ms", {})
    failures: List[str] = list(submit_errors[:20])
    if rate < gates["min_submissions_per_sec"]:
        failures.append(
            f"throughput {rate:.1f}/s below gate "
            f"{gates['min_submissions_per_sec']}/s"
        )
    p99 = decision.get("p99")
    if p99 is not None and p99 > gates["max_decision_p99_ms"]:
        failures.append(
            f"decision p99 {p99}ms above gate {gates['max_decision_p99_ms']}ms"
        )
    if identity["checked"] and not identity["identical"]:
        failures.append(
            f"decision identity broken: {len(identity['problems'])} diffs"
        )

    document: Dict[str, Any] = {
        "schema": 1,
        "protocol": PROTOCOL_VERSION,
        "mode": "quick" if quick else "full",
        "config": config.name,
        "clients": clients,
        "jobs": len(jobs),
        "windows": len(windows),
        "batch_target": batch_target,
        "wall_elapsed_s": round(wall_elapsed, 4),
        "submit_elapsed_s": round(submit_elapsed, 4),
        "submissions_per_sec": round(rate, 2),
        "client_submit_latency_ms": percentiles(submit_latencies),
        "server": {
            "decision_latency_ms": decision,
            "submit_latency_ms": metrics.get("submit_latency_ms"),
            "admission_batch": metrics.get("admission_batch"),
            "counters": metrics.get("counters"),
            "final_now": metrics.get("now"),
            "queue_depth_at_end": state.get("service", {})
            .get("counters", {})
            .get("queued", None),
        },
        "calibration_s": round(calibration_s, 6),
        # Machine-portable form: how many calibration loops one
        # decision-p99 is worth (latency / calibration time).
        "decision_p99_calibrated": (
            round(p99 / (calibration_s * 1e3), 4)
            if p99 is not None and calibration_s > 0
            else None
        ),
        "thresholds": gates,
        "identity": identity,
        "failures": failures,
        "ok": not failures,
    }
    if output is not None:
        Path(output).write_text(json.dumps(document, indent=2) + "\n")
    return document
