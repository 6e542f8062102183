"""The perf-case registry: what `repro perf` measures.

Four layers, mirroring how scheduler cycle latency composes:

* ``profile_build``    — constructing an :class:`AvailabilityProfile`
  from a loaded 64-node machine (done at least once per cycle);
* ``profile_queries``  — sweep-cursor ``earliest_start`` scans against
  a loaded profile with reservations, from the anchor and as
  ``after=`` resumes (the backfill inner loop);
* ``easy_pass`` / ``conservative_pass`` — one full scheduling pass over
  a primed mid-simulation state (deep queue, busy machine);
* ``e2e_easy`` / ``e2e_conservative`` — complete 10k-job simulations
  (quick mode: 1 500 jobs), the paper-grid unit of work.
* ``trace_replay`` — the trace-scale layer: a streaming W-KTH replay
  on a large thin cluster.  Its ``extra`` payload surfaces the
  breakpoint-grid percentiles every cursor scan saw.

All states are seeded and deterministic, so two harness invocations on
the same code measure identical work.
"""

from __future__ import annotations

import os
import random
import tempfile
import time
from functools import lru_cache
from typing import Callable, List, Optional, Sequence, Tuple

from ..cluster.cluster import Cluster
from ..cluster.spec import ClusterSpec
from ..engine import lifecycle
from ..engine.simulation import SchedulerSimulation
from ..sched.base import (
    Scheduler,
    SchedulerContext,
    StartDecision,
    build_scheduler,
    pool_pressure,
)
from ..sched.profile import set_scan_observer
from ..units import GiB, HOUR
from ..workload.job import Job
from ..workload.reference import generate_reference_jobs
from .core import PerfCase

__all__ = ["build_cases", "case_names"]

_SEED = 42
_BETA = 0.3
_PENALTY = {"kind": "linear", "beta": _BETA}

_E2E_JOBS_FULL = 10_000
_E2E_JOBS_QUICK = 1_500


def _thin_cluster(num_nodes: int = 64) -> Cluster:
    spec = ClusterSpec.thin_node(
        num_nodes=num_nodes,
        nodes_per_rack=16,
        local_mem=128 * GiB,
        fat_local_mem=512 * GiB,
        pool_fraction=0.5,
        reach="global",
        name="PERF-THIN",
    )
    return Cluster(spec)


def _scheduler(backfill: str) -> Scheduler:
    return build_scheduler(backfill=backfill, penalty=dict(_PENALTY))


def _apply_start_like_engine(
    cluster: Cluster,
    scheduler: Scheduler,
    queue: List[Job],
    running: List[Job],
    now: float,
) -> Callable[[StartDecision], None]:
    """The engine's ``_apply_start`` minus event-calendar bookkeeping."""

    def apply(decision: StartDecision) -> None:
        job = decision.job
        pressure = pool_pressure(cluster, decision.plan)
        dilation = scheduler.penalty.dilation(
            decision.split.remote_fraction, pressure
        )
        cluster.allocate_nodes(job.job_id, decision.node_mask, decision.split.local)
        cluster.allocate_pool(job.job_id, decision.plan)
        lifecycle.start_job(job, now, decision, dilation)
        queue.remove(job)
        running.append(job)

    return apply


def _primed_state(
    backfill: str,
    num_running: int,
    num_pending: int,
    seed: int = _SEED,
    num_nodes: int = 64,
) -> Tuple[Cluster, Scheduler, List[Job], List[Job]]:
    """A seeded mid-simulation state: busy machine, deep queue.

    Running jobs get staggered (negative) start times so their
    estimated ends spread over the next several hours — the shape the
    availability profile sweeps in a real cycle.  The pending queue
    leads with a wide job (forces a shadow reservation under EASY) and
    mixes short backfillable jobs with long hypothesis-test candidates.
    """
    rng = random.Random(seed)
    cluster = _thin_cluster(num_nodes)
    scheduler = _scheduler(backfill)
    running: List[Job] = []
    queue: List[Job] = []
    ctx = SchedulerContext(
        cluster=cluster,
        now=0.0,
        queue=queue,
        running=running,
        start_job=lambda decision: None,
    )
    job_id = 1
    attempts = 0
    while len(running) < num_running and attempts < num_running * 4:
        attempts += 1
        nodes = rng.choice((1, 1, 2, 2, 4, 4, 8))
        walltime = rng.uniform(0.5 * HOUR, 6 * HOUR)
        job = Job(
            job_id=job_id,
            submit_time=0.0,
            nodes=nodes,
            walltime=walltime,
            runtime=walltime * rng.uniform(0.4, 0.95),
            mem_per_node=rng.choice((64, 96, 160, 224)) * GiB,
        )
        decision = scheduler.try_start_now(ctx, job)
        if decision is None:
            continue
        pressure = pool_pressure(cluster, decision.plan)
        dilation = scheduler.penalty.dilation(
            decision.split.remote_fraction, pressure
        )
        cluster.allocate_nodes(job.job_id, decision.node_mask, decision.split.local)
        cluster.allocate_pool(job.job_id, decision.plan)
        lifecycle.start_job(job, 0.0, decision, dilation)
        # Stagger history: the job has been running a while already.
        job.start_time = -rng.uniform(0.0, walltime * 0.8)
        running.append(job)
        job_id += 1
    # Queue head: a wide job that cannot start now (shadow under EASY).
    queue.append(
        Job(
            job_id=job_id,
            submit_time=0.0,
            nodes=num_nodes - 8,
            walltime=4 * HOUR,
            runtime=3 * HOUR,
            mem_per_node=96 * GiB,
        )
    )
    job_id += 1
    for _ in range(num_pending - 1):
        long_candidate = rng.random() < 0.5
        walltime = (
            rng.uniform(5 * HOUR, 10 * HOUR)
            if long_candidate
            else rng.uniform(0.2 * HOUR, 1.5 * HOUR)
        )
        queue.append(
            Job(
                job_id=job_id,
                submit_time=0.0,
                nodes=rng.choice((1, 2, 2, 4, 8, 12, 16)),
                walltime=walltime,
                runtime=walltime * rng.uniform(0.4, 0.95),
                mem_per_node=rng.choice((64, 96, 160, 224, 320)) * GiB,
            )
        )
        job_id += 1
    return cluster, scheduler, running, queue


@lru_cache(maxsize=4)
def _e2e_workload(num_jobs: int) -> Tuple[Job, ...]:
    return tuple(
        generate_reference_jobs(
            "W-MIX",
            seed=_SEED,
            num_jobs=num_jobs,
            cluster_nodes=64,
            max_mem_per_node=512 * GiB,
            target_load=0.9,
        )
    )


# ----------------------------------------------------------------------
# case implementations (each returns (elapsed_seconds, events))
# ----------------------------------------------------------------------
def _run_profile_build(builds: int) -> Tuple[float, int]:
    cluster, scheduler, running, queue = _primed_state("easy", 40, 4)
    ctx = SchedulerContext(
        cluster=cluster, now=0.0, queue=queue, running=running,
        start_job=lambda decision: None,
    )
    t0 = time.perf_counter()
    for _ in range(builds):
        scheduler.build_profile(ctx)
    return time.perf_counter() - t0, builds


def _run_profile_queries(queries: int, resumes: int) -> Tuple[float, int]:
    cluster, scheduler, running, queue = _primed_state("easy", 40, queries)
    ctx = SchedulerContext(
        cluster=cluster, now=0.0, queue=queue, running=running,
        start_job=lambda decision: None,
    )
    allocator = scheduler.resolve_allocator(cluster)
    placement = scheduler.placement
    profile = scheduler.build_profile(ctx)
    cursor = profile.sweep_cursor()
    scans = [
        (job, scheduler.est_duration(job, cluster),
         scheduler.split_for(job, cluster).remote)
        for job in queue[:queries]
    ]
    # A handful of standing reservations, like a conservative pass.
    for job, duration, remote in scans[:6]:
        res = cursor.earliest_start(job, duration, remote, placement, allocator)
        if res is not None:
            profile.add_reservation(res)
    probes = profile.breakpoints()
    t0 = time.perf_counter()
    for job, duration, remote in scans:
        cursor.earliest_start(job, duration, remote, placement, allocator)
    for i in range(resumes):
        job, duration, remote = scans[i % len(scans)]
        cursor.earliest_start(
            job, duration, remote, placement, allocator,
            after=probes[i % len(probes)],
        )
    return time.perf_counter() - t0, queries + resumes


def _run_pass(backfill: str, passes: int, num_pending: int) -> Tuple[float, int]:
    elapsed = 0.0
    for i in range(passes):
        cluster, scheduler, running, queue = _primed_state(
            backfill, 40, num_pending, seed=_SEED + i
        )
        ctx = SchedulerContext(
            cluster=cluster,
            now=0.0,
            queue=queue,
            running=running,
            start_job=_apply_start_like_engine(
                cluster, scheduler, queue, running, 0.0
            ),
        )
        t0 = time.perf_counter()
        scheduler.schedule(ctx)
        elapsed += time.perf_counter() - t0
    return elapsed, passes


def _run_e2e(backfill: str, num_jobs: int) -> Tuple[float, int]:
    jobs = [job.copy_request() for job in _e2e_workload(num_jobs)]
    cluster = _thin_cluster()
    scheduler = _scheduler(backfill)
    sim = SchedulerSimulation(cluster, scheduler, jobs)
    t0 = time.perf_counter()
    result = sim.run()
    return time.perf_counter() - t0, result.events


# ----------------------------------------------------------------------
# trace-scale case: streaming replay on a large thin cluster
# ----------------------------------------------------------------------
_TRACE_NODES = 1024


def _percentile(sorted_vals: Sequence[int], q: float) -> Optional[int]:
    if not sorted_vals:
        return None
    return sorted_vals[min(len(sorted_vals) - 1, int(q * len(sorted_vals)))]


@lru_cache(maxsize=2)
def _trace_swf(num_jobs: int) -> str:
    """A cached synthetic W-KTH trace in the temp dir (deterministic
    content, so an existing file from an earlier invocation is reused;
    generation goes through a same-dir temp + rename so a crashed
    writer never leaves a torn file behind)."""
    from ..runner.replay import generate_trace

    path = os.path.join(
        tempfile.gettempdir(),
        f"repro-perf-wkth-{num_jobs}-{_TRACE_NODES}-{_SEED}.swf",
    )
    if not os.path.exists(path):
        tmp = f"{path}.{os.getpid()}.tmp"
        generate_trace(
            tmp,
            num_jobs,
            reference="W-KTH",
            seed=_SEED,
            cluster_nodes=_TRACE_NODES,
            target_load=0.9,
        )
        os.replace(tmp, path)
    return path


def _trace_replay_parts(num_jobs: int):
    from ..runner.replay import ReplaySpec, plan_segments

    spec = ReplaySpec(
        trace=_trace_swf(num_jobs),
        cluster={
            "kind": "thin",
            "num_nodes": _TRACE_NODES,
            "nodes_per_rack": 16,
            "local_mem": "128GiB",
            "fat_local_mem": "512GiB",
            "pool_fraction": 0.5,
            "reach": "global",
            "name": f"PERF-TRACE-{_TRACE_NODES}",
        },
        scheduler={"backfill": "easy", "penalty": dict(_PENALTY)},
        seed=_SEED,
    )
    (seg,) = plan_segments(spec.trace, 1, spec.swf_fields())
    return spec, seg


def _run_trace_replay(num_jobs: int) -> Tuple[float, int]:
    spec, seg = _trace_replay_parts(num_jobs)
    cluster, scheduler = spec.build_engine_parts()
    sim = SchedulerSimulation(
        cluster,
        scheduler,
        [],
        online=True,
        start_time=seg.first_submit,
        job_source=spec.segment_stream(seg),
    )
    t0 = time.perf_counter()
    sim.drain()
    result = sim.online_result()
    return time.perf_counter() - t0, result.events


def _trace_replay_extra(num_jobs: int) -> dict:
    """One instrumented replay with the scan observer installed:
    reports the grid-size distribution every cursor scan actually
    saw."""
    sizes: List[int] = []
    prev = set_scan_observer(sizes.append)
    try:
        _run_trace_replay(num_jobs)
    finally:
        set_scan_observer(prev)
    sizes.sort()
    return {
        "scans": len(sizes),
        "grid_p50": _percentile(sizes, 0.50),
        "grid_p95": _percentile(sizes, 0.95),
        "grid_p99": _percentile(sizes, 0.99),
        "grid_max": sizes[-1] if sizes else None,
    }


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
def build_cases(
    quick: bool = False,
    scale: float = 1.0,
    names: Optional[Sequence[str]] = None,
) -> List[PerfCase]:
    """The case list for one harness invocation.

    ``scale`` multiplies workload sizes (the test suite uses tiny
    scales); ``names`` filters to a subset.
    """
    e2e_jobs = max(60, int((_E2E_JOBS_QUICK if quick else _E2E_JOBS_FULL) * scale))
    builds = max(10, int((500 if quick else 2_000) * scale))
    queries = max(5, int((40 if quick else 120) * scale))
    resumes = max(20, int((500 if quick else 2_000) * scale))
    passes = max(2, int((8 if quick else 30) * scale))
    pending = max(8, int(48 * min(scale, 1.0)))
    trace_jobs = max(120, int((600 if quick else 2_500) * scale))

    cases = [
        PerfCase(
            name="profile_build",
            description=f"AvailabilityProfile construction x{builds} "
            "(64 nodes, 40 running)",
            run_once=lambda: _run_profile_build(builds),
            repeats=5,
            tags=("micro",),
        ),
        PerfCase(
            name="profile_queries",
            description=f"cursor earliest_start x{queries} + after= "
            f"resumes x{resumes} on a loaded profile",
            run_once=lambda: _run_profile_queries(queries, resumes),
            repeats=5,
            tags=("micro",),
        ),
        PerfCase(
            name="easy_pass",
            description=f"full EASY scheduling pass x{passes} "
            f"(40 running, {pending} queued)",
            run_once=lambda: _run_pass("easy", passes, pending),
            repeats=5,
            tags=("pass",),
        ),
        PerfCase(
            name="conservative_pass",
            description=f"full conservative pass x{passes} "
            f"(40 running, {pending} queued)",
            run_once=lambda: _run_pass("conservative", passes, pending),
            repeats=5,
            tags=("pass",),
        ),
        PerfCase(
            name="e2e_easy",
            description=f"end-to-end {e2e_jobs}-job W-MIX simulation, "
            "EASY backfill",
            run_once=lambda: _run_e2e("easy", e2e_jobs),
            # Quick mode feeds the CI gate, where a noise burst on a
            # shared runner must lose the median vote: five repeats
            # are still cheap at 1.5k jobs.  Full mode keeps three
            # (comparable with the historical snapshots).
            repeats=5 if quick else 3,
            tags=("e2e",),
        ),
        PerfCase(
            name="e2e_conservative",
            description=f"end-to-end {e2e_jobs}-job W-MIX simulation, "
            "conservative backfill",
            run_once=lambda: _run_e2e("conservative", e2e_jobs),
            repeats=5 if quick else 3,
            tags=("e2e",),
        ),
        PerfCase(
            name="trace_replay",
            description=f"streaming replay of a {trace_jobs}-job W-KTH "
            f"trace on {_TRACE_NODES} nodes (extra: grid percentiles)",
            run_once=lambda: _run_trace_replay(trace_jobs),
            repeats=3,
            tags=("trace", "e2e"),
            extra=lambda: _trace_replay_extra(trace_jobs),
        ),
    ]
    if names:
        wanted = set(names)
        unknown = wanted - {case.name for case in cases}
        if unknown:
            raise KeyError(
                f"unknown perf case(s) {sorted(unknown)}; "
                f"choose from {sorted(case.name for case in cases)}"
            )
        cases = [case for case in cases if case.name in wanted]
    return cases


def case_names() -> List[str]:
    return [case.name for case in build_cases(quick=True)]
