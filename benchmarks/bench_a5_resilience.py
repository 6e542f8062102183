"""A5 (ablation) — failures, checkpointing, and goodput.

Failure injection meets checkpoint/restart: drive the balanced mix
through an escalating failure storm (per-node MTBF from none down to
a quarter of the horizon) with and without application checkpointing
every 10 simulated minutes.

Goodput here = base node-seconds of *completed* root jobs (a restarted
job counts once, by lineage).  Asserted shape: failures destroy
goodput monotonically-ish without checkpoints; with checkpoints, at
the harshest failure rate, strictly more root jobs complete than
without.
"""

from __future__ import annotations

from repro.audit import deep_audit
from repro.engine import SchedulerSimulation, exponential_failure_trace
from repro.cluster import Cluster
from repro.metrics import ascii_table
from repro.sched import build_scheduler
from repro.sim import RandomStreams
from repro.workload import JobState
from repro.workload.filters import reset_jobs

from _common import DEFAULT_PENALTY, NODES, banner, thin_spec, workload

CKPT_INTERVAL = 600.0  # 10 minutes of base progress
MTBF_DIVISORS = (0, 2, 4, 8)  # horizon / divisor; 0 = no failures


def run_arm(jobs, trace, checkpointed: bool):
    fresh = reset_jobs(jobs)
    if checkpointed:
        for job in fresh:
            job.checkpoint_interval = CKPT_INTERVAL
    scheduler = build_scheduler(penalty=DEFAULT_PENALTY)
    result = SchedulerSimulation(
        Cluster(thin_spec(fraction=0.5, name="resilience")),
        scheduler, fresh, failures=list(trace),
    ).run()
    deep_audit(result).raise_if_failed()
    roots_done = {
        j.restart_of or j.job_id
        for j in result.jobs if j.state is JobState.COMPLETED
    }
    goodput = sum(
        j.nodes * j.runtime
        for j in jobs
        if j.job_id in roots_done
    ) / 3600.0
    failure_kills = sum(
        1 for j in result.jobs if j.kill_reason == "node_failure"
    )
    return len(roots_done), goodput, failure_kills, len(result.jobs)


def resilience_experiment():
    jobs = list(workload("W-MIX", num_jobs=400))
    horizon = jobs[-1].submit_time + 48 * 3600
    rows = []
    harshest = {}
    for divisor in MTBF_DIVISORS:
        if divisor == 0:
            trace = []
            label = "none"
        else:
            trace = exponential_failure_trace(
                NODES, horizon, mtbf=horizon / divisor,
                mean_repair=2 * 3600, streams=RandomStreams(13),
            )
            label = f"horizon/{divisor}"
        for checkpointed in (False, True):
            done, goodput, kills, total = run_arm(jobs, trace, checkpointed)
            rows.append([
                label,
                "ckpt" if checkpointed else "plain",
                len(trace),
                kills,
                done,
                round(goodput),
                total - 400,  # continuations spawned
            ])
            if divisor == MTBF_DIVISORS[-1]:
                harshest[checkpointed] = done
    return rows, harshest


def test_a5_resilience(benchmark):
    rows, harshest = benchmark.pedantic(resilience_experiment, rounds=1,
                                        iterations=1)
    banner("A5", "failure storms × checkpointing (W-MIX 400 jobs on "
                 "THIN-G50; ckpt every 10 min)")
    print(ascii_table(
        ["node MTBF", "mode", "failures", "failure kills",
         "roots completed", "goodput (node-h)", "restarts"],
        rows,
    ))
    # Checkpointing recovers work under the harshest storm.
    assert harshest[True] >= harshest[False]
    # And the baseline (no failures) completes everything in both modes.
    assert rows[0][4] == 400 and rows[1][4] == 400