#!/usr/bin/env python
"""Failure injection and checkpoint/restart study.

Big allocations touch more hardware, so node failures hit wide jobs
hardest; checkpointing caps the work lost per failure.  This example
runs the same workload through an escalating failure storm with and
without 15-minute application checkpoints and reports completions,
work lost, and restarts — then shows one schedule as an ASCII Gantt
chart with the failure-killed jobs visible as truncated bars.

Run:  python examples/failure_study.py
"""

from repro.audit import deep_audit
from repro.cluster import Cluster, ClusterSpec
from repro.engine import SchedulerSimulation, exponential_failure_trace
from repro.metrics import ascii_table, render_gantt
from repro.sched import build_scheduler
from repro.sim import RandomStreams
from repro.units import GiB, HOUR
from repro.workload import JobState
from repro.workload.filters import reset_jobs
from repro.workload.reference import generate_reference_jobs

NODES = 16
CKPT = 15 * 60.0  # 15-minute checkpoints


def machine():
    return Cluster(ClusterSpec.thin_node(
        num_nodes=NODES, nodes_per_rack=8, local_mem="128GiB",
        fat_local_mem="512GiB", pool_fraction=0.5, reach="global",
        name="failure-study",
    ))


def run_arm(jobs, mtbf_divisor, checkpointed, horizon):
    fresh = reset_jobs(jobs)
    if checkpointed:
        for job in fresh:
            job.checkpoint_interval = CKPT
    trace = []
    if mtbf_divisor:
        trace = exponential_failure_trace(
            NODES, horizon, mtbf=horizon / mtbf_divisor,
            mean_repair=2 * HOUR, streams=RandomStreams(17),
        )
    scheduler = build_scheduler(penalty={"kind": "linear", "beta": 0.3})
    result = SchedulerSimulation(
        machine(), scheduler, fresh, failures=trace,
    ).run()
    deep_audit(result).raise_if_failed()
    roots_done = {
        j.restart_of or j.job_id
        for j in result.jobs if j.state is JobState.COMPLETED
    }
    lost_node_hours = sum(
        j.nodes * (j.end_time - j.start_time) / 3600.0
        for j in result.jobs if j.kill_reason == "node_failure"
    )
    restarts = sum(1 for j in result.jobs if j.restart_of is not None)
    return result, len(trace), len(roots_done), lost_node_hours, restarts


def main() -> None:
    jobs = generate_reference_jobs(
        "W-MIX", seed=19, num_jobs=200, cluster_nodes=NODES,
        max_mem_per_node=512 * GiB, target_load=0.8,
    )
    horizon = jobs[-1].submit_time + 48 * HOUR
    print(f"{len(jobs)} W-MIX jobs on {NODES} thin nodes + pool; "
          f"failure storms with and without {CKPT / 60:.0f}-min "
          f"checkpoints\n")
    rows = []
    showcase = None
    for divisor in (0, 4, 8):
        for checkpointed in (False, True):
            result, failures, done, lost, restarts = run_arm(
                jobs, divisor, checkpointed, horizon
            )
            rows.append([
                "none" if divisor == 0 else f"horizon/{divisor}",
                "ckpt" if checkpointed else "plain",
                failures,
                done,
                f"{done / len(jobs):.0%}",
                round(lost, 1),
                restarts,
            ])
            if divisor == 8 and not checkpointed:
                showcase = result
    print(ascii_table(
        ["node MTBF", "mode", "failures", "roots done", "survival",
         "lost node-h", "restarts"],
        rows,
    ))
    print("\nschedule under the harshest storm WITHOUT checkpoints "
          "(failure kills truncate bars):")
    print(render_gantt(showcase, width=76, max_nodes=NODES))


if __name__ == "__main__":
    main()
