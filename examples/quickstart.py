#!/usr/bin/env python
"""Quickstart: simulate one workload on a disaggregated-memory machine.

Builds a 64-node cluster with thin (128 GiB) nodes plus a global
memory pool, generates a balanced reference workload, runs it under
FCFS + memory-aware EASY backfilling, audits the schedule, and prints
the headline metrics.

Run:  python examples/quickstart.py
"""

from repro.audit import deep_audit
from repro.cluster import Cluster, ClusterSpec
from repro.engine import SchedulerSimulation
from repro.metrics import ascii_table, render_gantt, summarize
from repro.sched import build_scheduler
from repro.units import GiB, format_duration
from repro.workload.reference import generate_reference_jobs


def main() -> None:
    # 1. The machine: 64 thin nodes; the DRAM removed relative to a
    #    512 GiB fat node comes back as one global pool (half of it,
    #    i.e. a 62.5%-of-baseline total DRAM budget).
    spec = ClusterSpec.thin_node(
        num_nodes=64,
        nodes_per_rack=16,
        local_mem="128GiB",
        fat_local_mem="512GiB",
        pool_fraction=0.5,
        reach="global",
        name="quickstart-thin",
    )
    cluster = Cluster(spec)
    print(f"machine: {cluster!r}")

    # 2. The workload: 500 jobs of the balanced reference mix,
    #    calibrated to offered load 0.9, deterministic seed.
    jobs = generate_reference_jobs(
        "W-MIX", seed=7, num_jobs=500, cluster_nodes=64,
        max_mem_per_node=512 * GiB, target_load=0.9,
    )
    print(f"workload: {len(jobs)} jobs, "
          f"{sum(j.nodes for j in jobs) / len(jobs):.1f} nodes/job avg")

    # 3. The scheduler stack: FCFS queue, memory-aware EASY backfill,
    #    first-fit placement, linear remote penalty β=0.3.
    scheduler = build_scheduler(
        queue="fcfs", backfill="easy", placement="first_fit",
        penalty={"kind": "linear", "beta": 0.3},
    )

    # 4. Run and audit.
    result = SchedulerSimulation(cluster, scheduler, jobs).run()
    deep_audit(result).raise_if_failed()  # raises on any violation

    # 5. Report.
    summary = summarize(result, label=spec.name)
    print()
    print(ascii_table(
        ["metric", "value"],
        [
            ["jobs completed", summary.jobs_completed],
            ["jobs killed", summary.jobs_killed],
            ["jobs rejected", summary.jobs_rejected],
            ["mean wait", format_duration(summary.wait["mean"])],
            ["p95 wait", format_duration(summary.wait["p95"])],
            ["mean bounded slowdown", f"{summary.bsld['mean']:.2f}"],
            ["node utilization", f"{summary.node_utilization:.1%}"],
            ["pool utilization", f"{summary.pool_utilization:.1%}"],
            ["mean runtime dilation", f"{summary.mean_dilation:.3f}"],
            ["makespan", format_duration(summary.makespan)],
        ],
    ))

    # 6. A glance at the schedule itself (first 16 nodes).
    print()
    print(render_gantt(result, width=76, max_nodes=16))


if __name__ == "__main__":
    main()
