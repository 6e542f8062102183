"""Cross-module integration tests: medium workloads through every
policy combination, with the full auditor as the oracle.

These are the tests that catch interaction bugs no unit test sees:
backfill × allocator × placement × penalty × kill policy, all driven
by realistic (seeded) workloads, every run checked for double-booked
nodes, pool overcommit, reach violations, broken EASY promises, and
conservation of every granted MiB.
"""

from __future__ import annotations

import pytest

from repro.analysis import run_config
from repro.cluster import ClusterSpec
from repro.engine import SchedulerSimulation
from repro.memdis import FixedRatioSplit, LocalFirstSplit
from repro.sched import Scheduler, build_scheduler
from repro.units import GiB
from repro.workload import JobState, scale_load
from repro.workload.reference import generate_reference_jobs

NODES = 32


def workload(name="W-MIX", n=200, seed=7, load=0.9):
    return generate_reference_jobs(
        name, seed=seed, num_jobs=n, cluster_nodes=NODES,
        max_mem_per_node=512 * GiB, target_load=load,
    )


def fat_spec():
    return ClusterSpec.fat_node(num_nodes=NODES, local_mem="512GiB",
                                nodes_per_rack=8, name="FAT")


def thin_spec(reach="global", fraction=0.5):
    return ClusterSpec.thin_node(
        num_nodes=NODES, nodes_per_rack=8, local_mem="128GiB",
        fat_local_mem="512GiB", pool_fraction=fraction, reach=reach,
    )


class TestPolicyMatrix:
    """Every backfill × queue policy combination on a pooled machine
    completes, audits clean, and terminates every job."""

    @pytest.mark.parametrize("backfill", ["none", "easy", "conservative"])
    @pytest.mark.parametrize("queue", ["fcfs", "sjf", "wfp"])
    def test_combination_audits_clean(self, backfill, queue):
        jobs = workload(n=120)
        result, summary = run_config(
            thin_spec(), jobs,
            queue=queue, backfill=backfill,
            penalty={"kind": "linear", "beta": 0.3},
            class_local_mem=512 * GiB,
        )
        assert summary.jobs_completed + summary.jobs_killed \
            + summary.jobs_rejected == 120
        assert summary.node_utilization > 0.1

    @pytest.mark.parametrize("placement", ["first_fit", "rack_pack",
                                           "min_remote", "spread"])
    def test_placements_on_rack_pools(self, placement):
        jobs = workload(n=120)
        result, summary = run_config(
            thin_spec(reach="rack"), jobs,
            placement=placement,
            penalty={"kind": "linear", "beta": 0.3},
            class_local_mem=512 * GiB,
        )
        assert summary.jobs_completed > 80

    @pytest.mark.parametrize("reach", ["global", "rack"])
    def test_reaches(self, reach):
        jobs = workload(n=120)
        _, summary = run_config(
            thin_spec(reach=reach), jobs,
            penalty={"kind": "linear", "beta": 0.3},
            class_local_mem=512 * GiB,
        )
        assert summary.jobs_completed > 80

    def test_hybrid_reach(self):
        # Hand-build rack + global pools.
        spec = ClusterSpec.from_dict({
            "name": "hybrid",
            "num_nodes": NODES,
            "nodes_per_rack": 8,
            "node": {"local_mem": 128 * GiB},
            "pool": {"rack_pool": 1536 * GiB, "global_pool": 6 * 1024 * GiB},
        })
        jobs = workload(n=120)
        _, summary = run_config(
            spec, jobs, penalty={"kind": "linear", "beta": 0.3},
            class_local_mem=512 * GiB,
        )
        assert summary.jobs_completed > 80

    @pytest.mark.parametrize("gate", ["always", "pressure", "adaptive"])
    def test_gates_with_contention(self, gate):
        spec = ClusterSpec.from_dict({
            "name": "contended",
            "num_nodes": NODES,
            "nodes_per_rack": 8,
            "node": {"local_mem": 128 * GiB},
            "pool": {"global_pool": 6 * 1024 * GiB,
                     "global_bandwidth": float(3 * 1024 * GiB)},
        })
        jobs = workload(n=120)
        _, summary = run_config(
            spec, jobs, gate=gate,
            penalty={"kind": "contention", "beta": 0.3, "kappa": 2.0,
                     "threshold": 0.5},
            class_local_mem=512 * GiB,
        )
        # Liveness: gating never wedges the queue.
        assert summary.jobs_completed + summary.jobs_killed \
            + summary.jobs_rejected == 120

    @pytest.mark.parametrize("kill", ["strict", "dilation_aware", "none"])
    def test_kill_policies(self, kill):
        jobs = workload(n=120)
        result, summary = run_config(
            thin_spec(), jobs, kill_policy=kill,
            penalty={"kind": "linear", "beta": 0.5},
            class_local_mem=512 * GiB,
        )
        if kill == "strict":
            # Dilated jobs overrun their (unscaled) walltime sometimes.
            assert summary.jobs_killed >= 0
        if kill == "none":
            assert summary.jobs_killed == 0


class TestCrossConfigurationShapes:
    """Relationships that must hold between configurations."""

    def test_backfill_beats_no_backfill(self):
        jobs = workload(n=200, load=1.1)
        _, easy = run_config(thin_spec(), jobs, backfill="easy",
                             penalty="none", class_local_mem=512 * GiB)
        _, none = run_config(thin_spec(), jobs, backfill="none",
                             penalty="none", class_local_mem=512 * GiB)
        assert easy.wait["mean"] < none.wait["mean"]

    def test_zero_penalty_thin_full_pool_close_to_fat(self):
        """With no dilation penalty and the full removed DRAM returned
        as a global pool, thin nodes serve the same workload with wait
        in the same ballpark as the fat baseline (pool statistical
        multiplexing can even win)."""
        jobs = workload(n=200)
        _, fat = run_config(fat_spec(), jobs, penalty="none",
                            class_local_mem=512 * GiB)
        _, thin = run_config(thin_spec(fraction=1.0), jobs, penalty="none",
                             class_local_mem=512 * GiB)
        assert thin.wait["mean"] <= max(2.0 * fat.wait["mean"], 600.0)

    def test_more_pool_never_rejects_more(self):
        jobs = workload(name="W-DATA", n=150)
        _, small = run_config(thin_spec(fraction=0.25), jobs, penalty="none",
                              class_local_mem=512 * GiB)
        _, large = run_config(thin_spec(fraction=1.0), jobs, penalty="none",
                              class_local_mem=512 * GiB)
        assert large.jobs_rejected <= small.jobs_rejected

    def test_higher_penalty_worse_response(self):
        jobs = workload(name="W-DATA", n=150)
        responses = []
        for beta in (0.0, 0.8):
            _, summary = run_config(
                thin_spec(), jobs,
                penalty={"kind": "linear", "beta": beta},
                class_local_mem=512 * GiB,
            )
            responses.append(summary.response["mean"])
        assert responses[0] < responses[1]

    def test_fat_node_strands_more_than_thin(self):
        jobs = workload(name="W-COMP", n=200)
        _, fat = run_config(fat_spec(), jobs, penalty="none",
                            class_local_mem=512 * GiB)
        _, thin = run_config(thin_spec(), jobs, penalty="none",
                             class_local_mem=512 * GiB)
        assert fat.stranded_fraction > thin.stranded_fraction

    def test_load_scaling_increases_wait(self):
        jobs = workload(n=200, load=0.7)
        hot = scale_load(jobs, 1.8)
        _, cool = run_config(thin_spec(), jobs, penalty="none",
                             class_local_mem=512 * GiB)
        _, heated = run_config(thin_spec(), hot, penalty="none",
                               class_local_mem=512 * GiB)
        assert heated.wait["mean"] > cool.wait["mean"]


class TestSplitPolicies:
    def test_fixed_ratio_split_audits_clean(self):
        jobs = workload(n=100)
        scheduler = Scheduler(
            split_policy=FixedRatioSplit(local_ratio=0.5),
        )
        result, summary = run_config(
            thin_spec(), jobs, scheduler=scheduler,
            class_local_mem=512 * GiB,
        )
        # Every job now has a remote share (even small ones).
        ran = [j for j in result.jobs if j.state is JobState.COMPLETED]
        assert any(j.remote_per_node > 0 and j.mem_per_node < 128 * GiB
                   for j in ran)

    def test_headroom_reduces_local_share(self):
        jobs = workload(n=100)
        scheduler = Scheduler(split_policy=LocalFirstSplit(headroom=16 * GiB))
        result, _ = run_config(thin_spec(), jobs, scheduler=scheduler,
                               class_local_mem=512 * GiB)
        ran = [j for j in result.jobs if j.state is JobState.COMPLETED]
        assert all(j.local_grant_per_node <= 112 * GiB for j in ran)


class TestStress:
    def test_larger_workload_audits_clean(self):
        jobs = workload(n=500, load=1.0)
        result, summary = run_config(
            thin_spec(), jobs,
            penalty={"kind": "linear", "beta": 0.3},
            class_local_mem=512 * GiB,
        )
        assert summary.jobs_completed + summary.jobs_killed \
            + summary.jobs_rejected == 500

    def test_burst_arrivals(self):
        # Everyone arrives at t=0: worst-case queue depth.
        jobs = workload(n=150)
        for job in jobs:
            job.submit_time = 0.0
        result, summary = run_config(
            thin_spec(), jobs, penalty="none", class_local_mem=512 * GiB,
        )
        assert summary.jobs_completed + summary.jobs_rejected == 150

    def test_single_node_cluster(self):
        spec = ClusterSpec.from_dict({
            "num_nodes": 1, "nodes_per_rack": 1,
            "node": {"local_mem": 16 * GiB},
            "pool": {"global_pool": 16 * GiB},
        })
        jobs = generate_reference_jobs(
            "W-COMP", seed=3, num_jobs=50, cluster_nodes=1,
            max_mem_per_node=32 * GiB, target_load=0.5,
        )
        _, summary = run_config(spec, jobs, penalty="none")
        assert summary.jobs_completed + summary.jobs_killed \
            + summary.jobs_rejected == 50
