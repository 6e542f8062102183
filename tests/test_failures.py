"""Tests for node failure injection."""

from __future__ import annotations

import pytest

from repro.audit import deep_audit
from repro.cluster import Cluster, ClusterSpec, NodeSpec, PoolSpec
from repro.engine import (
    FailureEvent,
    SchedulerSimulation,
    exponential_failure_trace,
)
from repro.errors import ConfigurationError
from repro.memdis import NoPenalty
from repro.sched import Scheduler
from repro.sim import RandomStreams
from repro.units import GiB
from repro.workload import JobState
from repro.workload.reference import generate_reference_jobs

from .conftest import make_job


def cluster4(global_pool=0):
    spec = ClusterSpec(
        name="f4",
        num_nodes=4,
        nodes_per_rack=4,
        node=NodeSpec(cores=8, local_mem=16 * GiB),
        pool=PoolSpec(global_pool=global_pool),
    )
    return Cluster(spec)


class TestFailureEvent:
    def test_validation(self):
        FailureEvent(10.0, 0, 60.0)
        with pytest.raises(ConfigurationError):
            FailureEvent(-1.0, 0, 60.0)
        with pytest.raises(ConfigurationError):
            FailureEvent(1.0, -1, 60.0)
        with pytest.raises(ConfigurationError):
            FailureEvent(1.0, 0, 0.0)

    def test_trace_out_of_range_node_rejected(self):
        with pytest.raises(ConfigurationError):
            SchedulerSimulation(
                cluster4(), Scheduler(penalty=NoPenalty()),
                [make_job(job_id=1)],
                failures=[FailureEvent(1.0, 99, 60.0)],
            )


class TestExponentialTrace:
    def test_deterministic(self):
        a = exponential_failure_trace(8, 1e6, mtbf=2e5, mean_repair=3600,
                                      streams=RandomStreams(3))
        b = exponential_failure_trace(8, 1e6, mtbf=2e5, mean_repair=3600,
                                      streams=RandomStreams(3))
        assert a == b

    def test_within_horizon_and_sorted(self):
        trace = exponential_failure_trace(8, 1e6, mtbf=1e5, mean_repair=3600,
                                          streams=RandomStreams(1))
        assert all(0 <= e.time < 1e6 for e in trace)
        times = [e.time for e in trace]
        assert times == sorted(times)

    def test_no_overlapping_failures_per_node(self):
        trace = exponential_failure_trace(4, 1e6, mtbf=5e4, mean_repair=7200,
                                          streams=RandomStreams(2))
        by_node: dict[int, float] = {}
        for event in trace:
            last_up = by_node.get(event.node_id, 0.0)
            assert event.time >= last_up
            by_node[event.node_id] = event.time + event.repair_time

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            exponential_failure_trace(0, 1e6, 1e5, 3600, RandomStreams(0))
        with pytest.raises(ConfigurationError):
            exponential_failure_trace(4, 0, 1e5, 3600, RandomStreams(0))
        with pytest.raises(ConfigurationError):
            exponential_failure_trace(4, 1e6, 0, 3600, RandomStreams(0))


class TestFailureSemantics:
    def test_idle_node_failure_shrinks_machine(self):
        cluster = cluster4()
        # Job needs all 4 nodes; node 3 fails at t=5 for 100s.
        job = make_job(job_id=1, submit=10.0, nodes=4, runtime=50.0,
                       walltime=50.0, mem=1 * GiB)
        result = SchedulerSimulation(
            cluster, Scheduler(penalty=NoPenalty()), [job],
            failures=[FailureEvent(5.0, 3, 100.0)],
        ).run()
        deep_audit(result).raise_if_failed()
        # Machine has only 3 nodes until repair at t=105.
        assert job.start_time == pytest.approx(105.0)
        assert job.state is JobState.COMPLETED

    def test_busy_node_failure_kills_job(self):
        cluster = cluster4(global_pool=8 * GiB)
        victim = make_job(job_id=1, submit=0.0, nodes=2, runtime=100.0,
                          walltime=100.0, mem=18 * GiB)  # holds pool too
        bystander = make_job(job_id=2, submit=0.0, nodes=2, runtime=100.0,
                             walltime=100.0, mem=1 * GiB)
        result = SchedulerSimulation(
            cluster, Scheduler(penalty=NoPenalty()), [victim, bystander],
            failures=[FailureEvent(30.0, 0, 1000.0)],
        ).run()
        deep_audit(result).raise_if_failed()
        assert victim.state is JobState.KILLED
        assert victim.kill_reason == "node_failure"
        assert victim.end_time == pytest.approx(30.0)
        # Its pool grant was returned at the kill instant.
        series = result.ledger.pool_occupancy_series("global")
        assert series[-1] == (30.0, 0)
        # The bystander on other nodes is unaffected.
        assert bystander.state is JobState.COMPLETED
        assert bystander.end_time == pytest.approx(100.0)

    def test_failed_node_not_reused_until_repair(self):
        cluster = cluster4()
        j1 = make_job(job_id=1, submit=0.0, nodes=4, runtime=50.0,
                      walltime=50.0, mem=1 * GiB)
        j2 = make_job(job_id=2, submit=1.0, nodes=4, runtime=50.0,
                      walltime=50.0, mem=1 * GiB)
        result = SchedulerSimulation(
            cluster, Scheduler(penalty=NoPenalty()), [j1, j2],
            failures=[FailureEvent(10.0, 0, 500.0)],
        ).run()
        deep_audit(result).raise_if_failed()
        # j1 killed at 10; j2 needs 4 nodes, node 0 down until 510.
        assert j1.state is JobState.KILLED
        assert j2.start_time == pytest.approx(510.0)

    def test_smaller_jobs_flow_around_failure(self):
        cluster = cluster4()
        j1 = make_job(job_id=1, submit=0.0, nodes=4, runtime=50.0,
                      walltime=50.0, mem=1 * GiB)
        j2 = make_job(job_id=2, submit=1.0, nodes=3, runtime=50.0,
                      walltime=50.0, mem=1 * GiB)
        result = SchedulerSimulation(
            cluster, Scheduler(penalty=NoPenalty()), [j1, j2],
            failures=[FailureEvent(10.0, 0, 10_000.0)],
        ).run()
        deep_audit(result).raise_if_failed()
        # After j1 dies at t=10, three nodes remain: j2 runs on them.
        assert j2.start_time == pytest.approx(10.0)
        assert j2.state is JobState.COMPLETED
        assert 0 not in j2.assigned_nodes

    def test_double_failure_while_down_absorbed(self):
        cluster = cluster4()
        job = make_job(job_id=1, submit=0.0, nodes=1, runtime=20.0,
                       walltime=20.0, mem=1 * GiB)
        result = SchedulerSimulation(
            cluster, Scheduler(penalty=NoPenalty()), [job],
            failures=[
                FailureEvent(5.0, 3, 100.0),
                FailureEvent(50.0, 3, 100.0),  # node 3 still down
            ],
        ).run()
        deep_audit(result).raise_if_failed()
        assert job.state is JobState.COMPLETED

    def test_failure_spanning_sim_start_applies(self):
        cluster = cluster4()
        job = make_job(job_id=1, submit=100.0, nodes=4, runtime=10.0,
                       walltime=20.0, mem=1 * GiB)
        result = SchedulerSimulation(
            cluster, Scheduler(penalty=NoPenalty()), [job],
            failures=[FailureEvent(0.0, 2, 200.0)],
        ).run()
        deep_audit(result).raise_if_failed()
        # Node 2 is down from before the sim starts until the absolute
        # repair time 0 + 200.
        assert job.start_time == pytest.approx(200.0)

    def test_failure_repaired_before_sim_start_is_noop(self):
        cluster = cluster4()
        job = make_job(job_id=1, submit=100.0, nodes=4, runtime=10.0,
                       walltime=20.0, mem=1 * GiB)
        result = SchedulerSimulation(
            cluster, Scheduler(penalty=NoPenalty()), [job],
            failures=[FailureEvent(0.0, 2, 50.0)],  # repaired at t=50
        ).run()
        deep_audit(result).raise_if_failed()
        assert job.start_time == pytest.approx(100.0)

    def test_failure_workload_audits_clean(self):
        jobs = generate_reference_jobs(
            "W-MIX", seed=5, num_jobs=150, cluster_nodes=16,
            max_mem_per_node=64 * GiB, target_load=0.8,
        )
        spec = ClusterSpec(
            num_nodes=16, nodes_per_rack=8,
            node=NodeSpec(local_mem=32 * GiB),
            pool=PoolSpec(global_pool=512 * GiB),
        )
        horizon = jobs[-1].submit_time + 48 * 3600
        trace = exponential_failure_trace(
            16, horizon, mtbf=horizon / 4, mean_repair=2 * 3600,
            streams=RandomStreams(9),
        )
        result = SchedulerSimulation(
            Cluster(spec), Scheduler(penalty=NoPenalty()), jobs,
            failures=trace,
        ).run()
        deep_audit(result).raise_if_failed()
        failed_kills = [j for j in result.killed
                        if j.kill_reason == "node_failure"]
        # With a quarter-horizon MTBF per node some jobs must die.
        assert len(trace) > 0
        states = {j.state for j in result.jobs}
        assert states <= {JobState.COMPLETED, JobState.KILLED,
                          JobState.REJECTED}
        # Bookkeeping survived: every node ends IDLE or DOWN, pools empty.
        cluster_end = result.ledger.outstanding_remote()
        assert cluster_end == 0
        assert failed_kills is not None  # informational; may be empty

    def test_bigger_jobs_die_more(self):
        """The classic failure-scheduling observation: wide jobs hit
        more hardware, so they die more often."""
        jobs = generate_reference_jobs(
            "W-MIX", seed=8, num_jobs=400, cluster_nodes=16,
            max_mem_per_node=32 * GiB, target_load=0.7,
        )
        spec = ClusterSpec(num_nodes=16, nodes_per_rack=8,
                           node=NodeSpec(local_mem=32 * GiB))
        horizon = jobs[-1].submit_time + 96 * 3600
        trace = exponential_failure_trace(
            16, horizon, mtbf=horizon / 8, mean_repair=3600,
            streams=RandomStreams(4),
        )
        result = SchedulerSimulation(
            Cluster(spec), Scheduler(penalty=NoPenalty()), jobs,
            failures=trace,
        ).run()
        deep_audit(result).raise_if_failed()
        died = [j for j in result.killed if j.kill_reason == "node_failure"]
        survived = result.completed
        if died and survived:
            mean_nodes_died = sum(j.nodes for j in died) / len(died)
            mean_nodes_ok = sum(j.nodes for j in survived) / len(survived)
            assert mean_nodes_died > mean_nodes_ok * 0.8
