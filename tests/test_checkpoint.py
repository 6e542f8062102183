"""Tests for checkpoint/restart of node-failure victims."""

from __future__ import annotations

import pytest

from repro.audit import deep_audit
from repro.cluster import Cluster, ClusterSpec, NodeSpec, PoolSpec
from repro.engine import FailureEvent, SchedulerSimulation
from repro.errors import ConfigurationError
from repro.memdis import LinearPenalty, NoPenalty
from repro.sched import Scheduler
from repro.units import GiB
from repro.workload import Job, JobState

from .conftest import make_job


def cluster2(global_pool=0):
    spec = ClusterSpec(
        num_nodes=2, nodes_per_rack=2,
        node=NodeSpec(local_mem=16 * GiB),
        pool=PoolSpec(global_pool=global_pool),
    )
    return Cluster(spec)


def ckpt_job(job_id=1, interval=100.0, runtime=1000.0, **kwargs):
    defaults = dict(submit=0.0, nodes=1, walltime=2000.0, mem=1 * GiB)
    defaults.update(kwargs)
    job = make_job(job_id=job_id, runtime=runtime, **defaults)
    job.checkpoint_interval = interval
    return job


class TestValidation:
    def test_negative_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            Job(job_id=1, submit_time=0, nodes=1, walltime=10, runtime=5,
                mem_per_node=1, checkpoint_interval=0.0)

    def test_copy_request_preserves_checkpoint_fields(self):
        job = ckpt_job()
        job.restart_count = 2
        copy = job.copy_request()
        assert copy.checkpoint_interval == 100.0
        assert copy.restart_count == 2


class TestRestartSemantics:
    def test_continuation_resumes_from_last_checkpoint(self):
        # Job runs 0..1000; killed at t=250 with checkpoints every 100:
        # 200s of progress saved, continuation needs 800s.
        job = ckpt_job()
        result = SchedulerSimulation(
            cluster2(), Scheduler(penalty=NoPenalty()), [job],
            failures=[FailureEvent(250.0, 0, 50.0)],
        ).run()
        deep_audit(result).raise_if_failed()
        assert job.state is JobState.KILLED
        assert job.kill_reason == "node_failure"
        continuation = next(j for j in result.jobs if j.restart_of == 1)
        assert continuation.runtime == pytest.approx(800.0)
        assert continuation.submit_time == pytest.approx(250.0)
        assert continuation.restart_count == 1
        assert continuation.state is JobState.COMPLETED
        # It restarted immediately on the surviving node 1.
        assert continuation.start_time == pytest.approx(250.0)
        assert continuation.end_time == pytest.approx(1050.0)

    def test_no_checkpoint_before_failure_restarts_from_scratch(self):
        job = ckpt_job(interval=1000.0)  # first checkpoint would be at 1000
        result = SchedulerSimulation(
            cluster2(), Scheduler(penalty=NoPenalty()), [job],
            failures=[FailureEvent(250.0, 0, 50.0)],
        ).run()
        deep_audit(result).raise_if_failed()
        continuation = next(j for j in result.jobs if j.restart_of == 1)
        assert continuation.runtime == pytest.approx(1000.0)

    def test_non_checkpointable_job_not_resubmitted(self):
        job = make_job(job_id=1, submit=0.0, nodes=1, runtime=1000.0,
                       walltime=2000.0, mem=1 * GiB)
        result = SchedulerSimulation(
            cluster2(), Scheduler(penalty=NoPenalty()), [job],
            failures=[FailureEvent(250.0, 0, 50.0)],
        ).run()
        deep_audit(result).raise_if_failed()
        assert len(result.jobs) == 1
        assert job.state is JobState.KILLED

    def test_progress_deflated_by_dilation(self):
        # Remote memory dilates the job 1.2x; killed at wall-clock 240
        # means base progress 200 -> exactly two 100s checkpoints.
        job = ckpt_job(mem=20 * GiB)  # 4 GiB remote, f=0.2, beta=1 -> 0.2
        result = SchedulerSimulation(
            cluster2(global_pool=16 * GiB),
            Scheduler(penalty=LinearPenalty(beta=1.0)), [job],
            failures=[FailureEvent(240.0, 0, 50.0)],
        ).run()
        deep_audit(result).raise_if_failed()
        continuation = next(j for j in result.jobs if j.restart_of == 1)
        assert continuation.runtime == pytest.approx(800.0)

    def test_repeated_failures_chain_restarts(self):
        job = ckpt_job()
        result = SchedulerSimulation(
            cluster2(), Scheduler(penalty=NoPenalty()), [job],
            failures=[
                FailureEvent(250.0, 0, 1e6),  # node 0 dies for good
                FailureEvent(500.0, 1, 1e6),  # then node 1... but
            ],
        ).run()
        # First kill at 250 (200 saved); continuation starts on node 1
        # at 250 needing 800; second failure at 500 kills it with 200
        # more saved... but now both nodes are down; the third
        # continuation waits for a repair that arrives at ~1e6.
        lineage = [j for j in result.jobs if j.restart_of == 1]
        assert len(lineage) == 2
        final = lineage[-1]
        assert final.runtime == pytest.approx(600.0)
        assert final.state is JobState.COMPLETED
        assert final.start_time >= 1e6  # waited for repair
        deep_audit(result).raise_if_failed()

    def test_checkpointing_preserves_completed_work(self):
        """With checkpoints, total completed base-work survives a
        failure storm far better than without."""
        def storm(checkpointed: bool):
            jobs = []
            for i in range(8):
                job = make_job(job_id=i + 1, submit=float(i * 50), nodes=1,
                               runtime=2000.0, walltime=4000.0, mem=1 * GiB)
                if checkpointed:
                    job.checkpoint_interval = 200.0
                jobs.append(job)
            failures = [FailureEvent(1000.0 + 300 * k, k % 2, 100.0)
                        for k in range(4)]
            result = SchedulerSimulation(
                cluster2(), Scheduler(penalty=NoPenalty()), jobs,
                failures=failures,
            ).run()
            deep_audit(result).raise_if_failed()
            roots_done = {
                j.restart_of or j.job_id
                for j in result.jobs if j.state is JobState.COMPLETED
            }
            return len(roots_done)

        assert storm(True) >= storm(False)

    def test_walltime_kill_does_not_restart(self):
        # Checkpointing guards against machine failures, not user
        # underestimates: a walltime kill is final.
        job = ckpt_job(runtime=1000.0, walltime=500.0)
        result = SchedulerSimulation(
            cluster2(), Scheduler(penalty=NoPenalty()), [job],
        ).run()
        deep_audit(result).raise_if_failed()
        assert job.state is JobState.KILLED
        assert job.kill_reason == "walltime"
        assert len(result.jobs) == 1
