"""End-to-end engine tests: golden scenarios with hand-computed
schedules, kill policies, rejection, gates, promises, and audits."""

from __future__ import annotations

import pytest

from repro.audit import deep_audit
from repro.cluster import Cluster, ClusterSpec, NodeSpec, PoolSpec
from repro.engine import SchedulerSimulation
from repro.errors import AuditError, ConfigurationError, SimulationError
from repro.memdis import ContentionPenalty, LinearPenalty, NoPenalty
from repro.sched import (
    AdaptiveGate,
    ConservativeBackfill,
    EasyBackfill,
    NoBackfill,
    PressureGate,
    Scheduler,
)
from repro.sched.base import KillPolicy
from repro.units import GiB
from repro.workload import JobState

from .conftest import make_job


def four_node_cluster(local_mem=16 * GiB, global_pool=0):
    spec = ClusterSpec(
        name="four",
        num_nodes=4,
        nodes_per_rack=4,
        node=NodeSpec(cores=8, local_mem=local_mem),
        pool=PoolSpec(global_pool=global_pool),
    )
    return Cluster(spec)


def run_sim(cluster, scheduler, jobs, **kwargs):
    result = SchedulerSimulation(cluster, scheduler, jobs, **kwargs).run()
    deep_audit(result).raise_if_failed()
    return result


class TestBasicDispatch:
    def test_single_job(self):
        cluster = four_node_cluster()
        job = make_job(job_id=1, submit=5.0, nodes=2, runtime=100.0,
                       walltime=200.0, mem=4 * GiB)
        result = run_sim(cluster, Scheduler(penalty=NoPenalty()), [job])
        assert job.state is JobState.COMPLETED
        assert job.start_time == 5.0
        assert job.end_time == 105.0
        assert job.assigned_nodes == [0, 1]
        assert job.dilation == 0.0

    def test_fcfs_sequential_on_full_machine(self):
        cluster = four_node_cluster()
        j1 = make_job(job_id=1, submit=0.0, nodes=4, runtime=100.0,
                      walltime=100.0, mem=1 * GiB)
        j2 = make_job(job_id=2, submit=10.0, nodes=4, runtime=50.0,
                      walltime=50.0, mem=1 * GiB)
        run_sim(cluster, Scheduler(penalty=NoPenalty()), [j1, j2])
        assert j1.start_time == 0.0
        assert j2.start_time == 100.0
        assert j2.end_time == 150.0

    def test_parallel_when_room(self):
        cluster = four_node_cluster()
        j1 = make_job(job_id=1, submit=0.0, nodes=2, runtime=100.0,
                      walltime=100.0, mem=1 * GiB)
        j2 = make_job(job_id=2, submit=1.0, nodes=2, runtime=100.0,
                      walltime=100.0, mem=1 * GiB)
        run_sim(cluster, Scheduler(penalty=NoPenalty()), [j1, j2])
        assert j1.start_time == 0.0
        assert j2.start_time == 1.0
        assert set(j1.assigned_nodes).isdisjoint(j2.assigned_nodes)

    def test_empty_workload_rejected(self):
        with pytest.raises(ConfigurationError):
            SchedulerSimulation(four_node_cluster(), Scheduler(), [])

    def test_duplicate_ids_rejected(self):
        jobs = [make_job(job_id=1), make_job(job_id=1, submit=10.0)]
        with pytest.raises(ConfigurationError):
            SchedulerSimulation(four_node_cluster(), Scheduler(), jobs)

    def test_non_pending_jobs_rejected(self):
        job = make_job(job_id=1)
        job.state = JobState.COMPLETED
        with pytest.raises(ConfigurationError):
            SchedulerSimulation(four_node_cluster(), Scheduler(), [job])

    def test_run_twice_rejected(self):
        sim = SchedulerSimulation(
            four_node_cluster(), Scheduler(penalty=NoPenalty()), [make_job(job_id=1)]
        )
        sim.run()
        with pytest.raises(SimulationError):
            sim.run()


class TestEasyBackfillScenarios:
    def scenario_jobs(self):
        # J1 occupies 3 of 4 nodes for 100s; J2 (4 nodes) blocks at head;
        # J3 is a short 1-node job that fits the hole; J4 is long and
        # would delay J2.
        j1 = make_job(job_id=1, submit=0.0, nodes=3, runtime=100.0,
                      walltime=100.0, mem=1 * GiB)
        j2 = make_job(job_id=2, submit=1.0, nodes=4, runtime=50.0,
                      walltime=50.0, mem=1 * GiB)
        j3 = make_job(job_id=3, submit=2.0, nodes=1, runtime=20.0,
                      walltime=20.0, mem=1 * GiB)
        j4 = make_job(job_id=4, submit=30.0, nodes=1, runtime=200.0,
                      walltime=200.0, mem=1 * GiB)
        return j1, j2, j3, j4

    def test_easy_backfills_short_job(self):
        cluster = four_node_cluster()
        j1, j2, j3, j4 = self.scenario_jobs()
        result = run_sim(
            cluster,
            Scheduler(backfill=EasyBackfill(), penalty=NoPenalty()),
            [j1, j2, j3, j4],
        )
        assert j1.start_time == 0.0
        assert j3.start_time == 2.0  # backfilled into the hole
        assert j2.start_time == 100.0  # head not delayed
        assert j4.start_time == 150.0  # would have delayed the head
        # The head's promise was honored.
        assert result.promises[2].promised_start == 100.0

    def test_no_backfill_blocks(self):
        cluster = four_node_cluster()
        j1, j2, j3, j4 = self.scenario_jobs()
        run_sim(
            cluster,
            Scheduler(backfill=NoBackfill(), penalty=NoPenalty()),
            [j1, j2, j3, j4],
        )
        # J3 cannot jump the blocked head.
        assert j2.start_time == 100.0
        assert j3.start_time == 150.0
        assert j4.start_time == 150.0

    def test_conservative_backfills_short_job(self):
        cluster = four_node_cluster()
        j1, j2, j3, j4 = self.scenario_jobs()
        run_sim(
            cluster,
            Scheduler(backfill=ConservativeBackfill(), penalty=NoPenalty()),
            [j1, j2, j3, j4],
        )
        assert j3.start_time == 2.0
        assert j2.start_time == 100.0
        assert j4.start_time == 150.0

    def test_early_finish_pulls_schedule_forward(self):
        # Runtimes shorter than estimates: EASY must re-dispatch early.
        cluster = four_node_cluster()
        j1 = make_job(job_id=1, submit=0.0, nodes=4, runtime=50.0,
                      walltime=500.0, mem=1 * GiB)
        j2 = make_job(job_id=2, submit=1.0, nodes=4, runtime=50.0,
                      walltime=500.0, mem=1 * GiB)
        run_sim(cluster, Scheduler(penalty=NoPenalty()), [j1, j2])
        assert j2.start_time == 50.0  # not 500

    def test_backfill_depth_limits_candidates_per_cycle(self):
        # Two holes exist, two fillers are queued, but depth=1 examines
        # only the first candidate per cycle: the second filler must
        # wait for the next scheduling event (the first one finishing).
        cluster = four_node_cluster()
        j1 = make_job(job_id=1, submit=0.0, nodes=2, runtime=100.0,
                      walltime=100.0, mem=1 * GiB)
        j2 = make_job(job_id=2, submit=1.0, nodes=4, runtime=100.0,
                      walltime=100.0, mem=1 * GiB)
        f1 = make_job(job_id=10, submit=2.0, nodes=1, runtime=10.0,
                      walltime=10.0, mem=1 * GiB)
        f2 = make_job(job_id=11, submit=2.0, nodes=1, runtime=10.0,
                      walltime=10.0, mem=1 * GiB)
        sched = Scheduler(backfill=EasyBackfill(depth=1), penalty=NoPenalty())
        run_sim(cluster, sched, [j1, j2, f1, f2])
        assert f1.start_time == 2.0
        assert f2.start_time == 12.0  # next cycle, not same-instant

    def test_backfill_default_depth_takes_both(self):
        cluster = four_node_cluster()
        j1 = make_job(job_id=1, submit=0.0, nodes=2, runtime=100.0,
                      walltime=100.0, mem=1 * GiB)
        j2 = make_job(job_id=2, submit=1.0, nodes=4, runtime=100.0,
                      walltime=100.0, mem=1 * GiB)
        f1 = make_job(job_id=10, submit=2.0, nodes=1, runtime=10.0,
                      walltime=10.0, mem=1 * GiB)
        f2 = make_job(job_id=11, submit=2.0, nodes=1, runtime=10.0,
                      walltime=10.0, mem=1 * GiB)
        run_sim(cluster, Scheduler(penalty=NoPenalty()), [j1, j2, f1, f2])
        assert f1.start_time == 2.0
        assert f2.start_time == 2.0


class TestMemoryScenarios:
    def pool_cluster(self):
        spec = ClusterSpec(
            name="mem",
            num_nodes=2,
            nodes_per_rack=2,
            node=NodeSpec(cores=8, local_mem=16 * GiB),
            pool=PoolSpec(global_pool=8 * GiB),
        )
        return Cluster(spec)

    def test_dilation_extends_runtime(self):
        cluster = self.pool_cluster()
        job = make_job(job_id=1, submit=0.0, nodes=1, runtime=100.0,
                       walltime=200.0, mem=20 * GiB)  # 4 GiB remote, f=0.2
        run_sim(
            cluster, Scheduler(penalty=LinearPenalty(beta=0.5)), [job]
        )
        assert job.dilation == pytest.approx(0.1)
        assert job.end_time == pytest.approx(110.0)
        assert job.local_grant_per_node == 16 * GiB
        assert job.remote_per_node == 4 * GiB
        assert job.pool_grants == {"global": 4 * GiB}

    def test_pool_exhaustion_delays_start(self):
        cluster = self.pool_cluster()
        j1 = make_job(job_id=1, submit=0.0, nodes=1, runtime=100.0,
                      walltime=100.0, mem=22 * GiB)  # 6 GiB remote
        j2 = make_job(job_id=2, submit=1.0, nodes=1, runtime=100.0,
                      walltime=100.0, mem=20 * GiB)  # 4 GiB remote > 2 free
        run_sim(cluster, Scheduler(penalty=NoPenalty()), [j1, j2])
        assert j1.start_time == 0.0
        # Node 1 is free the whole time, but the pool is not.
        assert j2.start_time == pytest.approx(100.0)

    def test_memory_aware_easy_backfills_around_pool_blockage(self):
        cluster = self.pool_cluster()
        j1 = make_job(job_id=1, submit=0.0, nodes=1, runtime=100.0,
                      walltime=100.0, mem=22 * GiB)  # 6 GiB remote
        j2 = make_job(job_id=2, submit=1.0, nodes=1, runtime=100.0,
                      walltime=100.0, mem=20 * GiB)  # blocked on pool
        j3 = make_job(job_id=3, submit=2.0, nodes=1, runtime=30.0,
                      walltime=30.0, mem=8 * GiB)  # local-only, short
        result = run_sim(cluster, Scheduler(penalty=NoPenalty()), [j1, j2, j3])
        # j3 fits on the free node and finishes before j2's promised
        # pool availability at t=100.
        assert j3.start_time == 2.0
        assert j2.start_time == pytest.approx(100.0)
        assert result.promises[2].promised_start == pytest.approx(100.0)

    def three_node_pool_cluster(self):
        spec = ClusterSpec(
            name="mem3",
            num_nodes=3,
            nodes_per_rack=3,
            node=NodeSpec(cores=8, local_mem=16 * GiB),
            pool=PoolSpec(global_pool=8 * GiB),
        )
        return Cluster(spec)

    def pathology_jobs(self):
        # j1 holds half the pool; j2 (head) needs the *whole* pool;
        # j3 is a long remote-memory candidate. Nodes are plentiful
        # throughout — the pool is the only bottleneck.
        j1 = make_job(job_id=1, submit=0.0, nodes=1, runtime=100.0,
                      walltime=100.0, mem=20 * GiB)  # 4 GiB remote
        j2 = make_job(job_id=2, submit=1.0, nodes=1, runtime=100.0,
                      walltime=100.0, mem=24 * GiB)  # 8 GiB remote
        j3 = make_job(job_id=3, submit=2.0, nodes=1, runtime=500.0,
                      walltime=500.0, mem=20 * GiB)  # 4 GiB remote
        return j1, j2, j3

    def test_memory_unaware_easy_breaks_promises(self):
        """The paper's pathology: a nodes-only shadow lets backfills
        squat on pool memory the head was implicitly waiting for."""
        j1, j2, j3 = self.pathology_jobs()
        sched = Scheduler(
            backfill=EasyBackfill(memory_aware=False), penalty=NoPenalty()
        )
        result = SchedulerSimulation(
            self.three_node_pool_cluster(), sched, [j1, j2, j3]
        ).run()
        # Promises are not enforced for memory-unaware runs.
        deep_audit(result).raise_if_failed()
        # The unaware shadow claimed j2 could start immediately (nodes
        # are free), so the long pool-squatting j3 was backfilled...
        assert j3.start_time == 2.0
        # ...and j2's realized start blows past that phantom promise:
        # it now needs j3's grant back, not just j1's.
        assert result.promises[2].promised_start == pytest.approx(1.0)
        assert j2.start_time == pytest.approx(502.0)

    def test_memory_aware_easy_protects_the_head(self):
        """Same workload, memory-aware shadow: the long candidate is
        denied and the head starts exactly when promised."""
        j1, j2, j3 = self.pathology_jobs()
        result = run_sim(
            self.three_node_pool_cluster(),
            Scheduler(penalty=NoPenalty()),
            [j1, j2, j3],
        )
        assert result.promises[2].promised_start == pytest.approx(100.0)
        assert j2.start_time == pytest.approx(100.0)  # promise honored
        assert j3.start_time == pytest.approx(200.0)  # after the head

    def test_rejected_when_never_fits(self):
        cluster = self.pool_cluster()
        giant_nodes = make_job(job_id=1, nodes=3, mem=1 * GiB)
        giant_mem = make_job(job_id=2, submit=1.0, nodes=2,
                             mem=16 * GiB + 5 * GiB)  # 10 GiB remote > 8
        ok = make_job(job_id=3, submit=2.0, nodes=1, runtime=10.0,
                      walltime=20.0, mem=1 * GiB)
        result = run_sim(cluster, Scheduler(penalty=NoPenalty()),
                         [giant_nodes, giant_mem, ok])
        assert giant_nodes.state is JobState.REJECTED
        assert giant_mem.state is JobState.REJECTED
        assert ok.state is JobState.COMPLETED
        assert result.summary_counts()["rejected"] == 2


class TestKillPolicies:
    def pool_cluster(self):
        spec = ClusterSpec(
            num_nodes=1, nodes_per_rack=1,
            node=NodeSpec(local_mem=16 * GiB),
            pool=PoolSpec(global_pool=16 * GiB),
        )
        return Cluster(spec)

    def test_strict_kills_dilated_job(self):
        cluster = self.pool_cluster()
        # f = 0.5, beta = 0.4 -> dilation 0.2: dilated runtime 120 > 110.
        job = make_job(job_id=1, nodes=1, runtime=100.0, walltime=110.0,
                       mem=32 * GiB)
        run_sim(
            cluster,
            Scheduler(penalty=LinearPenalty(0.4), kill_policy=KillPolicy.STRICT),
            [job],
        )
        assert job.state is JobState.KILLED
        assert job.end_time == pytest.approx(110.0)

    def test_dilation_aware_lets_it_finish(self):
        cluster = self.pool_cluster()
        job = make_job(job_id=1, nodes=1, runtime=100.0, walltime=110.0,
                       mem=32 * GiB)
        run_sim(
            cluster,
            Scheduler(penalty=LinearPenalty(0.4),
                      kill_policy=KillPolicy.DILATION_AWARE),
            [job],
        )
        assert job.state is JobState.COMPLETED
        assert job.end_time == pytest.approx(120.0)

    def test_dilation_aware_still_kills_underestimates(self):
        cluster = self.pool_cluster()
        # Base runtime exceeds walltime: killed at dilated walltime.
        job = make_job(job_id=1, nodes=1, runtime=100.0, walltime=80.0,
                       mem=32 * GiB)
        run_sim(
            cluster,
            Scheduler(penalty=LinearPenalty(0.4),
                      kill_policy=KillPolicy.DILATION_AWARE),
            [job],
        )
        assert job.state is JobState.KILLED
        assert job.end_time == pytest.approx(96.0)  # 80 * 1.2

    def test_none_never_kills(self):
        cluster = self.pool_cluster()
        job = make_job(job_id=1, nodes=1, runtime=100.0, walltime=50.0,
                       mem=32 * GiB)
        result = SchedulerSimulation(
            cluster,
            Scheduler(penalty=LinearPenalty(0.4), kill_policy=KillPolicy.NONE),
            [job],
        ).run()
        deep_audit(result).raise_if_failed()
        assert job.state is JobState.COMPLETED
        assert job.end_time == pytest.approx(120.0)


class TestGates:
    def contended_cluster(self):
        spec = ClusterSpec(
            num_nodes=2, nodes_per_rack=2,
            node=NodeSpec(local_mem=16 * GiB),
            # bandwidth 8 GiB: pressure = used/8GiB
            pool=PoolSpec(global_pool=16 * GiB,
                          global_bandwidth=float(8 * GiB)),
        )
        return Cluster(spec)

    def test_pressure_gate_defers_second_remote_job(self):
        cluster = self.contended_cluster()
        j1 = make_job(job_id=1, submit=0.0, nodes=1, runtime=100.0,
                      walltime=100.0, mem=22 * GiB)  # 6 GiB remote, p=0.75
        j2 = make_job(job_id=2, submit=1.0, nodes=1, runtime=100.0,
                      walltime=100.0, mem=20 * GiB)  # would push p to 1.25
        sched = Scheduler(
            penalty=ContentionPenalty(beta=0.4, kappa=2.0, threshold=0.5),
            gate=PressureGate(threshold=0.8, max_hold=10_000.0),
        )
        result = SchedulerSimulation(cluster, sched, [j1, j2]).run()
        deep_audit(result).raise_if_failed()
        assert j1.start_time == 0.0
        # Gate held j2 until j1 released its grant.
        assert j2.start_time >= j1.end_time

    def test_pressure_gate_max_hold_escape(self):
        cluster = self.contended_cluster()
        j1 = make_job(job_id=1, submit=0.0, nodes=1, runtime=100.0,
                      walltime=100.0, mem=22 * GiB)
        j2 = make_job(job_id=2, submit=1.0, nodes=1, runtime=100.0,
                      walltime=100.0, mem=20 * GiB)
        sched = Scheduler(
            penalty=ContentionPenalty(beta=0.4, kappa=2.0, threshold=0.5),
            gate=PressureGate(threshold=0.8, max_hold=0.0),  # escape instantly
        )
        result = SchedulerSimulation(cluster, sched, [j1, j2]).run()
        deep_audit(result).raise_if_failed()
        assert j2.start_time == pytest.approx(1.0)

    def test_gates_pass_local_jobs(self):
        cluster = self.contended_cluster()
        jobs = [
            make_job(job_id=i, submit=float(i), nodes=1, runtime=50.0,
                     walltime=60.0, mem=8 * GiB)
            for i in (1, 2)
        ]
        for gate in (PressureGate(), AdaptiveGate()):
            fresh = [j.copy_request() for j in jobs]
            sched = Scheduler(penalty=NoPenalty(), gate=gate)
            result = SchedulerSimulation(
                self.contended_cluster(), sched, fresh
            ).run()
            deep_audit(result).raise_if_failed()
            assert all(j.state is JobState.COMPLETED for j in fresh)
            assert fresh[0].start_time == pytest.approx(1.0)

    def test_adaptive_gate_starts_when_wait_too_long(self):
        cluster = self.contended_cluster()
        # j1 holds the pool a very long time: waiting cannot pay off.
        j1 = make_job(job_id=1, submit=0.0, nodes=1, runtime=50_000.0,
                      walltime=50_000.0, mem=22 * GiB)
        j2 = make_job(job_id=2, submit=1.0, nodes=1, runtime=100.0,
                      walltime=100.0, mem=20 * GiB)
        sched = Scheduler(
            penalty=ContentionPenalty(beta=0.4, kappa=2.0, threshold=0.5),
            gate=AdaptiveGate(max_hold=100_000.0),
        )
        result = SchedulerSimulation(cluster, sched, [j1, j2]).run()
        deep_audit(result).raise_if_failed()
        assert j2.start_time == pytest.approx(1.0)


class TestSamplingAndResult:
    def test_samples_collected(self):
        cluster = four_node_cluster()
        jobs = [
            make_job(job_id=1, submit=0.0, nodes=2, runtime=100.0,
                     walltime=100.0, mem=4 * GiB),
            make_job(job_id=2, submit=0.0, nodes=2, runtime=200.0,
                     walltime=200.0, mem=4 * GiB),
        ]
        result = SchedulerSimulation(
            cluster, Scheduler(penalty=NoPenalty()), jobs, sample_interval=50.0
        ).run()
        deep_audit(result).raise_if_failed()
        assert len(result.samples) >= 3
        first = result.samples[0]
        assert first.busy_nodes == 4
        assert first.running_jobs == 2

    def test_result_bookkeeping(self):
        cluster = four_node_cluster()
        jobs = [
            make_job(job_id=1, submit=10.0, nodes=1, runtime=100.0,
                     walltime=100.0, mem=1 * GiB),
            make_job(job_id=2, submit=20.0, nodes=1, runtime=100.0,
                     walltime=100.0, mem=1 * GiB),
        ]
        result = run_sim(cluster, Scheduler(penalty=NoPenalty()), jobs)
        assert result.started_at == 10.0
        assert result.finished_at == 120.0
        assert result.makespan == 110.0
        assert result.summary_counts() == {
            "total": 2, "completed": 2, "killed": 0, "rejected": 0,
        }
        assert result.job(1).job_id == 1
        with pytest.raises(KeyError):
            result.job(99)
        assert result.cycles > 0
        assert result.events > 0

    def test_determinism(self):
        def build():
            cluster = four_node_cluster(global_pool=8 * GiB)
            jobs = [
                make_job(job_id=i, submit=float(i), nodes=1 + i % 3,
                         runtime=50.0 + i, walltime=100.0 + i,
                         mem=(4 + i) * GiB)
                for i in range(1, 20)
            ]
            sched = Scheduler(penalty=LinearPenalty(0.3))
            return SchedulerSimulation(cluster, sched, jobs).run()

        r1, r2 = build(), build()
        starts1 = [(j.job_id, j.start_time, tuple(j.assigned_nodes))
                   for j in r1.jobs]
        starts2 = [(j.job_id, j.start_time, tuple(j.assigned_nodes))
                   for j in r2.jobs]
        assert starts1 == starts2


class TestAuditCatchesCorruption:
    def test_audit_detects_node_overlap(self):
        cluster = four_node_cluster()
        jobs = [make_job(job_id=1, submit=0.0, nodes=1, runtime=100.0,
                         walltime=100.0, mem=1 * GiB),
                make_job(job_id=2, submit=0.0, nodes=1, runtime=100.0,
                         walltime=100.0, mem=1 * GiB)]
        result = SchedulerSimulation(
            cluster, Scheduler(penalty=NoPenalty()), jobs
        ).run()
        # Corrupt: pretend both jobs ran on node 0.
        jobs[1].assigned_nodes = [0]
        with pytest.raises(AuditError, match="double-booked"):
            deep_audit(result).raise_if_failed()

    def test_audit_detects_bad_split(self):
        cluster = four_node_cluster()
        job = make_job(job_id=1, submit=0.0, nodes=1, runtime=100.0,
                       walltime=100.0, mem=1 * GiB)
        result = SchedulerSimulation(
            cluster, Scheduler(penalty=NoPenalty()), [job]
        ).run()
        job.remote_per_node = 512  # no matching pool grant
        with pytest.raises(AuditError):
            deep_audit(result).raise_if_failed()

    def test_audit_detects_broken_promise(self):
        cluster = four_node_cluster()
        jobs = [make_job(job_id=1, submit=0.0, nodes=4, runtime=100.0,
                         walltime=100.0, mem=1 * GiB),
                make_job(job_id=2, submit=1.0, nodes=4, runtime=100.0,
                         walltime=100.0, mem=1 * GiB)]
        result = SchedulerSimulation(
            cluster, Scheduler(penalty=NoPenalty()), jobs
        ).run()
        # Corrupt the promise to something earlier than reality.
        from repro.engine.results import Promise

        result.promises[2] = Promise(2, 0.0, 50.0)
        with pytest.raises(AuditError, match="promise"):
            deep_audit(result).raise_if_failed()
