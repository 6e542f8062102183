"""Tests for fair-share scheduling, user statistics, the dominant-share
policy, diurnal arrivals, and the Gantt renderer."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.audit import deep_audit
from repro.cluster import Cluster, ClusterSpec, NodeSpec, PoolSpec
from repro.engine import SchedulerSimulation
from repro.errors import ConfigurationError
from repro.memdis import NoPenalty
from repro.metrics import jain_index, per_user_stats, render_gantt
from repro.sched import (
    DominantSharePolicy,
    FairSharePolicy,
    Scheduler,
    UsageTracker,
    queue_policy_for,
)
from repro.sim import RandomStreams
from repro.units import GiB, HOUR
from repro.workload import JobState, SyntheticWorkload, WorkloadParams
from repro.workload.models import Exponential

from .conftest import make_job


class TestUsageTracker:
    def test_charge_and_read(self):
        tracker = UsageTracker(half_life=HOUR)
        tracker.charge("alice", 100.0, at=0.0)
        assert tracker.usage_of("alice", 0.0) == pytest.approx(100.0)
        assert tracker.usage_of("bob", 0.0) == 0.0

    def test_decay_half_life(self):
        tracker = UsageTracker(half_life=HOUR)
        tracker.charge("alice", 100.0, at=0.0)
        assert tracker.usage_of("alice", HOUR) == pytest.approx(50.0)
        assert tracker.usage_of("alice", 2 * HOUR) == pytest.approx(25.0)

    def test_charges_accumulate_with_decay(self):
        tracker = UsageTracker(half_life=HOUR)
        tracker.charge("alice", 100.0, at=0.0)
        tracker.charge("alice", 100.0, at=HOUR)
        assert tracker.usage_of("alice", HOUR) == pytest.approx(150.0)

    def test_snapshot(self):
        tracker = UsageTracker(half_life=HOUR)
        tracker.charge("a", 10.0, at=0.0)
        tracker.charge("b", 20.0, at=0.0)
        snap = tracker.snapshot(at=HOUR)
        assert snap["a"] == pytest.approx(5.0)
        assert snap["b"] == pytest.approx(10.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            UsageTracker(half_life=0)
        tracker = UsageTracker()
        with pytest.raises(ConfigurationError):
            tracker.charge("a", -1.0, at=0.0)


class TestFairSharePolicy:
    def test_light_user_jumps_heavy_user(self):
        policy = FairSharePolicy(half_life=24 * HOUR)
        # heavy has consumed a lot recently.
        policy.tracker.charge("heavy", 1e6, at=0.0)
        a = make_job(job_id=1, submit=0.0, user="heavy")
        b = make_job(job_id=2, submit=10.0, user="light")
        ordered = policy.order([a, b], now=100.0)
        assert [j.user for j in ordered] == ["light", "heavy"]

    def test_falls_back_to_fcfs_within_user(self):
        policy = FairSharePolicy()
        a = make_job(job_id=1, submit=0.0, user="u")
        b = make_job(job_id=2, submit=10.0, user="u")
        ordered = policy.order([b, a], now=100.0)
        assert [j.job_id for j in ordered] == [1, 2]

    def test_watched_jobs_charged_once_terminal(self):
        policy = FairSharePolicy(half_life=1e12)  # effectively no decay
        job = make_job(job_id=1, submit=0.0, nodes=2, user="u")
        policy.order([job], now=0.0)  # watched while pending
        job.state = JobState.COMPLETED
        job.start_time, job.end_time = 0.0, 100.0
        policy.order([], now=200.0)  # settles
        assert policy.tracker.usage_of("u", 200.0) == pytest.approx(200.0)
        policy.order([], now=300.0)  # no double charge
        assert policy.tracker.usage_of("u", 300.0) == pytest.approx(200.0)

    def test_pool_usage_charged(self):
        policy = FairSharePolicy(half_life=1e12,
                                 pool_weight=1.0 / (64 * 1024))
        job = make_job(job_id=1, submit=0.0, nodes=1, user="u")
        job.pool_grants = {"global": 64 * 1024}  # 64 GiB
        policy.observe([job], now=0.0)
        job.state = JobState.COMPLETED
        job.start_time, job.end_time = 0.0, 100.0
        policy.order([], now=100.0)
        # 1 node * 100 s + 64 GiB * 100 s * weight = 100 + 100.
        assert policy.tracker.usage_of("u", 100.0) == pytest.approx(200.0)

    def test_end_to_end_small_users_served_better(self):
        """One hog user vs many small users: fair-share charges the
        hog's accumulated usage, so the small users' jobs overtake the
        hog's *queued* jobs and their mean wait improves vs FCFS.  (The
        hog's own wait gets worse — that is the policy working, so raw
        wait spread is not the metric to assert on.)"""
        spec = ClusterSpec(num_nodes=8, nodes_per_rack=8,
                           node=NodeSpec(local_mem=32 * GiB))
        jobs = []
        job_id = 0
        # The hog submits a burst of long jobs first.
        for i in range(12):
            job_id += 1
            jobs.append(make_job(job_id=job_id, submit=float(i),
                                 nodes=4, runtime=3000.0, walltime=3600.0,
                                 mem=4 * GiB, user="hog"))
        # Small users trickle in afterwards.
        for i in range(24):
            job_id += 1
            jobs.append(make_job(job_id=job_id, submit=100.0 + i * 50,
                                 nodes=1, runtime=300.0, walltime=600.0,
                                 mem=2 * GiB, user=f"small{i % 6}"))

        def run_with(policy_name):
            fresh = [j.copy_request() for j in jobs]
            sched = Scheduler(queue_policy=queue_policy_for(policy_name),
                              penalty=NoPenalty())
            result = SchedulerSimulation(Cluster(spec), sched, fresh).run()
            deep_audit(result).raise_if_failed()
            stats = {s.user: s for s in per_user_stats(result.jobs)}
            small_wait = sum(
                s.mean_wait for u, s in stats.items() if u != "hog"
            ) / (len(stats) - 1)
            return small_wait, stats["hog"].mean_wait

        fcfs_small, fcfs_hog = run_with("fcfs")
        fs_small, fs_hog = run_with("fairshare")
        assert fs_small <= fcfs_small  # small users served no worse
        assert fs_hog >= fcfs_hog  # the hog pays for its usage


class TestDominantSharePolicy:
    def test_orders_by_dominant_share(self):
        policy = DominantSharePolicy(total_nodes=64, total_mem=64 * 1024)
        # a: node share 32/64 = 0.5 dominant; b: mem share dominant:
        # 1 node, 48 GiB total mem of 64 GiB machine mem -> 0.75.
        a = make_job(job_id=1, submit=0.0, nodes=32, mem=1)
        b = make_job(job_id=2, submit=0.0, nodes=1, mem=48 * 1024)
        ordered = policy.order([b, a], now=0.0)
        assert [j.job_id for j in ordered] == [1, 2]

    def test_memory_heavy_not_starved_by_node_heavy(self):
        policy = DominantSharePolicy(total_nodes=64, total_mem=64 * 1024)
        small_mem = make_job(job_id=1, submit=0.0, nodes=1, mem=1024)
        big_nodes = make_job(job_id=2, submit=0.0, nodes=48, mem=1)
        ordered = policy.order([big_nodes, small_mem], now=0.0)
        assert ordered[0].job_id == 1

    def test_factory(self):
        assert queue_policy_for("dominant").name == "dominant"
        assert queue_policy_for("fairshare").name == "fairshare"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DominantSharePolicy(total_nodes=0)


class TestUserStats:
    def test_jain_index(self):
        assert jain_index([1.0, 1.0, 1.0]) == pytest.approx(1.0)
        assert jain_index([1.0, 0.0, 0.0]) == pytest.approx(1 / 3)
        assert jain_index([]) == 1.0
        assert jain_index([0.0, 0.0]) == 1.0

    def test_per_user_aggregation(self):
        a1 = make_job(job_id=1, submit=0.0, nodes=2, runtime=100.0,
                      walltime=200.0, user="a")
        a1.state = JobState.COMPLETED
        a1.start_time, a1.end_time = 0.0, 100.0
        a1.pool_grants = {"global": 1024}
        b1 = make_job(job_id=2, submit=0.0, nodes=1, runtime=50.0,
                      walltime=100.0, user="b")
        b1.state = JobState.COMPLETED
        b1.start_time, b1.end_time = 10.0, 60.0
        pending = make_job(job_id=3, user="c")
        stats = per_user_stats([a1, b1, pending])
        assert [s.user for s in stats] == ["a", "b"]
        assert stats[0].node_seconds == pytest.approx(200.0)
        assert stats[0].pool_mib_seconds == pytest.approx(1024 * 100.0)
        assert stats[1].mean_wait == pytest.approx(10.0)


class TestDiurnalArrivals:
    def make_params(self, amplitude):
        return WorkloadParams(
            num_jobs=2000,
            interarrival=Exponential(120.0),
            diurnal_amplitude=amplitude,
            max_nodes=8,
        )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            WorkloadParams(diurnal_amplitude=1.5).validate()
        with pytest.raises(ConfigurationError):
            WorkloadParams(diurnal_period=0).validate()

    def test_modulation_creates_rate_variation(self):
        flat = SyntheticWorkload(self.make_params(0.0)).generate(
            RandomStreams(3))
        wavy = SyntheticWorkload(self.make_params(0.8)).generate(
            RandomStreams(3))
        def hourly_cv(jobs):
            times = np.array([j.submit_time for j in jobs])
            bins = np.arange(0, times.max() + 3600, 3600)
            counts, _ = np.histogram(times, bins)
            counts = counts[:-1]  # drop ragged last bin
            return counts.std() / max(counts.mean(), 1e-9)
        assert hourly_cv(wavy) > hourly_cv(flat)

    def test_peak_troughs_align_with_phase(self):
        jobs = SyntheticWorkload(self.make_params(0.9)).generate(
            RandomStreams(1))
        times = np.array([j.submit_time for j in jobs])
        # Rate peaks in the first half-period (sin > 0), troughs in the
        # second: compare arrivals landing in each phase.
        phase = (times % 86400.0) / 86400.0
        peak = np.sum(phase < 0.5)
        trough = np.sum(phase >= 0.5)
        assert peak > trough


class TestGantt:
    def test_render_small_schedule(self):
        spec = ClusterSpec(
            num_nodes=2, nodes_per_rack=2,
            node=NodeSpec(local_mem=16 * GiB),
            pool=PoolSpec(global_pool=8 * GiB),
        )
        jobs = [
            make_job(job_id=1, submit=0.0, nodes=2, runtime=50.0,
                     walltime=100.0, mem=20 * GiB),
            make_job(job_id=2, submit=0.0, nodes=1, runtime=50.0,
                     walltime=100.0, mem=4 * GiB),
        ]
        result = SchedulerSimulation(
            Cluster(spec), Scheduler(penalty=NoPenalty()), jobs
        ).run()
        chart = render_gantt(result, width=20)
        lines = chart.splitlines()
        assert lines[0].startswith("gantt:")
        assert lines[1].startswith("n000 |")
        assert "1" in lines[1]  # job 1 occupied node 0
        assert any(line.startswith("pool |") for line in lines)

    def test_render_caps_nodes(self):
        spec = ClusterSpec(num_nodes=8, nodes_per_rack=8,
                           node=NodeSpec(local_mem=16 * GiB))
        jobs = [make_job(job_id=1, submit=0.0, nodes=1, runtime=10.0,
                         walltime=20.0, mem=1 * GiB)]
        result = SchedulerSimulation(
            Cluster(spec), Scheduler(penalty=NoPenalty()), jobs
        ).run()
        chart = render_gantt(result, width=10, max_nodes=4)
        assert "(4 more nodes)" in chart

    def test_idle_cells_are_dots(self):
        spec = ClusterSpec(num_nodes=1, nodes_per_rack=1,
                           node=NodeSpec(local_mem=16 * GiB))
        jobs = [
            make_job(job_id=1, submit=0.0, nodes=1, runtime=10.0,
                     walltime=20.0, mem=1 * GiB),
            make_job(job_id=2, submit=100.0, nodes=1, runtime=10.0,
                     walltime=20.0, mem=1 * GiB),
        ]
        result = SchedulerSimulation(
            Cluster(spec), Scheduler(penalty=NoPenalty()), jobs
        ).run()
        chart = render_gantt(result, width=22)
        node_row = chart.splitlines()[1]
        assert "." in node_row  # the idle gap between the two jobs
