"""Tests for the scheduling framework: queue policies, placement,
availability profiles, and the scheduler facade helpers."""

from __future__ import annotations

import pytest

from repro.cluster import Cluster, ClusterSpec, NodeSpec, PoolSpec
from repro.cluster.masks import ids_of, mask_of
from repro.errors import ConfigurationError
from repro.memdis import GlobalPoolAllocator, HybridAllocator, RackLocalAllocator
from repro.sched import (
    AvailabilityProfile,
    FCFSPolicy,
    FirstFitPlacement,
    LJFPolicy,
    MinRemotePlacement,
    RackPackPlacement,
    Reservation,
    Scheduler,
    SJFPolicy,
    SpreadPlacement,
    UNICEFPolicy,
    WFPPolicy,
    build_scheduler,
    placement_for,
    queue_policy_for,
)
from repro.sched.base import KillPolicy, pool_pressure
from repro.units import GiB
from repro.workload import Job, JobState

from ._cursor_views import cursor_free_at, cursor_window_free
from ._oracles import nodes_mask
from .conftest import make_job


class TestQueuePolicies:
    def make_queue(self):
        return [
            make_job(job_id=1, submit=0.0, nodes=8, walltime=3600, runtime=1800),
            make_job(job_id=2, submit=10.0, nodes=1, walltime=600, runtime=300),
            make_job(job_id=3, submit=20.0, nodes=32, walltime=7200, runtime=3600),
        ]

    def test_fcfs_by_submit(self):
        ordered = FCFSPolicy().order(self.make_queue(), now=100.0)
        assert [j.job_id for j in ordered] == [1, 2, 3]

    def test_sjf_by_walltime(self):
        ordered = SJFPolicy().order(self.make_queue(), now=100.0)
        assert [j.job_id for j in ordered] == [2, 1, 3]

    def test_ljf_by_nodes(self):
        ordered = LJFPolicy().order(self.make_queue(), now=100.0)
        assert [j.job_id for j in ordered] == [3, 1, 2]

    def test_wfp_favors_old_large(self):
        # Equal nodes; the one waiting much longer wins.
        a = make_job(job_id=1, submit=0.0, nodes=4, walltime=3600)
        b = make_job(job_id=2, submit=3500.0, nodes=4, walltime=3600)
        ordered = WFPPolicy().order([b, a], now=3600.0)
        assert ordered[0].job_id == 1

    def test_wfp_scales_with_nodes(self):
        a = make_job(job_id=1, submit=0.0, nodes=1, walltime=3600)
        b = make_job(job_id=2, submit=0.0, nodes=64, walltime=3600)
        ordered = WFPPolicy().order([a, b], now=1800.0)
        assert ordered[0].job_id == 2

    def test_unicef_favors_small_short(self):
        small = make_job(job_id=1, submit=0.0, nodes=1, walltime=600)
        big = make_job(job_id=2, submit=0.0, nodes=64, walltime=7200)
        ordered = UNICEFPolicy().order([big, small], now=300.0)
        assert ordered[0].job_id == 1

    def test_zero_wait_ties_break_by_submit(self):
        queue = self.make_queue()
        ordered = WFPPolicy().order(queue, now=0.0)
        # All scores <= 0 at their submit instants; falls back to FCFS order.
        assert [j.job_id for j in ordered] == [1, 2, 3]

    def test_factory(self):
        for name in ("fcfs", "sjf", "ljf", "wfp", "unicef"):
            assert queue_policy_for(name).name == name
        with pytest.raises(ConfigurationError):
            queue_policy_for("lottery")

    def test_wfp_bad_exponent(self):
        with pytest.raises(ConfigurationError):
            WFPPolicy(exponent=0)


class TestPlacement:
    def test_first_fit_lowest_ids(self, pooled_cluster):
        free = nodes_mask(range(8))
        assert FirstFitPlacement().select(pooled_cluster, free, 3, 0) == 0b0111

    def test_insufficient_nodes(self, pooled_cluster):
        free = nodes_mask([1, 5])
        assert FirstFitPlacement().select(pooled_cluster, free, 3, 0) is None

    def test_rack_pack_minimizes_racks(self, pooled_cluster):
        # rack0 has 2 free, rack1 has 3 free: a 3-node job should land
        # entirely in rack1.
        free = nodes_mask([0, 1, 5, 6, 7])
        nodes = RackPackPlacement().select(pooled_cluster, free, 3, 0)
        assert ids_of(nodes) == [5, 6, 7]

    def test_rack_pack_spills_in_rack_order(self, pooled_cluster):
        free = nodes_mask([0, 1, 5, 6, 7])
        nodes = RackPackPlacement().select(pooled_cluster, free, 4, 0)
        assert ids_of(nodes) == [5, 6, 7, 0]

    def test_min_remote_prefers_pool_space(self, pooled_cluster):
        # Drain rack1's pool; min_remote should prefer rack0 now.
        pooled_cluster.rack(1).pool.allocate(99, 60 * GiB)
        free = nodes_mask([0, 1, 4, 5])
        nodes = MinRemotePlacement().select(pooled_cluster, free, 2, 4 * GiB)
        assert ids_of(nodes) == [0, 1]

    def test_min_remote_uses_override_hint(self, pooled_cluster):
        free = nodes_mask([0, 1, 4, 5])
        hint = {"rack0": 0, "rack1": 64 * GiB, "global": 0}
        nodes = MinRemotePlacement().select(
            pooled_cluster, free, 2, 4 * GiB, pool_free=hint
        )
        assert ids_of(nodes) == [4, 5]

    def test_spread_round_robins(self, pooled_cluster):
        free = nodes_mask(range(8))
        nodes = SpreadPlacement().select(pooled_cluster, free, 4, 0)
        assert ids_of(nodes) == [0, 4, 1, 5]

    def test_spread_handles_uneven_racks(self, pooled_cluster):
        free = nodes_mask([0, 4, 5, 6])
        nodes = SpreadPlacement().select(pooled_cluster, free, 4, 0)
        assert sorted(ids_of(nodes)) == [0, 4, 5, 6]

    def test_factory(self):
        for name in ("first_fit", "rack_pack", "min_remote", "spread"):
            assert placement_for(name).name == name
        with pytest.raises(ConfigurationError):
            placement_for("teleport")


def running_job(job_id, nodes, start, walltime, pool_grants=None, dilation=0.0):
    job = make_job(
        job_id=job_id,
        submit=start,
        nodes=len(nodes),
        walltime=walltime,
        runtime=walltime,
        mem=1 * GiB,
    )
    job.state = JobState.RUNNING
    job.start_time = start
    job.assigned_nodes = list(nodes)
    job.pool_grants = dict(pool_grants or {})
    job.dilation = dilation
    return job


class TestAvailabilityProfile:
    def setup_cluster(self):
        spec = ClusterSpec(
            name="p",
            num_nodes=4,
            nodes_per_rack=4,
            node=NodeSpec(cores=8, local_mem=16 * GiB),
            pool=PoolSpec(global_pool=8 * GiB),
        )
        return Cluster(spec)

    def test_free_at_future_release(self):
        cluster = self.setup_cluster()
        job = running_job(1, [0, 1], start=0.0, walltime=100.0,
                          pool_grants={"global": 2 * GiB})
        cluster.allocate_nodes(1, mask_of([0, 1]), 0)
        cluster.allocate_pool(1, {"global": 2 * GiB})
        profile = AvailabilityProfile(cluster, [job], now=10.0,
                                      duration_of=lambda j: j.walltime)
        free_now, pool_now = cursor_free_at(profile, 10.0)
        assert free_now == frozenset([2, 3])
        assert pool_now["global"] == 6 * GiB
        free_later, pool_later = cursor_free_at(profile, 100.0)
        assert free_later == frozenset([0, 1, 2, 3])
        assert pool_later["global"] == 8 * GiB

    def test_overrun_job_clamped(self):
        cluster = self.setup_cluster()
        job = running_job(1, [0], start=0.0, walltime=100.0)
        cluster.allocate_nodes(1, mask_of([0]), 0)
        # now is already past the estimated end; resources are expected
        # "any moment", not in the past.
        profile = AvailabilityProfile(cluster, [job], now=500.0,
                                      duration_of=lambda j: j.walltime)
        free, _ = cursor_free_at(profile, 500.0)
        assert 0 not in free
        free, _ = cursor_free_at(profile, 501.5)
        assert 0 in free

    def test_window_free_excludes_mid_window_reservation(self):
        cluster = self.setup_cluster()
        profile = AvailabilityProfile(cluster, [], now=0.0,
                                      duration_of=lambda j: j.walltime)
        profile.add_reservation(
            Reservation(9, start=50.0, end=150.0, node_mask=mask_of((1, 2)),
                        pool_grants=(("global", 4 * GiB),))
        )
        free, pool_min = cursor_window_free(profile, 0.0, 100.0)
        assert free == frozenset([0, 3])
        assert pool_min["global"] == 4 * GiB
        # A window ending before the reservation is unaffected.
        free2, pool2 = cursor_window_free(profile, 0.0, 50.0)
        assert free2 == frozenset([0, 1, 2, 3])
        assert pool2["global"] == 8 * GiB

    def test_earliest_start_immediate(self):
        cluster = self.setup_cluster()
        profile = AvailabilityProfile(cluster, [], now=5.0,
                                      duration_of=lambda j: j.walltime)
        job = make_job(job_id=7, nodes=2, mem=1 * GiB)
        res = profile.earliest_start(
            job, 100.0, 0, FirstFitPlacement(), GlobalPoolAllocator()
        )
        assert res.start == 5.0
        assert res.node_ids == (0, 1)
        assert res.plan == {}

    def test_earliest_start_waits_for_nodes(self):
        cluster = self.setup_cluster()
        blocker = running_job(1, [0, 1, 2], start=0.0, walltime=100.0)
        cluster.allocate_nodes(1, mask_of([0, 1, 2]), 0)
        profile = AvailabilityProfile(cluster, [blocker], now=10.0,
                                      duration_of=lambda j: j.walltime)
        job = make_job(job_id=7, nodes=3, mem=1 * GiB)
        res = profile.earliest_start(
            job, 50.0, 0, FirstFitPlacement(), GlobalPoolAllocator()
        )
        assert res.start == 100.0
        assert set(res.node_ids) <= {0, 1, 2, 3}

    def test_earliest_start_waits_for_pool(self):
        cluster = self.setup_cluster()
        holder = running_job(1, [0], start=0.0, walltime=200.0,
                             pool_grants={"global": 7 * GiB})
        cluster.allocate_nodes(1, mask_of([0]), 0)
        cluster.allocate_pool(1, {"global": 7 * GiB})
        profile = AvailabilityProfile(cluster, [holder], now=0.0,
                                      duration_of=lambda j: j.walltime)
        job = make_job(job_id=7, nodes=1, mem=20 * GiB)  # needs 4 GiB remote
        res = profile.earliest_start(
            job, 50.0, 4 * GiB, FirstFitPlacement(), GlobalPoolAllocator()
        )
        assert res.start == 200.0
        assert res.plan == {"global": 4 * GiB}

    def test_earliest_start_memory_unaware_ignores_pool(self):
        cluster = self.setup_cluster()
        holder = running_job(1, [0], start=0.0, walltime=200.0,
                             pool_grants={"global": 7 * GiB})
        cluster.allocate_nodes(1, mask_of([0]), 0)
        cluster.allocate_pool(1, {"global": 7 * GiB})
        profile = AvailabilityProfile(cluster, [holder], now=0.0,
                                      duration_of=lambda j: j.walltime)
        job = make_job(job_id=7, nodes=1, mem=20 * GiB)
        res = profile.earliest_start(
            job, 50.0, 4 * GiB, FirstFitPlacement(), GlobalPoolAllocator(),
            memory_aware=False,
        )
        assert res.start == 0.0  # blind to the pool bottleneck
        assert res.plan == {}

    def test_earliest_start_respects_reservations(self):
        cluster = self.setup_cluster()
        profile = AvailabilityProfile(cluster, [], now=0.0,
                                      duration_of=lambda j: j.walltime)
        profile.add_reservation(
            Reservation(9, start=10.0, end=100.0, node_mask=mask_of((0, 1, 2)),
                        pool_grants=())
        )
        job = make_job(job_id=7, nodes=2, mem=1 * GiB)
        # 20-second job: would overlap the reservation if started now on
        # nodes 0-1; only node 3 stays free throughout, so it must wait
        # until the reservation ends.
        res = profile.earliest_start(
            job, 20.0, 0, FirstFitPlacement(), GlobalPoolAllocator()
        )
        assert res.start == 100.0

    def test_earliest_start_impossible_returns_none(self):
        cluster = self.setup_cluster()
        profile = AvailabilityProfile(cluster, [], now=0.0,
                                      duration_of=lambda j: j.walltime)
        job = make_job(job_id=7, nodes=10, mem=1 * GiB)  # > 4 nodes
        assert profile.earliest_start(
            job, 10.0, 0, FirstFitPlacement(), GlobalPoolAllocator()
        ) is None

    def test_remove_reservation(self):
        cluster = self.setup_cluster()
        profile = AvailabilityProfile(cluster, [], now=0.0,
                                      duration_of=lambda j: j.walltime)
        res = profile.add_reservation(
            Reservation(9, 0.0, 100.0, mask_of((0, 1, 2, 3)), ())
        )
        job = make_job(job_id=7, nodes=1, mem=1 * GiB)
        first = profile.earliest_start(
            job, 10.0, 0, FirstFitPlacement(), GlobalPoolAllocator()
        )
        assert first.start == 100.0
        profile.remove_reservation(res)
        second = profile.earliest_start(
            job, 10.0, 0, FirstFitPlacement(), GlobalPoolAllocator()
        )
        assert second.start == 0.0


class TestSchedulerFacade:
    def test_build_scheduler_strings(self):
        sched = build_scheduler(
            queue="wfp", backfill="conservative", placement="rack_pack",
            allocator="hybrid", penalty={"kind": "linear", "beta": 0.4},
            gate="pressure", kill_policy="strict",
        )
        info = sched.describe()
        assert info["queue"] == "wfp"
        assert info["backfill"] == "conservative"
        assert info["placement"] == "rack_pack"
        assert info["gate"] == "pressure"
        assert info["kill"] == "strict"

    def test_allocator_auto_resolution(self):
        rack_only = Cluster(ClusterSpec(
            num_nodes=4, nodes_per_rack=2,
            pool=PoolSpec(rack_pool=8 * GiB),
        ))
        global_only = Cluster(ClusterSpec(
            num_nodes=4, nodes_per_rack=2,
            pool=PoolSpec(global_pool=8 * GiB),
        ))
        both = Cluster(ClusterSpec(
            num_nodes=4, nodes_per_rack=2,
            pool=PoolSpec(rack_pool=8 * GiB, global_pool=8 * GiB),
        ))
        assert isinstance(Scheduler().resolve_allocator(rack_only), RackLocalAllocator)
        assert isinstance(Scheduler().resolve_allocator(global_only), GlobalPoolAllocator)
        assert isinstance(Scheduler().resolve_allocator(both), HybridAllocator)

    def test_fits_machine(self, pooled_cluster):
        sched = Scheduler()
        ok = make_job(job_id=1, nodes=8, mem=16 * GiB)
        assert sched.fits_machine(ok, pooled_cluster)
        too_many_nodes = make_job(job_id=2, nodes=9, mem=1 * GiB)
        assert not sched.fits_machine(too_many_nodes, pooled_cluster)
        # 8 nodes × (all of local) + remote beyond every pool's reach:
        # per-node remote 40 GiB × 8 = 320 GiB > 64+64+128 pool total.
        too_much_mem = make_job(job_id=3, nodes=8, mem=56 * GiB)
        assert not sched.fits_machine(too_much_mem, pooled_cluster)
        # A single-node job with big memory is fine via rack + global.
        single = make_job(job_id=4, nodes=1, mem=200 * GiB)
        assert sched.fits_machine(single, pooled_cluster)

    def test_fits_machine_no_pool(self, tiny_cluster):
        sched = Scheduler()
        local_ok = make_job(job_id=1, nodes=4, mem=16 * GiB)
        assert sched.fits_machine(local_ok, tiny_cluster)
        needs_pool = make_job(job_id=2, nodes=1, mem=17 * GiB)
        assert not sched.fits_machine(needs_pool, tiny_cluster)

    def test_est_duration_policies(self, pooled_cluster):
        from repro.memdis import LinearPenalty

        job = make_job(job_id=1, nodes=1, mem=32 * GiB, walltime=1000.0)
        strict = Scheduler(penalty=LinearPenalty(0.5), kill_policy=KillPolicy.STRICT)
        aware = Scheduler(penalty=LinearPenalty(0.5),
                          kill_policy=KillPolicy.DILATION_AWARE)
        assert strict.est_duration(job, pooled_cluster) == 1000.0
        # remote fraction = 16/32 = 0.5 -> dilation 0.25 at zero pressure
        assert aware.est_duration(job, pooled_cluster) == pytest.approx(1250.0)

    def test_pool_pressure(self, pooled_cluster):
        # Infinite bandwidth everywhere -> zero pressure.
        assert pool_pressure(pooled_cluster) == 0.0
        spec = ClusterSpec(
            num_nodes=4, nodes_per_rack=4,
            pool=PoolSpec(global_pool=100, global_bandwidth=50.0),
        )
        cluster = Cluster(spec)
        cluster.global_pool.allocate(1, 25)
        assert pool_pressure(cluster) == pytest.approx(0.5)
        assert pool_pressure(cluster, {"global": 25}) == pytest.approx(1.0)

    def test_try_start_now_respects_pool(self):
        spec = ClusterSpec(
            num_nodes=2, nodes_per_rack=2,
            node=NodeSpec(local_mem=16 * GiB),
            pool=PoolSpec(global_pool=4 * GiB),
        )
        cluster = Cluster(spec)
        sched = Scheduler()
        from repro.sched.base import SchedulerContext

        ctx = SchedulerContext(
            cluster=cluster, now=0.0, queue=[], running=[],
            start_job=lambda d: None,
        )
        fits = make_job(job_id=1, nodes=1, mem=18 * GiB)  # 2 GiB remote
        decision = sched.try_start_now(ctx, fits)
        assert decision is not None
        assert decision.plan == {"global": 2 * GiB}
        assert decision.split.local == 16 * GiB
        too_big = make_job(job_id=2, nodes=2, mem=19 * GiB)  # 6 GiB remote
        assert sched.try_start_now(ctx, too_big) is None
