"""Equivalence suite: optimized profile vs oracle, schedules vs goldens.

The sweep-based :class:`AvailabilityProfile` rewrite and the backfill
hot-path optimizations are pinned by three layers of evidence:

* query equivalence — the breakpoint grid, the availability view the
  sweep cursor offers placement at every candidate (``_cursor_views``)
  and earliest_start agree with the brute-force :class:`OracleProfile`
  (``_oracles.py``) on randomized clusters, running sets, and
  reservation patterns, across every placement policy and reach;
* incremental-mutation equivalence — add/remove_reservation and
  apply_start patch the cached sweep to exactly the state the oracle
  describes for the mutated world;
* end-to-end anchoring — full simulations over 200+ randomized
  workload × cluster × policy combinations must match the pinned
  golden digests in ``tests/golden/`` (see ``_golden.py``), which
  were baselined from runs verified against the original
  pre-optimization implementation.
"""

from __future__ import annotations

import random
import zlib

import pytest

from repro.cluster import Cluster, ClusterSpec, NodeSpec, PoolSpec
from repro.cluster.masks import ids_of, mask_of
from repro.engine.simulation import SchedulerSimulation
from repro.memdis import GlobalPoolAllocator, HybridAllocator, RackLocalAllocator
from repro.sched import AvailabilityProfile, Reservation
from repro.sched.base import build_scheduler
from repro.sched.placement import placement_for
from repro.units import GiB, HOUR
from repro.workload import Job

from ._cursor_views import (
    cursor_free_at,
    cursor_views,
    cursor_window_free,
    oracle_views,
)
from ._golden import assert_matches_golden
from ._oracles import OracleProfile

GOLDEN = "profile_equivalence"

# ----------------------------------------------------------------------
# randomized state builders
# ----------------------------------------------------------------------


def _random_cluster(rng: random.Random) -> Cluster:
    num_nodes = rng.choice((8, 12, 16))
    nodes_per_rack = rng.choice((4, 8))
    kind = rng.choice(("global", "rack", "hybrid", "none"))
    pool = PoolSpec()
    if kind == "global":
        pool = PoolSpec(global_pool=rng.choice((64, 128)) * GiB)
    elif kind == "rack":
        pool = PoolSpec(rack_pool=rng.choice((32, 64)) * GiB)
    elif kind == "hybrid":
        pool = PoolSpec(
            rack_pool=rng.choice((32, 64)) * GiB,
            global_pool=rng.choice((64, 128)) * GiB,
        )
    spec = ClusterSpec(
        name=f"rand-{kind}",
        num_nodes=num_nodes,
        nodes_per_rack=nodes_per_rack,
        node=NodeSpec(cores=8, local_mem=16 * GiB),
        pool=pool,
    )
    return Cluster(spec)


def _random_running(rng: random.Random, cluster: Cluster, now: float):
    """Occupy part of the machine with consistent running jobs."""
    running = []
    job_id = 1000
    free = ids_of(cluster.free_mask)
    rng.shuffle(free)
    while free and len(running) < rng.randint(0, 6):
        take = min(len(free), rng.randint(1, 4))
        node_ids, free = free[:take], free[take:]
        walltime = rng.uniform(600.0, 4 * HOUR)
        job = Job(
            job_id=job_id,
            submit_time=0.0,
            nodes=take,
            walltime=walltime,
            runtime=walltime * rng.uniform(0.3, 0.9),
            mem_per_node=rng.choice((8, 16, 24)) * GiB,
        )
        grants = {}
        if rng.random() < 0.5:
            pools = cluster.all_pools()
            if pools:
                pool = rng.choice(pools)
                amount = min(pool.free, rng.choice((1, 2, 4)) * GiB)
                if amount > 0:
                    grants[pool.pool_id] = amount
        cluster.allocate_nodes(job.job_id, mask_of(node_ids), min(job.mem_per_node, 16 * GiB))
        if grants:
            cluster.allocate_pool(job.job_id, grants)
        job.state = job.state.__class__.RUNNING
        job.start_time = now - rng.uniform(0.0, walltime * 0.5)
        job.assigned_nodes = list(node_ids)
        job.pool_grants = grants
        job.dilation = rng.choice((0.0, 0.1, 0.25))
        running.append(job)
        job_id += 1
    return running


def _random_reservations(rng: random.Random, cluster: Cluster, now: float):
    out = []
    pools = cluster.all_pools()
    for i in range(rng.randint(0, 5)):
        start = now + rng.uniform(0.0, 3 * HOUR)
        node_count = rng.randint(1, min(4, cluster.num_nodes))
        node_ids = tuple(
            sorted(rng.sample(range(cluster.num_nodes), node_count))
        )
        grants = ()
        if pools and rng.random() < 0.6:
            pool = rng.choice(pools)
            grants = ((pool.pool_id, rng.choice((1, 2, 4)) * GiB),)
        out.append(
            Reservation(
                job_id=2000 + i,
                start=start,
                end=start + rng.uniform(300.0, 2 * HOUR),
                node_mask=mask_of(node_ids),
                pool_grants=grants,
            )
        )
    return out


def _duration_of(job: Job) -> float:
    return job.walltime * (1.0 + job.dilation)


def _pair(rng: random.Random):
    """A (new, oracle) profile pair over identical random state."""
    cluster = _random_cluster(rng)
    now = rng.uniform(0.0, 1000.0)
    running = _random_running(rng, cluster, now)
    new = AvailabilityProfile(cluster, running, now, _duration_of)
    ref = OracleProfile(cluster, running, now, _duration_of)
    for res in _random_reservations(rng, cluster, now):
        new.add_reservation(res)
        ref.add_reservation(res)
    return cluster, now, new, ref


def _probe_times(rng: random.Random, profile, now: float):
    """Grid times, instants inside their epsilon bands, and random
    instants — all at or after ``now`` (scans never look back)."""
    times = list(profile.breakpoints())
    probes = list(times)
    probes += [t + 1e-10 for t in times[:4]]  # inside the epsilon band
    probes += [t - 1e-10 for t in times[1:5]]
    probes += [now + rng.uniform(0.0, 5 * HOUR) for _ in range(8)]
    return probes


def _assert_profiles_agree(rng: random.Random, cluster, now, new, ref):
    assert new.breakpoints() == ref.breakpoints()
    dur = rng.uniform(60.0, 3 * HOUR)
    assert cursor_views(new, dur) == oracle_views(ref, dur)
    after = now + rng.uniform(0.0, HOUR)
    assert cursor_views(new, dur, after=after) == oracle_views(
        ref, dur, after=after
    )
    for t in _probe_times(rng, ref, now):
        assert cursor_free_at(new, t) == ref.free_at(t), f"free_at({t})"
        dur = rng.uniform(60.0, 3 * HOUR)
        assert cursor_window_free(new, t, dur) == ref.window_free(t, dur), (
            f"window_free({t}, {dur})"
        )


ALLOCATORS = {
    "global": GlobalPoolAllocator(),
    "rack": RackLocalAllocator(),
    "hybrid": HybridAllocator(),
}


class TestQueryEquivalence:
    @pytest.mark.parametrize("seed", range(60))
    def test_instant_and_window_queries(self, seed):
        rng = random.Random(1_000 + seed)
        cluster, now, new, ref = _pair(rng)
        _assert_profiles_agree(rng, cluster, now, new, ref)

    @pytest.mark.parametrize("seed", range(60))
    @pytest.mark.parametrize("placement", ["first_fit", "rack_pack",
                                           "min_remote", "spread"])
    def test_earliest_start(self, seed, placement):
        rng = random.Random(7_000 + seed)
        cluster, now, new, ref = _pair(rng)
        pol = placement_for(placement)
        allocator = ALLOCATORS[rng.choice(list(ALLOCATORS))]
        for probe in range(4):
            job = Job(
                job_id=1 + probe,
                submit_time=0.0,
                nodes=rng.randint(1, cluster.num_nodes),
                walltime=rng.uniform(600.0, 6 * HOUR),
                runtime=600.0,
                mem_per_node=rng.choice((8, 16, 24, 32)) * GiB,
            )
            dur = rng.uniform(300.0, 4 * HOUR)
            remote = rng.choice((0, GiB, 4 * GiB, 16 * GiB))
            memory_aware = rng.random() < 0.7
            got = new.earliest_start(
                job, dur, remote, pol, allocator, memory_aware=memory_aware
            )
            want = ref.earliest_start(
                job, dur, remote, pol, allocator, memory_aware=memory_aware
            )
            assert got == want

    @pytest.mark.parametrize("seed", range(20))
    def test_bounded_scan_matches_unbounded_verdict(self, seed):
        """not_after must equal 'scan fully, then compare the start'."""
        rng = random.Random(23_000 + seed)
        cluster, now, new, ref = _pair(rng)
        pol = placement_for("first_fit")
        allocator = ALLOCATORS["global"]
        job = Job(
            job_id=5, submit_time=0.0,
            nodes=rng.randint(1, cluster.num_nodes),
            walltime=HOUR, runtime=HOUR / 2,
            mem_per_node=8 * GiB,
        )
        dur = rng.uniform(300.0, 2 * HOUR)
        cap = now + rng.uniform(0.0, 2 * HOUR)
        bounded = new.earliest_start(
            job, dur, 0, pol, allocator, not_after=cap
        )
        full = ref.earliest_start(job, dur, 0, pol, allocator)
        if bounded is None:
            assert full is None or full.start > cap
        else:
            assert bounded == full
            assert bounded.start <= cap


class TestIncrementalMutation:
    @pytest.mark.parametrize("seed", range(40))
    def test_add_remove_patching(self, seed):
        """Random add/remove sequences leave queries identical."""
        rng = random.Random(11_000 + seed)
        cluster, now, new, ref = _pair(rng)
        extra = _random_reservations(rng, cluster, now)
        held = []
        for res in extra:
            new.add_reservation(res)
            ref.add_reservation(res)
            held.append(res)
            if held and rng.random() < 0.5:
                victim = held.pop(rng.randrange(len(held)))
                new.remove_reservation(victim)
                ref.remove_reservation(victim)
            _assert_profiles_agree(rng, cluster, now, new, ref)

    @pytest.mark.parametrize("seed", range(40))
    def test_apply_start_equals_rebuild(self, seed):
        """apply_start == rebuilding from the post-start cluster."""
        rng = random.Random(17_000 + seed)
        cluster = _random_cluster(rng)
        now = rng.uniform(0.0, 500.0)
        running = _random_running(rng, cluster, now)
        new = AvailabilityProfile(cluster, running, now, _duration_of)
        # Sweep the whole grid first, so the fold patches a cached
        # node/pool prefix instead of an empty one.
        cursor_views(new, HOUR)

        free = ids_of(cluster.free_mask)
        if not free:
            pytest.skip("random state left no free nodes")
        take = rng.randint(1, min(3, len(free)))
        node_ids = tuple(free[:take])
        grants = {}
        pools = cluster.all_pools()
        if pools and rng.random() < 0.6:
            pool = rng.choice(pools)
            amount = min(pool.free, 2 * GiB)
            if amount > 0:
                grants = {pool.pool_id: amount}
        walltime = rng.uniform(600.0, 4 * HOUR)
        job = Job(
            job_id=999,
            submit_time=now,
            nodes=take,
            walltime=walltime,
            runtime=walltime * 0.7,
            mem_per_node=8 * GiB,
        )
        # Mutate cluster the way the engine would, fold into the
        # profile, then compare against a from-scratch build.
        cluster.allocate_nodes(job.job_id, mask_of(node_ids), 8 * GiB)
        if grants:
            cluster.allocate_pool(job.job_id, grants)
        job.state = job.state.__class__.RUNNING
        job.start_time = now
        job.assigned_nodes = list(node_ids)
        job.pool_grants = grants
        job.dilation = rng.choice((0.0, 0.2))
        est_end = job.start_time + _duration_of(job)
        new.apply_start(mask_of(node_ids), grants, est_end)

        running.append(job)
        ref = OracleProfile(cluster, running, now, _duration_of)
        assert new.breakpoints() == ref.breakpoints()
        for t in _probe_times(rng, ref, now):
            assert cursor_free_at(new, t) == ref.free_at(t)
            dur = rng.uniform(60.0, 2 * HOUR)
            assert cursor_window_free(new, t, dur) == ref.window_free(t, dur)

    def test_truncate_reservations_matches_removals(self):
        """truncate_reservations(keep) ≡ remove_reservation over the
        suffix, for every split point — including the no-op (cursor
        kept) and clear-all (O(count)) fast paths."""
        rng = random.Random(4242)
        cluster = Cluster(ClusterSpec(
            num_nodes=8, nodes_per_rack=4,
            node=NodeSpec(local_mem=16 * GiB), pool=PoolSpec(global_pool=64 * GiB),
        ))
        reservations = [
            Reservation(job_id=100 + i,
                        start=50.0 * (i + 1),
                        end=50.0 * (i + 1) + rng.uniform(30.0, 200.0),
                        node_mask=mask_of((i % 8, (i + 3) % 8)),
                        pool_grants=((("global", 1024),) if i % 2 else ()))
            for i in range(5)
        ]
        for keep in range(6):
            truncated = AvailabilityProfile(cluster, [], 0.0, _duration_of)
            removed = AvailabilityProfile(cluster, [], 0.0, _duration_of)
            ref = OracleProfile(cluster, [], 0.0, _duration_of)
            for res in reservations:
                truncated.add_reservation(res)
                removed.add_reservation(res)
            for res in reservations[:keep]:
                ref.add_reservation(res)
            truncated.truncate_reservations(keep)
            for res in reservations[keep:][::-1]:
                removed.remove_reservation(res)
            assert truncated.reservations == removed.reservations
            assert truncated.reservation_count == keep
            assert (truncated.breakpoints() == removed.breakpoints()
                    == ref.breakpoints())
            for t in (0.0, 60.0, 120.0, 180.0, 260.0, 400.0):
                assert cursor_free_at(truncated, t) == ref.free_at(t)
        # The no-op keep >= count leaves a live cursor untouched.
        profile = AvailabilityProfile(cluster, [], 0.0, _duration_of)
        profile.add_reservation(reservations[0])
        cursor = profile.sweep_cursor()
        profile.truncate_reservations(5)
        assert profile.sweep_cursor() is cursor
        profile.truncate_reservations(0)
        assert profile.reservation_count == 0
        assert profile.sweep_cursor() is not cursor

    def test_rebase_reanchors_live_cursor(self):
        """rebase keeps a live cursor and re-anchors its grid: after
        the rebase, cursor scans equal a fresh profile's scans at the
        new instant (states are pure functions of their instant)."""
        cluster = Cluster(ClusterSpec(
            num_nodes=8, nodes_per_rack=4,
            node=NodeSpec(cores=8, local_mem=16 * GiB),
            pool=PoolSpec(global_pool=64 * GiB),
        ))
        jobs = []
        for i, (start, dur) in enumerate([(0.0, 3000.0), (0.0, 7000.0)]):
            job = Job(job_id=1 + i, submit_time=0.0, nodes=2,
                      walltime=dur, runtime=dur, mem_per_node=GiB)
            job.state = job.state.__class__.RUNNING
            job.start_time = start
            job.assigned_nodes = [2 * i, 2 * i + 1]
            jobs.append(job)
        sched = build_scheduler(backfill="conservative")
        allocator = sched.resolve_allocator(cluster)
        queued = Job(job_id=10, submit_time=0.0, nodes=6, walltime=100.0,
                     runtime=50.0, mem_per_node=GiB)
        # 60.0 falls between grid times (fresh anchor state computed);
        # 900.0 *is* a grid time — the reservation's start — so the
        # cursor reuses that state as the new anchor.
        for due in (60.0, 900.0):
            profile = AvailabilityProfile(cluster, jobs, 0.0, _duration_of)
            res = Reservation(7, 900.0, 1000.0, mask_of((0, 1)), ())
            profile.add_reservation(res)
            before = profile.sweep_cursor()
            before.earliest_start(  # materialize deep
                queued, 100.0, 0, sched.placement, allocator)
            assert profile.rebase(due)
            assert profile.sweep_cursor() is before  # re-anchored, kept
            fresh = AvailabilityProfile(cluster, jobs, due, _duration_of)
            fresh.add_reservation(res)
            got = profile.sweep_cursor().earliest_start(
                queued, 100.0, 0, sched.placement, allocator)
            want = fresh.sweep_cursor().earliest_start(
                queued, 100.0, 0, sched.placement, allocator)
            assert got == want
            assert profile.breakpoints() == fresh.breakpoints()

    def test_rebase_refuses_clamped_release(self):
        """A clamped (overrun) release embeds the build-time now; a
        fresh build at a later instant would clamp differently, so
        rebase must refuse (kill_policy='none' corner)."""
        cluster = Cluster(ClusterSpec(
            num_nodes=4, nodes_per_rack=2,
            node=NodeSpec(local_mem=16 * GiB), pool=PoolSpec(),
        ))
        job = Job(job_id=1, submit_time=0.0, nodes=2, walltime=10.0,
                  runtime=5.0, mem_per_node=GiB)
        job.state = job.state.__class__.RUNNING
        job.start_time = -50.0  # overran its estimate long ago
        job.assigned_nodes = [0, 1]
        profile = AvailabilityProfile(cluster, [job], 0.0, _duration_of)
        # Clamped release sits at now + 1.0 = 1.0.
        assert profile.breakpoints() == [0.0, 1.0]
        assert not profile.rebase(0.5)
        fresh = AvailabilityProfile(cluster, [job], 0.5, _duration_of)
        assert fresh.breakpoints() == [0.5, 1.5]  # re-clamped

    def test_fits_machine_static_and_memo_safe(self):
        """fits_machine is an empty-machine hypothetical: its verdict
        must not depend on live pool state (min_remote's ordering now
        receives the capacity hint), so memoizing it is sound."""
        spec = ClusterSpec(
            name="uneven", num_nodes=20, nodes_per_rack=16,
            node=NodeSpec(cores=8, local_mem=16 * GiB),
            pool=PoolSpec(rack_pool=48 * GiB),
        )
        cluster = Cluster(spec)
        sched = build_scheduler(placement="min_remote", allocator="rack")
        job = Job(job_id=1, submit_time=0.0, nodes=16, walltime=100.0,
                  runtime=50.0, mem_per_node=20 * GiB)  # 4 GiB remote/node
        first = sched.fits_machine(job, cluster)
        # Draining a pool must not change the verdict (cached or not).
        cluster.allocate_pool(99, {"rack0": 40 * GiB})
        assert sched.fits_machine(job, cluster) == first
        fresh = build_scheduler(placement="min_remote", allocator="rack")
        assert fresh.fits_machine(job, cluster) == first
        cluster.release_pool(99)
        assert sched.fits_machine(job, cluster) == first

    def test_rebase_refuses_stale_state(self):
        cluster = Cluster(ClusterSpec(
            num_nodes=4, nodes_per_rack=2,
            node=NodeSpec(local_mem=16 * GiB), pool=PoolSpec(),
        ))
        job = Job(job_id=1, submit_time=0.0, nodes=2, walltime=100.0,
                  runtime=50.0, mem_per_node=GiB)
        job.state = job.state.__class__.RUNNING
        job.start_time = 0.0
        job.assigned_nodes = [0, 1]
        profile = AvailabilityProfile(cluster, [job], 0.0, _duration_of)
        assert profile.rebase(50.0)  # release at 100 is still ahead
        assert profile.now == 50.0
        assert not profile.rebase(150.0)  # would skip the release
        assert profile.now == 50.0
        assert not profile.rebase(10.0)  # going backwards
        # Reservations survive a rebase (the retained-plan contract):
        # afterwards the profile equals a fresh build at the new
        # instant plus the same reservations re-added in order.
        res = Reservation(2, 60.0, 70.0, mask_of((2,)), ())
        profile.add_reservation(res)
        assert profile.rebase(55.0)
        assert profile.now == 55.0
        assert profile.reservations == [res]
        ref = OracleProfile(cluster, [job], 55.0, _duration_of)
        ref.add_reservation(res)
        for t in (55.0, 60.0, 65.0, 70.0, 100.0, 120.0):
            assert cursor_free_at(profile, t) == ref.free_at(t)
        profile.remove_reservation(res)
        assert profile.rebase(56.0)


# ----------------------------------------------------------------------
# end-to-end schedule anchoring (pinned golden digests)
# ----------------------------------------------------------------------


def _random_jobs(rng: random.Random, num_jobs: int, max_nodes: int):
    jobs = []
    t = 0.0
    for job_id in range(1, num_jobs + 1):
        t += rng.expovariate(1.0 / 400.0)
        walltime = rng.uniform(300.0, 6 * HOUR)
        jobs.append(Job(
            job_id=job_id,
            submit_time=round(t, 3),
            nodes=rng.randint(1, max_nodes),
            walltime=walltime,
            runtime=walltime * rng.uniform(0.2, 1.0),
            mem_per_node=rng.choice((4, 8, 16, 24, 32)) * GiB,
            user=f"user{rng.randint(0, 3)}",
        ))
    return jobs


def _cluster_spec(kind: str) -> ClusterSpec:
    if kind == "thin-global":
        return ClusterSpec(
            name=kind, num_nodes=16, nodes_per_rack=8,
            node=NodeSpec(cores=8, local_mem=16 * GiB),
            pool=PoolSpec(global_pool=128 * GiB),
        )
    if kind == "thin-hybrid":
        return ClusterSpec(
            name=kind, num_nodes=16, nodes_per_rack=4,
            node=NodeSpec(cores=8, local_mem=16 * GiB),
            pool=PoolSpec(rack_pool=32 * GiB, global_pool=64 * GiB),
        )
    if kind == "metered":
        # Finite bandwidth: exercises pressure gates and the
        # shadow-at-now corner of the EASY shadow cache.
        return ClusterSpec(
            name=kind, num_nodes=16, nodes_per_rack=8,
            node=NodeSpec(cores=8, local_mem=16 * GiB),
            pool=PoolSpec(global_pool=128 * GiB, global_bandwidth=64 * 1024.0),
        )
    raise AssertionError(kind)


def _run_one(spec, jobs, scheduler):
    sim = SchedulerSimulation(
        Cluster(spec), scheduler, [job.copy_request() for job in jobs]
    )
    return sim.run()


QUEUES = ["fcfs", "sjf", "wfp"]
BACKFILLS = ["easy", "conservative", "none"]
CLUSTERS = ["thin-global", "thin-hybrid"]


def _base_case(seed, queue, backfill, cluster_kind, memory_aware):
    token = f"{seed}-{queue}-{backfill}-{cluster_kind}-{memory_aware}"
    rng = random.Random(zlib.crc32(token.encode()))
    jobs = _random_jobs(rng, num_jobs=40, max_nodes=12)
    spec = _cluster_spec(cluster_kind)
    kwargs = dict(
        queue=queue, backfill=backfill,
        penalty={"kind": "linear", "beta": 0.3},
        memory_aware=memory_aware,
    )
    return token, lambda: _run_one(spec, jobs, build_scheduler(**kwargs))


def _gated_case(seed, gate):
    token = f"gate-{seed}-{gate}"
    rng = random.Random(31_000 + seed)
    jobs = _random_jobs(rng, num_jobs=40, max_nodes=12)
    spec = _cluster_spec("metered")
    kwargs = dict(
        queue="fcfs", backfill="easy", gate=gate,
        penalty={"kind": "contention", "beta": 0.3, "kappa": 2.0},
    )
    return token, lambda: _run_one(spec, jobs, build_scheduler(**kwargs))


def _overrun_case(seed, backfill):
    token = f"overrun-{seed}-{backfill}"
    rng = random.Random(41_000 + seed)
    jobs = []
    t = 0.0
    for job_id in range(1, 41):
        t += rng.expovariate(1.0 / 400.0)
        walltime = rng.uniform(300.0, 2 * HOUR)
        jobs.append(Job(
            job_id=job_id, submit_time=round(t, 3),
            nodes=rng.randint(1, 12), walltime=walltime,
            runtime=walltime * rng.uniform(0.5, 2.0),  # overruns!
            mem_per_node=rng.choice((4, 8, 16, 24)) * GiB,
        ))
    spec = _cluster_spec("thin-global")
    kwargs = dict(
        queue="fcfs", backfill=backfill, kill_policy="none",
        penalty={"kind": "linear", "beta": 0.3},
    )
    return token, lambda: _run_one(spec, jobs, build_scheduler(**kwargs))


def _fairshare_case(seed, backfill):
    token = f"fairshare-{seed}-{backfill}"
    rng = random.Random(37_000 + seed)
    jobs = _random_jobs(rng, num_jobs=40, max_nodes=12)
    spec = _cluster_spec("thin-global")
    kwargs = dict(
        queue="fairshare", backfill=backfill,
        penalty={"kind": "linear", "beta": 0.3},
    )
    return token, lambda: _run_one(spec, jobs, build_scheduler(**kwargs))


def golden_cases():
    """Every end-to-end case in this suite, for tools/gen_golden.py."""
    for seed in range(6):
        for queue in QUEUES:
            for backfill in BACKFILLS:
                for cluster_kind in CLUSTERS:
                    for memory_aware in (True, False):
                        yield _base_case(
                            seed, queue, backfill, cluster_kind, memory_aware
                        )
    for seed in range(6):
        for gate in ("pressure", "adaptive"):
            yield _gated_case(seed, gate)
    for seed in range(6):
        for backfill in ("easy", "conservative"):
            yield _overrun_case(seed, backfill)
    for seed in range(4):
        for backfill in ("easy", "none"):
            yield _fairshare_case(seed, backfill)


class TestEndToEndGolden:
    """216 base combos (6 seeds × 3 queues × 3 backfills × 2 clusters
    × 2 memory-awareness modes) plus the gate, overrun, and fair-share
    specials — each runs the optimized stack and requires its full
    decision digest to match the pinned golden baseline."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("queue", QUEUES)
    @pytest.mark.parametrize("backfill", BACKFILLS)
    @pytest.mark.parametrize("cluster_kind", CLUSTERS)
    @pytest.mark.parametrize("memory_aware", [True, False])
    def test_schedules_match_golden(
        self, seed, queue, backfill, cluster_kind, memory_aware
    ):
        token, run = _base_case(seed, queue, backfill, cluster_kind, memory_aware)
        assert_matches_golden(GOLDEN, token, run())

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("gate", ["pressure", "adaptive"])
    def test_gated_schedules_match_golden(self, seed, gate):
        """Gates can veto at-now starts, the corner the EASY shadow
        cache must never reuse across."""
        token, run = _gated_case(seed, gate)
        assert_matches_golden(GOLDEN, token, run())

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("backfill", ["easy", "conservative"])
    def test_overrun_schedules_match_golden(self, seed, backfill):
        """kill_policy='none' with overrunning jobs exercises the
        overrun clamp — the corner where a cached profile must refuse
        to rebase."""
        token, run = _overrun_case(seed, backfill)
        assert_matches_golden(GOLDEN, token, run())

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("backfill", ["easy", "none"])
    def test_fairshare_schedules_match_golden(self, seed, backfill):
        """Fair-share keeps order() side effects; the stateless fast
        paths must not change when it observes the queue."""
        token, run = _fairshare_case(seed, backfill)
        assert_matches_golden(GOLDEN, token, run())
