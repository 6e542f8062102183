"""Release folding: incremental ``apply_release`` == fresh rebuild.

Three layers:

* unit — on randomized clusters, completing running jobs one by one
  (in arbitrary order, interleaved with ``apply_start`` folds) keeps
  every cursor state bit-identical to a from-scratch rebuild's, and
  every availability view the cursor offers equal to the brute-force
  oracle's (``_oracles.py``);
* refusal — clamped (overrun) profiles and unknown entries must leave
  the profile untouched and report failure, because a wrong fold
  would silently corrupt every later pass;
* engine differential — entire simulations with the release-
  notification hook disabled (forcing the pre-folding rebuild path)
  produce schedules identical to the folding fast path, for both EASY
  and conservative backfill, across kill policies.
"""

from __future__ import annotations

import random

import pytest

from repro.cluster import Cluster, ClusterSpec, NodeSpec, PoolSpec
from repro.cluster.masks import ids_of, mask_of
from repro.engine.simulation import SchedulerSimulation
from repro.sched import AvailabilityProfile
from repro.sched.base import Scheduler, SchedulerContext, build_scheduler
from repro.units import GiB, HOUR
from repro.workload import Job, JobState

from ._cursor_views import (
    cursor_free_at,
    cursor_views,
    cursor_window_free,
    oracle_views,
)
from ._oracles import OracleProfile, cursor_free_nodes


def _duration_of(job: Job) -> float:
    return job.walltime * (1.0 + job.dilation)


def _cluster(rng: random.Random) -> Cluster:
    kind = rng.choice(("global", "rack", "hybrid", "none"))
    pool = PoolSpec()
    if kind == "global":
        pool = PoolSpec(global_pool=96 * GiB)
    elif kind == "rack":
        pool = PoolSpec(rack_pool=48 * GiB)
    elif kind == "hybrid":
        pool = PoolSpec(rack_pool=32 * GiB, global_pool=64 * GiB)
    return Cluster(ClusterSpec(
        name=f"fold-{kind}", num_nodes=12, nodes_per_rack=4,
        node=NodeSpec(cores=8, local_mem=16 * GiB), pool=pool,
    ))


def _start_running_job(rng, cluster, job_id, now):
    free = ids_of(cluster.free_mask)
    if not free:
        return None
    take = rng.randint(1, min(3, len(free)))
    node_ids = free[:take]
    walltime = rng.uniform(600.0, 4 * HOUR)
    job = Job(job_id=job_id, submit_time=0.0, nodes=take,
              walltime=walltime, runtime=walltime * rng.uniform(0.3, 0.9),
              mem_per_node=rng.choice((8, 16, 24)) * GiB)
    grants = {}
    pools = cluster.all_pools()
    if pools and rng.random() < 0.6:
        pool = rng.choice(pools)
        amount = min(pool.free, rng.choice((1, 2, 4)) * GiB)
        if amount > 0:
            grants[pool.pool_id] = amount
    cluster.allocate_nodes(job.job_id, mask_of(node_ids), min(job.mem_per_node, 16 * GiB))
    if grants:
        cluster.allocate_pool(job.job_id, grants)
    job.state = JobState.RUNNING
    job.start_time = now - rng.uniform(0.0, walltime * 0.4)
    job.assigned_nodes = list(node_ids)
    job.pool_grants = grants
    job.dilation = rng.choice((0.0, 0.1, 0.25))
    return job


def _probe_times(rng, profile, now):
    times = list(profile.breakpoints())
    probes = list(times)
    probes += [t + 1e-10 for t in times[:4]]
    probes += [t - 1e-10 for t in times[1:5]]
    probes += [now + rng.uniform(0.0, 5 * HOUR) for _ in range(6)]
    return probes


def _assert_equals_rebuild(rng, cluster, running, now, profile):
    fresh = AvailabilityProfile(cluster, running, now, _duration_of)
    ref = OracleProfile(cluster, running, now, _duration_of)
    assert profile.breakpoints() == fresh.breakpoints() == ref.breakpoints()
    _assert_cursor_equals_rebuild(profile, fresh, ref)
    dur = rng.uniform(60.0, 2 * HOUR)
    assert cursor_views(profile, dur) == oracle_views(ref, dur)
    for t in _probe_times(rng, ref, now):
        assert cursor_free_at(profile, t) == ref.free_at(t)
        dur = rng.uniform(60.0, 2 * HOUR)
        assert cursor_window_free(profile, t, dur) == ref.window_free(t, dur)


def _materialize_random_prefix(rng, profile):
    """Force a live cursor with a random materialized depth before a
    fold, so a pre-fold cursor leaking past the fold would surface in
    the state-by-state comparison."""
    cursor = profile.sweep_cursor()
    depth = rng.randint(0, len(cursor._times))
    if depth:
        cursor._materialize_to(depth - 1)


def _assert_cursor_equals_rebuild(profile, fresh, ref):
    """After a fold, the profile's cursor must equal a fresh build's
    cursor state by state, not just on query results: at every
    breakpoint the grid time, free-node mask, count, and release-
    timeline index match, and the state decodes to exactly the
    oracle's free set at that instant."""
    assert profile._cursor is None, "fold left the pre-fold cursor live"
    cursor = profile.sweep_cursor()
    rebuilt = fresh.sweep_cursor()
    assert cursor._times == rebuilt._times
    last = len(rebuilt._times) - 1
    cursor._materialize_to(last)
    rebuilt._materialize_to(last)
    for j, t in enumerate(rebuilt._times):
        assert (cursor._free[j], cursor._counts[j], cursor._k[j]) == (
            rebuilt._free[j], rebuilt._counts[j], rebuilt._k[j]
        ), f"cursor state at breakpoint {t} differs from a fresh build"
        want = ref.free_at(t)[0]
        assert cursor_free_nodes(cursor, j) == want, f"state at {t} decodes wrong"
        assert cursor._counts[j] == len(want), f"count at {t}"


class TestApplyReleaseUnit:
    @pytest.mark.parametrize("seed", range(30))
    def test_fold_every_completion_equals_rebuild(self, seed):
        """Complete running jobs in random order; after every fold the
        profile must equal a from-scratch rebuild (and the reference)
        at the same instant."""
        rng = random.Random(50_000 + seed)
        cluster = _cluster(rng)
        now = rng.uniform(0.0, 500.0)
        running = []
        for i in range(rng.randint(2, 5)):
            job = _start_running_job(rng, cluster, 500 + i, now)
            if job is not None:
                running.append(job)
        if not running:
            pytest.skip("random state started nothing")
        profile = AvailabilityProfile(cluster, running, now, _duration_of)

        while running:
            _materialize_random_prefix(rng, profile)
            victim = running.pop(rng.randrange(len(running)))
            cluster.release_nodes(victim.job_id)
            cluster.release_pool(victim.job_id)
            est_end = victim.start_time + _duration_of(victim)
            assert profile.apply_release(
                mask_of(victim.assigned_nodes), victim.pool_grants, est_end
            )
            _assert_equals_rebuild(rng, cluster, running, now, profile)

    @pytest.mark.parametrize("seed", range(15))
    def test_folds_interleaved_with_starts(self, seed):
        """apply_start and apply_release interleave (a busy instant):
        the profile must track the live cluster exactly throughout."""
        rng = random.Random(60_000 + seed)
        cluster = _cluster(rng)
        now = rng.uniform(0.0, 300.0)
        running = []
        next_id = 700
        for i in range(3):
            job = _start_running_job(rng, cluster, next_id, now)
            next_id += 1
            if job is not None:
                running.append(job)
        profile = AvailabilityProfile(cluster, running, now, _duration_of)

        for _ in range(6):
            _materialize_random_prefix(rng, profile)
            if running and rng.random() < 0.5:
                victim = running.pop(rng.randrange(len(running)))
                cluster.release_nodes(victim.job_id)
                cluster.release_pool(victim.job_id)
                est_end = victim.start_time + _duration_of(victim)
                assert profile.apply_release(
                    mask_of(victim.assigned_nodes), victim.pool_grants, est_end
                )
            else:
                job = _start_running_job(rng, cluster, next_id, now)
                next_id += 1
                if job is None:
                    continue
                job.start_time = now  # a mid-pass start happens *now*
                running.append(job)
                profile.apply_start(
                    mask_of(job.assigned_nodes), job.pool_grants,
                    job.start_time + _duration_of(job),
                )
            _assert_equals_rebuild(rng, cluster, running, now, profile)

    def test_refuses_clamped_profile(self):
        """A clamped (overrun) release embeds the build instant; any
        fold on such a profile must refuse and leave it untouched."""
        cluster = Cluster(ClusterSpec(
            num_nodes=4, nodes_per_rack=2,
            node=NodeSpec(local_mem=16 * GiB), pool=PoolSpec(),
        ))
        job = Job(job_id=1, submit_time=0.0, nodes=2, walltime=10.0,
                  runtime=5.0, mem_per_node=GiB)
        job.state = JobState.RUNNING
        job.start_time = -50.0  # overran long ago -> clamped release
        job.assigned_nodes = [0, 1]
        job.pool_grants = {}
        profile = AvailabilityProfile(cluster, [job], 0.0, _duration_of)
        before = profile.breakpoints()
        assert not profile.apply_release(mask_of([0, 1]), {}, -40.0)
        assert not profile.apply_release(mask_of([0, 1]), {}, 1.0)
        assert profile.breakpoints() == before

    def test_refuses_unknown_entry(self):
        cluster = Cluster(ClusterSpec(
            num_nodes=4, nodes_per_rack=2,
            node=NodeSpec(local_mem=16 * GiB), pool=PoolSpec(),
        ))
        job = Job(job_id=1, submit_time=0.0, nodes=2, walltime=100.0,
                  runtime=50.0, mem_per_node=GiB)
        job.state = JobState.RUNNING
        job.start_time = 0.0
        job.assigned_nodes = [0, 1]
        job.pool_grants = {}
        profile = AvailabilityProfile(cluster, [job], 0.0, _duration_of)
        mutations = profile.mutation_count
        # Wrong time, wrong nodes, wrong grants: all refused untouched.
        assert not profile.apply_release(mask_of([0, 1]), {}, 99.0)
        assert not profile.apply_release(mask_of([0, 2]), {}, 100.0)
        assert not profile.apply_release(mask_of([0, 1]), {"global": GiB}, 100.0)
        assert profile.mutation_count == mutations
        assert profile.breakpoints() == [0.0, 100.0]
        # The real entry folds fine afterwards.
        assert profile.apply_release(mask_of([0, 1]), {}, 100.0)
        assert profile.breakpoints() == [0.0]


# ----------------------------------------------------------------------
# engine differential: folding on vs off
# ----------------------------------------------------------------------


def _random_jobs(rng, num_jobs=40, overrun=False):
    jobs = []
    t = 0.0
    high = 1.6 if overrun else 1.0
    for job_id in range(1, num_jobs + 1):
        t += rng.expovariate(1.0 / 350.0)
        walltime = rng.uniform(300.0, 5 * HOUR)
        jobs.append(Job(
            job_id=job_id, submit_time=round(t, 3),
            nodes=rng.randint(1, 10), walltime=walltime,
            runtime=walltime * rng.uniform(0.2, high),
            mem_per_node=rng.choice((4, 8, 16, 24)) * GiB,
        ))
    return jobs


def _spec():
    return ClusterSpec(
        name="fold-e2e", num_nodes=16, nodes_per_rack=8,
        node=NodeSpec(cores=8, local_mem=16 * GiB),
        pool=PoolSpec(global_pool=128 * GiB),
    )


def _schedule_record(result):
    return [
        (job.job_id, job.state.value, job.start_time, job.end_time,
         tuple(job.assigned_nodes), tuple(sorted(job.pool_grants.items())),
         job.dilation)
        for job in sorted(result.jobs, key=lambda j: j.job_id)
    ]


class _DeafScheduler(Scheduler):
    """A scheduler that never hears about releases: every completion
    forces the pre-folding rebuild path."""

    def notify_release(self, cluster, job, now, version_before, node_mask):
        return None


def _deaf(**kwargs) -> Scheduler:
    stock = build_scheduler(**kwargs)
    return _DeafScheduler(
        queue_policy=stock.queue_policy,
        backfill=type(stock.backfill)(**_backfill_kwargs(stock.backfill)),
        placement=stock.placement,
        split_policy=stock.split_policy,
        allocator=stock._allocator,
        penalty=stock.penalty,
        gate=stock.gate,
        kill_policy=stock.kill_policy,
    )


def _backfill_kwargs(backfill):
    if backfill.name == "easy":
        return {"depth": backfill.depth, "memory_aware": backfill.memory_aware}
    if backfill.name == "conservative":
        return {"depth": backfill.depth}
    return {}


class TestEngineFoldingDifferential:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("backfill", ["easy", "conservative"])
    def test_folding_is_pure_optimization(self, seed, backfill):
        rng = random.Random(70_000 + seed)
        jobs = _random_jobs(rng)
        kwargs = dict(backfill=backfill,
                      penalty={"kind": "linear", "beta": 0.3})
        fold = SchedulerSimulation(
            Cluster(_spec()), build_scheduler(**kwargs),
            [j.copy_request() for j in jobs],
        ).run()
        deaf = SchedulerSimulation(
            Cluster(_spec()), _deaf(**kwargs),
            [j.copy_request() for j in jobs],
        ).run()
        assert _schedule_record(fold) == _schedule_record(deaf)
        assert fold.promises == deaf.promises
        assert fold.cycles == deaf.cycles

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("backfill", ["easy", "conservative"])
    def test_folding_with_overruns(self, seed, backfill):
        """kill=none overruns clamp releases: folds must refuse and
        fall back, still matching the rebuild path end to end."""
        rng = random.Random(80_000 + seed)
        jobs = _random_jobs(rng, overrun=True)
        kwargs = dict(backfill=backfill, kill_policy="none",
                      penalty={"kind": "linear", "beta": 0.3})
        fold = SchedulerSimulation(
            Cluster(_spec()), build_scheduler(**kwargs),
            [j.copy_request() for j in jobs],
        ).run()
        deaf = SchedulerSimulation(
            Cluster(_spec()), _deaf(**kwargs),
            [j.copy_request() for j in jobs],
        ).run()
        assert _schedule_record(fold) == _schedule_record(deaf)
        assert fold.promises == deaf.promises


# ---------------------------------------------------------------------------
# The EASY shadow cache across completion folds: a fold bumps the
# profile's mutation count, so the next pass rescans the head, and the
# rescanned shadow always equals what a from-scratch pass would answer.
# ---------------------------------------------------------------------------

def _shadow_cluster(pool: int = 64 * GiB) -> Cluster:
    return Cluster(ClusterSpec(
        name="shadow", num_nodes=8, nodes_per_rack=8,
        node=NodeSpec(cores=8, local_mem=16 * GiB),
        pool=PoolSpec(global_pool=pool),
    ))


def _shadow_running(cluster, job_id, node_ids, walltime, pool=0):
    job = Job(job_id=job_id, submit_time=0.0, nodes=len(node_ids),
              walltime=walltime, runtime=walltime, mem_per_node=8 * GiB)
    cluster.allocate_nodes(job_id, mask_of(node_ids), 8 * GiB)
    grants = {}
    if pool:
        grants = {"global": pool}
        cluster.allocate_pool(job_id, grants)
    job.state = JobState.RUNNING
    job.start_time = 0.0
    job.assigned_nodes = list(node_ids)
    job.pool_grants = grants
    job.dilation = 0.0
    return job


def _shadow_head(nodes, mem=8 * GiB):
    return Job(job_id=500, submit_time=0.0, nodes=nodes, walltime=HOUR,
               runtime=HOUR, mem_per_node=mem)


def _shadow_ctx(cluster, queue, running, now):
    return SchedulerContext(cluster=cluster, now=now, queue=queue,
                            running=running, start_job=lambda d: None)


def _complete(sched, cluster, job, running, now):
    """Engine-faithful completion: resources released first, then the
    notification hook, with the pre-release version stamp."""
    version_before = cluster.version
    node_mask = cluster.release_nodes(job.job_id)
    cluster.release_pool(job.job_id)
    running.remove(job)
    return sched.backfill.on_release(
        sched, cluster, job, now, version_before, node_mask
    )


def _fresh_shadow(cluster, running, head, now):
    """What a from-scratch EASY pass would answer for the head."""
    sched = build_scheduler(backfill="easy")
    ctx = _shadow_ctx(cluster, [head], running, now)
    _profile, _split, _dur, shadow = sched.backfill._shadow_of(
        ctx, sched, head)
    return shadow


def _scenario(name):
    """(cluster, running, head, expected shadow, completion order)."""
    if name == "fold-below-demand":
        cluster = _shadow_cluster()
        running = [
            _shadow_running(cluster, 1, (0, 1, 2, 3), 600.0),
            _shadow_running(cluster, 2, (4, 5), 1200.0),
        ]
        return cluster, running, _shadow_head(6), 600.0, (1,)
    if name == "fold-breaching-demand":
        cluster = _shadow_cluster()
        running = [
            _shadow_running(cluster, 1, (0, 1, 2), 500.0),
            _shadow_running(cluster, 2, (3, 4, 5), 900.0),
        ]
        return cluster, running, _shadow_head(6), 900.0, (0,)
    if name == "coincident-fold":
        # Two releases share the shadow instant; one of them folds.
        cluster = _shadow_cluster()
        running = [
            _shadow_running(cluster, 1, (0,), 600.0),
            _shadow_running(cluster, 2, (1, 2, 3), 600.0),
            _shadow_running(cluster, 3, (4, 5), 4 * HOUR),
        ]
        return cluster, running, _shadow_head(4), 600.0, (0,)
    if name == "pool-rejecting-scan":
        # 24 GiB per node on 16 GiB nodes: 8 GiB remote each.  At the
        # anchor two nodes are free but the pool is exhausted — a pure
        # pool-capacity rejection; then a node-only and a
        # pool-carrying fold.
        cluster = _shadow_cluster(pool=16 * GiB)
        running = [
            _shadow_running(cluster, 1, (0, 1, 2, 3, 4), 600.0,
                            pool=16 * GiB),
            _shadow_running(cluster, 2, (5,), 1200.0),
        ]
        return cluster, running, _shadow_head(2, mem=24 * GiB), 600.0, (1, 0)
    if name == "head-never-fits":
        cluster = _shadow_cluster()
        running = [
            _shadow_running(cluster, 1, (0, 1, 2, 3), 600.0),
            _shadow_running(cluster, 2, (4, 5), 1200.0),
        ]
        return cluster, running, _shadow_head(20), None, (0, 0)
    raise KeyError(name)


class TestShadowAcrossFolds:
    @pytest.mark.parametrize("name", [
        "fold-below-demand", "fold-breaching-demand", "coincident-fold",
        "pool-rejecting-scan", "head-never-fits",
    ])
    def test_shadow_after_folds_equals_fresh_pass(self, name):
        """After every completion fold the next pass rescans the head
        (the fold bumped the mutation count) and the shadow equals a
        from-scratch pass at the same instant."""
        cluster, running, head, expected, order = _scenario(name)
        sched = build_scheduler(backfill="easy")
        ctx = _shadow_ctx(cluster, [head], running, 0.0)
        *_, shadow = sched.backfill._shadow_of(ctx, sched, head)
        assert shadow == expected
        stats = sched.backfill.shadow_stats
        for step, index in enumerate(order, start=1):
            now = 10.0 * step
            victim = running[index]
            folded = _complete(sched, cluster, victim, running, now)
            assert folded == victim.start_time + victim.walltime
            ctx = _shadow_ctx(cluster, [head], running, now)
            *_, again = sched.backfill._shadow_of(ctx, sched, head)
            assert again == _fresh_shadow(cluster, running, head, now)
            assert stats == {"reused": 0, "recompute": 1 + step}

    def test_unfolded_shadow_is_reused(self):
        """Without a fold the cached shadow survives a later instant."""
        cluster, running, head, expected, _ = _scenario("fold-below-demand")
        sched = build_scheduler(backfill="easy")
        for now in (0.0, 10.0):
            ctx = _shadow_ctx(cluster, [head], running, now)
            *_, shadow = sched.backfill._shadow_of(ctx, sched, head)
            assert shadow == expected
        assert sched.backfill.shadow_stats == {"reused": 1, "recompute": 1}

    @pytest.mark.parametrize("seed", range(4))
    def test_strategy_stats_surface_shadow_counters(self, seed):
        """In real simulations the counters the engine reports are the
        strategy's own, and the head is actually rescanned."""
        rng = random.Random(90_000 + seed)
        jobs = _random_jobs(rng)
        sched = build_scheduler(backfill="easy",
                                penalty={"kind": "linear", "beta": 0.3})
        result = SchedulerSimulation(
            Cluster(_spec()), sched, [j.copy_request() for j in jobs],
        ).run()
        stats = result.strategy_stats["shadow"]
        assert stats == sched.backfill.shadow_stats
        assert stats["recompute"] > 0
