"""Sweep-cursor scans across interleaved reservation edits and folds.

The cursor keeps its materialized states exact across reservation
edits and is dropped by the release folds (``apply_start`` /
``apply_release``), so a caller holding one across a fold must
re-fetch it.  Two layers pin that contract:

* differential scripts — a seeded RNG drives one interleaved
  scan/add/remove/fold sequence; every cursor scan (plain, ``after=``,
  ``not_after=`` and trial-overlay flavours) must match the
  brute-force :class:`OracleProfile` and equal a scan on a
  from-scratch rebuild of the same world (the trial added as a real
  reservation), its rejection statistic must equal a fresh cursor's,
  and every materialized cursor state must decode to the oracle's
  free set;
* lifecycle units — which mutations keep the cursor object live and
  which drop it.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.cluster import Cluster, ClusterSpec, NodeSpec, PoolSpec
from repro.cluster.masks import ids_of, mask_of
from repro.memdis import GlobalPoolAllocator
from repro.sched import AvailabilityProfile, FirstFitPlacement, Reservation
from repro.units import GiB, HOUR
from repro.workload import Job, JobState

from ._oracles import OracleProfile, cursor_free_nodes

_POOL_KINDS = ("hybrid", "global", "rack", "none")


def _dur(job: Job) -> float:
    return job.walltime


#: Node count of the wide topology: the cursor's node bitmasks then
#: span more than two 64-bit machine words (ids pass 64 and 128).
_WIDE = 200


def _cluster(kind: str = "hybrid", num_nodes: int = 10) -> Cluster:
    pool = {
        "hybrid": PoolSpec(rack_pool=24 * GiB, global_pool=48 * GiB),
        "global": PoolSpec(global_pool=64 * GiB),
        "rack": PoolSpec(rack_pool=32 * GiB),
        "none": PoolSpec(),
    }[kind]
    return Cluster(ClusterSpec(
        name=f"scan-{kind}", num_nodes=num_nodes, nodes_per_rack=5,
        node=NodeSpec(cores=8, local_mem=16 * GiB), pool=pool,
    ))


def _start_job(rng, cluster, job_id, now):
    free = ids_of(cluster.free_mask)
    if not free:
        return None
    # Up to 3 nodes on the 10-node machine, scaled with the width.
    take = rng.randint(1, min(3 * cluster.num_nodes // 10, len(free)))
    node_ids = free[:take]
    walltime = rng.choice((600.0, 1800.0, HOUR, 2 * HOUR, math.inf))
    job = Job(job_id=job_id, submit_time=0.0, nodes=take,
              walltime=walltime, runtime=walltime,
              mem_per_node=8 * GiB)
    grants = {}
    pools = cluster.all_pools()
    if pools and rng.random() < 0.5:
        pool = rng.choice(pools)
        amount = min(pool.free, rng.choice((1, 2, 4)) * GiB)
        if amount > 0:
            grants[pool.pool_id] = amount
    cluster.allocate_nodes(job.job_id, mask_of(node_ids), 8 * GiB)
    if grants:
        cluster.allocate_pool(job.job_id, grants)
    job.state = JobState.RUNNING
    job.start_time = now - rng.uniform(0.0, 500.0)
    job.assigned_nodes = list(node_ids)
    job.pool_grants = grants
    job.dilation = 0.0
    return job


def _rebuild(cluster, running, now, held, trial):
    """A from-scratch profile and oracle of the current world: the
    held reservations re-added in their surviving insertion order,
    then the trial (the overlay's add/query/remove equivalent)."""
    fresh = AvailabilityProfile(cluster, running, now, _dur)
    ref = OracleProfile(cluster, running, now, _dur)
    for res in held + ([trial] if trial is not None else []):
        fresh.add_reservation(res)
        ref.add_reservation(res)
    return fresh, ref


def _oracle(cluster, running, now, held):
    """The oracle of the current world, without any trial."""
    ref = OracleProfile(cluster, running, now, _dur)
    for res in held:
        ref.add_reservation(res)
    return ref


def _assert_states_decode(ref, cursor, where: str) -> None:
    """Every materialized cursor state decodes to exactly the oracle's
    free-node set at its grid time, and its count is that set's
    size."""
    for j in range(len(cursor._free)):
        want = ref.free_at(cursor._times[j])[0]
        got = cursor_free_nodes(cursor, j)
        assert got == want, f"{where}: state {j} decodes wrong"
        assert cursor._counts[j] == len(want), f"{where}: count {j}"


def _run_script(seed: int, kind: str, num_nodes: int = 10) -> int:
    """Run one seeded interleaved scan/mutate/fold script, checking
    every scan as it goes; returns the number of scans checked.

    Every random size is scaled to ``num_nodes``; at the default 10
    nodes the draws are exactly the original script's."""
    rng = random.Random(seed)
    cluster = _cluster(kind, num_nodes)
    now = rng.uniform(0.0, 300.0)
    running = []
    for i in range(rng.randint(1, 4)):
        job = _start_job(rng, cluster, 800 + i, now)
        if job is not None:
            running.append(job)
    profile = AvailabilityProfile(cluster, running, now, _dur)
    cursor = profile.sweep_cursor()
    placement = FirstFitPlacement()
    allocator = GlobalPoolAllocator()
    held = []
    next_id = 900
    scans = 0
    for step in range(14):
        roll = rng.random()
        if roll < 0.55:
            nodes = rng.randint(1, num_nodes)
            duration = rng.choice((300.0, 900.0, HOUR))
            remote = rng.choice((0, 0, 2, 4)) * GiB
            job = Job(job_id=1, submit_time=0.0, nodes=nodes,
                      walltime=duration * 2, runtime=duration,
                      mem_per_node=16 * GiB + remote)
            after = not_after = trial = None
            flavor = rng.random()
            if flavor < 0.25:
                not_after = now + rng.choice((0.0, 600.0, HOUR))
            elif flavor < 0.45:
                after = now + rng.uniform(0.0, HOUR)
            elif flavor < 0.7:
                base = sorted(
                    _oracle(cluster, running, now, held).free_at(now)[0])
                if base:
                    take = base[: rng.randint(1, len(base))]
                    trial = Reservation(
                        job_id=2, start=now,
                        end=now + rng.choice((600.0, HOUR)),
                        node_mask=mask_of(take), pool_grants=(),
                    )
                    not_after = now + rng.choice((600.0, HOUR))
            got = cursor.earliest_start(
                job, duration, remote, placement, allocator,
                after=after, not_after=not_after, trial=trial)
            fresh, ref = _rebuild(cluster, running, now, held, trial)
            want = fresh.earliest_start(
                job, duration, remote, placement, allocator,
                after=after, not_after=not_after)
            assert got == want, f"step {step}: cursor scan != rebuild"
            # The long-lived cursor must answer what a fresh cursor
            # over the same world does.
            fresh_cursor = _rebuild(
                cluster, running, now, held, None)[0].sweep_cursor()
            again = fresh_cursor.earliest_start(
                job, duration, remote, placement, allocator,
                after=after, not_after=not_after, trial=trial)
            assert again == got, f"step {step}"
            full = ref.earliest_start(
                job, duration, remote, placement, allocator, after=after)
            if not_after is None:
                assert got == full, f"step {step}: cursor != oracle"
            elif got is None:
                assert full is None or full.start > not_after
            else:
                assert got == full and got.start <= not_after
            scans += 1
        elif roll < 0.7:
            start = now + rng.choice((0.0, 300.0, 600.0))
            res = Reservation(
                job_id=100 + step, start=start,
                end=start + rng.choice((0.0, 600.0, HOUR)),
                node_mask=mask_of(range(
                    rng.randint(0, 6 * num_nodes // 10),
                    rng.randint(7 * num_nodes // 10, num_nodes))),
                pool_grants=(),
            )
            profile.add_reservation(res)
            held.append(res)
            assert profile.sweep_cursor() is cursor
        elif roll < 0.8 and held:
            profile.remove_reservation(held.pop(rng.randrange(len(held))))
            assert profile.sweep_cursor() is cursor
        elif roll < 0.9 and running:
            victim = running.pop(rng.randrange(len(running)))
            cluster.release_nodes(victim.job_id)
            cluster.release_pool(victim.job_id)
            assert profile.apply_release(
                mask_of(victim.assigned_nodes), victim.pool_grants,
                victim.start_time + victim.walltime)
            stale, cursor = cursor, profile.sweep_cursor()
            assert cursor is not stale
        else:
            job = _start_job(rng, cluster, next_id, now)
            next_id += 1
            if job is None:
                continue
            job.start_time = now
            running.append(job)
            profile.apply_start(
                mask_of(job.assigned_nodes), job.pool_grants,
                job.start_time + job.walltime)
            stale, cursor = cursor, profile.sweep_cursor()
            assert cursor is not stale
        _assert_states_decode(_oracle(cluster, running, now, held), cursor,
                              f"step {step}")
    return scans


def _seeds(seeds, wide_seeds):
    """10-node scripts under their seed ids, plus wide-machine scripts
    (``wide-<seed>``) whose masks span several machine words."""
    return [pytest.param(seed, 10, id=str(seed)) for seed in seeds] + [
        pytest.param(seed, _WIDE, id=f"wide-{seed}") for seed in wide_seeds
    ]


class TestScanParity:
    @pytest.mark.parametrize("seed,num_nodes", _seeds(range(40), range(8)))
    def test_scans_match_fresh_rebuild(self, seed, num_nodes):
        """A cursor carried through reservation edits (and re-fetched
        after every fold) answers every scan as a rebuild and the
        oracle do."""
        assert _run_script(seed, "hybrid", num_nodes=num_nodes) > 0

    @pytest.mark.parametrize("seed,num_nodes",
                             _seeds(range(0, 40, 4), range(0, 16, 4)))
    def test_scans_match_oracle(self, seed, num_nodes):
        """The same scripts on every pool topology."""
        kind = _POOL_KINDS[(seed // 4) % len(_POOL_KINDS)]
        assert _run_script(seed, kind, num_nodes=num_nodes) > 0


def _lifecycle_world():
    cluster = _cluster()
    rng = random.Random(7)
    running = [_start_job(rng, cluster, 800 + i, 0.0)
               for i in range(3)]
    running = [job for job in running if job is not None]
    profile = AvailabilityProfile(cluster, running, 0.0, _dur)
    cursor = profile.sweep_cursor()
    cursor._materialize_to(len(cursor._times) - 1)
    return cluster, running, profile, cursor


class TestCursorLifecycle:
    def test_reservation_edits_keep_cursor_live(self):
        _, _, profile, cursor = _lifecycle_world()
        first = Reservation(job_id=1, start=300.0, end=900.0,
                            node_mask=mask_of((5, 6)), pool_grants=())
        second = Reservation(job_id=2, start=600.0, end=1200.0,
                             node_mask=mask_of((7,)), pool_grants=())
        profile.add_reservation(first)
        profile.add_reservation(second)
        assert profile.sweep_cursor() is cursor
        profile.remove_reservation(first)
        assert profile.sweep_cursor() is cursor
        profile.truncate_reservations(0)
        # truncate to zero is a clear: the cursor leaves with the plan.
        assert profile._cursor is None
        assert profile.sweep_cursor() is not cursor

    def test_apply_start_drops_cursor(self):
        cluster, _, profile, cursor = _lifecycle_world()
        free = ids_of(cluster.free_mask)[:2]
        before = profile.mutation_count
        profile.apply_start(mask_of(free), {}, 1500.0)
        assert profile._cursor is None
        assert profile.mutation_count == before + 1
        fresh = profile.sweep_cursor()
        assert fresh is not cursor
        assert 1500.0 in fresh._times and 1500.0 not in cursor._times

    def test_apply_release_drops_cursor(self):
        cluster, running, profile, cursor = _lifecycle_world()
        victim = running[0]
        end = victim.start_time + victim.walltime
        cluster.release_nodes(victim.job_id)
        cluster.release_pool(victim.job_id)
        assert profile.apply_release(
            mask_of(victim.assigned_nodes), victim.pool_grants, end)
        assert profile._cursor is None
        fresh = profile.sweep_cursor()
        assert fresh is not cursor
        assert fresh._times == profile.breakpoints()

    def test_refused_release_keeps_cursor(self):
        _, _, profile, cursor = _lifecycle_world()
        before = profile.mutation_count
        assert not profile.apply_release(mask_of((9,)), {}, 12345.0)
        assert profile.mutation_count == before
        assert profile.sweep_cursor() is cursor

    def test_trial_must_start_at_anchor(self):
        _, _, profile, cursor = _lifecycle_world()
        job = Job(job_id=1, submit_time=0.0, nodes=1, walltime=600.0,
                  runtime=300.0, mem_per_node=8 * GiB)
        late = Reservation(job_id=2, start=60.0, end=600.0,
                           node_mask=mask_of((0,)), pool_grants=())
        with pytest.raises(ValueError, match="profile instant"):
            cursor.earliest_start(job, 300.0, 0, FirstFitPlacement(),
                                  GlobalPoolAllocator(), trial=late)
