"""Property-based tests for the AvailabilityProfile.

The profile is the correctness heart of memory-aware backfilling, so
its algebra gets its own property suite: the window views the sweep
cursor offers placement (read through ``_cursor_views``) must be
conservative refinements of its instant views, reservations must
subtract exactly what they claim, and earliest-start must actually be
feasible at the time it returns.

The second half targets the reservation **interval index** in
isolation: randomized insert/remove/query sequences are checked
against the brute-force oracle (``OracleProfile`` in ``_oracles.py``,
a rescan-everything specification), with time values drawn from coarse
grids so reservation starts, ends, and release times collide at the
same instant — the tie-order corners the incremental sweep must
reproduce exactly.
"""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from repro.cluster import Cluster, ClusterSpec, NodeSpec, PoolSpec
from repro.cluster.masks import ids_of, mask_of
from repro.memdis import GlobalPoolAllocator
from repro.sched import AvailabilityProfile, FirstFitPlacement, Reservation
from repro.sched.placement import placement_for
from repro.units import GiB
from repro.workload import Job, JobState

from ._cursor_views import (
    cursor_free_at,
    cursor_views,
    cursor_window_free,
    oracle_views,
)
from ._oracles import OracleProfile


def make_cluster(num_nodes=6, pool=32):
    return Cluster(ClusterSpec(
        num_nodes=num_nodes, nodes_per_rack=3,
        node=NodeSpec(local_mem=16 * GiB),
        pool=PoolSpec(global_pool=pool * GiB),
    ))


reservations = st.lists(
    st.tuples(
        st.floats(0, 1000, allow_nan=False),   # start
        st.floats(1, 500, allow_nan=False),    # duration
        st.integers(0, 5),                     # first node id
        st.integers(1, 3),                     # node count
        st.integers(0, 8),                     # pool GiB
    ),
    max_size=6,
).map(
    lambda rows: [
        Reservation(
            job_id=100 + i,
            start=start,
            end=start + duration,
            node_mask=mask_of(range(first, min(first + count, 6))),
            pool_grants=(("global", pool * GiB),) if pool else (),
        )
        for i, (start, duration, first, count, pool) in enumerate(rows)
    ]
)


class TestProfileAlgebra:
    @given(reservations, st.floats(0, 1500, allow_nan=False),
           st.floats(0.5, 400, allow_nan=False))
    @settings(max_examples=80, deadline=None)
    def test_window_free_is_subset_of_instant_free(self, res_list, t, dur):
        cluster = make_cluster()
        profile = AvailabilityProfile(cluster, [], now=0.0,
                                      duration_of=lambda j: j.walltime)
        for res in res_list:
            profile.add_reservation(res)
        instant_free, instant_pool = cursor_free_at(profile, t)
        window_free, window_pool = cursor_window_free(profile, t, dur)
        assert window_free <= instant_free
        for pool_id, level in window_pool.items():
            assert level <= instant_pool[pool_id] + 1e-9

    @given(reservations, st.floats(0, 1500, allow_nan=False))
    @settings(max_examples=80, deadline=None)
    def test_zero_width_window_matches_instant(self, res_list, t):
        cluster = make_cluster()
        profile = AvailabilityProfile(cluster, [], now=0.0,
                                      duration_of=lambda j: j.walltime)
        for res in res_list:
            profile.add_reservation(res)
        instant = cursor_free_at(profile, t)
        window = cursor_window_free(profile, t, 1e-9)
        assert window[0] == instant[0]
        assert window[1] == instant[1]

    @given(reservations)
    @settings(max_examples=80, deadline=None)
    def test_far_future_everything_returns(self, res_list):
        cluster = make_cluster()
        profile = AvailabilityProfile(cluster, [], now=0.0,
                                      duration_of=lambda j: j.walltime)
        for res in res_list:
            profile.add_reservation(res)
        free, pool = cursor_free_at(profile, 1e9)
        assert free == frozenset(range(6))
        assert pool["global"] == 32 * GiB

    @given(reservations, st.integers(1, 6), st.floats(1, 300),
           st.integers(0, 20))
    @settings(max_examples=80, deadline=None)
    def test_earliest_start_is_feasible_at_its_time(
        self, res_list, nodes, duration, remote_gib
    ):
        cluster = make_cluster()
        profile = AvailabilityProfile(cluster, [], now=0.0,
                                      duration_of=lambda j: j.walltime)
        for res in res_list:
            profile.add_reservation(res)
        job = Job(job_id=1, submit_time=0.0, nodes=nodes,
                  walltime=duration * 2, runtime=duration,
                  mem_per_node=16 * GiB + remote_gib * GiB)
        found = profile.earliest_start(
            job, duration, remote_gib * GiB,
            FirstFitPlacement(), GlobalPoolAllocator(),
        )
        if remote_gib * nodes > 32:
            # Demand exceeds the whole pool: never feasible.
            assert found is None
            return
        assert found is not None
        # The reservation's claims must be consistent with the window.
        free, pool_min = cursor_window_free(profile, found.start, duration)
        assert set(found.node_ids) <= free
        for pool_id, amount in found.pool_grants:
            assert amount <= pool_min[pool_id] + 1e-9

    @given(reservations, st.integers(1, 4), st.floats(1, 300))
    @settings(max_examples=60, deadline=None)
    def test_removing_reservations_never_delays(self, res_list, nodes,
                                                duration):
        """Monotonicity: a less-loaded machine starts you no later."""
        cluster = make_cluster()
        loaded = AvailabilityProfile(cluster, [], now=0.0,
                                     duration_of=lambda j: j.walltime)
        empty = AvailabilityProfile(cluster, [], now=0.0,
                                    duration_of=lambda j: j.walltime)
        for res in res_list:
            loaded.add_reservation(res)
        job = Job(job_id=1, submit_time=0.0, nodes=nodes,
                  walltime=duration * 2, runtime=duration,
                  mem_per_node=4 * GiB)
        with_res = loaded.earliest_start(
            job, duration, 0, FirstFitPlacement(), GlobalPoolAllocator())
        without = empty.earliest_start(
            job, duration, 0, FirstFitPlacement(), GlobalPoolAllocator())
        assert without is not None
        assert with_res is not None  # pool-less demand always fits eventually
        assert without.start <= with_res.start + 1e-9


# ----------------------------------------------------------------------
# interval index vs brute-force oracle
# ----------------------------------------------------------------------

#: Coarse time grid: draws collide constantly, so reservation starts,
#: reservation ends, and running-job release times stack on the same
#: instants — the adversarial corner for the incremental sweep.
GRID = [float(v) for v in range(0, 660, 60)]

grid_times = st.sampled_from(GRID)
grid_durations = st.sampled_from([0.0, 60.0, 120.0, 180.0, 300.0])


def _oracle_pair(running):
    cluster = Cluster(ClusterSpec(
        num_nodes=8, nodes_per_rack=4,
        node=NodeSpec(cores=8, local_mem=16 * GiB),
        pool=PoolSpec(rack_pool=24 * GiB, global_pool=32 * GiB),
    ))
    dur_of = lambda j: j.walltime * (1.0 + j.dilation)  # noqa: E731
    jobs = []
    for i, (start, walltime, first, count, grant) in enumerate(running):
        node_ids = list(range(first, min(first + count, 8)))
        if not node_ids:
            continue
        job = Job(job_id=900 + i, submit_time=0.0, nodes=len(node_ids),
                  walltime=walltime, runtime=walltime,
                  mem_per_node=8 * GiB)
        job.state = JobState.RUNNING
        job.start_time = start
        job.assigned_nodes = node_ids
        job.pool_grants = {"global": grant * GiB} if grant else {}
        job.dilation = 0.0
        jobs.append(job)
    new = AvailabilityProfile(cluster, jobs, now=0.0, duration_of=dur_of)
    ref = OracleProfile(cluster, jobs, now=0.0, duration_of=dur_of)
    return cluster, new, ref


running_jobs = st.lists(
    st.tuples(
        st.sampled_from([-120.0, -60.0, 0.0]),  # start_time
        grid_times.filter(lambda v: v > 0),     # walltime (release on grid)
        st.integers(0, 7), st.integers(1, 3),   # node range
        st.integers(0, 4),                      # global-pool GiB grant
    ),
    max_size=4,
)

reservation_specs = st.lists(
    st.tuples(
        grid_times,                 # start (collides with releases)
        grid_durations,             # duration (0 => same-instant start/end)
        st.integers(0, 7), st.integers(1, 4),
        st.integers(0, 6),          # pool GiB
        st.booleans(),              # rack vs global pool
    ),
    min_size=1, max_size=8,
)


def _make_reservation(i, spec):
    start, duration, first, count, pool_gib, rack = spec
    grants = ()
    if pool_gib:
        grants = ((("rack0" if rack else "global"), pool_gib * GiB),)
    return Reservation(
        job_id=100 + i,
        start=start,
        end=start + duration,
        node_mask=mask_of(range(first, min(first + count, 8))),
        pool_grants=grants,
    )


def _assert_index_matches_oracle(new, ref, probes):
    assert new.breakpoints() == ref.breakpoints()
    for dur in (60.0, 400.0):
        assert cursor_views(new, dur) == oracle_views(ref, dur), dur
    for t in probes:
        assert cursor_free_at(new, t) == ref.free_at(t), f"free_at({t})"
        for dur in (1e-9, 60.0, 150.0, 400.0):
            assert cursor_window_free(new, t, dur) == ref.window_free(t, dur), (
                f"window_free({t}, {dur})"
            )


class TestIntervalIndexVsOracle:
    @given(running_jobs, reservation_specs, st.data())
    @settings(max_examples=120, deadline=None)
    def test_insert_remove_query_matches_oracle(self, running, specs, data):
        """Randomized add/remove sequences with colliding instants:
        every query must match the rescan-everything oracle after
        every mutation."""
        cluster, new, ref = _oracle_pair(running)
        held = []
        for i, spec in enumerate(specs):
            res = _make_reservation(i, spec)
            new.add_reservation(res)
            ref.add_reservation(res)
            held.append(res)
            if held and data.draw(st.booleans(), label=f"remove_after_{i}"):
                victim = held.pop(
                    data.draw(st.integers(0, len(held) - 1),
                              label=f"victim_{i}")
                )
                new.remove_reservation(victim)
                ref.remove_reservation(victim)
            probes = [t for t in GRID]
            probes += [t + 1e-10 for t in GRID[:4]]
            probes += [t - 1e-10 for t in GRID[1:4]]
            _assert_index_matches_oracle(new, ref, probes)

    @given(running_jobs, reservation_specs, st.integers(1, 8),
           grid_durations.filter(lambda d: d > 0),
           st.sampled_from(["first_fit", "rack_pack", "min_remote", "spread"]),
           st.integers(0, 8))
    @settings(max_examples=120, deadline=None)
    def test_earliest_start_matches_oracle(
        self, running, specs, nodes, duration, placement, remote_gib
    ):
        """The incremental sweep inside earliest_start must agree with
        the oracle's full rescan at every breakpoint — including the
        same-instant activation/retirement collisions the grid
        forces."""
        cluster, new, ref = _oracle_pair(running)
        for i, spec in enumerate(specs):
            res = _make_reservation(i, spec)
            new.add_reservation(res)
            ref.add_reservation(res)
        job = Job(job_id=1, submit_time=0.0, nodes=nodes,
                  walltime=duration * 2, runtime=duration,
                  mem_per_node=16 * GiB + remote_gib * GiB)
        pol = placement_for(placement)
        allocator = GlobalPoolAllocator()
        got = new.earliest_start(job, duration, remote_gib * GiB, pol,
                                 allocator)
        want = ref.earliest_start(job, duration, remote_gib * GiB, pol,
                                  allocator)
        assert got == want

    @given(running_jobs, reservation_specs, st.integers(1, 8),
           grid_durations.filter(lambda d: d > 0), grid_times)
    @settings(max_examples=100, deadline=None)
    def test_bounded_probe_matches_oracle_verdict(
        self, running, specs, nodes, duration, cap
    ):
        """not_after probes (the plan-cache replay primitive) must
        equal 'scan fully, then compare the start against the cap'."""
        cluster, new, ref = _oracle_pair(running)
        for i, spec in enumerate(specs):
            res = _make_reservation(i, spec)
            new.add_reservation(res)
            ref.add_reservation(res)
        job = Job(job_id=1, submit_time=0.0, nodes=nodes,
                  walltime=duration * 2, runtime=duration,
                  mem_per_node=8 * GiB)
        pol = FirstFitPlacement()
        allocator = GlobalPoolAllocator()
        bounded = new.earliest_start(job, duration, 0, pol, allocator,
                                     not_after=cap)
        full = ref.earliest_start(job, duration, 0, pol, allocator)
        if bounded is None:
            assert full is None or full.start > cap
        else:
            assert bounded == full
            assert bounded.start <= cap


# ----------------------------------------------------------------------
# divergence hunt: interleaved fold / mutate / scan sequences
# ----------------------------------------------------------------------

#: Fold release instants: on the same colliding grid as the
#: reservation edges, plus ``inf`` — a job with no walltime bound puts
#: an infinite float into the breakpoint grid, which the sweep must
#: carry without poisoning bisects or prefix sweeps.
_FOLD_ENDS = [float(v) for v in range(60, 660, 60)] + [math.inf]


def _fuzz_cluster():
    return Cluster(ClusterSpec(
        num_nodes=8, nodes_per_rack=4,
        node=NodeSpec(cores=8, local_mem=16 * GiB),
        pool=PoolSpec(rack_pool=24 * GiB, global_pool=32 * GiB),
    ))


def _fuzz_dur(job):
    return job.walltime


def _start_job(cluster, job_id, node_ids, grants, start, est_end):
    """Allocate ``node_ids`` on the live cluster and return the
    matching RUNNING job, releasing at exactly ``est_end``."""
    job = Job(job_id=job_id, submit_time=0.0, nodes=len(node_ids),
              walltime=est_end - start, runtime=est_end - start,
              mem_per_node=8 * GiB)
    job.state = JobState.RUNNING
    job.start_time = start
    job.assigned_nodes = list(node_ids)
    job.pool_grants = dict(grants)
    job.dilation = 0.0
    cluster.allocate_nodes(job_id, mask_of(node_ids), 8 * GiB)
    if grants:
        cluster.allocate_pool(job_id, grants)
    return job


def _draw_grants(data, cluster, label):
    grants = {}
    for pool in cluster.all_pools():
        gib = data.draw(st.integers(0, 4), label=f"{label}_{pool.pool_id}")
        amount = min(pool.free, gib * GiB)
        if amount > 0:
            grants[pool.pool_id] = amount
    return grants


def _fresh_pair(cluster, running, held):
    """Rebuild both references from the current world state, re-adding
    the held reservations in their surviving insertion order."""
    fresh = AvailabilityProfile(cluster, running, 0.0, _fuzz_dur)
    ref = OracleProfile(cluster, running, 0.0, _fuzz_dur)
    for res in held:
        fresh.add_reservation(res)
        ref.add_reservation(res)
    return fresh, ref


def _assert_fold_state(cluster, running, held, profile):
    """The fold-patched profile's cursor views must equal the oracle's,
    and its cursor states a from-scratch rebuild's, bit for bit."""
    fresh, ref = _fresh_pair(cluster, running, held)
    assert profile.breakpoints() == fresh.breakpoints() == ref.breakpoints()
    for dur in (60.0, 400.0):
        assert cursor_views(profile, dur) == oracle_views(ref, dur), dur
    probes = list(GRID)
    probes += [t + 1e-10 for t in GRID[:4]]
    probes += [t - 1e-10 for t in GRID[1:4]]
    for t in probes:
        assert cursor_free_at(profile, t) == ref.free_at(t), f"free_at({t})"
        for dur in (1e-9, 60.0, 400.0):
            assert cursor_window_free(profile, t, dur) == ref.window_free(
                t, dur
            ), f"window_free({t}, {dur})"
    cursor = profile.sweep_cursor()
    refc = fresh.sweep_cursor()
    assert list(cursor._times) == list(refc._times)
    last = len(refc._times) - 1
    cursor._materialize_to(last)
    refc._materialize_to(last)
    assert list(cursor._free) == list(refc._free)
    assert list(cursor._counts) == list(refc._counts)
    assert list(cursor._k) == list(refc._k)


_OPS = ("start", "release", "add", "remove", "truncate", "scan")


class TestFoldDivergenceHunt:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_interleaved_fold_sequences_match_oracle(self, data):
        """Drive one profile + live cursor through interleaved
        apply_start / apply_release / add / remove / truncate /
        earliest_start sequences on the colliding grid (zero-length
        reservations and ``inf`` release times included); after every
        mutation the whole state must equal a fresh rebuild and the
        rescan-everything oracle."""
        cluster = _fuzz_cluster()
        running = []
        next_id = 900
        for i in range(data.draw(st.integers(0, 3), label="initial_jobs")):
            free = ids_of(cluster.free_mask)
            if not free:
                break
            count = data.draw(st.integers(1, min(3, len(free))),
                              label=f"init_count_{i}")
            start = data.draw(st.sampled_from([-120.0, -60.0, 0.0]),
                              label=f"init_start_{i}")
            est_end = data.draw(st.sampled_from(_FOLD_ENDS),
                                label=f"init_end_{i}")
            grants = _draw_grants(data, cluster, f"init_grant_{i}")
            running.append(_start_job(cluster, next_id, free[:count],
                                      grants, start, est_end))
            next_id += 1
        profile = AvailabilityProfile(cluster, running, 0.0, _fuzz_dur)
        held = []
        next_res = 0
        ops = data.draw(st.lists(st.sampled_from(_OPS),
                                 min_size=3, max_size=10), label="ops")
        for step, op in enumerate(ops):
            # A random materialized depth: folds must be exact over
            # full, partial, and empty prefixes alike.
            cursor = profile.sweep_cursor()
            depth = data.draw(st.integers(0, len(cursor._times)),
                              label=f"depth_{step}")
            if depth:
                cursor._materialize_to(depth - 1)
            if op == "start":
                free = ids_of(cluster.free_mask)
                if not free:
                    continue
                count = data.draw(st.integers(1, min(3, len(free))),
                                  label=f"count_{step}")
                est_end = data.draw(st.sampled_from(_FOLD_ENDS),
                                    label=f"end_{step}")
                grants = _draw_grants(data, cluster, f"grant_{step}")
                job = _start_job(cluster, next_id, free[:count], grants,
                                 0.0, est_end)
                next_id += 1
                running.append(job)
                profile.apply_start(mask_of(job.assigned_nodes), job.pool_grants,
                                    est_end)
            elif op == "release":
                if not running:
                    continue
                victim = running.pop(
                    data.draw(st.integers(0, len(running) - 1),
                              label=f"victim_{step}")
                )
                cluster.release_nodes(victim.job_id)
                cluster.release_pool(victim.job_id)
                assert profile.apply_release(
                    mask_of(victim.assigned_nodes), victim.pool_grants,
                    victim.start_time + victim.walltime,
                )
            elif op == "add":
                spec = data.draw(
                    st.tuples(grid_times, grid_durations,
                              st.integers(0, 7), st.integers(1, 4),
                              st.integers(0, 6), st.booleans()),
                    label=f"spec_{step}",
                )
                res = _make_reservation(next_res, spec)
                next_res += 1
                profile.add_reservation(res)
                held.append(res)
            elif op == "remove":
                if not held:
                    continue
                victim = held.pop(
                    data.draw(st.integers(0, len(held) - 1),
                              label=f"res_victim_{step}")
                )
                profile.remove_reservation(victim)
            elif op == "truncate":
                if not held:
                    continue
                keep = data.draw(st.integers(0, len(held)),
                                 label=f"keep_{step}")
                profile.truncate_reservations(keep)
                del held[keep:]
            else:  # scan
                nodes = data.draw(st.integers(1, 8), label=f"nodes_{step}")
                dur = data.draw(grid_durations.filter(lambda d: d > 0),
                                label=f"dur_{step}")
                remote = data.draw(st.integers(0, 6), label=f"remote_{step}")
                job = Job(job_id=1, submit_time=0.0, nodes=nodes,
                          walltime=dur * 2, runtime=dur,
                          mem_per_node=16 * GiB + remote * GiB)
                _, ref = _fresh_pair(cluster, running, held)
                got = profile.earliest_start(
                    job, dur, remote * GiB,
                    FirstFitPlacement(), GlobalPoolAllocator())
                want = ref.earliest_start(
                    job, dur, remote * GiB,
                    FirstFitPlacement(), GlobalPoolAllocator())
                assert got == want, f"scan at step {step}"
            _assert_fold_state(cluster, running, held, profile)


class TestFoldRegressions:
    """Named pins for the fold-divergence corners the hunt guards.

    Each test is a deterministic instance of a trap class the
    interleaved fuzz above explores statistically — kept separate so a
    reintroduced bug names its failure mode instead of a shrunk blob.
    """

    def test_release_fold_drops_phantom_breakpoint(self):
        """Folding a completion must delete its grid time from the
        live cursor when nothing else breaks there: a phantom
        candidate instant between true breakpoints can change which
        window earliest_start accepts."""
        cluster = _fuzz_cluster()
        a = _start_job(cluster, 900, [0, 1], {}, 0.0, 120.0)
        b = _start_job(cluster, 901, [2], {}, 0.0, 240.0)
        running = [a, b]
        profile = AvailabilityProfile(cluster, running, 0.0, _fuzz_dur)
        cursor = profile.sweep_cursor()
        cursor._materialize_to(len(cursor._times) - 1)
        running.remove(a)
        cluster.release_nodes(a.job_id)
        assert profile.apply_release(mask_of(a.assigned_nodes), {}, 120.0)
        assert 120.0 not in profile.sweep_cursor()._times
        _assert_fold_state(cluster, running, [], profile)

    def test_release_fold_restores_only_unclaimed_nodes(self):
        """A release whose nodes overlap an active reservation claim
        must restore only the unclaimed part of the set into the
        materialized states."""
        cluster = _fuzz_cluster()
        a = _start_job(cluster, 900, [0, 1], {}, 0.0, 300.0)
        running = [a]
        profile = AvailabilityProfile(cluster, running, 0.0, _fuzz_dur)
        res = Reservation(job_id=100, start=60.0, end=600.0,
                          node_mask=mask_of((0,)), pool_grants=())
        profile.add_reservation(res)
        cursor = profile.sweep_cursor()
        cursor._materialize_to(len(cursor._times) - 1)
        running.remove(a)
        cluster.release_nodes(a.job_id)
        assert profile.apply_release(mask_of(a.assigned_nodes), {}, 300.0)
        free, _ = cursor_free_at(profile, 120.0)
        assert 0 not in free and 1 in free
        _assert_fold_state(cluster, running, [res], profile)

    def test_inf_walltime_survives_fold(self):
        """An unbounded job puts ``inf`` into the float grid; folding
        a finite completion around it must keep every state exact."""
        cluster = _fuzz_cluster()
        forever = _start_job(cluster, 900, [0], {}, 0.0, math.inf)
        a = _start_job(cluster, 901, [1, 2], {}, -60.0, 120.0)
        running = [forever, a]
        profile = AvailabilityProfile(cluster, running, 0.0, _fuzz_dur)
        cursor = profile.sweep_cursor()
        cursor._materialize_to(len(cursor._times) - 1)
        assert math.inf in cursor._times
        running.remove(a)
        cluster.release_nodes(a.job_id)
        assert profile.apply_release(mask_of(a.assigned_nodes), {}, 120.0)
        assert math.inf in profile.sweep_cursor()._times
        _assert_fold_state(cluster, running, [], profile)

    def test_zero_length_reservation_keeps_fold_instant(self):
        """A zero-length reservation pins its instant as a breakpoint:
        folding a release at the same instant must keep the grid time
        (the reservation edge still breaks there) while removing the
        release entry."""
        cluster = _fuzz_cluster()
        a = _start_job(cluster, 900, [0, 1], {}, 0.0, 120.0)
        b = _start_job(cluster, 901, [2], {}, 0.0, 240.0)
        running = [a, b]
        profile = AvailabilityProfile(cluster, running, 0.0, _fuzz_dur)
        res = Reservation(job_id=100, start=120.0, end=120.0,
                          node_mask=mask_of((3,)), pool_grants=())
        profile.add_reservation(res)
        cursor = profile.sweep_cursor()
        cursor._materialize_to(len(cursor._times) - 1)
        running.remove(a)
        cluster.release_nodes(a.job_id)
        assert profile.apply_release(mask_of(a.assigned_nodes), {}, 120.0)
        assert 120.0 in profile.sweep_cursor()._times
        _assert_fold_state(cluster, running, [res], profile)


# ----------------------------------------------------------------------
# the breakpoint grid, derived from the timelines
# ----------------------------------------------------------------------
_GRID_OPS = (
    "add", "remove", "truncate", "clear", "rebase", "start", "release",
)


def _brute_grid(now, running, held):
    """*now*, then every release time and reservation bound after it,
    sorted and deduplicated — the grid by definition."""
    future = {job.start_time + job.walltime for job in running}
    future |= {bound for res in held for bound in (res.start, res.end)}
    return [now] + sorted(t for t in future if t > now)


class TestGridFromTimelines:
    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_grid_matches_brute_force_after_every_step(self, data):
        """The grid has no index of its own: ``breakpoints()`` merges
        the release timeline with the reservations' start and end
        timelines, and a live cursor keeps its copy in step through
        every edit.  Drive one profile through add / remove / truncate
        / clear / rebase / apply_start / apply_release on the colliding
        grid (zero-length reservations included) and compare both, and
        the cursor's ``_is_breakpoint``, with a brute-force set after
        every step."""
        cluster = _fuzz_cluster()
        running = []
        next_id = 900
        for i in range(data.draw(st.integers(0, 3), label="initial_jobs")):
            free = ids_of(cluster.free_mask)
            count = data.draw(st.integers(1, min(3, len(free))),
                              label=f"init_count_{i}")
            est_end = data.draw(st.sampled_from(_FOLD_ENDS),
                                label=f"init_end_{i}")
            running.append(_start_job(cluster, next_id, free[:count], {},
                                      -60.0, est_end))
            next_id += 1
        now = 0.0
        profile = AvailabilityProfile(cluster, running, now, _fuzz_dur)
        held = []
        ops = data.draw(st.lists(st.sampled_from(_GRID_OPS),
                                 min_size=3, max_size=12), label="ops")
        for step, op in enumerate(ops):
            cursor = profile.sweep_cursor()
            depth = data.draw(st.integers(0, len(cursor._times)),
                              label=f"depth_{step}")
            if depth:
                cursor._materialize_to(depth - 1)
            if op == "add":
                spec = data.draw(
                    st.tuples(grid_times, grid_durations,
                              st.integers(0, 7), st.integers(1, 4),
                              st.just(0), st.booleans()),
                    label=f"spec_{step}",
                )
                res = _make_reservation(step, spec)
                profile.add_reservation(res)
                held.append(res)
            elif op == "remove" and held:
                index = data.draw(st.integers(0, len(held) - 1),
                                  label=f"victim_{step}")
                profile.remove_reservation(held.pop(index))
            elif op == "truncate" and held:
                keep = data.draw(st.integers(0, len(held)),
                                 label=f"keep_{step}")
                profile.truncate_reservations(keep)
                del held[keep:]
            elif op == "clear":
                profile.clear_reservations()
                held.clear()
            elif op == "rebase":
                later = data.draw(st.sampled_from(GRID), label=f"now_{step}")
                valid = later >= now and all(
                    job.start_time + job.walltime > later for job in running
                )
                assert profile.rebase(later) == valid
                if valid:
                    now = later
            elif op == "start":
                free = ids_of(cluster.free_mask)
                if not free:
                    continue
                count = data.draw(st.integers(1, min(3, len(free))),
                                  label=f"count_{step}")
                est_end = data.draw(
                    st.sampled_from([t for t in _FOLD_ENDS if t > now]),
                    label=f"end_{step}",
                )
                job = _start_job(cluster, next_id, free[:count], {}, now,
                                 est_end)
                next_id += 1
                running.append(job)
                profile.apply_start(mask_of(job.assigned_nodes), {}, est_end)
            elif op == "release" and running:
                victim = running.pop(
                    data.draw(st.integers(0, len(running) - 1),
                              label=f"release_{step}")
                )
                cluster.release_nodes(victim.job_id)
                assert profile.apply_release(
                    mask_of(victim.assigned_nodes), {},
                    victim.start_time + victim.walltime,
                )
            want = _brute_grid(now, running, held)
            assert profile.breakpoints() == want, f"{op} at step {step}"
            live = profile._cursor
            if live is not None:  # the edit patched the cursor in place
                assert live._times == want, f"live cursor after {op}"
            assert profile.sweep_cursor()._times == want
            bounds = {b for res in held for b in (res.start, res.end)}
            known = {job.start_time + job.walltime for job in running} | bounds
            for t in set(GRID) | set(_FOLD_ENDS) | bounds:
                assert profile.sweep_cursor()._is_breakpoint(t) == (
                    t in known
                ), f"_is_breakpoint({t}) after {op}"
