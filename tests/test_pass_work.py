"""The conservative pass does the same work, and tears down exactly.

The pass skips work nothing reads: the sweep cursor is fetched on first
use, the memory split is looked up only by an entry that probes or
scans, the replay counters are summed once per pass, and teardown folds
the started jobs before it removes their in-pass claims.  None of that
may change *what* the pass does, so on a small conservative scenario
with starts the replay counters and the call counts of the reservation
index and the scans are pinned to their values before those changes.

Teardown is checked structurally as well: after every pass that starts
jobs, no in-pass claim is left standing, and the profile's cursor is
state-for-state a from-scratch build's (the
``_assert_cursor_equals_rebuild`` contract of the fold suites).
"""

from __future__ import annotations

import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.engine.simulation import SchedulerSimulation
from repro.sched import build_scheduler
from repro.sched.backfill import ConservativeBackfill
from repro.sched.profile import AvailabilityProfile, SweepCursor
from repro.units import GiB
from repro.workload.reference import generate_reference_jobs

from ._oracles import OracleProfile
from .test_release_folding import _assert_cursor_equals_rebuild

PENALTY = {"kind": "linear", "beta": 0.3}


def _simulation(metered: bool) -> SchedulerSimulation:
    """W-MIX at load 0.9 on a 16-node thin machine with a global pool —
    retained passes, completion folds, spills and mid-pass starts all
    occur within a few hundred jobs."""
    jobs = generate_reference_jobs(
        "W-MIX", seed=11, num_jobs=300, cluster_nodes=16,
        max_mem_per_node=512 * GiB, target_load=0.9,
    )
    spec = ClusterSpec.thin_node(
        num_nodes=16, nodes_per_rack=8, local_mem=128 * GiB,
        fat_local_mem=512 * GiB, pool_fraction=0.5, reach="global",
        global_bandwidth=64 * 1024.0 if metered else float("inf"),
    )
    scheduler = build_scheduler(backfill="conservative", penalty=dict(PENALTY))
    return SchedulerSimulation(Cluster(spec), scheduler, jobs)


def _count_calls(monkeypatch) -> dict:
    seen = {"adds": 0, "truncations": 0, "scans": 0}
    for owner, attr, key in (
        (AvailabilityProfile, "add_reservation", "adds"),
        (AvailabilityProfile, "truncate_reservations", "truncations"),
        (SweepCursor, "earliest_start", "scans"),
    ):
        original = getattr(owner, attr)

        def counting(*args, _original=original, _key=key, **kwargs):
            seen[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counting)
    return seen


#: Work totals of the scenario, as produced before the lazy cursor
#: fetch, the lazy split lookup and the per-pass counters.  The metered
#: machine re-estimates every cached duration (and so looks the split
#: up for every entry), but its estimates come out unchanged here, so
#: both machines do the same work.
PINNED_WORK = {
    "adds": 1221,
    "truncations": 336,
    "scans": 1193,
    "replay": {"retained": 384, "probe": 764, "recompute": 841},
    "starts": 300,
}


@pytest.mark.parametrize("metered", [False, True])
def test_pass_work_is_pinned(monkeypatch, metered):
    seen = _count_calls(monkeypatch)
    sim = _simulation(metered)
    result = sim.run()
    work = dict(seen)
    work["replay"] = dict(sim.scheduler.backfill.replay_stats)
    work["starts"] = sum(1 for job in result.jobs if job.start_time is not None)
    assert work == PINNED_WORK


@pytest.mark.parametrize("metered", [False, True])
def test_teardown_leaves_no_claim_and_an_exact_cursor(monkeypatch, metered):
    run = ConservativeBackfill.run
    checked = [0]

    def checking(self, ctx, sched):
        started = run(self, ctx, sched)
        if not started:
            return started
        profile = self._profile_cache[2]
        standing = profile.reservations
        started_ids = {decision.job.job_id for decision in started}
        assert not [res for res in standing if res.job_id in started_ids], (
            "an in-pass claim outlived teardown"
        )
        fresh = sched.build_profile(ctx)
        ref = OracleProfile(ctx.cluster, ctx.running, ctx.now,
                            sched.duration_of_running)
        for res in standing:
            fresh.add_reservation(res)
            ref.add_reservation(res)
        _assert_cursor_equals_rebuild(profile, fresh, ref)
        checked[0] += 1
        return started

    monkeypatch.setattr(ConservativeBackfill, "run", checking)
    _simulation(metered).run()
    assert checked[0] > 20
