"""Mutation-kills for the deep validator.

Each case corrupts one aspect of a known-good :class:`SimulationResult`
(on a deep copy — the bases are module-cached) and asserts that
:func:`repro.audit.deep_audit` reports the corruption under the *right*
invariant class.  A corruption may legitimately trip secondary
invariants too (inflating a pool grant also breaks the split identity);
the contract is that the expected class is among the error-severity
findings, and that the pristine base stays clean.
"""

from __future__ import annotations

import copy
import dataclasses
import functools

import pytest

from repro.audit import deep_audit
from repro.cluster import Cluster, ClusterSpec, NodeSpec, PoolSpec
from repro.engine import SchedulerSimulation
from repro.engine.failures import FailureEvent
from repro.engine.results import Promise
from repro.memdis.ledger import MemoryLedger
from repro.sched.base import build_scheduler
from repro.units import GiB
from repro.workload.job import JobState

from .conftest import make_job


def _pooled_spec() -> ClusterSpec:
    return ClusterSpec(
        name="pooled",
        num_nodes=8,
        nodes_per_rack=4,
        node=NodeSpec(cores=8, local_mem=16 * GiB),
        pool=PoolSpec(rack_pool=64 * GiB, global_pool=128 * GiB),
    )


def _workload():
    """Remote-heavy mix engineered to exercise pools, blocking, and
    backfill promises on the 8-node pooled spec."""
    jobs = []
    for i in range(10):
        jobs.append(make_job(
            job_id=i, submit=i * 120.0, nodes=2 + (i % 3) * 2,
            walltime=4000.0, runtime=2500.0 + 300.0 * (i % 4),
            mem=(24 + 8 * (i % 3)) * GiB,  # 8-24 GiB/node remote demand
            user=f"user{i % 3}",
        ))
    # A full-machine job that must wait for everything, forcing a
    # reservation (and backfill promises for whatever jumps it).
    jobs.append(make_job(job_id=10, submit=300.0, nodes=8, walltime=3000.0,
                         runtime=2000.0, mem=8 * GiB, user="user0"))
    for i in range(11, 18):
        jobs.append(make_job(
            job_id=i, submit=350.0 + (i - 11) * 60.0, nodes=1,
            walltime=1200.0, runtime=700.0, mem=12 * GiB,
            user=f"user{i % 3}",
        ))
    return jobs


@functools.lru_cache(maxsize=None)
def _base(backfill: str = "easy", queue: str = "fcfs"):
    result = SchedulerSimulation(
        Cluster(_pooled_spec()),
        build_scheduler(queue=queue, backfill=backfill),
        _workload(),
    ).run()
    report = deep_audit(result)
    assert report.ok, [str(v) for v in report.errors]
    return result


def _fresh(backfill: str = "easy", queue: str = "fcfs"):
    return copy.deepcopy(_base(backfill, queue))


def _completed(result, min_nodes: int = 1):
    for job in result.jobs:
        if job.state is JobState.COMPLETED and job.nodes >= min_nodes:
            return job
    raise AssertionError("no completed job in base result")


def _overlapping_pair(result):
    """Two completed jobs whose run windows overlap in time."""
    done = [j for j in result.jobs if j.state is JobState.COMPLETED]
    for a in done:
        for b in done:
            if a.job_id >= b.job_id:
                continue
            if a.start_time < b.end_time and b.start_time < a.end_time:
                if set(a.assigned_nodes) != set(b.assigned_nodes):
                    return a, b
    raise AssertionError("no time-overlapping completed pair in base")


def _pooled_job(result, pool_id: str = "global"):
    for job in result.finished:
        if job.pool_grants.get(pool_id, 0) > 0:
            return job
    raise AssertionError(f"no job drawing from {pool_id} in base")


def _single_rack_pooled_job(result):
    """A job with a rack-pool grant whose nodes all sit in one rack."""
    per_rack = result.cluster_spec.nodes_per_rack
    for job in result.finished:
        racks = {node // per_rack for node in job.assigned_nodes}
        if len(racks) == 1 and any(
            pid.startswith("rack") and amount > 0
            for pid, amount in job.pool_grants.items()
        ):
            return job, racks.pop()
    raise AssertionError("no single-rack job with a rack grant in base")


# ----------------------------------------------------------------------
# mutators: (name, corrupt(result) -> None, expected invariant class)
# ----------------------------------------------------------------------
def _mut_node_overlap(result):
    a, b = _overlapping_pair(result)
    stolen = a.assigned_nodes[0]
    if stolen in b.assigned_nodes:
        stolen = next(n for n in a.assigned_nodes if n not in b.assigned_nodes)
    b.assigned_nodes[0] = stolen


def _mut_zero_length_inside_hold(result):
    """A job killed at its start instant, on a node another job holds
    across that instant."""
    holder = _completed(result)
    victim = next(j for j in result.finished if j is not holder)
    victim.assigned_nodes[0] = holder.assigned_nodes[0]
    victim.start_time = victim.end_time = (holder.start_time + holder.end_time) / 2


def _mut_node_unknown(result):
    _completed(result).assigned_nodes[0] = 999


def _mut_node_downtime(result):
    job = _completed(result)
    midpoint = (job.start_time + job.end_time) / 2
    result.failures.append(
        FailureEvent(time=midpoint, node_id=job.assigned_nodes[0],
                     repair_time=1_000.0)
    )


def _mut_pool_overflow(result):
    job = _pooled_job(result)
    capacity = result.cluster_spec.pool.global_pool
    job.pool_grants["global"] += capacity


def _mut_pool_unknown(result):
    _pooled_job(result).pool_grants["pool-x"] = 1024


def _mut_promise_broken(result):
    assert result.promises, "base run produced no backfill promises"
    job_id, promise = next(
        (jid, p) for jid, p in sorted(result.promises.items())
        if result.job(jid).start_time is not None
    )
    job = result.job(job_id)
    shift = (promise.promised_start + 500.0) - job.start_time
    job.start_time += shift
    job.end_time += shift


def _mut_promise_unknown_job(result):
    assert result.promises
    promise = next(iter(result.promises.values()))
    result.promises[9999] = dataclasses.replace(promise, job_id=9999)


def _mut_resurrect(result):
    _completed(result).state = JobState.CANCELLED


def _mut_non_terminal(result):
    _completed(result).state = JobState.RUNNING


def _mut_start_before_submit(result):
    job = _completed(result)
    job.start_time = job.submit_time - 100.0


def _mut_missing_end(result):
    _completed(result).end_time = None


def _mut_node_count(result):
    _completed(result, min_nodes=2).assigned_nodes.pop()


def _mut_end_before_start(result):
    job = _completed(result)
    job.end_time = job.start_time - 50.0


def _mut_duration_skew(result):
    # Move both ends of the window so the node sweep stays coherent
    # but the realized duration no longer matches the dilated runtime.
    job = _completed(result)
    job.end_time += 10.0


def _mut_split_local(result):
    _completed(result).local_grant_per_node += 1


def _mut_split_sum(result):
    _pooled_job(result).pool_grants["global"] += 1


def _mut_split_rack_reach(result):
    job, rack = _single_rack_pooled_job(result)
    other = 1 - rack  # the pooled spec has exactly two racks
    amount = job.pool_grants.pop(f"rack{rack}")
    job.pool_grants[f"rack{other}"] = amount


def _mut_split_rack_overdraw(result):
    # Fold one rack grant into another rack the job also reaches: the
    # total still equals the remote demand and every drawn rack holds
    # one of the job's nodes, but the receiving rack's nodes cannot
    # consume that much.
    per_rack = result.cluster_spec.nodes_per_rack
    for job in result.finished:
        drawn = [
            f"rack{rack}"
            for rack in sorted({node // per_rack for node in job.assigned_nodes})
            if job.pool_grants.get(f"rack{rack}", 0) > 0
        ]
        if len(drawn) >= 2:
            job.pool_grants[drawn[0]] += job.pool_grants.pop(drawn[1])
            return
    raise AssertionError("no job drawing from two rack pools in base")


def _mut_ledger_conservation(result):
    victim = _pooled_job(result).job_id
    result.ledger = MemoryLedger.from_entries([
        entry for entry in result.ledger
        if not (entry.kind == "release" and entry.job_id == victim)
    ])


def _mut_ledger_amount(result):
    victim = _pooled_job(result).job_id
    rebuilt = []
    for entry in result.ledger:
        if entry.job_id == victim and entry.pool_grants:
            pool_id, amount = entry.pool_grants[0]
            grants = ((pool_id, amount + 1),) + entry.pool_grants[1:]
            entry = dataclasses.replace(entry, pool_grants=grants)
        rebuilt.append(entry)
    result.ledger = MemoryLedger.from_entries(rebuilt)


def _mut_ledger_unknown_pool(result):
    # Re-home one job's ledger grant and release to a pool the spec
    # lacks; the job record keeps the real pool.
    victim = _pooled_job(result).job_id
    rebuilt = []
    for entry in result.ledger:
        if entry.job_id == victim and entry.pool_grants:
            (pool_id, amount), *rest = entry.pool_grants
            grants = tuple(sorted([("pool-x", amount), *rest]))
            entry = dataclasses.replace(entry, pool_grants=grants)
        rebuilt.append(entry)
    result.ledger = MemoryLedger.from_entries(rebuilt)


def _mut_walltime_kill_under_none(result):
    result.scheduler_info = {**result.scheduler_info, "kill": "none"}
    job = _completed(result)
    job.state = JobState.KILLED
    job.kill_reason = "walltime"


def _mut_invalid_kill_reason(result):
    job = _completed(result)
    job.state = JobState.KILLED
    job.kill_reason = "cosmic-ray"


def _mut_stray_kill_reason(result):
    _completed(result).kill_reason = "walltime"


def _swap_execution(a, b):
    for attr in ("start_time", "end_time", "assigned_nodes", "pool_grants",
                 "local_grant_per_node", "remote_per_node", "dilation"):
        tmp = getattr(a, attr)
        setattr(a, attr, getattr(b, attr))
        setattr(b, attr, tmp)


def _mut_fcfs_overtake(result):
    done = sorted(
        (j for j in result.jobs if j.state is JobState.COMPLETED),
        key=lambda j: (j.submit_time, j.job_id),
    )
    pair = next(
        (a, b)
        for i, a in enumerate(done)
        for b in done[i + 1:]
        if b.submit_time > a.submit_time + 1.0
        and b.start_time - a.start_time > 1.0
        and a.nodes == b.nodes
    )
    _swap_execution(*pair)


def _mut_fairshare_overtake(result):
    by_user = {}
    for job in result.jobs:
        if job.state is JobState.COMPLETED:
            by_user.setdefault(job.user, []).append(job)
    for jobs in by_user.values():
        jobs.sort(key=lambda j: (j.submit_time, j.job_id))
        for a, b in zip(jobs, jobs[1:]):
            if b.start_time - a.start_time > 1.0 and a.nodes == b.nodes:
                _swap_execution(a, b)
                return
    raise AssertionError("no same-user swappable pair in fairshare base")


MUTATIONS = [
    ("node-overlap", "easy", "fcfs", _mut_node_overlap, "node-oversubscription"),
    ("zero-length-inside-hold", "easy", "fcfs", _mut_zero_length_inside_hold,
     "node-oversubscription"),
    ("node-unknown", "easy", "fcfs", _mut_node_unknown, "node-unknown"),
    ("node-downtime", "easy", "fcfs", _mut_node_downtime, "node-downtime"),
    ("pool-overflow", "easy", "fcfs", _mut_pool_overflow, "pool-oversubscription"),
    ("pool-unknown", "easy", "fcfs", _mut_pool_unknown, "pool-unknown"),
    ("promise-broken", "easy", "fcfs", _mut_promise_broken, "promise"),
    ("promise-unknown-job", "easy", "fcfs", _mut_promise_unknown_job, "promise"),
    ("resurrect-cancelled", "easy", "fcfs", _mut_resurrect, "lifecycle"),
    ("non-terminal", "easy", "fcfs", _mut_non_terminal, "lifecycle"),
    ("missing-end", "easy", "fcfs", _mut_missing_end, "lifecycle"),
    ("node-count", "easy", "fcfs", _mut_node_count, "lifecycle"),
    ("start-before-submit", "easy", "fcfs", _mut_start_before_submit, "metrics"),
    ("end-before-start", "easy", "fcfs", _mut_end_before_start, "lifecycle"),
    ("duration-skew", "easy", "fcfs", _mut_duration_skew, "metrics"),
    ("split-local", "easy", "fcfs", _mut_split_local, "split"),
    ("split-sum", "easy", "fcfs", _mut_split_sum, "split"),
    ("split-rack-reach", "easy", "fcfs", _mut_split_rack_reach, "split"),
    ("split-rack-overdraw", "easy", "fcfs", _mut_split_rack_overdraw, "split"),
    ("ledger-open-grant", "easy", "fcfs", _mut_ledger_conservation,
     "ledger-conservation"),
    ("ledger-amount", "easy", "fcfs", _mut_ledger_amount, "ledger-mismatch"),
    ("ledger-unknown-pool", "easy", "fcfs", _mut_ledger_unknown_pool,
     "ledger-mismatch"),
    ("walltime-kill-under-none", "easy", "fcfs",
     _mut_walltime_kill_under_none, "lifecycle"),
    ("invalid-kill-reason", "easy", "fcfs", _mut_invalid_kill_reason,
     "lifecycle"),
    ("stray-kill-reason", "easy", "fcfs", _mut_stray_kill_reason, "lifecycle"),
    ("fcfs-overtake", "none", "fcfs", _mut_fcfs_overtake, "order"),
    ("fairshare-overtake", "none", "fairshare", _mut_fairshare_overtake,
     "order"),
]


@pytest.mark.parametrize(
    "name, backfill, queue, corrupt, expected",
    MUTATIONS,
    ids=[m[0] for m in MUTATIONS],
)
def test_mutation_is_caught_with_right_class(
    name, backfill, queue, corrupt, expected
):
    result = _fresh(backfill, queue)
    corrupt(result)
    report = deep_audit(result)
    classes = {v.invariant for v in report.errors}
    assert expected in classes, (
        f"mutation {name!r} should raise a {expected!r} violation; "
        f"got {sorted(classes) or 'a clean report'}"
    )
    assert not report.ok


def test_pristine_bases_audit_clean():
    for backfill, queue in (("easy", "fcfs"), ("none", "fcfs"),
                            ("none", "fairshare"), ("conservative", "fcfs")):
        report = deep_audit(_base(backfill, queue))
        assert report.ok, (backfill, queue, [str(v) for v in report.errors])


def test_zero_length_hold_frees_its_node_at_the_instant():
    """A job cancelled at its start instant frees its node for the
    pass that runs at that same instant: the next job starting there
    is no double booking."""
    engine = SchedulerSimulation(
        Cluster(_pooled_spec()), build_scheduler(), [], online=True
    )
    engine.inject_jobs([make_job(1, nodes=8)])
    engine.advance_to(0.0)
    assert engine.cancel_job(1) == "killed"
    engine.advance_to(0.0)
    engine.inject_jobs([make_job(2, nodes=8)])
    engine.drain()
    result = engine.online_result()
    assert [(j.start_time, j.end_time) for j in result.jobs] == [
        (0.0, 0.0), (0.0, 1800.0)
    ]
    report = deep_audit(result)
    assert report.ok, [str(v) for v in report.errors]


def test_checks_counters_prove_coverage():
    """A clean report with zero checks proves nothing — require that
    every invariant family actually examined facts on the easy base."""
    report = deep_audit(_base())
    for family in ("lifecycle", "node-oversubscription", "node-unknown",
                   "pool-oversubscription", "pool-unknown",
                   "ledger-conservation", "ledger-mismatch", "split",
                   "metrics", "promise"):
        assert report.checks.get(family, 0) > 0, family


def test_raise_if_failed_bridges_to_audit_error():
    from repro.errors import AuditError

    result = _fresh()
    _mut_node_unknown(result)
    report = deep_audit(result)
    with pytest.raises(AuditError):
        report.raise_if_failed()
    # And a clean report stays silent.
    deep_audit(_base()).raise_if_failed()


def test_report_to_dict_is_json_shaped():
    import json

    result = _fresh()
    _mut_pool_overflow(result)
    doc = deep_audit(result).to_dict()
    json.dumps(doc)  # must be serializable as-is
    assert doc["ok"] is False
    assert any(v["invariant"] == "pool-oversubscription"
               for v in doc["violations"])


# ----------------------------------------------------------------------
# overlapping failures: the validator charges effective windows only
# ----------------------------------------------------------------------
def _overlapping_failure_result(second: FailureEvent):
    """Two jobs per node on a two-node machine; node 0 fails at t=0 for
    60 s, and ``second`` hits node 0 while it is still down (or at its
    repair instant — failures precede repairs within an instant).  The
    engine absorbs ``second``, repairs node 0 at t=60 and starts the
    next job there."""
    spec = ClusterSpec(
        name="two-node", num_nodes=2, nodes_per_rack=2,
        node=NodeSpec(cores=8, local_mem=16 * GiB), pool=PoolSpec(),
    )
    jobs = [
        make_job(job_id=i, submit=0.0, nodes=1, walltime=100.0,
                 runtime=100.0 if i <= 2 else 10.0, mem=1 * GiB)
        for i in range(1, 5)
    ]
    return SchedulerSimulation(
        Cluster(spec), build_scheduler(), jobs,
        failures=[FailureEvent(0.0, 0, 60.0), second],
    ).run()


def _repaired_node_job(result):
    return next(
        job for job in result.jobs
        if job.assigned_nodes == [0] and job.start_time == 60.0
    )


@pytest.mark.parametrize(
    "second",
    [FailureEvent(0.0, 0, 61.0), FailureEvent(30.0, 0, 100.0),
     FailureEvent(60.0, 0, 30.0)],
    ids=["same-instant", "mid-window", "at-repair"],
)
def test_absorbed_overlapping_failure_charges_no_window(second):
    result = _overlapping_failure_result(second)
    _repaired_node_job(result)  # the engine reused node 0 at t=60
    report = deep_audit(result)
    assert report.ok, [str(v) for v in report.errors]
    assert report.checks["node-downtime"] > 0


def test_job_inside_effective_window_is_caught():
    result = _overlapping_failure_result(FailureEvent(0.0, 0, 61.0))
    job = _repaired_node_job(result)
    job.start_time -= 30.0
    job.end_time -= 30.0
    classes = {v.invariant for v in deep_audit(result).errors}
    assert "node-downtime" in classes
