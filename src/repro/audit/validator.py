"""Structured deep validator: every invariant, every violation.

:func:`deep_audit` is the project's one schedule oracle.  It recomputes
per-instant node and pool occupancy *from scratch* — from the job
records alone, then cross-checked against the memory ledger, so
neither bookkeeping source can vouch for itself — and returns an
:class:`AuditReport` listing every :class:`AuditViolation` it found,
tagged with the invariant class the mutation suite asserts against.
Callers that want the raise-style contract (integration tests,
:func:`repro.analysis.run_config`, ``repro run``) call
``deep_audit(result).raise_if_failed()``.

Invariant classes (see docs/AUDIT.md for the soundness arguments):

``lifecycle``
    terminal states, execution-record presence/absence, kill-reason
    consistency, assigned-node counts, end >= start.
``node-oversubscription`` / ``node-unknown`` / ``node-downtime``
    per-node interval sweep: at no instant do two jobs hold one node,
    every assigned node exists, and no job runs through a failure's
    effective down window (overlapping failures are absorbed the way
    the engine absorbs them).
``pool-oversubscription`` / ``pool-unknown``
    per-instant pool occupancy recomputed from job records never
    exceeds capacity or goes negative; every granted pool exists.
``ledger-conservation`` / ``ledger-mismatch``
    every MiB granted is released exactly once, and the ledger's
    occupancy series agrees step-for-step with the one derived from
    the job records.
``split``
    local + remote covers the request, local fits the node, pool
    grants sum to the remote demand and respect rack reach.
``metrics``
    start >= submit, wait >= 0, bounded slowdown >= 1, completed
    duration equals the dilated runtime.
``promise``
    promise records are sane (decided before promised start, after
    submission) and — when the policy stack makes them hard
    guarantees — honored.  Conservative promises surface as
    advisories, not errors.
``order``
    FCFS non-overtaking without backfill; same-user submit-order
    monotonicity under fairshare without backfill.

Several invariants are only sound for particular policy stacks; the
private predicates below (:func:`_promise_severity`,
:func:`_fcfs_order_applies`, :func:`_fairshare_order_applies`) are the
single place those applicability rules live.  They read the
``scheduler_info`` mapping produced by
:meth:`repro.sched.base.Scheduler.describe`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Tuple

from ..errors import AllocationError, AuditError
from ..workload.job import JobState

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from ..engine.failures import FailureEvent
    from ..engine.results import SimulationResult

__all__ = ["AuditViolation", "AuditReport", "deep_audit"]

_EPS = 1e-6
_DURATION_TOL = 1e-3
_VALID_KILL_REASONS = ("walltime", "node_failure", "cancelled")


@dataclass(frozen=True)
class AuditViolation:
    """One violated invariant, with enough context to localize it."""

    invariant: str
    message: str
    severity: str = "error"  # "error" | "advisory"
    job_id: Optional[int] = None
    node_id: Optional[int] = None
    pool_id: Optional[str] = None
    time: Optional[float] = None

    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "invariant": self.invariant,
            "severity": self.severity,
            "message": self.message,
        }
        for key in ("job_id", "node_id", "pool_id", "time"):
            value = getattr(self, key)
            if value is not None:
                doc[key] = value
        return doc

    def __str__(self) -> str:
        return f"[{self.invariant}] {self.message}"


@dataclass
class AuditReport:
    """Everything :func:`deep_audit` found, machine-readable."""

    violations: List[AuditViolation] = field(default_factory=list)
    #: invariant class -> number of atomic facts checked (coverage
    #: evidence: a clean report with zero checks proves nothing).
    checks: Dict[str, int] = field(default_factory=dict)

    @property
    def errors(self) -> List[AuditViolation]:
        return [v for v in self.violations if v.severity == "error"]

    @property
    def advisories(self) -> List[AuditViolation]:
        return [v for v in self.violations if v.severity == "advisory"]

    @property
    def ok(self) -> bool:
        """True when no error-severity violation was found."""
        return not self.errors

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "violations": [v.to_dict() for v in self.errors],
            "advisories": [v.to_dict() for v in self.advisories],
            "checks": dict(sorted(self.checks.items())),
        }

    def raise_if_failed(self) -> None:
        """Raise :class:`AuditError` listing the first ten errors."""
        errors = self.errors
        if not errors:
            return
        shown = "; ".join(str(v) for v in errors[:10])
        more = f" (+{len(errors) - 10} more)" if len(errors) > 10 else ""
        raise AuditError(f"{len(errors)} audit violation(s): {shown}{more}")

    # -- internal ------------------------------------------------------
    def _add(self, violation: AuditViolation) -> None:
        self.violations.append(violation)

    def _count(self, invariant: str, n: int = 1) -> None:
        self.checks[invariant] = self.checks.get(invariant, 0) + n


def deep_audit(result: "SimulationResult") -> AuditReport:
    """Validate every invariant of ``result``; never raises.

    Promise honoring is checked as an error under EASY's
    hard-guarantee conditions and as an advisory under conservative's
    (see :func:`_promise_severity`).
    """
    report = AuditReport()
    _check_lifecycle(result, report)
    _check_nodes(result, report)
    _check_pools(result, report)
    _check_ledger(result, report)
    _check_split(result, report)
    _check_metrics(result, report)
    _check_promises(result, report)
    _check_order(result, report)
    return report


# ----------------------------------------------------------------------
def _check_lifecycle(result: "SimulationResult", report: AuditReport) -> None:
    kill_policy = result.scheduler_info.get("kill")
    for job in result.jobs:
        report._count("lifecycle")
        if not job.state.terminal:
            report._add(AuditViolation(
                "lifecycle", f"job {job.job_id} ended non-terminal: {job.state}",
                job_id=job.job_id,
            ))
            continue
        if job.state in (JobState.REJECTED, JobState.CANCELLED):
            if job.start_time is not None or job.assigned_nodes:
                report._add(AuditViolation(
                    "lifecycle",
                    f"{job.state.value} job {job.job_id} has an execution "
                    "record (resurrected?)",
                    job_id=job.job_id,
                ))
            continue
        if job.start_time is None or job.end_time is None:
            report._add(AuditViolation(
                "lifecycle", f"finished job {job.job_id} missing start/end",
                job_id=job.job_id,
            ))
            continue
        if job.end_time < job.start_time - _EPS:
            report._add(AuditViolation(
                "lifecycle",
                f"job {job.job_id} ends at {job.end_time} before its start "
                f"{job.start_time}",
                job_id=job.job_id, time=job.end_time,
            ))
        if len(job.assigned_nodes) != job.nodes:
            report._add(AuditViolation(
                "lifecycle",
                f"job {job.job_id} held {len(job.assigned_nodes)} nodes, "
                f"requested {job.nodes}",
                job_id=job.job_id,
            ))
        if job.state is JobState.KILLED:
            if job.kill_reason not in _VALID_KILL_REASONS:
                report._add(AuditViolation(
                    "lifecycle",
                    f"killed job {job.job_id} has invalid kill reason "
                    f"{job.kill_reason!r}",
                    job_id=job.job_id,
                ))
            elif job.kill_reason == "walltime" and kill_policy == "none":
                report._add(AuditViolation(
                    "lifecycle",
                    f"job {job.job_id} walltime-killed under kill policy "
                    "'none' (overruns must run to completion)",
                    job_id=job.job_id,
                ))
            elif job.kill_reason == "node_failure" and not result.failures:
                report._add(AuditViolation(
                    "lifecycle",
                    f"job {job.job_id} killed by node failure but the run "
                    "has no failure trace",
                    job_id=job.job_id,
                ))
        elif job.kill_reason:
            report._add(AuditViolation(
                "lifecycle",
                f"{job.state.value} job {job.job_id} carries kill reason "
                f"{job.kill_reason!r}",
                job_id=job.job_id,
            ))


def _check_nodes(result: "SimulationResult", report: AuditReport) -> None:
    num_nodes = result.cluster_spec.num_nodes
    # Per-node event sweep, recomputed from the job records alone:
    # +1 at each start, -1 at each end, releases applied before
    # same-instant grants (the engine's FINISH-before-SCHEDULE order).
    events: Dict[int, List[Tuple[float, int, int]]] = {}
    jobs_on_node: Dict[int, List] = {}
    assignments = 0
    for job in result.finished:
        if job.start_time is None or job.end_time is None:
            continue  # reported by lifecycle
        assignments += len(job.assigned_nodes)
        for node_id in dict.fromkeys(job.assigned_nodes):
            jobs_on_node.setdefault(node_id, []).append(job)
        for node_id in job.assigned_nodes:
            if not 0 <= node_id < num_nodes:
                report._add(AuditViolation(
                    "node-unknown",
                    f"job {job.job_id} assigned to nonexistent node {node_id} "
                    f"(machine has {num_nodes})",
                    job_id=job.job_id, node_id=node_id,
                ))
                continue
            node_events = events.setdefault(node_id, [])
            if job.end_time == job.start_time:
                # A zero-length hold (killed at its start instant) sits
                # between the instant's releases and grants: a job the
                # same instant's later pass starts there is not charged
                # with it.
                node_events.append((job.start_time, 0, job.job_id))
                continue
            node_events.append((job.start_time, +1, job.job_id))
            node_events.append((job.end_time, -1, job.job_id))
    if assignments:
        report._count("node-unknown", assignments)
    for node_id, node_events in sorted(events.items()):
        node_events.sort(key=itemgetter(0, 1))
        report._count("node-oversubscription", len(node_events))
        holders: set = set()
        for time, delta, job_id in node_events:
            if delta < 0:
                holders.discard(job_id)
                continue
            if holders:
                other = sorted(holders)[0]
                report._add(AuditViolation(
                    "node-oversubscription",
                    f"node {node_id} double-booked at t={time}: job {job_id} "
                    f"starts while job {other} still holds it",
                    job_id=job_id, node_id=node_id, time=time,
                ))
            if delta:
                holders.add(job_id)

    windows = _effective_down_windows(result.failures, result.started_at)
    for failure, window in zip(result.failures, windows):
        victims = jobs_on_node.get(failure.node_id)
        if not victims:
            continue
        report._count("node-downtime", len(victims))
        if window is None:
            continue  # absorbed by an overlapping failure
        down_start, down_end = window
        for job in victims:
            # The failure's victim ends exactly at the failure instant;
            # anything extending beyond it ran on a down node.
            if (
                job.start_time < down_end - _EPS
                and job.end_time > down_start + _EPS
            ):
                report._add(AuditViolation(
                    "node-downtime",
                    f"job {job.job_id} ran [{job.start_time},{job.end_time}) "
                    f"on node {failure.node_id} through its down window "
                    f"[{down_start},{down_end})",
                    job_id=job.job_id, node_id=failure.node_id,
                    time=down_start,
                ))


def _effective_down_windows(
    failures: List["FailureEvent"], origin: float
) -> List[Optional[Tuple[float, float]]]:
    """``[time, time + repair)`` per failure that actually took its node
    down, ``None`` per failure the engine ignores.  Replays the engine's
    rules: failures fire in stable ``(time, node_id)`` order, clamped to
    the clock ``origin`` (the earliest submission); one repaired by the
    origin never fires, and one arriving while its node is already
    down — including at the repair instant, since failures precede
    repairs within an instant — is absorbed and extends nothing."""
    windows: List[Optional[Tuple[float, float]]] = [None] * len(failures)
    down_until: Dict[int, float] = {}
    for index in sorted(
        range(len(failures)),
        key=lambda i: (failures[i].time, failures[i].node_id),
    ):
        failure = failures[index]
        fires_at = max(failure.time, origin)
        repair_at = failure.time + failure.repair_time
        if repair_at <= fires_at:
            continue
        if fires_at <= down_until.get(failure.node_id, float("-inf")):
            continue
        down_until[failure.node_id] = repair_at
        windows[index] = (failure.time, repair_at)
    return windows


def _pool_capacities(result: "SimulationResult") -> Dict[str, int]:
    spec = result.cluster_spec
    capacities: Dict[str, int] = {}
    if spec.pool.global_pool > 0:
        capacities["global"] = spec.pool.global_pool
    if spec.pool.rack_pool > 0:
        for rack_id in range(spec.num_racks):
            capacities[f"rack{rack_id}"] = spec.pool.rack_pool
    return capacities


def _job_pool_series(
    result: "SimulationResult", pool_id: str
) -> List[Tuple[float, int]]:
    """Occupancy step series for one pool derived from job records
    alone — same same-instant netting as the ledger's series, so the
    two are directly comparable."""
    deltas: Dict[float, int] = {}
    for job in result.finished:
        if job.start_time is None or job.end_time is None:
            continue
        amount = job.pool_grants.get(pool_id, 0)
        if amount == 0:
            continue
        deltas[job.start_time] = deltas.get(job.start_time, 0) + amount
        deltas[job.end_time] = deltas.get(job.end_time, 0) - amount
    series: List[Tuple[float, int]] = []
    level = 0
    for time in sorted(deltas):
        level += deltas[time]
        series.append((time, level))
    return series


def _canonical_steps(series: List[Tuple[float, int]]) -> List[Tuple[float, int]]:
    """Drop points that do not change the level: two series describe
    the same step function iff their canonical forms are equal."""
    steps: List[Tuple[float, int]] = []
    level = 0
    for time, new_level in series:
        if new_level != level:
            steps.append((time, new_level))
            level = new_level
    return steps


def _check_pools(result: "SimulationResult", report: AuditReport) -> None:
    capacities = _pool_capacities(result)
    seen_pools = {
        pool_id
        for job in result.finished
        for pool_id in job.pool_grants
        if job.pool_grants.get(pool_id, 0) != 0
    }
    for pool_id in sorted(seen_pools - set(capacities)):
        report._add(AuditViolation(
            "pool-unknown",
            f"grants against nonexistent pool {pool_id!r}",
            pool_id=pool_id,
        ))
    report._count("pool-unknown", max(1, len(seen_pools)))
    for pool_id, capacity in sorted(capacities.items()):
        for time, level in _job_pool_series(result, pool_id):
            report._count("pool-oversubscription")
            if level > capacity + _EPS:
                report._add(AuditViolation(
                    "pool-oversubscription",
                    f"pool {pool_id} over capacity at t={time}: "
                    f"{level} > {capacity} MiB",
                    pool_id=pool_id, time=time,
                ))
            if level < -_EPS:
                report._add(AuditViolation(
                    "pool-oversubscription",
                    f"pool {pool_id} occupancy negative at t={time}: {level}",
                    pool_id=pool_id, time=time,
                ))


def _check_ledger(result: "SimulationResult", report: AuditReport) -> None:
    if result.rolling is not None:
        return  # rolling-aggregation runs disable the ledger by design
    report._count("ledger-conservation")
    try:
        result.ledger.verify_conservation()
    except AllocationError as exc:
        report._add(AuditViolation("ledger-conservation", str(exc)))
    capacities = _pool_capacities(result)
    ledger_pools = {
        pool_id
        for entry in result.ledger
        for pool_id, _ in entry.pool_grants
    }
    job_pools = {
        pool_id
        for job in result.finished
        for pool_id in job.pool_grants
        if job.pool_grants.get(pool_id, 0) != 0
    }
    for pool_id in sorted(ledger_pools | job_pools | set(capacities)):
        report._count("ledger-mismatch")
        from_ledger = _canonical_steps(
            result.ledger.pool_occupancy_series(pool_id)
        )
        from_jobs = _canonical_steps(_job_pool_series(result, pool_id))
        if from_ledger != from_jobs:
            divergence = next(
                (
                    (a, b)
                    for a, b in zip(from_ledger, from_jobs)
                    if a != b
                ),
                (
                    from_ledger[len(from_jobs):len(from_jobs) + 1] or None,
                    from_jobs[len(from_ledger):len(from_ledger) + 1] or None,
                ),
            )
            report._add(AuditViolation(
                "ledger-mismatch",
                f"pool {pool_id}: ledger occupancy diverges from the "
                f"job-record occupancy (first divergence: ledger="
                f"{divergence[0]}, jobs={divergence[1]})",
                pool_id=pool_id,
            ))


def _check_split(result: "SimulationResult", report: AuditReport) -> None:
    spec = result.cluster_spec
    per_rack = spec.nodes_per_rack
    for job in result.finished:
        report._count("split")
        if job.local_grant_per_node + job.remote_per_node != job.mem_per_node:
            report._add(AuditViolation(
                "split",
                f"job {job.job_id}: split {job.local_grant_per_node}+"
                f"{job.remote_per_node} != request {job.mem_per_node}",
                job_id=job.job_id,
            ))
        if job.local_grant_per_node > spec.node.local_mem:
            report._add(AuditViolation(
                "split",
                f"job {job.job_id}: local grant {job.local_grant_per_node} "
                f"exceeds node capacity {spec.node.local_mem}",
                job_id=job.job_id,
            ))
        total_remote = job.remote_per_node * job.nodes
        granted = sum(job.pool_grants.values())
        if granted != total_remote:
            report._add(AuditViolation(
                "split",
                f"job {job.job_id}: pool grants {granted} != remote demand "
                f"{total_remote}",
                job_id=job.job_id,
            ))
        nodes_per_rack_of_job: Dict[int, int] = {}
        for node_id in job.assigned_nodes:
            rack = node_id // per_rack
            nodes_per_rack_of_job[rack] = nodes_per_rack_of_job.get(rack, 0) + 1
        for pool_id, amount in job.pool_grants.items():
            if pool_id == "global" or not pool_id.startswith("rack"):
                continue  # unknown pools are pool-unknown's business
            try:
                rack_id = int(pool_id[len("rack"):])
            except ValueError:
                continue
            if rack_id not in nodes_per_rack_of_job:
                report._add(AuditViolation(
                    "split",
                    f"job {job.job_id} drew {amount} MiB from {pool_id} but "
                    f"has no node in rack {rack_id}",
                    job_id=job.job_id, pool_id=pool_id,
                ))
                continue
            limit = nodes_per_rack_of_job[rack_id] * job.remote_per_node
            if amount > limit:
                report._add(AuditViolation(
                    "split",
                    f"job {job.job_id} drew {amount} MiB from {pool_id}, "
                    f"more than its {nodes_per_rack_of_job[rack_id]} nodes "
                    f"in that rack can consume ({limit})",
                    job_id=job.job_id, pool_id=pool_id,
                ))


def _check_metrics(result: "SimulationResult", report: AuditReport) -> None:
    for job in result.finished:
        if job.start_time is None or job.end_time is None:
            continue
        report._count("metrics")
        if job.start_time < job.submit_time - _EPS:
            report._add(AuditViolation(
                "metrics",
                f"job {job.job_id} started at {job.start_time}, before its "
                f"submission at {job.submit_time}",
                job_id=job.job_id, time=job.start_time,
            ))
        if job.wait_time < -_EPS:
            report._add(AuditViolation(
                "metrics", f"job {job.job_id} has negative wait",
                job_id=job.job_id,
            ))
        if job.bounded_slowdown() < 1.0 - _EPS:
            report._add(AuditViolation(
                "metrics", f"job {job.job_id} bounded slowdown below 1",
                job_id=job.job_id,
            ))
        if job.state is JobState.COMPLETED:
            expected = job.dilated_runtime
            actual = job.end_time - job.start_time
            if abs(actual - expected) > _DURATION_TOL:
                report._add(AuditViolation(
                    "metrics",
                    f"job {job.job_id} completed in {actual}, expected "
                    f"dilated runtime {expected}",
                    job_id=job.job_id,
                ))


def _promise_severity(
    info: Mapping[str, str], has_failures: bool
) -> Optional[str]:
    """Severity of a broken promise, or None when promises bind nothing.

    Promises are hard guarantees (``"error"``) only for EASY backfill
    under FCFS order (later arrivals cannot overtake), bounded runtimes
    (estimates are upper bounds), memory-aware reservations (a
    memory-blind shadow is exactly the promise the paper shows being
    broken), no start gate (a gate may deliberately hold a job past its
    promised start), and no failure trace (a shadow computed on
    capacity that then died may legally slip).

    Under the same conditions conservative promises are ``"advisory"``:
    conservative backfill here is *recompute-style* — the reservation
    schedule is rebuilt every cycle, and greedy earliest-start
    schedules are not monotone under early completions (a
    higher-priority job shifting earlier can legitimately push a
    lower-priority reservation later) — so an overshoot is worth
    surfacing but is not an error.
    """
    if (
        info.get("queue") != "fcfs"
        or info.get("kill") == "none"
        or info.get("memory_aware") == "false"
        or info.get("gate") != "always"
        or has_failures
    ):
        return None
    return {"easy": "error", "conservative": "advisory"}.get(info.get("backfill"))


def _check_promises(result: "SimulationResult", report: AuditReport) -> None:
    jobs_by_id: Dict[int, Any] = {}
    for job in result.jobs:
        jobs_by_id.setdefault(job.job_id, job)  # first match, as result.job
    for job_id, promise in sorted(result.promises.items()):
        report._count("promise")
        if promise.promised_start < promise.decided_at - _DURATION_TOL:
            report._add(AuditViolation(
                "promise",
                f"promise for job {job_id} is in the past: promised start "
                f"{promise.promised_start} < decided at {promise.decided_at}",
                job_id=job_id, time=promise.decided_at,
            ))
        job = jobs_by_id.get(job_id)
        if job is None:
            report._add(AuditViolation(
                "promise", f"promise for unknown job {job_id}", job_id=job_id,
            ))
            continue
        if promise.decided_at < job.submit_time - _DURATION_TOL:
            report._add(AuditViolation(
                "promise",
                f"promise for job {job_id} decided at {promise.decided_at}, "
                f"before its submission at {job.submit_time}",
                job_id=job_id, time=promise.decided_at,
            ))
    severity = _promise_severity(
        result.scheduler_info, has_failures=bool(result.failures)
    )
    if severity is None:
        return
    for job_id, promise in sorted(result.promises.items()):
        job = jobs_by_id.get(job_id)
        if job is None:
            continue  # already reported above
        if job.state is JobState.REJECTED or job.start_time is None:
            continue
        report._count("promise")
        if job.start_time > promise.promised_start + _DURATION_TOL:
            report._add(AuditViolation(
                "promise",
                f"backfill promise violated: job {job_id} promised start "
                f"{promise.promised_start} (decided t={promise.decided_at}) "
                f"but started {job.start_time}",
                severity=severity, job_id=job_id, time=job.start_time,
            ))


def _fcfs_order_applies(info: Mapping[str, str]) -> bool:
    """Strict FCFS non-overtaking holds only without backfill (any
    backfill exists precisely to overtake) and without a gate (a gate
    holds individual jobs out of order)."""
    return (
        info.get("backfill") == "none"
        and info.get("queue") == "fcfs"
        and info.get("gate") == "always"
    )


def _fairshare_order_applies(info: Mapping[str, str], has_failures: bool) -> bool:
    """Same-user submit-order monotonicity under fairshare queueing.

    Sound only without backfill: the no-backfill scan stops at the
    first blocked job, and two jobs of one user always appear in
    submit order within a pass (equal usage at equal instants ties to
    submit time), so the later one can never start first.  With
    backfill the later, smaller job may legitimately overtake its
    sibling.
    """
    return (
        info.get("queue") == "fairshare"
        and info.get("backfill") == "none"
        and info.get("gate") == "always"
        and not has_failures
    )


def _check_order(result: "SimulationResult", report: AuditReport) -> None:
    info = result.scheduler_info
    if _fcfs_order_applies(info):
        ran = sorted(
            result.finished, key=lambda job: (job.submit_time, job.job_id)
        )
        for earlier, later in zip(ran, ran[1:]):
            report._count("order")
            if later.start_time < earlier.start_time - _EPS:
                report._add(AuditViolation(
                    "order",
                    f"FCFS/no-backfill overtaking: job {later.job_id} "
                    f"(submitted {later.submit_time}) started "
                    f"{later.start_time}, before job {earlier.job_id} "
                    f"(submitted {earlier.submit_time}, started "
                    f"{earlier.start_time})",
                    job_id=later.job_id, time=later.start_time,
                ))
    if _fairshare_order_applies(info, has_failures=bool(result.failures)):
        by_user: Dict[str, List] = {}
        for job in result.finished:
            by_user.setdefault(job.user, []).append(job)
        for user, jobs in sorted(by_user.items()):
            jobs.sort(key=lambda job: (job.submit_time, job.job_id))
            for earlier, later in zip(jobs, jobs[1:]):
                report._count("order")
                if later.start_time < earlier.start_time - _EPS:
                    report._add(AuditViolation(
                        "order",
                        f"fairshare monotonicity: user {user}'s job "
                        f"{later.job_id} (submitted {later.submit_time}) "
                        f"started {later.start_time}, overtaking sibling "
                        f"{earlier.job_id} (submitted {earlier.submit_time}, "
                        f"started {earlier.start_time})",
                        job_id=later.job_id, time=later.start_time,
                    ))
