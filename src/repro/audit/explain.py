"""Per-job schedule explanations: *why this start time*.

:func:`explain_schedule` replays a finished
:class:`~repro.engine.results.SimulationResult` chronologically on a
fresh :class:`~repro.cluster.cluster.Cluster` — ends before starts at
each instant, failure windows honored, exactly the engine's event
order — and, at every instant a queried job spent waiting, asks the
*same* feasibility question the scheduler's ``try_start_now`` asks:
are there enough free nodes, does placement accept them, can the
allocator cover the remote demand?  The answers classify each wait:

* the job was **physically blocked** until some instant — the binding
  constraint is ``node-availability`` or ``pool-capacity`` (the same
  taxonomy the service ``advise`` endpoint reports, shared via
  :mod:`repro.sched.base`), and the **bounding breakpoint** is the
  release instant that first made it feasible;
* the job was startable the whole time — the hold was **policy**:
  the start gate when one is configured, otherwise EASY's shadow
  window, conservative's reservation order, or strict queue order
  (:func:`repro.sched.base.policy_hold_kind`).

The ``at_submit`` field is the advise-compatible classification at the
submission instant; the differential suite asserts it agrees with a
live ``advise`` call and with the brute-force oracle.  Explanations
are a read-only reconstruction: run :func:`repro.audit.deep_audit`
first — an invalid schedule cannot be replayed, and this module raises
:class:`~repro.errors.AuditError` when it hits one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Tuple

from ..cluster.cluster import Cluster
from ..errors import AllocationError, AuditError
from ..memdis.allocator import (
    GlobalPoolAllocator,
    HybridAllocator,
    PoolAllocator,
    RackLocalAllocator,
)
from ..sched.base import (
    BOUND_GATE,
    BOUND_MACHINE,
    BOUND_NODES,
    BOUND_NONE,
    BOUND_POOL,
    policy_hold_kind,
)
from ..sched.placement import PlacementPolicy, placement_for
from ..workload.job import Job, JobState

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from ..engine.results import SimulationResult

__all__ = ["JobExplanation", "explain_schedule", "explain_job"]

_EPS = 1e-6

# Replay phase order at one instant: releases and failure edges become
# visible before the pass applies its starts (FINISH < KILL < SCHEDULE
# in the engine's event calendar); probes observe the post-pass state.
_PHASE_END, _PHASE_DOWN, _PHASE_UP, _PHASE_START, _PHASE_PROBE = range(5)


@dataclass(frozen=True)
class JobExplanation:
    """Why one job started when it did (or never did)."""

    job_id: int
    state: str
    submit_time: float
    start_time: Optional[float]
    wait: Optional[float]
    #: advise-compatible classification at the submission instant.
    at_submit: Optional[str]
    #: the binding constraint over the whole wait: a physical bound
    #: (node-availability / pool-capacity), a policy hold
    #: (gate / shadow-window / reservation-order / queue-order),
    #: "none", "machine-capacity", or "cancelled".
    binding: str
    #: last instant the job was physically infeasible (None if never).
    blocked_until: Optional[float]
    #: first instant the binding axis became feasible again — the
    #: release that unblocked the job (the start itself when the job
    #: started the moment it fit).
    bounding_breakpoint: Optional[float]
    detail: str
    promised_start: Optional[float] = None
    promise_decided_at: Optional[float] = None

    def to_dict(self) -> Dict[str, Any]:
        doc = {
            "job_id": self.job_id,
            "state": self.state,
            "submit_time": self.submit_time,
            "start_time": self.start_time,
            "wait": self.wait,
            "at_submit": self.at_submit,
            "binding": self.binding,
            "blocked_until": self.blocked_until,
            "bounding_breakpoint": self.bounding_breakpoint,
            "detail": self.detail,
        }
        if self.promised_start is not None:
            doc["promised_start"] = self.promised_start
            doc["promise_decided_at"] = self.promise_decided_at
        return doc

    def describe(self) -> str:
        """One human-readable paragraph for the CLI."""
        head = f"job {self.job_id} [{self.state}]"
        if self.start_time is None:
            return f"{head}: {self.detail}"
        lines = [
            f"{head}: submitted t={self.submit_time:g}, started "
            f"t={self.start_time:g} (waited {self.wait:g}s)",
            f"  binding constraint: {self.binding}",
        ]
        if self.blocked_until is not None:
            lines.append(
                f"  physically infeasible until t={self.blocked_until:g}; "
                f"unblocked by the release(s) at "
                f"t={self.bounding_breakpoint:g}"
            )
        if self.promised_start is not None:
            lines.append(
                f"  promise: start by t={self.promised_start:g} "
                f"(decided t={self.promise_decided_at:g})"
            )
        lines.append(f"  {self.detail}")
        return "\n".join(lines)


def _allocator_for_spec(result: "SimulationResult") -> PoolAllocator:
    """The natural allocator for the machine — the same resolution
    rule as :meth:`repro.sched.base.Scheduler.resolve_allocator`."""
    pool = result.cluster_spec.pool
    if pool.global_pool > 0 and pool.rack_pool > 0:
        return HybridAllocator()
    if pool.rack_pool > 0:
        return RackLocalAllocator()
    return GlobalPoolAllocator()


def _feasible(
    cluster: Cluster,
    placement: PlacementPolicy,
    allocator: PoolAllocator,
    job: Job,
) -> Tuple[bool, str]:
    """Mirror of ``Scheduler.try_start_now`` minus the gate: could the
    job physically start against the cluster's current state?"""
    if job.nodes > cluster.free_node_count:
        return False, BOUND_NODES
    node_mask = placement.select(
        cluster, cluster.free_mask, job.nodes, job.remote_per_node, None
    )
    if node_mask is None:
        return False, BOUND_POOL
    if job.remote_per_node > 0:
        if allocator.plan(cluster, node_mask, job.remote_per_node) is None:
            return False, BOUND_POOL
    return True, BOUND_NONE


def explain_schedule(
    result: "SimulationResult",
    job_ids: Optional[Iterable[int]] = None,
) -> Dict[int, JobExplanation]:
    """Explain every queried job's start time; default: all jobs.

    Cost is O(events x queried-waiting-jobs) feasibility probes — cheap
    for single jobs and small scenarios, deliberate for a full
    trace-scale result.
    """
    jobs = {job.job_id: job for job in result.jobs}
    if job_ids is None:
        queried = set(jobs)
    else:
        queried = set()
        for job_id in job_ids:
            if job_id not in jobs:
                raise KeyError(f"no job {job_id} in this result")
            queried.add(job_id)

    placement = placement_for(
        result.scheduler_info.get("placement", "first_fit")
    )
    allocator = _allocator_for_spec(result)
    cluster = Cluster(result.cluster_spec)

    events: List[Tuple[float, int, Any]] = []
    for job in result.finished:
        if job.start_time is None or job.end_time is None:
            continue
        if job.end_time <= job.start_time + _EPS:
            continue  # degenerate zero-length interval: nothing to replay
        events.append((job.start_time, _PHASE_START, job))
        events.append((job.end_time, _PHASE_END, job))
    for failure in result.failures:
        events.append((failure.time, _PHASE_DOWN, failure.node_id))
        events.append(
            (failure.time + failure.repair_time, _PHASE_UP, failure.node_id)
        )
    # Pseudo-events pin each queried waiter's submit instant onto the
    # probe grid (it need not coincide with any release).
    waiting: Dict[int, Job] = {}
    for job_id in queried:
        job = jobs[job_id]
        if job.start_time is not None and job.start_time > job.submit_time + _EPS:
            events.append((job.submit_time, _PHASE_PROBE, job))
            waiting[job_id] = job
    events.sort(key=lambda event: (event[0], event[1]))

    probes: Dict[int, List[Tuple[float, bool, str]]] = {
        job_id: [] for job_id in waiting
    }
    index = 0
    try:
        while index < len(events):
            time = events[index][0]
            while index < len(events) and events[index][0] == time:
                _, phase, payload = events[index]
                if phase == _PHASE_END:
                    cluster.release_nodes(payload.job_id)
                    cluster.release_pool(payload.job_id)
                elif phase == _PHASE_DOWN:
                    cluster.take_down(payload)
                elif phase == _PHASE_UP:
                    cluster.bring_up(payload)
                elif phase == _PHASE_START:
                    cluster.allocate_nodes(
                        payload.job_id,
                        cluster.checked_mask(payload.assigned_nodes),
                        payload.local_grant_per_node,
                    )
                    grants = {
                        pool_id: amount
                        for pool_id, amount in payload.pool_grants.items()
                        if amount > 0
                    }
                    if grants:
                        cluster.allocate_pool(payload.job_id, grants)
                    waiting.pop(payload.job_id, None)
                index += 1
            for job_id, job in waiting.items():
                if job.submit_time > time + _EPS or time >= job.start_time - _EPS:
                    continue
                ok, axis = _feasible(cluster, placement, allocator, job)
                probes[job_id].append((time, ok, axis))
    except AllocationError as exc:
        raise AuditError(
            "explain_schedule could not replay the schedule (run deep_audit "
            f"— the record is internally inconsistent): {exc}"
        ) from exc

    return {
        job_id: _classify(result, jobs[job_id], probes.get(job_id, []))
        for job_id in sorted(queried)
    }


def explain_job(result: "SimulationResult", job_id: int) -> JobExplanation:
    """Explain one job (convenience wrapper around the full replay)."""
    return explain_schedule(result, [job_id])[job_id]


def _classify(
    result: "SimulationResult",
    job: Job,
    probes: List[Tuple[float, bool, str]],
) -> JobExplanation:
    info = result.scheduler_info
    promise = result.promises.get(job.job_id)
    promised = promise.promised_start if promise else None
    decided = promise.decided_at if promise else None
    base = dict(
        job_id=job.job_id,
        state=job.state.value,
        submit_time=job.submit_time,
        start_time=job.start_time,
        wait=(
            job.start_time - job.submit_time
            if job.start_time is not None
            else None
        ),
        promised_start=promised,
        promise_decided_at=decided,
    )
    if job.state is JobState.REJECTED:
        return JobExplanation(
            **base,
            at_submit=BOUND_MACHINE,
            binding=BOUND_MACHINE,
            blocked_until=None,
            bounding_breakpoint=None,
            detail="rejected: the request exceeds empty-machine capacity "
            "(nodes, or remote demand beyond total pool reach)",
        )
    if job.state is JobState.CANCELLED:
        return JobExplanation(
            **base,
            at_submit=None,
            binding="cancelled",
            blocked_until=None,
            bounding_breakpoint=None,
            detail="cancelled by its owner before it started",
        )
    if job.start_time is None:  # defensive: lifecycle audit territory
        return JobExplanation(
            **base,
            at_submit=None,
            binding="unknown",
            blocked_until=None,
            bounding_breakpoint=None,
            detail="no execution record to explain",
        )
    if job.start_time <= job.submit_time + _EPS or not probes:
        return JobExplanation(
            **base,
            at_submit=BOUND_NONE,
            binding=BOUND_NONE,
            blocked_until=None,
            bounding_breakpoint=None,
            detail="started the instant it was submitted: free nodes and "
            "pool capacity covered it immediately",
        )

    first = probes[0]
    at_submit = BOUND_NONE if first[1] else first[2]
    blocked = [probe for probe in probes if not probe[1]]
    if blocked:
        last_blocked = blocked[-1]
        breakpoint_ = next(
            (t for t, ok, _ in probes if t > last_blocked[0] and ok),
            job.start_time,
        )
        axis = last_blocked[2]
        what = (
            "enough free nodes"
            if axis == BOUND_NODES
            else "remote pool capacity"
        )
        return JobExplanation(
            **base,
            at_submit=at_submit,
            binding=axis,
            blocked_until=last_blocked[0],
            bounding_breakpoint=breakpoint_,
            detail=f"waited for {what}: infeasible from "
            f"t={last_blocked[0]:g} until the release(s) at "
            f"t={breakpoint_:g} made room",
        )
    if info.get("gate", "always") != "always":
        return JobExplanation(
            **base,
            at_submit=BOUND_GATE if at_submit == BOUND_NONE else at_submit,
            binding=BOUND_GATE,
            blocked_until=None,
            bounding_breakpoint=None,
            detail=f"physically startable for its whole wait; the "
            f"{info.get('gate')!r} start gate (or queue competition) "
            "held it back",
        )
    hold = policy_hold_kind(info.get("backfill", ""))
    promise_note = (
        f" (its reservation promised t={promised:g})"
        if promised is not None
        else ""
    )
    return JobExplanation(
        **base,
        at_submit=at_submit,
        binding=hold,
        blocked_until=None,
        bounding_breakpoint=None,
        detail=f"physically startable for its whole wait; held by the "
        f"{info.get('backfill')} policy's {hold}{promise_note} — starting "
        "earlier would have delayed a higher-priority reservation",
    )
