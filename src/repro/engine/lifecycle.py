"""Job lifecycle transitions.

Centralizing the state machine keeps transition legality in one place:
the engine calls these helpers instead of poking job fields, and every
illegal transition raises immediately rather than corrupting a run.
"""

from __future__ import annotations

from typing import Optional

from ..cluster.masks import ids_of
from ..errors import SimulationError
from ..sched.base import KillPolicy, StartDecision
from ..workload.job import Job, JobState

__all__ = [
    "kill_bound",
    "start_job",
    "complete_job",
    "kill_job",
    "reject_job",
    "cancel_job",
]


def kill_bound(job: Job, policy: KillPolicy) -> Optional[float]:
    """Maximum runtime the system grants the job, or ``None``.

    Uses the job's *realized* dilation, so it is only meaningful after
    the dilation has been fixed at start.
    """
    if policy is KillPolicy.STRICT:
        return job.walltime
    if policy is KillPolicy.DILATION_AWARE:
        return job.dilated_walltime
    return None


def start_job(job: Job, now: float, decision: StartDecision, dilation: float) -> None:
    """PENDING → RUNNING with the decision's grants recorded.

    The one place a placement's node mask is decoded: the job's
    ``assigned_nodes`` list, in placement order.  Placement, trials,
    reservations and the cluster all work on the mask.
    """
    if job.state is not JobState.PENDING:
        raise SimulationError(
            f"job {job.job_id} cannot start from state {job.state.value}"
        )
    if dilation < 0:
        raise SimulationError(f"job {job.job_id}: negative dilation {dilation}")
    job.state = JobState.RUNNING
    job.start_time = now
    job.assigned_nodes = ids_of(decision.node_mask)
    job.local_grant_per_node = decision.split.local
    job.remote_per_node = decision.split.remote
    job.pool_grants = dict(decision.plan)
    job.dilation = dilation


def complete_job(job: Job, now: float) -> None:
    """RUNNING → COMPLETED."""
    if job.state is not JobState.RUNNING:
        raise SimulationError(
            f"job {job.job_id} cannot complete from state {job.state.value}"
        )
    job.state = JobState.COMPLETED
    job.end_time = now


def kill_job(job: Job, now: float, reason: str = "walltime") -> None:
    """RUNNING → KILLED (walltime bound exceeded, or node failure)."""
    if job.state is not JobState.RUNNING:
        raise SimulationError(
            f"job {job.job_id} cannot be killed from state {job.state.value}"
        )
    job.state = JobState.KILLED
    job.end_time = now
    job.kill_reason = reason


def reject_job(job: Job, now: float) -> None:
    """PENDING → REJECTED (cannot ever fit the machine)."""
    if job.state is not JobState.PENDING:
        raise SimulationError(
            f"job {job.job_id} cannot be rejected from state {job.state.value}"
        )
    job.state = JobState.REJECTED
    job.end_time = now


def cancel_job(job: Job, now: float) -> None:
    """PENDING → CANCELLED (withdrawn by its owner while queued).

    Only queued jobs cancel this way; cancelling a *running* job is a
    kill (``kill_job`` with reason ``"cancelled"``) because resources
    were held and the execution record must survive for auditing.
    """
    if job.state is not JobState.PENDING:
        raise SimulationError(
            f"job {job.job_id} cannot be cancelled from state {job.state.value}"
        )
    job.state = JobState.CANCELLED
    job.end_time = now
