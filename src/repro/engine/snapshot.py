"""Engine checkpoint/restore: serialize a live online simulation.

A checkpoint captures the *actual* engine state — jobs with their
execution records, the queue and running sets, the event calendar with
its exact ``(time, priority, seq)`` keys, the grant ledger, promises,
and the clock — as one JSON-able document.  Restoring builds a fresh
engine around a fresh cluster and scheduler and re-enters that state
verbatim, so the restored run fires the identical event sequence the
original would have.

What is deliberately *not* serialized: scheduler caches (availability
profiles, reservation plans).  They are rebuilt lazily on the first
pass after restore; the equivalence suites prove cached and
from-scratch passes decide identically, so a cold cache is
decision-transparent.  The one scheduler component that is real state
rather than cache — fair-share usage accounting — is carried through
the queue-policy checkpoint hooks
(:meth:`repro.sched.queue_policies.QueuePolicy.state_dict`).

The snapshot is the service's crash-recovery anchor (restore, then
replay the write-ahead journal suffix) and doubles as the portable
engine-state format for sharded trace replay.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from ..cluster.masks import ids_of
from ..errors import SimulationError
from ..memdis.ledger import LedgerEntry, MemoryLedger
from ..workload.job import Job, JobState
from .failures import FailureEvent
from .results import Promise

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .simulation import SchedulerSimulation

__all__ = ["SNAPSHOT_SCHEMA", "checkpoint_engine", "restore_engine"]

SNAPSHOT_SCHEMA = 1

_JOB_FIELDS = (
    "job_id",
    "submit_time",
    "nodes",
    "walltime",
    "runtime",
    "mem_per_node",
    "mem_used_per_node",
    "user",
    "group",
    "tag",
    "checkpoint_interval",
    "restart_of",
    "restart_count",
    "start_time",
    "end_time",
    "assigned_nodes",
    "local_grant_per_node",
    "remote_per_node",
    "dilation",
    "kill_reason",
)


def _job_to_dict(job: Job) -> Dict:
    doc = {name: getattr(job, name) for name in _JOB_FIELDS}
    doc["assigned_nodes"] = list(job.assigned_nodes)
    doc["pool_grants"] = dict(job.pool_grants)
    doc["state"] = job.state.value
    return doc


def _job_from_dict(doc: Dict) -> Job:
    fields = {name: doc[name] for name in _JOB_FIELDS}
    return Job(
        state=JobState(doc["state"]),
        pool_grants=dict(doc["pool_grants"]),
        **fields,
    )


def _handlers(sim: "SchedulerSimulation") -> Dict:
    """The engine's calendar handlers by snapshot event kind."""
    return {
        "submit": sim._on_submit,
        "finish": sim._on_finish,
        "kill": sim._on_kill,
        "failure": sim._on_node_failure,
        "repair": sim._on_node_repair,
        "schedule": sim._on_schedule,
    }


def checkpoint_engine(sim: "SchedulerSimulation") -> Dict:
    """Serialize an online engine to a JSON-able snapshot document.

    Legal between events only — never mid-pass (the service's engine
    thread checkpoints between inbox drains, which satisfies this by
    construction).
    """
    if not sim.online:
        raise SimulationError("checkpoint requires an online engine")
    if sim._txn is not None:  # pragma: no cover - misuse guard
        raise SimulationError("cannot checkpoint mid-pass")
    if not sim.source_exhausted:
        # The snapshot cannot carry an un-drained iterator; sharded
        # replay checkpoints only after a segment's stream has fully
        # entered the calendar (boundaries sit past the segment's last
        # submission, so this holds by construction).
        raise SimulationError(
            "cannot checkpoint while a job source is still streaming"
        )

    kinds = {handler: kind for kind, handler in _handlers(sim).items()}
    events: List[Dict] = []
    for time, priority, seq, handler, payload in sim._sim.pending():
        kind = kinds.get(handler)
        if kind in ("submit", "finish", "kill"):
            ref = payload.job_id
        elif kind == "failure":
            ref = {
                "time": payload.time,
                "node_id": payload.node_id,
                "repair_time": payload.repair_time,
            }
        elif kind == "repair":
            ref = payload
        elif kind == "schedule":
            ref = None
        else:  # pragma: no cover - future-proofing guard
            raise SimulationError(
                f"cannot checkpoint unknown calendar event {handler!r}"
            )
        events.append(
            {"time": time, "priority": priority, "seq": seq, "kind": kind, "ref": ref}
        )

    return {
        "schema": SNAPSHOT_SCHEMA,
        "clock": sim._sim.clock_state(),
        "jobs": [_job_to_dict(job) for job in sim.jobs],
        "queue": [job.job_id for job in sim._queue],
        "running": [job.job_id for job in sim._running],
        "promises": [
            {
                "job_id": promise.job_id,
                "decided_at": promise.decided_at,
                "promised_start": promise.promised_start,
            }
            for promise in sim._promises.values()
        ],
        "ledger": [
            {
                "time": entry.time,
                "job_id": entry.job_id,
                "kind": entry.kind,
                "local_total": entry.local_total,
                "pool_grants": [list(pair) for pair in entry.pool_grants],
            }
            for entry in sim._ledger.entries
        ],
        "failures": [
            {
                "time": failure.time,
                "node_id": failure.node_id,
                "repair_time": failure.repair_time,
            }
            for failure in sim.failures
        ],
        "events": events,
        "down_nodes": ids_of(sim.cluster.down_mask),
        "max_job_id": sim._max_job_id,
        "cycles": sim._cycles,
        "terminal_count": sim._terminal_count,
        # Rolling-mode engines evict terminal jobs, so the job list no
        # longer implies these; carried explicitly (absent in pre-trace
        # snapshots, where the job list is authoritative).
        "admitted": sim._admitted,
        "first_submit": sim._first_submit,
        "batch_starts": sim._batch_starts,
        "max_events": sim.max_events,
        "queue_policy": sim.scheduler.queue_policy.state_dict(),
    }


def restore_engine(
    cluster,
    scheduler,
    snapshot: Dict,
    *,
    rolling=None,
    job_source=None,
) -> "SchedulerSimulation":
    """Rebuild a live online engine from a snapshot document.

    ``cluster`` and ``scheduler`` must be *fresh* instances built from
    the same experiment configuration that produced the snapshot (the
    service layer fingerprints the config to enforce this).  Running
    jobs' node and pool grants are re-applied to the cluster, down
    nodes taken down, the ledger and calendar re-entered with their
    exact original keys, and stateful queue-policy accounting
    reloaded.  Scheduler caches start cold, which is
    decision-transparent.

    ``rolling`` re-arms rolling aggregation (sharded replay gives each
    shard its own sink, seeded with the chain's stats so far).
    ``job_source`` attaches a streaming source *after* the calendar is
    re-entered and the clock restored, so the chained submit events
    take sequence numbers strictly after every restored event — the
    same keys an uninterrupted run would assign.
    """
    from .simulation import SchedulerSimulation  # deferred: import cycle

    if snapshot.get("schema") != SNAPSHOT_SCHEMA:
        raise SimulationError(
            f"snapshot schema {snapshot.get('schema')!r} is not "
            f"{SNAPSHOT_SCHEMA} (incompatible checkpoint)"
        )

    sim = SchedulerSimulation(
        cluster,
        scheduler,
        [],
        max_events=snapshot.get("max_events"),
        batch_starts=snapshot.get("batch_starts", True),
        online=True,
        start_time=float(snapshot["clock"]["now"]),
        rolling=rolling,
    )

    jobs = [_job_from_dict(doc) for doc in snapshot["jobs"]]
    by_id = {job.job_id: job for job in jobs}
    if len(by_id) != len(jobs):
        raise SimulationError("snapshot contains duplicate job ids")
    sim.jobs = jobs
    sim._jobs_by_id = by_id
    sim._queue = [by_id[job_id] for job_id in snapshot["queue"]]
    sim._running = [by_id[job_id] for job_id in snapshot["running"]]
    sim._max_job_id = int(snapshot["max_job_id"])
    sim._cycles = int(snapshot["cycles"])
    sim._terminal_count = int(snapshot["terminal_count"])
    sim._admitted = int(snapshot.get("admitted", len(jobs)))
    first_submit = snapshot.get("first_submit")
    if first_submit is None and jobs:
        first_submit = min(job.submit_time for job in jobs)
    sim._first_submit = first_submit
    sim.failures = [
        FailureEvent(
            time=doc["time"],
            node_id=doc["node_id"],
            repair_time=doc["repair_time"],
        )
        for doc in snapshot["failures"]
    ]
    sim._promises = {
        doc["job_id"]: Promise(
            job_id=doc["job_id"],
            decided_at=doc["decided_at"],
            promised_start=doc["promised_start"],
        )
        for doc in snapshot["promises"]
    }
    sim._ledger = MemoryLedger.from_entries(
        LedgerEntry(
            time=doc["time"],
            job_id=doc["job_id"],
            kind=doc["kind"],
            local_total=doc["local_total"],
            pool_grants=tuple(
                (pool_id, amount) for pool_id, amount in doc["pool_grants"]
            ),
        )
        for doc in snapshot["ledger"]
    )

    # Node ids become masks here.  Every id is checked (a plain int
    # inside the machine, no repeats) before any of them touches the
    # cluster.  Live grants are re-applied before nodes are taken down:
    # a down node is never busy, so the two operations cannot collide.
    held = [cluster.checked_mask(job.assigned_nodes) for job in sim._running]
    down_nodes = snapshot["down_nodes"]
    cluster.checked_mask(down_nodes)
    for job, node_mask in zip(sim._running, held):
        cluster.allocate_nodes(job.job_id, node_mask, job.local_grant_per_node)
        cluster.allocate_pool(job.job_id, job.pool_grants)
    for node_id in down_nodes:
        cluster.take_down(node_id)

    # Calendar: re-enter every live event under its original key so
    # the restored run loop fires the identical total order.
    handlers = _handlers(sim)
    sim._pass_requested = False
    for doc in snapshot["events"]:
        kind = doc["kind"]
        ref = doc["ref"]
        if kind in ("submit", "finish", "kill"):
            payload = by_id[ref]
        elif kind == "failure":
            payload = FailureEvent(
                time=ref["time"],
                node_id=ref["node_id"],
                repair_time=ref["repair_time"],
            )
        elif kind == "repair":
            payload = ref
        elif kind == "schedule":
            payload = None
            sim._pass_requested = True
        else:
            raise SimulationError(f"unknown snapshot event kind {kind!r}")
        handle = sim._sim.restore_event(
            doc["time"], doc["priority"], doc["seq"], handlers[kind], payload
        )
        if kind == "submit":
            sim._submit_events[payload.job_id] = handle
        elif kind in ("finish", "kill"):
            sim._end_events[payload.job_id] = handle
    sim._sim.restore_clock(snapshot["clock"])

    policy_state = snapshot.get("queue_policy")
    if policy_state is not None:
        scheduler.queue_policy.load_state(policy_state, by_id.get)
    if job_source is not None:
        sim.attach_source(job_source)
    return sim
