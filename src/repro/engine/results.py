"""The record a simulation run leaves behind.

Everything downstream (metrics, audits, reports, benches) consumes a
:class:`SimulationResult`; nothing reaches back into the engine.  The
result deliberately stores the *jobs themselves* (with their execution
records) rather than extracted arrays, so late-added metrics never
require engine changes.

Trace-scale runs cannot afford that: a million-job replay would hold a
million Job objects (plus ledger entries and promises) to the end.  The
**rolling-aggregation mode** lives here too — :class:`RollingResults`
ingests each job *as it reaches a terminal state*, folds it into exact
online accumulators (:class:`RollingStats`), optionally spills the full
per-job record to a JSONL sink, and lets the engine evict the object.
Peak memory becomes O(active jobs), not O(trace length).

Determinism contract: :func:`job_record` + :func:`canonical_json` are
the *only* serialization of a terminal job, and ``RollingStats`` folds
records (not live objects), so a fold over spilled JSONL lines is
bit-identical to the fold performed live.  The accumulators themselves
survive a JSON round trip exactly (``to_dict``/``from_dict``), which is
what lets sharded replay carry one sequential fold across segment
boundaries and prove itself field-for-field equal to an uninterrupted
run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields as dataclass_fields
from typing import Dict, IO, List, Optional

from ..cluster.spec import ClusterSpec
from ..memdis.ledger import MemoryLedger
from ..workload.job import Job, JobState

__all__ = [
    "Promise",
    "Sample",
    "SimulationResult",
    "RollingStats",
    "RollingResults",
    "job_record",
    "canonical_json",
]


@dataclass(frozen=True)
class Promise:
    """A backfill reservation promise recorded for auditing.

    ``decided_at`` is when the scheduler made the promise;
    ``promised_start`` the reservation's start.  Only the *first*
    promise per job is kept — it is the strongest bound a later
    backfill decision must honor.
    """

    job_id: int
    decided_at: float
    promised_start: float


@dataclass(frozen=True, slots=True)
class Sample:
    """One time-series sample of system state (slotted: one instance
    per sampling tick over long simulations)."""

    time: float
    queue_length: int
    running_jobs: int
    busy_nodes: int
    local_mem_granted: int
    pool_used: int
    pool_capacity: int


@dataclass
class SimulationResult:
    """Complete record of one simulation run."""

    jobs: List[Job]
    cluster_spec: ClusterSpec
    scheduler_info: Dict[str, str]
    ledger: MemoryLedger
    promises: Dict[int, Promise] = field(default_factory=dict)
    samples: List[Sample] = field(default_factory=list)
    failures: List["FailureEvent"] = field(default_factory=list)  # noqa: F821
    cycles: int = 0
    events: int = 0
    started_at: float = 0.0  # earliest submit
    finished_at: float = 0.0  # latest terminal time
    #: Backfill cache/replay counters by ledger ("shadow", "replay") —
    #: observability of the incremental fast paths, never decision
    #: state, and deliberately excluded from serialized records.
    strategy_stats: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: Set when the run executed in rolling-aggregation mode: the exact
    #: online accumulators over every terminal job.  ``jobs`` then holds
    #: only whatever was still live at the end (normally nothing).
    rolling: Optional["RollingStats"] = None

    # ------------------------------------------------------------------
    def by_state(self, state: JobState) -> List[Job]:
        return [job for job in self.jobs if job.state is state]

    @property
    def completed(self) -> List[Job]:
        return self.by_state(JobState.COMPLETED)

    @property
    def killed(self) -> List[Job]:
        return self.by_state(JobState.KILLED)

    @property
    def rejected(self) -> List[Job]:
        return self.by_state(JobState.REJECTED)

    @property
    def finished(self) -> List[Job]:
        """Jobs that ran to a terminal state on the machine (not rejected)."""
        return [
            job
            for job in self.jobs
            if job.state in (JobState.COMPLETED, JobState.KILLED)
        ]

    @property
    def makespan(self) -> float:
        """Last terminal time minus first submission."""
        return self.finished_at - self.started_at

    def job(self, job_id: int) -> Job:
        for job in self.jobs:
            if job.job_id == job_id:
                return job
        raise KeyError(job_id)

    def summary_counts(self) -> Dict[str, int]:
        return {
            "total": len(self.jobs),
            "completed": len(self.completed),
            "killed": len(self.killed),
            "rejected": len(self.rejected),
        }


# ----------------------------------------------------------------------
# Rolling-aggregation mode (trace-scale, bounded memory)
# ----------------------------------------------------------------------

#: Bounded-slowdown floor, matching :meth:`Job.bounded_slowdown`.
_BSLD_TAU = 10.0


def job_record(job: Job, promise: Optional[Promise] = None) -> dict:
    """The canonical per-job terminal record.

    Captures the full request *and* execution record — everything a
    late-added metric could want — in JSON-able form.  This is the unit
    of the sharded-replay identity proof, so every field the engine
    writes must appear here.
    """
    return {
        "job_id": job.job_id,
        "submit": job.submit_time,
        "nodes": job.nodes,
        "walltime": job.walltime,
        "runtime": job.runtime,
        "mem_per_node": job.mem_per_node,
        "mem_used_per_node": job.mem_used_per_node,
        "user": job.user,
        "group": job.group,
        "tag": job.tag,
        "restart_of": job.restart_of,
        "restart_count": job.restart_count,
        "state": job.state.value,
        "start": job.start_time,
        "end": job.end_time,
        "assigned_nodes": list(job.assigned_nodes),
        "local_grant_per_node": job.local_grant_per_node,
        "remote_per_node": job.remote_per_node,
        "pool_grants": dict(job.pool_grants),
        "dilation": job.dilation,
        "kill_reason": job.kill_reason,
        "promise": (
            [promise.decided_at, promise.promised_start]
            if promise is not None
            else None
        ),
    }


_CANONICAL_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(doc: dict) -> str:
    """One-line canonical JSON: sorted keys, no whitespace.

    Python's float repr round-trips exactly, so a record folded after a
    JSON round trip is arithmetically identical to the live one — the
    property the sharded-replay identity check rests on.  One shared
    encoder serves every record (``json.dumps`` with these options
    would build a new one per call); the bytes are the same.
    """
    return _CANONICAL_ENCODER.encode(doc)


@dataclass
class RollingStats:
    """Exact online accumulators over terminal-job records.

    Every value is a plain sum / min / max / count, and, because
    :meth:`add_record` consumes the serialized record, a sequential
    fold over spilled JSONL reproduces the live fold bit-for-bit.
    :meth:`to_dict` / :meth:`from_dict` round-trip the state exactly,
    so a fold can stop at a segment boundary and continue in another
    process: sharded replay stores the *cumulative* stats in each
    segment's done marker and the next segment folds on from them.
    Float sums are not associative, so shards never merge partial
    sums; they continue one fold.
    """

    jobs: int = 0
    completed: int = 0
    killed: int = 0
    rejected: int = 0
    cancelled: int = 0
    finished: int = 0  # completed + killed (ran on the machine)
    promises: int = 0
    first_submit: float = math.inf
    last_end: float = -math.inf
    wait_sum: float = 0.0
    wait_max: float = 0.0
    response_sum: float = 0.0
    response_max: float = 0.0
    bsld_sum: float = 0.0
    bsld_max: float = 0.0
    node_seconds: float = 0.0
    local_grant_node_seconds: float = 0.0
    pool_mib_seconds: float = 0.0
    remote_fraction_sum: float = 0.0
    dilation_sum: float = 0.0

    def add(self, job: Job, promise: Optional[Promise] = None) -> dict:
        """Fold one live job; returns the record it was folded from."""
        rec = job_record(job, promise)
        self.add_record(rec)
        return rec

    def add_record(self, rec: dict) -> None:
        self.jobs += 1
        state = rec["state"]
        if state == "completed":
            self.completed += 1
        elif state == "killed":
            self.killed += 1
        elif state == "rejected":
            self.rejected += 1
        elif state == "cancelled":
            self.cancelled += 1
        if rec["promise"] is not None:
            self.promises += 1
        self.first_submit = min(self.first_submit, rec["submit"])
        start, end = rec["start"], rec["end"]
        if end is not None:
            self.last_end = max(self.last_end, end)
        if state not in ("completed", "killed") or start is None or end is None:
            return
        self.finished += 1
        wait = start - rec["submit"]
        response = end - rec["submit"]
        bsld = max(1.0, response / max(_BSLD_TAU, rec["runtime"]))
        span = end - start
        self.wait_sum += wait
        self.wait_max = max(self.wait_max, wait)
        self.response_sum += response
        self.response_max = max(self.response_max, response)
        self.bsld_sum += bsld
        self.bsld_max = max(self.bsld_max, bsld)
        self.node_seconds += rec["nodes"] * span
        self.local_grant_node_seconds += (
            rec["nodes"] * rec["local_grant_per_node"] * span
        )
        self.pool_mib_seconds += sum(rec["pool_grants"].values()) * span
        denom = rec["mem_per_node"]
        self.remote_fraction_sum += (
            rec["remote_per_node"] / denom if denom else 0.0
        )
        self.dilation_sum += rec["dilation"]

    @property
    def makespan(self) -> float:
        if self.jobs == 0 or not math.isfinite(self.last_end):
            return 0.0
        return self.last_end - self.first_submit

    def to_dict(self) -> dict:
        """Exact (unrounded) accumulator values, JSON-able."""
        out = {f.name: getattr(self, f.name) for f in dataclass_fields(self)}
        # Infinities are not JSON; empty-fold sentinels map to None.
        if not math.isfinite(out["first_submit"]):
            out["first_submit"] = None
        if not math.isfinite(out["last_end"]):
            out["last_end"] = None
        return out

    @classmethod
    def from_dict(cls, doc: dict) -> "RollingStats":
        stats = cls()
        for f in dataclass_fields(cls):
            if f.name in doc and doc[f.name] is not None:
                setattr(stats, f.name, doc[f.name])
        return stats

    def summary_dict(self) -> dict:
        """Headline derived metrics (means over finished jobs)."""
        n = max(1, self.finished)
        return {
            "jobs": self.jobs,
            "completed": self.completed,
            "killed": self.killed,
            "rejected": self.rejected,
            "cancelled": self.cancelled,
            "wait_mean": self.wait_sum / n,
            "wait_max": self.wait_max,
            "response_mean": self.response_sum / n,
            "bsld_mean": self.bsld_sum / n,
            "bsld_max": self.bsld_max,
            "mean_remote_fraction": self.remote_fraction_sum / n,
            "mean_dilation": self.dilation_sum / n,
            "node_seconds": self.node_seconds,
            "makespan": self.makespan,
            "throughput_jobs_per_hour": (
                self.finished / (self.makespan / 3600.0)
                if self.makespan > 0
                else 0.0
            ),
        }


class RollingResults:
    """Terminal-job sink for rolling-aggregation runs.

    The engine calls :meth:`ingest` exactly once per job reaching a
    terminal state (in event order); the sink folds the job into
    :class:`RollingStats` and, when spilling, appends the canonical
    record to a JSONL stream.  ``stats`` continues an earlier fold:
    sharded replay starts segment *k* from segment *k-1*'s cumulative
    stats, so the last segment's stats are the whole chain's and the
    stitch only concatenates the spills.  ``records`` counts this
    sink's own records, not the carried ones.
    """

    def __init__(
        self,
        spill_path: Optional[str] = None,
        spill: Optional[IO[str]] = None,
        stats: Optional[RollingStats] = None,
    ) -> None:
        if spill_path is not None and spill is not None:
            raise ValueError("pass spill_path or spill, not both")
        self.stats = stats if stats is not None else RollingStats()
        self.records = 0
        self._sink: Optional[IO[str]] = spill
        self._owns_sink = False
        if spill_path is not None:
            self._sink = open(spill_path, "w", encoding="utf-8")
            self._owns_sink = True

    def ingest(self, job: Job, promise: Optional[Promise] = None) -> None:
        rec = self.stats.add(job, promise)
        if self._sink is not None:
            self._sink.write(canonical_json(rec) + "\n")
        self.records += 1

    def close(self) -> None:
        if self._sink is not None and self._owns_sink:
            self._sink.close()
        self._sink = None

    def __enter__(self) -> "RollingResults":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
