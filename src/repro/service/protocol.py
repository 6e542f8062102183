"""Wire schema for the scheduler service: specs in, records out.

Everything on the wire is JSON.  A **job spec** is what a client
submits (the request half of :class:`~repro.workload.job.Job`); a
**job record** is what the service reports back (request + execution
record + the service's own latency stamps).  Errors travel as one
envelope shape — ``{"error": {"code": ..., "message": ...}}`` — with
the HTTP status carrying the class of failure.

The schema is versioned (:data:`PROTOCOL_VERSION`); every response
body that is a document (state, metrics, records list) carries the
version so dashboards can detect drift.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Mapping, Optional

from ..engine.results import Promise
from ..errors import ConfigurationError
from ..workload.job import Job

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "check_advance_target",
    "check_idempotency_key",
    "job_from_spec",
    "job_to_record",
    "job_to_request_spec",
    "promise_to_dict",
    "error_envelope",
]

PROTOCOL_VERSION = 1

#: Fields a client may set on a job spec; anything else is a 400 (the
#: strict surface catches typos like ``mem_per_node`` vs ``mem``).
_SPEC_FIELDS = frozenset(
    {
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
    }
)

_REQUIRED_FIELDS = ("nodes", "walltime", "mem_per_node")


class ProtocolError(Exception):
    """A client-visible failure: HTTP status + stable error code.

    ``retry_after`` (seconds) rides along on load-shedding responses
    (429) so clients back off by the amount the service asks for
    instead of guessing.
    """

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        retry_after: Optional[float] = None,
    ) -> None:
        super().__init__(message)
        self.status = int(status)
        self.code = code
        self.message = message
        self.retry_after = retry_after

    def to_dict(self) -> Dict[str, Any]:
        return error_envelope(self.code, self.message, self.retry_after)


def error_envelope(
    code: str, message: str, retry_after: Optional[float] = None
) -> Dict[str, Any]:
    envelope: Dict[str, Any] = {"error": {"code": code, "message": message}}
    if retry_after is not None:
        envelope["error"]["retry_after"] = retry_after
    return envelope


def check_idempotency_key(key: Any) -> Optional[str]:
    """Validate a request's idempotency key (``None`` = none given).

    Keys are opaque client-chosen strings; the service deduplicates
    retries of the same key, so two *different* logical operations must
    never share one (the client library generates UUIDs).
    """
    if key is None:
        return None
    if not isinstance(key, str) or not key or len(key) > 200:
        raise ProtocolError(
            400,
            "invalid_key",
            "idempotency_key must be a non-empty string of at most 200 chars",
        )
    return key


def _finite(value: Any) -> Optional[float]:
    """``value`` as a float when it is a finite number, else None.

    ``json.loads`` accepts ``NaN`` and ``Infinity``, and an integer too
    large for a float; none of them is a usable time or size (a NaN
    time cannot be scheduled, an infinite one never arrives).
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        number = float(value)
    except OverflowError:
        return None
    return number if math.isfinite(number) else None


def check_advance_target(to: Any) -> Optional[float]:
    """Validate an advance target: ``None`` (drain) or a finite time."""
    if to is None:
        return None
    target = _finite(to)
    if target is None:
        raise ProtocolError(
            400, "invalid_request", "advance 'to' must be a finite number or null"
        )
    return target


def _number(key: str, value: Any) -> float:
    number = _finite(value)
    if number is None:
        raise ProtocolError(
            400, "invalid_field", f"job spec field {key!r} must be a finite number"
        )
    return number


def _integer(key: str, value: Any) -> int:
    """An integral finite number as int: ``4.0`` passes, ``4.5`` is
    refused rather than truncated."""
    if not _number(key, value).is_integer():
        raise ProtocolError(
            400, "invalid_field", f"job spec field {key!r} must be an integer"
        )
    return int(value)


def job_from_spec(
    spec: Mapping[str, Any],
    *,
    default_job_id: Optional[int] = None,
    default_submit_time: Optional[float] = None,
) -> Job:
    """Validate a submitted spec into a fresh PENDING :class:`Job`.

    ``runtime`` (the true base runtime, a simulation-only quantity)
    defaults to ``walltime`` — a live service never knows it, and the
    dilation-aware kill bound then degenerates to the classic
    walltime-kill contract.  ``submit_time`` defaults to the value the
    caller supplies (the service stamps "now"); ``job_id`` likewise.
    """
    if not isinstance(spec, Mapping):
        raise ProtocolError(400, "invalid_spec", "job spec must be an object")
    unknown = set(spec) - _SPEC_FIELDS
    if unknown:
        raise ProtocolError(
            400,
            "unknown_field",
            f"unknown job spec field(s): {', '.join(sorted(unknown))}",
        )
    missing = [key for key in _REQUIRED_FIELDS if key not in spec]
    if missing:
        raise ProtocolError(
            400,
            "missing_field",
            f"job spec requires: {', '.join(missing)}",
        )
    job_id = spec.get("job_id", default_job_id)
    if job_id is None:
        raise ProtocolError(400, "missing_field", "job spec requires job_id")
    submit_time = spec.get("submit_time", default_submit_time)
    if submit_time is None:
        raise ProtocolError(400, "missing_field", "job spec requires submit_time")
    walltime = _number("walltime", spec["walltime"])
    runtime = (
        _number("runtime", spec["runtime"]) if "runtime" in spec else walltime
    )
    try:
        return Job(
            job_id=_integer("job_id", job_id),
            submit_time=_number("submit_time", submit_time),
            nodes=_integer("nodes", spec["nodes"]),
            walltime=walltime,
            runtime=runtime,
            mem_per_node=_integer("mem_per_node", spec["mem_per_node"]),
            mem_used_per_node=_integer(
                "mem_used_per_node", spec["mem_used_per_node"]
            )
            if "mem_used_per_node" in spec
            else -1,
            user=str(spec.get("user", "user0")),
            group=str(spec.get("group", "group0")),
            tag=str(spec.get("tag", "")),
        )
    except ConfigurationError as exc:
        raise ProtocolError(400, "invalid_spec", str(exc)) from exc
    except (TypeError, ValueError) as exc:
        raise ProtocolError(400, "invalid_spec", f"malformed job spec: {exc}") from exc


def job_to_request_spec(job: Job) -> Dict[str, Any]:
    """The fully resolved request half of a job, JSON-able.

    This is the write-ahead journal's submit payload: every default
    (auto id, stamped submit time, runtime ← walltime) is already
    applied, so replaying the spec reconstructs the identical job no
    matter what the auto-id counter looks like at replay time.
    """
    return {
        "job_id": job.job_id,
        "submit_time": job.submit_time,
        "nodes": job.nodes,
        "walltime": job.walltime,
        "runtime": job.runtime,
        "mem_per_node": job.mem_per_node,
        "mem_used_per_node": job.mem_used_per_node,
        "user": job.user,
        "group": job.group,
        "tag": job.tag,
    }


def job_to_record(
    job: Job,
    promise: Optional[Promise] = None,
    timing: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """The service's view of one job, JSON-able.

    The execution half mirrors the engine's record exactly — the load
    harness compares these fields verbatim against an offline run, so
    nothing here may be rounded or reordered.
    """
    record: Dict[str, Any] = {
        "job_id": job.job_id,
        "state": job.state.value,
        "submit_time": job.submit_time,
        "nodes": job.nodes,
        "walltime": job.walltime,
        "runtime": job.runtime,
        "mem_per_node": job.mem_per_node,
        "mem_used_per_node": job.mem_used_per_node,
        "user": job.user,
        "group": job.group,
        "tag": job.tag,
        "start_time": job.start_time,
        "end_time": job.end_time,
        "assigned_nodes": list(job.assigned_nodes),
        "local_grant_per_node": job.local_grant_per_node,
        "remote_per_node": job.remote_per_node,
        "pool_grants": dict(sorted(job.pool_grants.items())),
        "dilation": job.dilation,
        "kill_reason": job.kill_reason,
    }
    record["promise"] = promise_to_dict(promise) if promise is not None else None
    if timing is not None:
        record["service"] = dict(timing)
    return record


def promise_to_dict(promise: Promise) -> Dict[str, Any]:
    return {
        "job_id": promise.job_id,
        "decided_at": promise.decided_at,
        "promised_start": promise.promised_start,
    }
