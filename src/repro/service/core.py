"""The service orchestrator: one engine thread, batched admissions.

:class:`SchedulerService` wraps an *online*
:class:`~repro.engine.simulation.SchedulerSimulation` behind a
single-writer design: client-facing calls (from any number of HTTP
handler threads) never touch the engine — they enqueue an **op** and
block on its future; one engine thread drains the inbox and is the
only code that mutates engine, cluster, or scheduler state.  That
removes every lock from the scheduler hot path and gives the service
its admission-batching behavior for free:

* every ``submit`` op found in one inbox drain joins **one admission
  batch** — the whole batch is injected as one sorted group and served
  by one scheduling pass per distinct submit instant, so one shared
  availability sweep (the PR-4 pass transaction) prices N concurrent
  submissions at roughly the cost of one;
* non-submit ops (cancel, query, advise, state, advance) are applied
  in arrival order after the batch, which makes a cancel racing its
  own submit well-defined: whichever reached the inbox first wins.

Clock policy is the service's, not the engine's: in ``wall`` mode the
engine thread maps monotonic wall time onto virtual seconds (scaled by
``speed``) every ``tick_s``; in ``replay`` mode the clock moves only on
explicit ``advance`` ops — that is the mode the load harness drives,
and the mode under which a replayed trace is decision-identical to the
offline engine.

**Decision latency**, the service's headline metric, is measured here:
for each submission, the wall-clock interval from request receipt to
the end of the first inbox drain in which the engine clock reached the
job's submit instant — i.e. until the scheduling pass that first
considered the job (started it, promised it a reservation, or queued
it behind one) had run.  It prices exactly the admission-batching
trade-off: coalescing widens batches (throughput) at the cost of the
earliest submission in each batch waiting out the linger (latency).
"""

from __future__ import annotations

import hashlib
import json
import math
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..cluster.cluster import Cluster
from ..cluster.spec import ClusterSpec
from ..config import ExperimentConfig
from ..engine.simulation import SchedulerSimulation
from ..errors import ConfigurationError, ReproError
from ..sched.base import (
    BOUND_GATE,
    BOUND_MACHINE,
    BOUND_NODES,
    BOUND_NONE,
    BOUND_POOL,
    Scheduler,
    SchedulerContext,
)
from ..workload.job import Job
from .journal import StateStore, config_fingerprint
from .protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    check_advance_target,
    check_idempotency_key,
    job_from_spec,
    job_to_record,
    job_to_request_spec,
)

__all__ = [
    "ServiceConfig",
    "SchedulerService",
    "default_service_config",
    "percentiles",
]

_OP_TIMEOUT_S = 60.0
#: Op kinds that change engine state and so are journaled.
_MUTATIONS = ("cancel", "advance")


def default_service_config() -> ExperimentConfig:
    """The built-in service experiment: the demo thin-node machine.

    ``repro serve`` without ``--config`` and ``repro load`` without one
    build *this*, so a daemon and a load run that both defaulted are
    guaranteed to agree on cluster and scheduler — the precondition for
    the decision-identity check.
    """
    return ExperimentConfig(
        name="service-demo",
        cluster=ClusterSpec.thin_node(
            num_nodes=32,
            local_mem="128GiB",
            fat_local_mem="512GiB",
            pool_fraction=0.5,
            reach="global",
            name="SVC-THIN-32",
        ),
        workload={"reference": "W-MIX", "num_jobs": 1000, "seed": 42, "load": 0.9},
        scheduler={
            "queue": "fcfs",
            "backfill": "easy",
            "placement": "first_fit",
            "penalty": {"kind": "linear", "beta": 0.3},
        },
    )


def percentiles(values: List[float]) -> Dict[str, Optional[float]]:
    """p50/p90/p99/max/mean of a latency sample, in milliseconds.

    Nearest-rank percentiles on the sorted sample — standard for
    latency reporting, and exact for the small-thousands sample sizes
    the service sees per load run.  Empty samples yield all-None.
    """
    if not values:
        return {"count": 0, "p50": None, "p90": None, "p99": None,
                "max": None, "mean": None}
    ordered = sorted(values)
    count = len(ordered)

    def rank(q: float) -> float:
        index = max(0, min(count - 1, math.ceil(q * count) - 1))
        return ordered[index] * 1e3

    return {
        "count": count,
        "p50": round(rank(0.50), 3),
        "p90": round(rank(0.90), 3),
        "p99": round(rank(0.99), 3),
        "max": round(ordered[-1] * 1e3, 3),
        "mean": round(sum(ordered) / count * 1e3, 3),
    }


@dataclass
class ServiceConfig:
    """Operating parameters of one service instance."""

    #: ``"replay"`` — virtual time moves only on ``advance`` ops (load
    #: harness / differential testing); ``"wall"`` — the engine thread
    #: advances the clock every ``tick_s`` of wall time.
    mode: str = "replay"
    #: Virtual seconds per wall second in ``wall`` mode (3600 = one
    #: simulated hour per real second).
    speed: float = 1.0
    #: Wall-mode ticker period, seconds; also the admission linger — a
    #: submission waits at most one tick for its scheduling pass.
    tick_s: float = 0.05
    #: Virtual clock origin.
    start_time: float = 0.0
    #: Durable state directory (write-ahead journal + snapshots).
    #: ``None`` runs the service in-memory, exactly the pre-durability
    #: behavior; building through :meth:`SchedulerService.open` with a
    #: directory makes every mutation crash-safe.
    state_dir: Optional[str] = None
    #: Write an engine snapshot every N journal records (plus one on
    #: graceful shutdown).  0 = snapshot only on shutdown.
    checkpoint_every: int = 256
    #: Load-shedding bound on the op inbox: a request arriving while
    #: this many ops are already queued is refused with 429 and a
    #: ``retry_after`` hint.  0 = unbounded.
    max_inbox: int = 0
    #: Per-request deadline budget, seconds: an op that waited in the
    #: inbox longer than this is shed with 504 *before* any engine work
    #: is spent on it.  0 = no deadline.
    deadline_s: float = 0.0
    #: How many idempotency-key outcomes to remember for retry
    #: deduplication (old entries age out in first-use order).
    dedup_window: int = 1024
    #: Replay-mode group-commit window, seconds, applied only when
    #: durable: after the first op of a drain arrives, the drain is
    #: held open this long for stragglers, so requests racing in
    #: behind it share one journal sync and one scheduling pass
    #: instead of paying a sync-plus-pass each.  A solo request waits
    #: at most this long; the window closes early the moment arrivals
    #: pause.  0 disables the linger (drain eagerly, the ephemeral
    #: behavior).  Wall mode ignores it — ``tick_s`` is already the
    #: admission linger there.
    group_commit_s: float = 0.0005

    def __post_init__(self) -> None:
        if self.mode not in ("replay", "wall"):
            raise ConfigurationError(f"unknown service mode {self.mode!r}")
        # NaN passes every ``<= 0`` / ``< 0`` check below, and an
        # infinite clock origin or rate parks the clock at inf or NaN.
        for name in ("speed", "tick_s", "start_time", "deadline_s", "group_commit_s"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite")
        if self.speed <= 0:
            raise ConfigurationError("speed must be positive")
        if self.tick_s <= 0:
            raise ConfigurationError("tick_s must be positive")
        if self.checkpoint_every < 0:
            raise ConfigurationError("checkpoint_every must be >= 0")
        if self.max_inbox < 0:
            raise ConfigurationError("max_inbox must be >= 0")
        if self.deadline_s < 0:
            raise ConfigurationError("deadline_s must be >= 0")
        if self.dedup_window < 0:
            raise ConfigurationError("dedup_window must be >= 0")
        if self.group_commit_s < 0:
            raise ConfigurationError("group_commit_s must be >= 0")


def _keyed(kind: str, body: Dict[str, Any], key: Optional[str]) -> Dict[str, Any]:
    """An op payload: the request ``body`` plus its idempotency
    ``key`` and, for a keyed request, ``fp`` — a digest of the
    operation and the body as the client sent it, which tells a retry
    of the request apart from a different request reusing the key."""
    payload = dict(body, key=key)
    if key is not None:
        canonical = json.dumps(
            [kind, body], sort_keys=True, separators=(",", ":"), default=repr
        )
        payload["fp"] = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    return payload


def _key_conflict(key: str, kind: str) -> ProtocolError:
    """The refusal of a request that reuses ``key``, already used for
    a different ``kind`` request."""
    return ProtocolError(
        409,
        "idempotency_conflict",
        f"idempotency key {key!r} was already used for a different {kind} request",
    )


class _Op:
    """One client request in the engine thread's inbox."""

    __slots__ = ("kind", "payload", "received", "done", "result", "error")

    def __init__(self, kind: str, payload: Any, received: float) -> None:
        self.kind = kind
        self.payload = payload
        self.received = received  # monotonic seconds at request receipt
        self.done = threading.Event()
        self.result: Any = None
        self.error: Optional[BaseException] = None


@dataclass
class _Counters:
    submitted: int = 0
    admitted: int = 0
    rejected_specs: int = 0
    cancelled: int = 0
    cancel_kills: int = 0
    queries: int = 0
    advises: int = 0
    advances: int = 0
    drains: int = 0
    batches: int = 0
    ticks: int = 0
    shed_overload: int = 0
    shed_deadline: int = 0
    dedup_hits: int = 0
    journal_records: int = 0
    checkpoints: int = 0

    def to_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


@dataclass
class _Timing:
    """Service-side latency stamps for one submission."""

    received: float
    admitted: Optional[float] = None
    decided: Optional[float] = None
    batch_size: int = 0
    extra: Dict[str, Any] = field(default_factory=dict)


class SchedulerService:
    """The long-running scheduler core behind the HTTP front end."""

    def __init__(
        self,
        cluster: Cluster,
        scheduler: Scheduler,
        config: Optional[ServiceConfig] = None,
        *,
        engine: Optional[SchedulerSimulation] = None,
        store: Optional[StateStore] = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.cluster = cluster
        self.scheduler = scheduler
        self.engine = engine or SchedulerSimulation(
            cluster,
            scheduler,
            [],
            online=True,
            start_time=self.config.start_time,
        )
        self._store = store
        self._records_since_snapshot = 0
        self._checkpoint_due = False
        self.recovery: Optional[Dict[str, Any]] = None
        self._inbox: deque[_Op] = deque()
        self._cond = threading.Condition()
        self._stopping = False
        self._crashed: Optional[BaseException] = None
        self._thread: Optional[threading.Thread] = None
        self._started_wall = time.time()
        self._started_mono = time.monotonic()
        self.counters = _Counters()
        self._timings: Dict[int, _Timing] = {}
        self._undecided: Dict[int, _Timing] = {}
        self._submit_latencies: List[float] = []
        self._decision_latencies: List[float] = []
        self._batch_sizes: List[int] = []
        self._next_auto_id = 1
        #: key -> (kind, outcome, request fingerprint) with kind
        #: "submit" (outcome: [job ids]) or "cancel" (outcome dict); a
        #: window bounded by ``config.dedup_window`` that ages out in
        #: first-use order.  A retry does not refresh its entry: the
        #: journal never sees retries, so recovery could not rebuild
        #: that order.  The fingerprint is None for entries restored
        #: from state written before fingerprints were kept.
        self._dedup: "OrderedDict[str, Tuple[str, Any, Optional[str]]]" = OrderedDict()

    # ------------------------------------------------------------------
    # durable construction / recovery
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        experiment: ExperimentConfig,
        config: Optional[ServiceConfig] = None,
    ) -> "SchedulerService":
        """Build a service from an experiment config, recovering durable
        state when the config names a state directory.

        Recovery is snapshot + journal-suffix replay: the newest
        readable engine snapshot is restored onto a fresh cluster and
        scheduler, then every journal record appended after it is
        re-applied through the functions the live drain applied it with
        (:meth:`_apply_admissions`, then :meth:`_apply_post` per entry,
        each failing exactly as it failed live).  The
        state directory is fingerprinted against the experiment config
        — replaying a journal against a different machine is refused.
        """
        config = config or ServiceConfig()
        cluster = experiment.build_cluster()
        scheduler = experiment.build_scheduler()
        if config.state_dir is None:
            return cls(cluster, scheduler, config)
        store = StateStore(config.state_dir, config_fingerprint(experiment.to_json()))
        engine: Optional[SchedulerSimulation] = None
        service_state: Optional[Dict[str, Any]] = None
        covered = 0
        snapshot = store.latest_snapshot()
        if snapshot is not None:
            covered, document = snapshot
            engine = SchedulerSimulation.restore(
                cluster, scheduler, document["engine"]
            )
            service_state = document.get("service")
        service = cls(cluster, scheduler, config, engine=engine, store=store)
        if service_state is not None:
            service._load_service_state(service_state)
        records = store.replay(covered)
        for _seq, body in records:
            service._apply_admissions(body)
            for entry in body["post"]:
                try:
                    service._apply_post(entry)
                except ProtocolError:
                    pass  # failed live, fails identically here
            service.counters.journal_records += 1
        service.recovery = {
            "snapshot_seq": covered,
            "replayed_records": len(records),
            "resumed": snapshot is not None or bool(records),
        }
        return service

    def _service_state(self) -> Dict[str, Any]:
        return {
            "next_auto_id": self._next_auto_id,
            "dedup": [
                [key, kind, payload, fingerprint]
                for key, (kind, payload, fingerprint) in self._dedup.items()
            ],
            "counters": self.counters.to_dict(),
        }

    def _load_service_state(self, state: Dict[str, Any]) -> None:
        self._next_auto_id = int(state["next_auto_id"])
        self._dedup = OrderedDict(
            (key, (kind, payload, rest[0] if rest else None))
            for key, kind, payload, *rest in state["dedup"]
        )
        for name, value in state.get("counters", {}).items():
            if hasattr(self.counters, name):
                setattr(self.counters, name, value)

    def _register_dedup(
        self, key: Optional[str], kind: str, outcome: Any, fingerprint: Optional[str]
    ) -> None:
        if key is None or self.config.dedup_window == 0:
            return
        self._dedup[key] = (kind, outcome, fingerprint)
        while len(self._dedup) > self.config.dedup_window:
            self._dedup.popitem(last=False)

    def _apply_admissions(self, body: Dict[str, Any]) -> None:
        """Apply the batch half of one journal record.

        The live drain and recovery both apply every record through
        here and :meth:`_apply_post`, so a recovered service cannot
        decide differently from the live one.  All submit groups enter
        the engine as **one** injection batch (the pass-transaction
        batching is part of the decision record, not an implementation
        detail), the auto-id counter moves past the admitted ids, the
        clock runs to the recorded target (the current instant when
        there is none), and the groups' keys join the dedup window in
        arrival order, ahead of the record's post entries.
        """
        groups = body["submits"]
        jobs = [Job(**spec) for group in groups for spec in group["jobs"]]
        if jobs:
            self.engine.inject_jobs(jobs)
            self.counters.batches += 1
            self.counters.submitted += len(jobs)
            self.counters.admitted += len(jobs)
            self._next_auto_id = max(
                self._next_auto_id, max(job.job_id for job in jobs) + 1
            )
        target = body.get("target")
        if target is not None and target > self.engine.now:
            self.engine.advance_to(target)
        else:
            # Replay mode: fire whatever is due at the current instant
            # (same-instant submissions and their pass), nothing more.
            self.engine.advance_to(self.engine.now)
        for group in groups:
            self._register_dedup(
                group.get("key"),
                "submit",
                [spec["job_id"] for spec in group["jobs"]],
                group.get("fp"),
            )

    def _apply_post(self, entry: List[Any]) -> Dict[str, Any]:
        """Apply one post-batch entry of a journal record:
        ``["advance", to]`` or ``["cancel", job_id, key, fp]`` (records
        written before fingerprints were kept end at the key).  A keyed
        cancel joins the dedup window once applied, with its outcome.
        """
        if entry[0] == "advance":
            return self._do_advance(entry[1])
        _, job_id, key, *fingerprint = entry
        result = self._do_cancel(job_id)
        self._register_dedup(
            key,
            "cancel",
            {"job_id": job_id, "outcome": result["outcome"]},
            fingerprint[0] if fingerprint else None,
        )
        return result

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "SchedulerService":
        if self._thread is not None:
            raise ReproError("service already started")
        self._thread = threading.Thread(
            target=self._engine_loop, name="sched-engine", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        with self._cond:
            self._stopping = True
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join(timeout=10.0)

    def __enter__(self) -> "SchedulerService":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # client-facing surface (any thread)
    # ------------------------------------------------------------------
    def submit(
        self,
        specs: List[Dict[str, Any]],
        idempotency_key: Optional[str] = None,
    ) -> List[Dict[str, Any]]:
        """Submit one request's worth of job specs; returns records.

        With an ``idempotency_key``, retrying the same submission after
        a lost reply returns the original outcome instead of admitting
        the jobs twice.  Reusing the key for a different request is
        refused with ``409 idempotency_conflict``.
        """
        key = check_idempotency_key(idempotency_key)
        return self._call("submit", _keyed("submit", {"specs": specs}, key))

    def cancel(
        self, job_id: int, idempotency_key: Optional[str] = None
    ) -> Dict[str, Any]:
        key = check_idempotency_key(idempotency_key)
        return self._call("cancel", _keyed("cancel", {"job_id": job_id}, key))

    def query(self, job_id: int) -> Dict[str, Any]:
        return self._call("query", job_id)

    def jobs(self) -> Dict[str, Any]:
        return self._call("jobs", None)

    def advise(self, spec: Dict[str, Any]) -> Dict[str, Any]:
        return self._call("advise", spec)

    def state(self) -> Dict[str, Any]:
        return self._call("state", None)

    def advance(self, to: Optional[float]) -> Dict[str, Any]:
        check_advance_target(to)  # before queueing: never journaled
        return self._call("advance", to)

    def metrics(self) -> Dict[str, Any]:
        return self._call("metrics", None)

    def health(self) -> Dict[str, Any]:
        # Answered without the engine thread on purpose: health must
        # respond even when the engine is mid-pass under heavy load.
        status = "ok"
        if self._crashed is not None:
            status = "crashed"
        elif self._thread is None or not self._thread.is_alive():
            status = "stopped"
        return {
            "status": status,
            "protocol": PROTOCOL_VERSION,
            "mode": self.config.mode,
            "durable": self._store is not None,
            "uptime_s": round(time.monotonic() - self._started_mono, 3),
        }

    # ------------------------------------------------------------------
    def _call(self, kind: str, payload: Any) -> Any:
        if self._crashed is not None:
            raise ProtocolError(
                500, "engine_crashed", f"engine thread died: {self._crashed}"
            )
        if self._thread is None or self._stopping:
            raise ProtocolError(503, "unavailable", "service is not running")
        op = _Op(kind, payload, time.monotonic())
        with self._cond:
            if (
                self.config.max_inbox
                and len(self._inbox) >= self.config.max_inbox
            ):
                # Shed *before* enqueueing: a 429 guarantees the op was
                # never applied, so any client may retry it safely.
                self.counters.shed_overload += 1
                raise ProtocolError(
                    429,
                    "overloaded",
                    f"inbox is full ({self.config.max_inbox} ops queued)",
                    retry_after=max(self.config.tick_s, 0.05),
                )
            self._inbox.append(op)
            self._cond.notify_all()
        if not op.done.wait(timeout=_OP_TIMEOUT_S):
            raise ProtocolError(504, "timeout", f"{kind} op timed out")
        if op.error is not None:
            if isinstance(op.error, ProtocolError):
                raise op.error
            raise ProtocolError(500, "internal", str(op.error))
        return op.result

    # ------------------------------------------------------------------
    # engine thread
    # ------------------------------------------------------------------
    def _engine_loop(self) -> None:
        wall = self.config.mode == "wall"
        linger = (
            self.config.group_commit_s
            if self._store is not None and not wall
            else 0.0
        )
        try:
            while True:
                with self._cond:
                    while not self._inbox and not self._stopping:
                        if wall:
                            if not self._cond.wait(timeout=self.config.tick_s):
                                break  # tick: advance the wall clock
                        else:
                            self._cond.wait()
                    if linger and self._inbox and not self._stopping:
                        # Group commit: the upcoming drain pays one
                        # journal sync no matter how many ops it
                        # carries, so hold the door briefly while
                        # arrivals keep coming — each straggler rides
                        # the same sync and the same scheduling pass.
                        # The door closes at the deadline, or as soon
                        # as one straggler-gap passes with no arrival
                        # (every queued client is already in).
                        deadline = time.monotonic() + linger
                        gap = linger / 4
                        while not self._stopping:
                            remaining = deadline - time.monotonic()
                            if remaining <= 0:
                                break
                            before = len(self._inbox)
                            self._cond.wait(timeout=min(remaining, gap))
                            if len(self._inbox) <= before:
                                break  # arrivals paused: door closes
                    batch = list(self._inbox)
                    self._inbox.clear()
                    stopping = self._stopping
                # Graceful drain: ops already accepted into the inbox
                # are processed even when stopping — _call refuses new
                # ones the moment _stopping is set, so this in-flight
                # batch is the last.  An empty batch still ticks the
                # wall clock.
                if batch or wall:
                    self._process(batch, wall)
                if stopping:
                    self._final_checkpoint()
                    return
        except BaseException as exc:  # noqa: BLE001 - must unblock waiters
            self._crashed = exc
            with self._cond:
                pending = list(self._inbox)
                self._inbox.clear()
            for op in pending:
                op.error = exc
                op.done.set()

    def _final_checkpoint(self) -> None:
        if self._store is None:
            return
        try:
            self._write_snapshot()
        except Exception:  # noqa: BLE001 - shutdown must not raise
            pass

    def _write_snapshot(self) -> None:
        self._store.write_snapshot(
            {"engine": self.engine.checkpoint(), "service": self._service_state()}
        )
        self._records_since_snapshot = 0
        self.counters.checkpoints += 1

    def _wall_target(self) -> float:
        elapsed = time.monotonic() - self._started_mono
        return self.config.start_time + elapsed * self.config.speed

    def _process(self, batch: List[_Op], wall: bool) -> None:
        """Apply one inbox drain: shed, resolve keys, **journal, then
        apply** — through the same :meth:`_apply_admissions` and
        :meth:`_apply_post` that recovery runs on the journaled record.

        The write-ahead discipline: every mutation the drain will apply
        (admitted submit batches, cancels, advances) is appended to the
        journal and fsynced *before* the engine applies it and before
        any client sees success.  A crash after the fsync replays the
        record on recovery; a crash before it means no client was ever
        acknowledged, so the idempotent retry re-submits it.
        """
        submits, pending, repeats = self._resolve(self._shed_expired(batch))
        target = self._wall_target() if wall else None
        admitted = self._validate_submits(
            submits,
            default_time=(
                self.engine.now if target is None else max(target, self.engine.now)
            ),
        )
        mutations = [op for op in pending if op.kind in _MUTATIONS]
        body = {
            "target": target,
            "submits": [op.result for op in admitted],
            "post": [
                (
                    ["cancel", op.payload["job_id"], op.payload["key"], op.payload.get("fp")]
                    if op.kind == "cancel"
                    else ["advance", op.payload]
                )
                for op in mutations
            ],
        }
        if not self._journal(body, admitted + mutations):
            admitted, body["submits"], body["post"] = [], [], []
            pending = [op for op in pending if op.kind not in _MUTATIONS]

        self._stamp_admissions(admitted)
        if wall:
            self.counters.ticks += 1
        self._apply_admissions(body)
        self._stamp_decisions()
        for op in admitted:
            op.result = [self._record(spec["job_id"]) for spec in op.result["jobs"]]
            op.done.set()
        entries = iter(body["post"])
        for op in pending:
            try:
                if op.kind in _MUTATIONS:
                    op.result = self._apply_post(next(entries))
                else:
                    op.result = self._read(op)
            except BaseException as exc:  # noqa: BLE001 - per-op isolation
                op.error = exc
            op.done.set()
        for op, first in repeats:
            op.result, op.error = first.result, first.error
            if first.error is None:
                self.counters.dedup_hits += 1
            op.done.set()
        if admitted or pending:
            self._stamp_decisions()
        self._maybe_checkpoint()

    def _maybe_checkpoint(self) -> None:
        """Snapshot when the journal suffix has grown long enough.

        A failed snapshot is tolerated: the journal remains the source
        of truth and recovery simply replays a longer suffix from the
        previous snapshot generation.
        """
        if not self._checkpoint_due:
            return
        self._checkpoint_due = False
        try:
            self._write_snapshot()
        except Exception:  # noqa: BLE001 - journal still covers the state
            pass

    # ------------------------------------------------------------------
    def _shed_expired(self, batch: List[_Op]) -> List[_Op]:
        """Deadline budget: fail ops that aged out waiting in the inbox
        before any engine work is spent on them."""
        if not self.config.deadline_s:
            return batch
        cutoff = time.monotonic() - self.config.deadline_s
        kept: List[_Op] = []
        for op in batch:
            if op.received < cutoff:
                self.counters.shed_deadline += 1
                op.error = ProtocolError(
                    504,
                    "deadline_exceeded",
                    f"op waited past its {self.config.deadline_s}s deadline",
                )
                op.done.set()
            else:
                kept.append(op)
        return kept

    def _resolve(
        self, batch: List[_Op]
    ) -> Tuple[List[_Op], List[_Op], List[Tuple[_Op, _Op]]]:
        """Resolve the drain's idempotency keys in one pass, in arrival
        order.

        Returns ``(submits, pending, repeats)``:

        * ``submits`` — the submits to validate and admit as one batch;
        * ``pending`` — every other op, to run in arrival order after
          the batch;
        * ``repeats`` — ``(op, first)`` pairs where a keyed op repeats
          the request its key was first used for earlier in this same
          drain; ``op`` gets ``first``'s outcome once the drain is
          applied, so it is neither journaled nor applied itself.

        A keyed op whose key the dedup window holds is answered here,
        without touching the engine: a retry of the request the key was
        first used for gets the stored outcome re-rendered with the
        jobs' current records (exactly-once application under client
        retries).  A key reused for a different operation or body, in
        the window or earlier in this drain, fails its op with ``409
        idempotency_conflict`` and leaves the first use as it was.  An
        entry restored from older state carries no fingerprint and
        matches any body of the same operation.
        """
        submits: List[_Op] = []
        pending: List[_Op] = []
        repeats: List[Tuple[_Op, _Op]] = []
        firsts: Dict[str, _Op] = {}
        for op in batch:
            key = op.payload.get("key") if op.kind in ("submit", "cancel") else None
            if key is not None:
                first = firsts.get(key)
                if first is not None:
                    if (first.kind, first.payload.get("fp")) == (op.kind, op.payload.get("fp")):
                        repeats.append((op, first))
                    else:
                        op.error = _key_conflict(key, first.kind)
                        op.done.set()
                    continue
                entry = self._dedup.get(key)
                if entry is not None:
                    kind, stored, fingerprint = entry
                    if kind != op.kind or (
                        fingerprint is not None and fingerprint != op.payload.get("fp")
                    ):
                        op.error = _key_conflict(key, kind)
                    else:
                        self.counters.dedup_hits += 1
                        op.result = (
                            [self._record(job_id) for job_id in stored]
                            if kind == "submit"
                            else dict(stored, job=self._record(stored["job_id"]))
                        )
                    op.done.set()
                    continue
                firsts[key] = op
            (submits if op.kind == "submit" else pending).append(op)
        return submits, pending, repeats

    def _validate_submits(
        self, submits: List[_Op], default_time: float
    ) -> List[_Op]:
        """Per-op spec validation, **without** touching the engine.

        Failures (bad spec, duplicate id, late arrival) fail that op
        only, and claim no job id: auto ids count on from the ops
        admitted before it.  Survivors carry their journal submit group
        (key, fingerprint and fully resolved request specs) in
        ``op.result``.  Returns the surviving ops.
        """
        validated: List[_Op] = []
        taken: set = set()
        next_id = self._next_auto_id
        for op in submits:
            specs = op.payload.get("specs")
            try:
                if not isinstance(specs, list) or not specs:
                    raise ProtocolError(
                        400, "invalid_request", "submit requires a job list"
                    )
                jobs: List[Job] = []
                ids: set = set()
                op_next = next_id
                for spec in specs:
                    job = job_from_spec(
                        spec,
                        default_job_id=op_next,
                        default_submit_time=default_time,
                    )
                    if (
                        self.engine.job(job.job_id) is not None
                        or job.job_id in taken
                        or job.job_id in ids
                    ):
                        raise ProtocolError(
                            409,
                            "duplicate_job",
                            f"job id {job.job_id} already exists",
                        )
                    if job.submit_time < self.engine.now:
                        raise ProtocolError(
                            409,
                            "late_arrival",
                            f"job {job.job_id} submits at t={job.submit_time}, "
                            f"behind the service clock t={self.engine.now}",
                        )
                    jobs.append(job)
                    ids.add(job.job_id)
                    op_next = max(op_next, job.job_id + 1)
            except ProtocolError as exc:
                op.error = exc
                self.counters.rejected_specs += 1
                op.done.set()
                continue
            taken |= ids
            next_id = op_next
            op.result = {
                "key": op.payload.get("key"),
                "fp": op.payload.get("fp"),
                "jobs": [job_to_request_spec(job) for job in jobs],
            }
            validated.append(op)
        return validated

    def _journal(self, body: Dict[str, Any], ops: List[_Op]) -> bool:
        """Append this drain's record to the journal and fsync.

        One record per drain — the fsync amortizes over the whole
        admission batch — and only drains that *mutate* (``ops``, the
        admitted submits, cancels and advances) are journaled:
        query-only drains and empty wall ticks cost nothing.  On a
        journal write failure every mutating op fails and False tells
        the caller to apply nothing: the journal is the commit point.
        """
        if self._store is None or not ops:
            return True
        try:
            self._store.append(body)
        except Exception as exc:  # noqa: BLE001 - journal is the commit point
            failure = ProtocolError(
                500, "journal_error", f"could not journal the mutation: {exc}"
            )
            for op in ops:
                op.error = failure
                op.done.set()
            return False
        self.counters.journal_records += 1
        self._records_since_snapshot += 1
        if (
            self.config.checkpoint_every
            and self._records_since_snapshot >= self.config.checkpoint_every
        ):
            self._checkpoint_due = True
        return True

    def _stamp_admissions(self, admitted: List[_Op]) -> None:
        """Open the latency window of every job this drain admits."""
        size = sum(len(op.result["jobs"]) for op in admitted)
        if not size:
            return
        now_mono = time.monotonic()
        self._batch_sizes.append(size)
        for op in admitted:
            for spec in op.result["jobs"]:
                timing = _Timing(received=op.received, admitted=now_mono, batch_size=size)
                self._timings[spec["job_id"]] = timing
                self._undecided[spec["job_id"]] = timing
                self._submit_latencies.append(now_mono - op.received)

    def _stamp_decisions(self) -> None:
        """Close the decision-latency window for every submission whose
        first scheduling pass has now run (or that went terminal)."""
        if not self._undecided:
            return
        now_virtual = self.engine.now
        now_mono = time.monotonic()
        done = [
            job_id
            for job_id in self._undecided
            if (job := self.engine.job(job_id)) is not None
            and (job.submit_time <= now_virtual or job.state.terminal)
        ]
        for job_id in done:
            timing = self._undecided.pop(job_id)
            timing.decided = now_mono
            self._decision_latencies.append(now_mono - timing.received)

    # ------------------------------------------------------------------
    def _read(self, op: _Op) -> Any:
        """Answer one read-only op (query, jobs, advise, state, metrics)."""
        if op.kind == "query":
            self.counters.queries += 1
            return self._do_query(op.payload)
        if op.kind == "jobs":
            self.counters.queries += 1
            return {
                "protocol": PROTOCOL_VERSION,
                "now": self.engine.now,
                "jobs": [self._record(job.job_id) for job in self.engine.jobs],
            }
        if op.kind == "advise":
            self.counters.advises += 1
            return self._do_advise(op.payload)
        if op.kind == "state":
            from .state import build_state_document

            return build_state_document(self)
        if op.kind == "metrics":
            return self._do_metrics()
        raise ProtocolError(400, "unknown_op", f"unknown op {op.kind!r}")

    def _do_cancel(self, job_id: Any) -> Dict[str, Any]:
        if not isinstance(job_id, int):
            raise ProtocolError(400, "invalid_request", "cancel requires job_id")
        outcome = self.engine.cancel_job(job_id)
        if outcome == "not_found":
            raise ProtocolError(404, "not_found", f"no job {job_id}")
        if outcome == "cancelled":
            self.counters.cancelled += 1
        elif outcome == "killed":
            self.counters.cancel_kills += 1
            # The freed capacity's pass runs at the current instant.
            self.engine.advance_to(self.engine.now)
        return {"job_id": job_id, "outcome": outcome, "job": self._record(job_id)}

    def _do_query(self, job_id: Any) -> Dict[str, Any]:
        if not isinstance(job_id, int):
            raise ProtocolError(400, "invalid_request", "query requires job_id")
        if self.engine.job(job_id) is None:
            raise ProtocolError(404, "not_found", f"no job {job_id}")
        return self._record(job_id)

    def _do_advance(self, to: Any) -> Dict[str, Any]:
        if self.config.mode == "wall":
            raise ProtocolError(
                409, "wall_clock", "a wall-clock service owns its own clock"
            )
        self.counters.advances += 1
        if to is None:
            self.counters.drains += 1
            now = self.engine.drain()
            return {"now": now, "drained": True}
        to = check_advance_target(to)
        if to < self.engine.now:
            raise ProtocolError(
                409,
                "clock_backwards",
                f"cannot advance to t={to}, behind clock t={self.engine.now}",
            )
        now = self.engine.advance_to(to)
        return {"now": now, "drained": False}

    def _do_metrics(self) -> Dict[str, Any]:
        batch = self._batch_sizes
        return {
            "protocol": PROTOCOL_VERSION,
            "now": self.engine.now,
            "counters": self.counters.to_dict(),
            "cycles": self.engine.cycles,
            "queue_depth": self.engine.queue_depth,
            "running": self.engine.running_count,
            "undecided": len(self._undecided),
            "submit_latency_ms": percentiles(self._submit_latencies),
            "decision_latency_ms": percentiles(self._decision_latencies),
            "admission_batch": {
                "count": len(batch),
                "mean": round(sum(batch) / len(batch), 3) if batch else None,
                "max": max(batch) if batch else None,
            },
            "durability": {
                "durable": self._store is not None,
                "records_since_snapshot": self._records_since_snapshot,
                "recovery": self.recovery,
            },
        }

    # ------------------------------------------------------------------
    def _record(self, job_id: int) -> Dict[str, Any]:
        job = self.engine.job(job_id)
        if job is None:  # pragma: no cover - guarded by callers
            raise ProtocolError(404, "not_found", f"no job {job_id}")
        timing = self._timings.get(job_id)
        service: Optional[Dict[str, Any]] = None
        if timing is not None:
            service = {
                "admission_batch_size": timing.batch_size,
                "decision_latency_ms": (
                    round((timing.decided - timing.received) * 1e3, 3)
                    if timing.decided is not None
                    else None
                ),
            }
        return job_to_record(job, self.engine.promise(job_id), service)

    # ------------------------------------------------------------------
    # advise: read-only placement recommendation
    # ------------------------------------------------------------------
    def _do_advise(self, spec: Any) -> Dict[str, Any]:
        """"Where should this job run" — without admitting it.

        The recommendation reports the immediate-start placement when
        one exists, otherwise the earliest-start estimate from a fresh
        availability profile over the running set, and always names
        the **bound** that determined the answer:

        * ``machine-capacity`` — can never run here (reject);
        * ``none`` — free nodes and pool capacity cover it right now;
        * ``gate`` — a start gate (pool-pressure policy) is holding it;
        * ``node-availability`` — waiting on busy nodes;
        * ``pool-capacity`` — nodes are free but remote memory is not.

        The wait estimate is optimistic by construction: it consults
        running jobs' conservative duration bounds but not the queue
        ahead (backfill may start the job earlier than queue order
        suggests; the estimate is the earliest *physically possible*
        start).  Purely read-only — nothing is admitted or reserved.
        """
        sched = self.scheduler
        cluster = self.cluster
        engine = self.engine
        job = job_from_spec(
            spec, default_job_id=0, default_submit_time=engine.now
        )
        base = {
            "protocol": PROTOCOL_VERSION,
            "now": engine.now,
            "queue_depth": engine.queue_depth,
            "advisory": True,
        }
        if not sched.fits_machine(job, cluster):
            return {
                **base,
                "verdict": "reject",
                "bound": BOUND_MACHINE,
                "detail": "the request exceeds empty-machine capacity "
                "(nodes, or remote demand beyond total pool reach)",
            }
        ctx = SchedulerContext(
            cluster=cluster,
            now=engine.now,
            queue=[],
            running=engine._running,
            start_job=_advise_must_not_start,
        )
        split = sched.split_for(job, cluster)
        ungated = sched.try_start_now(ctx, job, check_gate=False)
        if ungated is not None:
            gated = (
                sched.gate.trivially_permits
                or sched.gate.permit(ctx, sched, ungated)
            )
            plan = dict(sorted(ungated.plan.items()))
            placement = {
                "node_ids": list(ungated.node_ids),
                "pool_plan": plan,
                "local_mib_per_node": ungated.split.local,
                "remote_mib_per_node": ungated.split.remote,
                "est_dilation": sched.est_dilation(job, cluster, ungated.split),
            }
            if gated:
                return {
                    **base,
                    "verdict": "start_now",
                    "bound": BOUND_NONE,
                    "placement": placement,
                }
            return {
                **base,
                "verdict": "wait",
                "bound": BOUND_GATE,
                "detail": f"start gate {sched.gate.name!r} is holding the job",
                "placement": placement,
            }
        # No immediate fit: estimate the earliest physically possible
        # start against the running set's conservative duration bounds.
        bound = (
            BOUND_NODES
            if job.nodes > cluster.free_node_count
            else BOUND_POOL
        )
        profile = sched.build_profile(ctx)
        duration = sched.est_duration(job, cluster, split)
        reservation = profile.sweep_cursor().earliest_start(
            job,
            duration,
            split.remote,
            sched.placement,
            sched.resolve_allocator(cluster),
            memory_aware=getattr(sched.backfill, "memory_aware", True),
        )
        if reservation is None:  # pragma: no cover - fits_machine passed
            return {**base, "verdict": "reject", "bound": BOUND_MACHINE}
        return {
            **base,
            "verdict": "wait",
            "bound": bound,
            "estimated_start": reservation.start,
            "estimated_wait_s": reservation.start - engine.now,
            "placement": {
                "node_ids": sorted(reservation.node_ids),
                "pool_plan": dict(sorted(reservation.plan.items())),
                "local_mib_per_node": split.local,
                "remote_mib_per_node": split.remote,
            },
        }


def _advise_must_not_start(decision: Any) -> None:  # pragma: no cover
    raise ReproError("advise is read-only; no start may be applied")
