"""The batch-scheduling simulation driver.

Event flow: every job submission enqueues the job and requests a
scheduling pass; every completion/kill releases resources and requests
a pass.  Passes are deduplicated per instant and run at the lowest
intra-instant priority, so one pass sees the net effect of everything
that happened at that time.  The scheduler's decisions are applied
*during* the pass through the context callback — decision and
allocation are atomic with respect to simulation time.

Each pass runs as a **transaction** (:class:`~repro.sched.base.
PassTransaction`): the strategy-visible effects of a start — cluster
allocation, job lifecycle, the running list — are applied immediately
through the context callback (strategies and gates must observe live
state), while the engine-only side effects are deferred to one commit
at pass end: one ledger append batch, the completion events in start
order, one queue rebuild, and one cluster-version bump.
Nothing outside the pass can observe the difference (no event runs
between the deferral and the commit), so the committed state is
bit-identical to the historical one-start-at-a-time path — which is
retained behind ``batch_starts=False`` as the differential anchor.

Scheduler state persists *across* passes, and the engine keeps it
coherent by notification rather than teardown: a completion or kill
releases cluster resources and then calls
:meth:`~repro.sched.base.Scheduler.notify_release` (while the job
still carries its grant records, with the pre-release cluster version
as the proof stamp), letting strategies fold the release into their
cached availability profile and retained reservation plan in place.
The engine never clears scheduler-side plans between passes — what
survives a pass, and what a perturbation invalidates, is entirely the
strategy's contract (see :mod:`repro.sched.backfill` and
``docs/ARCHITECTURE.md``).

**Online mode** (``online=True``) turns the same engine into the core
of a long-running scheduler service (:mod:`repro.service`): instead of
a one-shot :meth:`~SchedulerSimulation.run` over a pre-declared
workload, the caller streams work in with
:meth:`~SchedulerSimulation.inject_jobs` /
:meth:`~SchedulerSimulation.cancel_job` and steps the clock with
:meth:`~SchedulerSimulation.advance_to` (wall-clock or replay pacing
is the *caller's* policy — the engine only ever sees virtual time).
Injected batches are sorted by ``(submit_time, job_id)`` before entry
into the calendar, which makes an online replay of a trace — however
its submissions were interleaved across client connections —
event-for-event identical to the offline run, as long as the clock is
never advanced past a time that still has undelivered submissions.
The decision-identity differential suite anchors on exactly that
contract.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Iterator, List, Optional

from ..cluster.cluster import Cluster
from ..errors import ConfigurationError, SimulationError
from ..memdis.ledger import MemoryLedger
from ..sched.base import (
    KillPolicy,
    PassTransaction,
    Scheduler,
    SchedulerContext,
    StartDecision,
    pool_pressure,
)
from ..sim.engine import EventPriority, Simulator
from ..workload.job import Job, JobState
from . import lifecycle
from .failures import FailureEvent
from .results import Promise, RollingResults, Sample, SimulationResult

__all__ = ["SchedulerSimulation"]

_EPS = 1e-9


def _remove_by_identity(items: List[Job], job: Job) -> None:
    """Remove ``job`` from ``items`` by identity.

    Equivalent to ``items.remove(job)`` — job ids are unique per
    simulation, so the first equal element *is* the object — but skips
    the field-by-field dataclass comparison on every scanned element.
    """
    for index, item in enumerate(items):
        if item is job:
            del items[index]
            return
    items.remove(job)  # preserves the original ValueError behavior


class SchedulerSimulation:
    """Runs one workload on one cluster under one scheduler stack."""

    def __init__(
        self,
        cluster: Cluster,
        scheduler: Scheduler,
        jobs: Iterable[Job],
        sample_interval: Optional[float] = None,
        max_events: Optional[int] = None,
        failures: Iterable["FailureEvent"] = (),
        # Apply each pass's starts as one transaction commit (the
        # default).  False restores the historical one-start-at-a-time
        # application — kept as the anchor for the batch≡sequential
        # differential suite.
        batch_starts: bool = True,
        # Online mode: jobs stream in through inject_jobs()/cancel_job()
        # and the caller steps the clock with advance_to()/drain();
        # run() is forbidden.  The workload may start empty.
        online: bool = False,
        # Clock origin for an online engine with no initial jobs.
        start_time: float = 0.0,
        # Streaming admission: an iterator of PENDING jobs in
        # non-decreasing submit order.  The engine keeps exactly one
        # un-admitted job buffered and admits it when the previous
        # submission fires, so the calendar — and peak memory — never
        # hold the whole trace.  Decisions are identical to passing the
        # same jobs as a list (submit events still precede every
        # scheduling pass at their instant).
        job_source: Optional[Iterable[Job]] = None,
        # Rolling aggregation: fold each job into the sink the moment
        # it turns terminal, then evict it from the engine.  Peak RSS
        # becomes O(active jobs); pair with ``job_source`` — with a
        # pre-built list the list itself already dominates memory.
        rolling: Optional[RollingResults] = None,
    ) -> None:
        self.cluster = cluster
        self.scheduler = scheduler
        self.online = online
        self.jobs: List[Job] = sorted(jobs, key=lambda j: (j.submit_time, j.job_id))
        if not self.jobs and not online and job_source is None:
            raise ConfigurationError("no jobs to simulate")
        ids = [job.job_id for job in self.jobs]
        if len(set(ids)) != len(ids):
            raise ConfigurationError("duplicate job ids in workload")
        for job in self.jobs:
            if job.state is not JobState.PENDING:
                raise ConfigurationError(
                    f"job {job.job_id} is {job.state.value}; "
                    "pass fresh PENDING jobs (see workload.filters.reset_jobs)"
                )
        if online and sample_interval is not None:
            raise ConfigurationError(
                "online mode has no sampling ticker; poll state instead"
            )
        self.sample_interval = sample_interval
        self.max_events = max_events
        self.failures: List["FailureEvent"] = sorted(
            failures, key=lambda e: (e.time, e.node_id)
        )
        for event in self.failures:
            if event.node_id >= cluster.num_nodes:
                raise ConfigurationError(
                    f"failure trace references node {event.node_id}; "
                    f"cluster has {cluster.num_nodes}"
                )
        if job_source is not None and self.failures:
            # Failure continuations race chained submissions at shared
            # instants; list admission is the anchored path for failure
            # traces, streaming is for (failure-free) archive replay.
            raise ConfigurationError(
                "job_source cannot be combined with a failure trace; "
                "pass the workload as a list instead"
            )

        # Streaming source: pull the first job early — the clock origin
        # must not start after the first submission.
        self._job_source: Optional[Iterator[Job]] = None
        self._source_next: Optional[Job] = None
        self._source_done = True
        self._source_last_submit = -math.inf
        if job_source is not None:
            self._job_source = iter(job_source)
            self._source_done = False
            first = next(self._job_source, None)
            if first is None:
                self._source_done = True
            else:
                self._validate_source_job(first)
                self._source_next = first

        origin = self.jobs[0].submit_time if self.jobs else float(start_time)
        if self._source_next is not None and not online:
            origin = (
                min(origin, self._source_next.submit_time)
                if self.jobs
                else self._source_next.submit_time
            )
        self._sim = Simulator(start_time=origin)
        self._max_job_id = max((job.job_id for job in self.jobs), default=0)
        self._jobs_by_id: Dict[int, Job] = {job.job_id: job for job in self.jobs}
        self._queue: List[Job] = []
        self._running: List[Job] = []
        self._ledger = MemoryLedger()
        self._promises: Dict[int, Promise] = {}
        self._samples: List[Sample] = []
        # Calendar handles of each job's pending end and submit events.
        self._end_events: Dict[int, int] = {}
        self._submit_events: Dict[int, int] = {}
        self._cycles = 0
        self._pass_requested = False
        self._terminal_count = 0
        self._ran = False
        self._batch_starts = batch_starts
        self._txn: Optional[PassTransaction] = None
        self._admitted = len(self.jobs)
        self._first_submit: Optional[float] = (
            self.jobs[0].submit_time if self.jobs else None
        )
        self._rolling = rolling
        # Rolling mode drops the grant ledger: it grows O(trace) and
        # exists for post-hoc audits, which rolling runs trade away.
        self._ledger_enabled = rolling is None
        if online:
            # Arm the calendar immediately: initial jobs and failures
            # enter it now, and advance_to() does the stepping run()
            # would have done.
            for job in self.jobs:
                self._submit_events[job.job_id] = self._sim.schedule_at(
                    job.submit_time, self._on_submit, EventPriority.SUBMIT, job
                )
            for failure in self.failures:
                self._sim.schedule_at(
                    max(failure.time, origin),
                    self._on_node_failure,
                    EventPriority.KILL,
                    failure,
                )
            self._admit_next_from_source()

    # ------------------------------------------------------------------
    # streaming admission
    # ------------------------------------------------------------------
    @property
    def source_exhausted(self) -> bool:
        """True when no streaming source is attached or it has fully
        drained into the calendar (checkpoints require this)."""
        return self._job_source is None or (
            self._source_done and self._source_next is None
        )

    @property
    def admitted_count(self) -> int:
        """Jobs ever admitted (initial + injected + streamed)."""
        return self._admitted

    def attach_source(self, source: Iterable[Job]) -> None:
        """Attach a streaming job source to a live engine.

        Used by sharded replay: a restored engine gets the next trace
        segment's stream attached *after* its calendar has been
        re-entered, so the chained submit events draw sequence numbers
        strictly after every restored event — exactly where an
        uninterrupted run would have allocated them.
        """
        if not self.source_exhausted:
            raise SimulationError("engine already has an active job source")
        if self.failures:
            raise ConfigurationError(
                "job_source cannot be combined with a failure trace; "
                "pass the workload as a list instead"
            )
        self._job_source = iter(source)
        self._source_done = False
        self._source_next = None
        first = next(self._job_source, None)
        if first is None:
            self._source_done = True
            return
        self._validate_source_job(first)
        self._source_next = first
        self._admit_next_from_source()

    def _validate_source_job(self, job: Job) -> None:
        if job.state is not JobState.PENDING:
            raise ConfigurationError(
                f"job {job.job_id} is {job.state.value}; a job source must "
                "yield fresh PENDING jobs"
            )
        if job.submit_time < self._source_last_submit:
            raise ConfigurationError(
                f"job source is not submit-ordered: job {job.job_id} at "
                f"t={job.submit_time} after t={self._source_last_submit}"
            )
        self._source_last_submit = job.submit_time

    def _pull_from_source(self) -> Optional[Job]:
        if self._job_source is None or self._source_done:
            return None
        job = next(self._job_source, None)
        if job is None:
            self._source_done = True
            return None
        self._validate_source_job(job)
        return job

    def _admit_next_from_source(self) -> None:
        """Admit the buffered source job; buffer its successor.

        Keeping exactly one un-admitted job in hand means the calendar
        always contains the next submission (so the run loop never
        starves) while memory holds O(active) jobs, not the trace.
        """
        job = self._source_next
        if job is None:
            return
        self._source_next = self._pull_from_source()
        if job.job_id in self._jobs_by_id:
            raise ConfigurationError(
                f"duplicate job id {job.job_id} from job source"
            )
        if job.submit_time < self._sim.now:
            raise ConfigurationError(
                f"job {job.job_id} submits at t={job.submit_time}, before "
                f"the engine clock t={self._sim.now} (late arrival)"
            )
        self.jobs.append(job)
        self._jobs_by_id[job.job_id] = job
        if job.job_id > self._max_job_id:
            self._max_job_id = job.job_id
        self._admitted += 1
        if self._first_submit is None or job.submit_time < self._first_submit:
            self._first_submit = job.submit_time
        self._submit_events[job.job_id] = self._sim.schedule_at(
            job.submit_time, self._on_submit, EventPriority.SUBMIT, job
        )

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> SimulationResult:
        """Run to completion (or ``until``); returns the result record."""
        if self.online:
            raise SimulationError(
                "online engine: step with advance_to()/drain(), not run()"
            )
        if self._ran:
            raise SimulationError("simulation already ran; build a new one")
        self._ran = True
        schedule_at = self._sim.schedule_at
        for job in self.jobs:
            schedule_at(job.submit_time, self._on_submit, EventPriority.SUBMIT, job)
        start = self._sim.now
        for failure in self.failures:
            # Failures before the first submission apply at the start.
            schedule_at(
                max(failure.time, start), self._on_node_failure, EventPriority.KILL, failure
            )
        self._admit_next_from_source()
        if self.sample_interval is not None:
            if self.sample_interval <= 0:
                raise ConfigurationError("sample_interval must be positive")
            schedule_at(start, self._on_sample, EventPriority.SAMPLE)
        self._sim.run(until=until, max_events=self.max_events)

        if until is None and self._terminal_count != self._admitted:
            stuck = [j.job_id for j in self.jobs if not j.state.terminal]
            raise SimulationError(
                f"simulation drained its calendar with non-terminal jobs {stuck[:10]}"
            )
        return self._build_result()

    def _build_result(self) -> SimulationResult:
        finished_times = [
            job.end_time for job in self.jobs if job.end_time is not None
        ]
        finished_at = max(finished_times) if finished_times else self._sim.now
        rolling_stats = None
        if self._rolling is not None:
            rolling_stats = self._rolling.stats
            if math.isfinite(rolling_stats.last_end):
                finished_at = max(finished_at, rolling_stats.last_end)
        return SimulationResult(
            jobs=self.jobs,
            cluster_spec=self.cluster.spec,
            scheduler_info=self.scheduler.describe(),
            ledger=self._ledger,
            promises=self._promises,
            samples=self._samples,
            failures=self.failures,
            cycles=self._cycles,
            events=self._sim.events_processed,
            started_at=(
                self._first_submit
                if self._first_submit is not None
                else self._sim.now
            ),
            finished_at=finished_at,
            strategy_stats=self.scheduler.strategy_stats(),
            rolling=rolling_stats,
        )

    # ------------------------------------------------------------------
    # online API (the scheduler service's engine-facing surface)
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._sim.now

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    @property
    def running_count(self) -> int:
        return len(self._running)

    @property
    def cycles(self) -> int:
        return self._cycles

    def job(self, job_id: int) -> Optional[Job]:
        """The job with this id, or ``None`` — any state, any mode."""
        return self._jobs_by_id.get(job_id)

    def promise(self, job_id: int) -> Optional[Promise]:
        return self._promises.get(job_id)

    def _require_online(self) -> None:
        if not self.online:
            raise SimulationError(
                "offline engine: construct with online=True to stream work in"
            )

    def inject_jobs(self, jobs: Iterable[Job]) -> List[Job]:
        """Admit a batch of external submissions into the calendar.

        The batch is validated (fresh PENDING jobs, unseen ids, no
        submission in the past) and sorted by ``(submit_time,
        job_id)`` before its submit events are created — the sort is
        what makes a streamed replay event-for-event identical to an
        offline run regardless of arrival interleaving, because queue
        policies break every remaining tie on the same key.  Returns
        the accepted jobs in injection order.  Must not be called
        while the clock is stepping (the service's engine thread is
        the single writer).
        """
        self._require_online()
        batch = sorted(jobs, key=lambda j: (j.submit_time, j.job_id))
        now = self._sim.now
        for job in batch:
            if job.state is not JobState.PENDING:
                raise ConfigurationError(
                    f"job {job.job_id} is {job.state.value}; submit fresh "
                    "PENDING jobs"
                )
            if job.job_id in self._jobs_by_id:
                raise ConfigurationError(
                    f"duplicate job id {job.job_id} in online submission"
                )
            if job.submit_time < now:
                raise ConfigurationError(
                    f"job {job.job_id} submits at t={job.submit_time}, "
                    f"before the engine clock t={now} (late arrival)"
                )
        for job in batch:
            self.jobs.append(job)
            self._jobs_by_id[job.job_id] = job
            if job.job_id > self._max_job_id:
                self._max_job_id = job.job_id
            self._admitted += 1
            if self._first_submit is None or job.submit_time < self._first_submit:
                self._first_submit = job.submit_time
            self._submit_events[job.job_id] = self._sim.schedule_at(
                job.submit_time, self._on_submit, EventPriority.SUBMIT, job
            )
        return batch

    def cancel_job(self, job_id: int) -> str:
        """Withdraw a job; returns what happened.

        * ``"cancelled"`` — it was queued (or not yet due): removed
          without ever holding resources (PENDING → CANCELLED);
        * ``"killed"`` — it was running: resources released, execution
          record kept (RUNNING → KILLED, reason ``"cancelled"``), and
          a scheduling pass requested for the freed capacity;
        * ``"already_terminal"`` / ``"not_found"`` — nothing to do.
        """
        self._require_online()
        job = self._jobs_by_id.get(job_id)
        if job is None:
            return "not_found"
        if job.state.terminal:
            return "already_terminal"
        now = self._sim.now
        if job.state is JobState.PENDING:
            submit_handle = self._submit_events.pop(job_id, None)
            if submit_handle is not None:
                self._sim.cancel(submit_handle)
            for index, item in enumerate(self._queue):
                if item is job:
                    del self._queue[index]
                    break
            lifecycle.cancel_job(job, now)
            self._finalize_terminal(job)
            return "cancelled"
        # RUNNING: exactly the node-failure kill path, minus the drain.
        end_handle = self._end_events.pop(job_id, None)
        if end_handle is not None:
            self._sim.cancel(end_handle)
        self._release(job)
        lifecycle.kill_job(job, now, reason="cancelled")
        self._finalize_terminal(job)
        self._request_pass()
        return "killed"

    def advance_to(self, time: float) -> float:
        """Step the virtual clock to ``time``, firing every due event
        (submissions, passes, completions).  Idempotent for a time at
        or before the current clock *with no due events*; otherwise
        processes exactly what an offline run would have processed by
        then.  Returns the clock."""
        self._require_online()
        if time < self._sim.now:
            raise SimulationError(
                f"cannot advance to t={time}, before clock t={self._sim.now}"
            )
        return self._sim.run(until=time, max_events=self.max_events)

    def drain(self) -> float:
        """Run the calendar empty (lets every admitted job finish)."""
        self._require_online()
        return self._sim.run(max_events=self.max_events)

    def online_result(self) -> SimulationResult:
        """Snapshot the run record without requiring termination.

        Unlike :meth:`run`, jobs may still be pending or running; the
        caller decides when the record is complete (the load harness
        drains first, so its record matches an offline run's exactly).
        """
        self._require_online()
        return self._build_result()

    # ------------------------------------------------------------------
    # checkpoint/restore (crash-safe service support)
    # ------------------------------------------------------------------
    def checkpoint(self) -> Dict:
        """JSON-able snapshot of the full online engine state.

        See :mod:`repro.engine.snapshot` for the format and the
        restore contract.  Only legal between events (the service
        checkpoints between inbox drains)."""
        from .snapshot import checkpoint_engine  # deferred: import cycle

        return checkpoint_engine(self)

    @classmethod
    def restore(
        cls,
        cluster: Cluster,
        scheduler: Scheduler,
        snapshot: Dict,
        *,
        rolling: Optional[RollingResults] = None,
        job_source: Optional[Iterable[Job]] = None,
    ) -> "SchedulerSimulation":
        """Rebuild a live online engine from :meth:`checkpoint` output.

        ``cluster`` and ``scheduler`` must be fresh instances built
        from the configuration that produced the snapshot.  ``rolling``
        re-arms rolling aggregation on the restored engine (each shard
        spills its own window and continues the chain's fold);
        ``job_source`` attaches the next trace segment's stream after
        the calendar is re-entered."""
        from .snapshot import restore_engine  # deferred: import cycle

        return restore_engine(
            cluster, scheduler, snapshot, rolling=rolling, job_source=job_source
        )

    # ------------------------------------------------------------------
    # event handlers
    # ------------------------------------------------------------------
    def _on_submit(self, job: Job) -> None:
        self._submit_events.pop(job.job_id, None)
        # Chain the next streamed submission into the calendar.  Its
        # submit time is >= this one's, and SUBMIT priority beats the
        # SCHEDULE pass at any shared instant, so decisions match the
        # pre-built-list path event for event.
        self._admit_next_from_source()
        if not self.scheduler.fits_machine(job, self.cluster):
            lifecycle.reject_job(job, self._sim.now)
            self._finalize_terminal(job)
            return
        self._queue.append(job)
        self._request_pass()

    def _on_finish(self, job: Job) -> None:
        self._end_events.pop(job.job_id, None)
        self._release(job)
        lifecycle.complete_job(job, self._sim.now)
        self._finalize_terminal(job)
        self._request_pass()

    def _on_kill(self, job: Job) -> None:
        self._end_events.pop(job.job_id, None)
        self._release(job)
        lifecycle.kill_job(job, self._sim.now, reason="walltime")
        self._finalize_terminal(job)
        self._request_pass()

    def _on_node_failure(self, failure: FailureEvent) -> None:
        # Repair completes at the *absolute* time the trace implies,
        # even when the failure itself predates simulation start.
        repair_at = failure.time + failure.repair_time
        if repair_at <= self._sim.now:
            return  # failed and repaired entirely before the sim began
        if self.cluster.down_mask >> failure.node_id & 1:
            return  # overlapping failure while already down: absorbed
        owner = self.cluster.owner_of(failure.node_id)
        if owner is not None:
            victim = next(job for job in self._running if job.job_id == owner)
            end_handle = self._end_events.pop(victim.job_id, None)
            if end_handle is not None:
                self._sim.cancel(end_handle)
            self._release(victim)
            lifecycle.kill_job(victim, self._sim.now, reason="node_failure")
            self._finalize_terminal(victim)
            self._maybe_resubmit_from_checkpoint(victim)
        self.cluster.take_down(failure.node_id)
        self._sim.schedule_at(
            repair_at, self._on_node_repair, EventPriority.GENERIC, failure.node_id
        )
        self._request_pass()

    def _on_node_repair(self, node_id: int) -> None:
        self.cluster.bring_up(node_id)
        self._request_pass()

    def _maybe_resubmit_from_checkpoint(self, victim: Job) -> None:
        """Resubmit a checkpointable failure victim as a continuation.

        The application checkpointed every ``checkpoint_interval``
        seconds of *base* progress; base progress at the kill instant
        is wall-clock elapsed deflated by the dilation factor.  The
        continuation carries the remaining base runtime, the original
        request shape, and a fresh id (lineage kept in ``restart_of``).
        If no checkpoint completed before the failure, the continuation
        restarts from scratch.
        """
        if victim.checkpoint_interval is None:
            return
        elapsed_base = (victim.end_time - victim.start_time) / (
            1.0 + victim.dilation
        )
        saved = (
            int(elapsed_base / victim.checkpoint_interval)
            * victim.checkpoint_interval
        )
        remaining = victim.runtime - saved
        if remaining <= 0:
            # The job was effectively done; charge a minimal restart.
            remaining = 1.0
        self._max_job_id += 1
        continuation = Job(
            job_id=self._max_job_id,
            submit_time=self._sim.now,
            nodes=victim.nodes,
            walltime=victim.walltime,
            runtime=remaining,
            mem_per_node=victim.mem_per_node,
            mem_used_per_node=victim.mem_used_per_node,
            user=victim.user,
            group=victim.group,
            tag=victim.tag,
            checkpoint_interval=victim.checkpoint_interval,
            restart_of=victim.restart_of or victim.job_id,
            restart_count=victim.restart_count + 1,
        )
        self.jobs.append(continuation)
        self._jobs_by_id[continuation.job_id] = continuation
        self._admitted += 1
        self._sim.schedule_at(
            self._sim.now, self._on_submit, EventPriority.SUBMIT, continuation
        )

    def _on_schedule(self, _payload: None) -> None:
        self._pass_requested = False
        self._cycles += 1
        if not self._queue:
            # Nothing to schedule: every strategy returns before any
            # observable work on an empty pending list, so the pass is
            # counted (cycles are part of the result) but not run.
            return
        txn: Optional[PassTransaction] = None
        if self._batch_starts:
            txn = PassTransaction()
            self._txn = txn
            # One availability-version bump per pass: the pass is one
            # atomic decision unit, so its starts advance the cluster
            # version once (caches compare stamps for equality only).
            self.cluster.begin_version_batch()
        try:
            ctx = SchedulerContext(
                cluster=self.cluster,
                now=self._sim.now,
                queue=self._queue,
                running=self._running,
                start_job=self._apply_start,
                record_promise=self._record_promise,
                has_promise=self._promises.__contains__,
                queue_all_pending=True,
                transaction=txn,
            )
            self.scheduler.schedule(ctx)
        finally:
            if txn is not None:
                self._txn = None
                self.cluster.end_version_batch()
        if txn is not None and txn.decisions:
            self._commit_pass(txn)

    def _on_sample(self, _payload: None) -> None:
        snap = self.cluster.snapshot()
        self._samples.append(
            Sample(
                time=self._sim.now,
                queue_length=len(self._queue),
                running_jobs=len(self._running),
                busy_nodes=snap["busy_nodes"],
                local_mem_granted=snap["local_mem_granted"],
                pool_used=snap["pool_used"],
                pool_capacity=snap["pool_capacity"],
            )
        )
        if self._terminal_count < self._admitted or not self.source_exhausted:
            self._sim.schedule_at(
                self._sim.now + self.sample_interval, self._on_sample, EventPriority.SAMPLE
            )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _finalize_terminal(self, job: Job) -> None:
        """Every terminal transition funnels through here exactly once.

        In rolling mode the job is folded into the sink (with its
        promise, which is consumed) and evicted from the engine — the
        step that bounds peak memory at O(active jobs).
        """
        self._terminal_count += 1
        if self._rolling is None:
            return
        self._rolling.ingest(job, self._promises.pop(job.job_id, None))
        self._jobs_by_id.pop(job.job_id, None)
        _remove_by_identity(self.jobs, job)

    def _request_pass(self) -> None:
        if not self._pass_requested:
            self._pass_requested = True
            self._sim.schedule_at(self._sim.now, self._on_schedule, EventPriority.SCHEDULE)

    def _record_promise(self, job_id: int, promised_start: float) -> None:
        if job_id not in self._promises:
            self._promises[job_id] = Promise(
                job_id=job_id,
                decided_at=self._sim.now,
                promised_start=promised_start,
            )

    def _apply_start(self, decision: StartDecision) -> None:
        """Apply a start decision.

        The strategy-visible half — pressure-dependent dilation,
        cluster allocation, job lifecycle, the running list — is
        always applied immediately: later decisions of the same pass
        (and the gates vetting them) must observe it.  Under a pass
        transaction the engine-only half (ledger entry, completion
        event, queue removal) is deferred to :meth:`_commit_pass`;
        without one (``batch_starts=False``, hand-driven contexts) it
        happens inline, one start at a time.
        """
        job = decision.job
        now = self._sim.now
        # Pressure is measured with the job's own grant included: the
        # job competes with itself on the fabric from its first byte.
        pressure = pool_pressure(self.cluster, decision.plan)
        dilation = self.scheduler.penalty.dilation(
            decision.split.remote_fraction, pressure
        )

        self.cluster.allocate_nodes(job.job_id, decision.node_mask, decision.split.local)
        try:
            self.cluster.allocate_pool(job.job_id, decision.plan)
        except Exception:
            self.cluster.release_nodes(job.job_id)
            raise
        if self._txn is None and self._ledger_enabled:
            self._ledger.record_grant(
                now,
                job.job_id,
                local_total=decision.split.local * job.nodes,
                pool_grants=decision.plan,
            )
        lifecycle.start_job(job, now, decision, dilation)
        self._running.append(job)
        if self._txn is not None:
            return  # ledger/calendar/queue effects commit at pass end
        _remove_by_identity(self._queue, job)
        self._schedule_end_event(job, now)

    def _schedule_end_event(self, job: Job, now: float) -> None:
        """Put a started job's completion in the calendar: a kill at
        the policy bound, or a natural finish."""
        bound = lifecycle.kill_bound(job, self.scheduler.kill_policy)
        dilated_runtime = job.dilated_runtime
        if bound is not None and dilated_runtime > bound + _EPS:
            handle = self._sim.schedule_at(
                now + bound, self._on_kill, EventPriority.KILL, job
            )
        else:
            handle = self._sim.schedule_at(
                now + dilated_runtime, self._on_finish, EventPriority.FINISH, job
            )
        self._end_events[job.job_id] = handle

    def _commit_pass(self, txn: PassTransaction) -> None:
        """Batch-apply the deferred effects of one pass's starts.

        Runs after the strategy returns and before any other event can
        fire, so the committed state — ledger entry order, completion
        event times/priorities/sequence numbers, queue content — is
        bit-identical to the sequential path's.  What changes is the
        cost shape: one ledger append batch and one queue rebuild
        instead of one identity scan per start.
        """
        decisions = txn.decisions
        now = self._sim.now
        if self._ledger_enabled:
            self._ledger.record_grant_batch(
                now,
                (
                    (
                        decision.job.job_id,
                        decision.split.local * decision.job.nodes,
                        decision.plan,
                    )
                    for decision in decisions
                ),
            )
        # Started jobs left PENDING at lifecycle.start_job; one filter
        # preserves the order of the survivors exactly as repeated
        # identity removals did.
        self._queue = [
            job for job in self._queue if job.state is JobState.PENDING
        ]
        for decision in decisions:
            self._schedule_end_event(decision.job, now)

    def _release(self, job: Job) -> None:
        version_before = self.cluster.version
        node_mask = self.cluster.release_nodes(job.job_id)
        self.cluster.release_pool(job.job_id)
        if self._ledger_enabled:
            self._ledger.record_release(self._sim.now, job.job_id)
        _remove_by_identity(self._running, job)
        # Let the scheduler fold the release into any cached
        # availability profile in place (the version stamp proves
        # nothing else touched the cluster since the cache was taken).
        self.scheduler.notify_release(
            self.cluster, job, self._sim.now, version_before, node_mask
        )
