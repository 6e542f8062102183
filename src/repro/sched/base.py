"""Scheduler facade: policy stack, decisions, and shared helpers.

A :class:`Scheduler` bundles the whole policy stack — queue order,
backfill strategy, placement, memory split, pool allocator, penalty
model, start gate, kill policy — and exposes the helpers every
backfill strategy needs (feasibility checks, duration estimates,
profile construction).  The engine hands it a
:class:`SchedulerContext` each cycle and applies the returned
decisions through the context's ``start_job`` callback *during* the
pass, so strategies always observe live state.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from ..cluster.cluster import Cluster
from ..cluster.masks import ids_of
from ..errors import ConfigurationError
from ..memdis.allocator import (
    GlobalPoolAllocator,
    HybridAllocator,
    PoolAllocator,
    RackLocalAllocator,
    allocator_for,
)
from ..memdis.penalty import LinearPenalty, PenaltyModel, penalty_from_dict
from ..memdis.split import LocalFirstSplit, MemorySplit, SplitPolicy
from ..workload.job import Job, JobState
from .placement import FirstFitPlacement, PlacementPolicy, placement_for
from .profile import AvailabilityProfile
from .queue_policies import FCFSPolicy, QueuePolicy, queue_policy_for

if TYPE_CHECKING:  # pragma: no cover
    from .backfill import BackfillStrategy
    from .memaware import StartGate

__all__ = [
    "KillPolicy",
    "StartDecision",
    "PassTransaction",
    "SchedulerContext",
    "Scheduler",
    "build_scheduler",
    "pool_pressure",
    "BOUND_NONE",
    "BOUND_GATE",
    "BOUND_NODES",
    "BOUND_POOL",
    "BOUND_MACHINE",
    "policy_hold_kind",
]

#: Constraint-bound taxonomy shared by the service ``advise`` endpoint
#: and the audit explanation layer (docs/AUDIT.md): the one vocabulary
#: for "what is holding this job back".
BOUND_NONE = "none"  # free nodes and pool capacity cover it right now
BOUND_GATE = "gate"  # a start gate is deliberately holding it
BOUND_NODES = "node-availability"  # waiting on busy nodes
BOUND_POOL = "pool-capacity"  # nodes are free but remote memory is not
BOUND_MACHINE = "machine-capacity"  # can never run here (reject)


def policy_hold_kind(backfill_name: str) -> str:
    """The scheduling-policy constraint that holds a *physically
    startable* job: EASY holds it behind the head job's shadow window,
    conservative behind earlier reservations, no-backfill behind
    strict queue order."""
    return {
        "easy": "shadow-window",
        "conservative": "reservation-order",
        "none": "queue-order",
    }.get(backfill_name, f"{backfill_name}-policy")


class KillPolicy(str, enum.Enum):
    """What happens when a job reaches its walltime bound.

    * ``strict`` — killed at the user walltime, dilation or not (what
      an unmodified production scheduler would do; penalizes remote
      memory twice);
    * ``dilation_aware`` — the kill bound is scaled by the same
      ``1 + dilation`` as the runtime, so disaggregation does not
      manufacture extra kills (default; keeps comparisons clean);
    * ``none`` — jobs always run to completion (idealized arm).
    """

    STRICT = "strict"
    DILATION_AWARE = "dilation_aware"
    NONE = "none"


def pool_pressure(cluster: Cluster, plan: Optional[Dict[str, int]] = None) -> float:
    """Worst-case pool bandwidth pressure, optionally after ``plan``.

    Pressure of a pool is granted MiB over its declared bandwidth
    capacity; pools with infinite bandwidth contribute zero.  The
    maximum across pools is the figure the contention penalty and the
    start gates consume.
    """
    if not cluster.has_metered_pools:
        return 0.0  # every pool has infinite bandwidth: zero pressure
    worst = 0.0
    for pool in cluster.all_pools():
        if pool.bandwidth == float("inf"):
            continue
        used = pool.used + (plan or {}).get(pool.pool_id, 0)
        worst = max(worst, used / pool.bandwidth)
    return worst


@dataclass(frozen=True)
class StartDecision:
    """A concrete, immediately applicable job start."""

    job: Job
    #: The nodes placement chose, as its mask; the cluster stores it as
    #: the job's held mask and ids are decoded once, when the job
    #: starts (:func:`repro.engine.lifecycle.start_job`).
    node_mask: int
    plan: Dict[str, int]  # pool_id -> MiB
    split: MemorySplit

    def __post_init__(self) -> None:
        count = self.node_mask.bit_count()
        if count != self.job.nodes:
            raise ConfigurationError(
                f"decision for job {self.job.job_id} has {count} "
                f"nodes, job requested {self.job.nodes}"
            )

    @property
    def node_ids(self) -> Tuple[int, ...]:
        """The node ids in placement order, decoded on each call."""
        return tuple(ids_of(self.node_mask))


class PassTransaction:
    """One scheduling pass as an atomic decision unit across layers.

    Strategies and gates share per-pass derived state here
    (:meth:`next_pool_release`), and the engine reads
    :attr:`decisions` at pass end to batch-apply the calendar, ledger,
    and queue side effects in one commit
    (:meth:`repro.engine.simulation.SchedulerSimulation._commit_pass`).

    A transaction lives for exactly one pass — but the state it hands
    out may *span* passes: the gates' next-pool-release scan is seeded
    from a stamp-keyed cross-pass cache
    (:class:`~repro.sched.memaware.StartGate`).  The pass's shared
    sweep cursor is not handed out here: it belongs to the profile
    (:meth:`~repro.sched.profile.AvailabilityProfile.sweep_cursor`).
    Contexts built without a transaction (tests, ad-hoc tooling)
    create their own, so strategies can rely on it unconditionally.
    """

    __slots__ = ("decisions", "_pool_rel_len", "_pool_rel_min")

    def __init__(self) -> None:
        #: Start decisions in application order (read-only for
        #: strategies; appended by ``SchedulerContext.start_job``).
        self.decisions: List[StartDecision] = []
        self._pool_rel_len: Optional[int] = None
        self._pool_rel_min: Optional[float] = None

    def next_pool_release(
        self, ctx: "SchedulerContext", sched: "Scheduler"
    ) -> Optional[float]:
        """Estimated end of the earliest-finishing pool-holding job.

        Computed once per pass and folded forward over mid-pass starts
        (the running list only grows during a pass), replacing the
        full running-set scan every gate ``permit`` call used to pay.
        """
        running = ctx.running
        count = len(running)
        known = self._pool_rel_len
        if known is None:
            best: Optional[float] = None
            start = 0
        else:
            best = self._pool_rel_min
            start = known
        if known is None or count > known:
            for job in running[start:count]:
                if not job.pool_grants or job.start_time is None:
                    continue
                est_end = job.start_time + sched.duration_of_running(job)
                if best is None or est_end < best:
                    best = est_end
            self._pool_rel_len = count
            self._pool_rel_min = best
        return self._pool_rel_min


class SchedulerContext:
    """Everything a strategy may consult or invoke during one cycle.

    ``pending()`` is maintained incrementally within the pass: the
    first call snapshots the queue, and every ``start_job`` removes the
    started job from the snapshot — strategies that consult the pending
    list once per started job no longer rescan the whole queue.  The
    context lives for exactly one scheduling pass (a new one is built
    per cycle, hence ``__slots__``), so the snapshot can never go stale
    across simulation events.
    """

    __slots__ = (
        "cluster", "now", "queue", "running", "transaction",
        "_apply_start", "record_promise", "has_promise", "_pending",
        "_queue_all_pending",
    )

    def __init__(
        self,
        cluster: Cluster,
        now: float,
        queue: List[Job],  # live reference: engine removes started jobs
        running: List[Job],  # live reference
        start_job: Callable[[StartDecision], None],
        record_promise: Callable[[int, float], None] = lambda job_id, start: None,
        # Whether a promise was already recorded for a job.  The engine
        # keeps only the first promise per job, so strategies may skip
        # recomputing one that exists; the default (always False) makes
        # hand-built contexts recompute every time — the safe behavior.
        has_promise: Callable[[int], bool] = lambda job_id: False,
        # The engine's queue holds only PENDING jobs by construction;
        # it sets this to skip the per-job state filter in pending().
        queue_all_pending: bool = False,
        # The engine hands in the pass transaction it will commit;
        # hand-built contexts get a private one so strategies can rely
        # on ``ctx.transaction`` unconditionally.
        transaction: Optional[PassTransaction] = None,
    ) -> None:
        self.cluster = cluster
        self.now = now
        self.queue = queue
        self.running = running
        self.transaction = (
            transaction if transaction is not None else PassTransaction()
        )
        self._apply_start = start_job
        self.record_promise = record_promise
        self.has_promise = has_promise
        self._pending: Optional[List[Job]] = None
        self._queue_all_pending = queue_all_pending

    def start_job(self, decision: StartDecision) -> None:
        """Apply a start through the engine callback and keep the
        pending snapshot current."""
        self._apply_start(decision)
        self.transaction.decisions.append(decision)
        pending = self._pending
        if pending is not None:
            job = decision.job
            for index, item in enumerate(pending):
                if item is job:
                    del pending[index]
                    break

    def pending(self) -> List[Job]:
        """PENDING jobs in queue order (live view; do not mutate)."""
        if self._pending is None:
            # Under a batch-committing engine, started jobs stay in
            # the queue list until pass commit; once any start has
            # been applied this pass, fall back to the state filter so
            # the snapshot never resurrects them.
            if self._queue_all_pending and not self.transaction.decisions:
                self._pending = list(self.queue)
            else:
                self._pending = [
                    job for job in self.queue if job.state is JobState.PENDING
                ]
        return self._pending


class Scheduler:
    """The full policy stack; one instance drives one simulation."""

    def __init__(
        self,
        queue_policy: Optional[QueuePolicy] = None,
        backfill: Optional["BackfillStrategy"] = None,
        placement: Optional[PlacementPolicy] = None,
        split_policy: Optional[SplitPolicy] = None,
        allocator: Optional[PoolAllocator] = None,
        penalty: Optional[PenaltyModel] = None,
        gate: Optional["StartGate"] = None,
        kill_policy: KillPolicy | str = KillPolicy.DILATION_AWARE,
    ) -> None:
        from .backfill import EasyBackfill  # deferred: avoids import cycle
        from .memaware import AlwaysStart

        self.queue_policy = queue_policy or FCFSPolicy()
        self.backfill = backfill or EasyBackfill()
        self.placement = placement or FirstFitPlacement()
        self.split_policy = split_policy or LocalFirstSplit()
        self._allocator = allocator  # may be None: resolved per cluster
        self.penalty = penalty or LinearPenalty()
        self.gate = gate or AlwaysStart()
        self.kill_policy = KillPolicy(kill_policy)
        # Splits are pure functions of (mem_per_node, local_mem) for a
        # fixed split policy; workloads reuse a handful of memory
        # shapes, so memoizing kills a hot-path recomputation.
        self._split_cache: Dict[Tuple[int, int], MemorySplit] = {}
        # fits_machine depends only on the request shape and *static*
        # cluster capacity (empty-machine hypothetical), so it is
        # memoized per (nodes, mem_per_node); the entry pins the
        # cluster it was computed against (identity-checked on read,
        # so switching clusters just recomputes).
        self._fits_cache: Dict[Tuple[int, int], Tuple[Cluster, bool]] = {}

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------
    def schedule(self, ctx: SchedulerContext) -> List[StartDecision]:
        """Run one scheduling cycle; returns the applied decisions."""
        return self.backfill.run(ctx, self)

    def notify_release(
        self,
        cluster: Cluster,
        job: Job,
        now: float,
        version_before: int,
        node_mask: int,
    ) -> None:
        """Tell the backfill strategy a job's resources were released.

        The engine calls this immediately after the cluster mutations
        of a completion/kill (``version_before`` is the cluster
        version just before them, ``node_mask`` the nodes the cluster
        freed), while the job still carries its grant records.
        Strategies with a cross-cycle profile cache fold the release
        in place instead of rebuilding next pass; everything else
        ignores it.  Guarded by ``getattr`` so duck-
        typed strategies that predate the hook keep working.
        """
        on_release = getattr(self.backfill, "on_release", None)
        if on_release is not None:
            on_release(self, cluster, job, now, version_before, node_mask)

    # ------------------------------------------------------------------
    # helpers shared by strategies
    # ------------------------------------------------------------------
    def resolve_allocator(self, cluster: Cluster) -> PoolAllocator:
        """Explicit allocator, or the natural one for the machine.

        rack+global pools → hybrid; only global → global; only rack →
        rack; no pools → global (any remote demand is then simply
        infeasible, which is the correct answer on a pool-less machine).
        """
        if self._allocator is not None:
            return self._allocator
        has_rack = any(rack.pool is not None for rack in cluster.racks)
        has_global = cluster.global_pool is not None
        if has_rack and has_global:
            self._allocator = HybridAllocator()
        elif has_rack:
            self._allocator = RackLocalAllocator()
        else:
            self._allocator = GlobalPoolAllocator()
        return self._allocator

    def split_for(self, job: Job, cluster: Cluster) -> MemorySplit:
        key = (job.mem_per_node, cluster.spec.node.local_mem)
        split = self._split_cache.get(key)
        if split is None:
            split = self.split_policy.split(key[0], key[1])
            self._split_cache[key] = split
        return split

    def est_dilation(self, job: Job, cluster: Cluster, split: Optional[MemorySplit] = None) -> float:
        """Dilation estimate for a *pending* job at current pressure."""
        split = split or self.split_for(job, cluster)
        if split.remote == 0:
            # Every penalty model maps a zero remote fraction to
            # exactly 0.0 dilation (remote memory is the only source
            # of dilation); skip the pressure computation.
            return 0.0
        return self.penalty.dilation(split.remote_fraction, pool_pressure(cluster))

    def est_duration(
        self, job: Job, cluster: Cluster, split: Optional[MemorySplit] = None
    ) -> float:
        """Occupancy bound used for reservations of pending jobs.

        Pass ``split`` when the caller already derived it (it is a
        memoized pure function, but the lookup is on the hot path).
        """
        if self.kill_policy is KillPolicy.STRICT:
            return job.walltime
        return job.walltime * (1.0 + self.est_dilation(job, cluster, split))

    def duration_of_running(self, job: Job) -> float:
        """Occupancy bound for an already-running job (dilation known)."""
        if self.kill_policy is KillPolicy.STRICT:
            return job.walltime
        return job.walltime * (1.0 + job.dilation)

    def fits_machine(self, job: Job, cluster: Cluster) -> bool:
        """Could the job run on an *empty* machine? Submission check.

        The hypothetical is evaluated entirely against static capacity:
        the placement hint and the allocator override are both the pool
        *capacities*, never live state.  (Historically the placement
        ordered by live ``pool.free``, which let ``min_remote`` admit a
        job during a favorable transient that a fully drained machine
        could never start — a liveness hole: the job sat in the queue
        forever.)  Pure in (request shape, static capacity), hence
        memoized — submission storms reuse a handful of shapes.
        """
        key = (job.nodes, job.mem_per_node)
        cached = self._fits_cache.get(key)
        if cached is not None and cached[0] is cluster:
            return cached[1]
        result = self._fits_machine_uncached(job, cluster)
        self._fits_cache[key] = (cluster, result)
        return result

    def _fits_machine_uncached(self, job: Job, cluster: Cluster) -> bool:
        if job.nodes > cluster.num_nodes:
            return False
        split = self.split_for(job, cluster)
        if split.remote == 0:
            return True
        capacities = cluster.pool_capacities()
        node_mask = self.placement.select(
            cluster, cluster.all_mask, job.nodes, split.remote, capacities
        )
        if node_mask is None:
            return False
        plan = self.resolve_allocator(cluster).plan(
            cluster, node_mask, split.remote, free_override=capacities
        )
        return plan is not None

    def try_start_now(
        self, ctx: SchedulerContext, job: Job, check_gate: bool = True
    ) -> Optional[StartDecision]:
        """Feasible start against *live* state, gate included."""
        cluster = ctx.cluster
        if job.nodes > cluster.free_node_count:
            return None
        split = self.split_for(job, cluster)
        # The maintained free mask (no per-call node scan).  No
        # pool_free hint: policies fall back to live ``pool.free``,
        # which is exactly what the hint dict would have contained.
        node_mask = self.placement.select(
            cluster, cluster.free_mask, job.nodes, split.remote, None
        )
        if node_mask is None:
            return None
        plan: Optional[Dict[str, int]] = {}
        if split.remote > 0:
            plan = self.resolve_allocator(cluster).plan(cluster, node_mask, split.remote)
            if plan is None:
                return None
        decision = StartDecision(job=job, node_mask=node_mask, plan=plan, split=split)
        if (
            check_gate
            and not self.gate.trivially_permits
            and not self.gate.permit(ctx, self, decision)
        ):
            return None
        return decision

    def build_profile(self, ctx: SchedulerContext) -> AvailabilityProfile:
        return AvailabilityProfile(
            ctx.cluster, ctx.running, ctx.now, self.duration_of_running
        )

    def describe(self) -> Dict[str, str]:
        """Human-readable policy stack (for reports and audits)."""
        return {
            "queue": self.queue_policy.name,
            "backfill": self.backfill.name,
            "placement": self.placement.name,
            "penalty": self.penalty.name,
            "gate": self.gate.name,
            "kill": self.kill_policy.value,
            "memory_aware": str(getattr(self.backfill, "memory_aware", True)).lower(),
        }

    def strategy_stats(self) -> Dict[str, Dict[str, int]]:
        """Backfill cache/replay counters, keyed by ledger.

        EASY exposes ``shadow_stats`` (the head-shadow cache),
        conservative ``replay_stats`` (the retained-plan replay doors).
        Pure observability — the counters never feed decisions — and
        copied, so a stored result cannot alias the live dicts.
        """
        stats: Dict[str, Dict[str, int]] = {}
        shadow = getattr(self.backfill, "shadow_stats", None)
        if shadow is not None:
            stats["shadow"] = dict(shadow)
        replay = getattr(self.backfill, "replay_stats", None)
        if replay is not None:
            stats["replay"] = dict(replay)
        return stats


def build_scheduler(
    queue: str = "fcfs",
    backfill: str = "easy",
    placement: str = "first_fit",
    allocator: Optional[str] = None,
    penalty: Optional[dict | str] = None,
    gate: str = "always",
    kill_policy: str = "dilation_aware",
    memory_aware: bool = True,
    headroom: int = 0,
) -> Scheduler:
    """String-based constructor used by configs, the CLI, and benches."""
    from .backfill import backfill_for
    from .memaware import gate_for

    return Scheduler(
        queue_policy=queue_policy_for(queue),
        backfill=backfill_for(backfill, memory_aware=memory_aware),
        placement=placement_for(placement),
        split_policy=LocalFirstSplit(headroom=headroom),
        allocator=allocator_for(allocator) if allocator else None,
        penalty=penalty_from_dict(penalty),
        gate=gate_for(gate),
        kill_policy=kill_policy,
    )
