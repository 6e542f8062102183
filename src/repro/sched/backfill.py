"""Backfill strategies: none, EASY, conservative.

All three walk the queue in policy order and start jobs through the
context callback (so the cluster mutates as the pass proceeds).  They
differ in what happens when a job cannot start:

* **none** — the queue head blocks everything behind it (pure FCFS
  dispatch, the 1990s baseline that motivates backfilling);
* **EASY** — the head gets a *shadow* reservation at its earliest
  feasible time; later jobs may start now iff they cannot push that
  shadow back.  Our shadow accounts for pool memory as well as nodes
  (``memory_aware=True``); with ``memory_aware=False`` the reservation
  covers nodes only, reproducing a classic scheduler that treats
  memory as free — the pathology the paper quantifies;
* **conservative** — every queued job (up to ``depth``) gets a
  reservation; a job may start now only if doing so respects all
  reservations ahead of it.

EASY's no-delay check is implemented by *hypothesis testing*: overlay
the candidate as a trial reservation on the cycle's shared sweep and
recompute the head's earliest start.  That is more expensive than the
textbook "extra nodes" arithmetic but remains exact in the presence
of the memory dimension and placement identity, where the textbook
shortcut is not.  The shared profile tracks mid-pass starts through
:meth:`AvailabilityProfile.apply_start`, so no candidate ever pays
for a profile rebuild — and the trial itself is a pure overlay on the
pass's :class:`~repro.sched.profile.SweepCursor` (no
add-query-remove round-trip on the reservation index).

Every scan of a pass — EASY's shadow and trials, conservative's
per-job reservation scans and replay probes — goes through the
profile's shared sweep cursor (``profile.sweep_cursor()``), so the
release/reservation timeline is walked once per pass instead of once
per queued job.  Conservative backfill goes one step further: its
reservation plan is a **persistent, diffed structure** — teardown
retains the standing reservations instead of clearing them, and the
next pass patches only the
entries a perturbation can reach (see
:class:`ConservativeBackfill` for the replay door and its
soundness argument; ``docs/ARCHITECTURE.md`` for the full map).

Queue ordering is computed **once per pass**: every policy key is a
pure function of ``(job, now)`` and ``now`` is fixed for the pass, so
the policy order of the not-yet-started jobs is the initial order with
started jobs removed — re-sorting after every start (the old behavior)
produced byte-identical decisions at O(n log n) per started job.
"""

from __future__ import annotations

import abc
from typing import List, Optional, Tuple

from ..errors import ConfigurationError
from ..memdis.split import MemorySplit
from ..workload.job import Job
from .base import Scheduler, SchedulerContext, StartDecision
from .profile import AvailabilityProfile, Reservation

__all__ = [
    "BackfillStrategy",
    "NoBackfill",
    "EasyBackfill",
    "ConservativeBackfill",
    "backfill_for",
]

_EPS = 1e-6


class BackfillStrategy(abc.ABC):
    """One scheduling cycle's queue-walking logic."""

    name: str = "abstract"

    #: Cross-cycle profile cache: ``(cluster, version, profile)`` or
    #: None.  Valid exactly when the cluster is untouched since the
    #: stamp and the profile rebases to the new instant.  Strategies
    #: that maintain one (EASY, conservative) assign an instance
    #: attribute; the class default keeps cache-less strategies inert.
    _profile_cache: Optional[tuple] = None

    @abc.abstractmethod
    def run(self, ctx: SchedulerContext, sched: Scheduler) -> List[StartDecision]:
        ...

    # ------------------------------------------------------------------
    def on_release(
        self,
        sched: Scheduler,
        cluster,
        job: Job,
        now: float,
        version_before: int,
        node_mask: int,
    ) -> Optional[float]:
        """Fold a job completion into the cached profile, in place.

        Called by the engine immediately after the cluster released the
        job's nodes (``node_mask``) and grants (``version_before`` is
        the cluster version just before those mutations).  When the cache was
        valid at that stamp, :meth:`AvailabilityProfile.apply_release`
        patches the profile to the post-completion state — bit-
        equivalent to a fresh rebuild — and the cache is re-stamped, so
        the next pass skips the rebuild that completions used to
        force.  Any mismatch simply drops the cache (the next pass
        rebuilds, the pre-folding behavior).

        Returns the folded release's estimated-end time on success
        (``None`` otherwise) — the *fold horizon* subclasses with a
        reservation plan cache use: profile evaluation at breakpoints
        at or beyond that time is unchanged by the fold.
        """
        cache = self._profile_cache
        if cache is None:
            return None
        c_cluster, c_version, c_profile = cache
        if c_cluster is not cluster or c_version != version_before:
            return None
        est_end = job.start_time + sched.duration_of_running(job)
        if c_profile.apply_release(node_mask, job.pool_grants, est_end):
            self._profile_cache = (cluster, cluster.version, c_profile)
            return est_end
        self._profile_cache = None
        return None

    def _cycle_profile(
        self, ctx: SchedulerContext, sched: Scheduler
    ) -> AvailabilityProfile:
        """This cycle's availability profile, reusing the cached one
        when the cluster is provably unchanged since its stamp."""
        cluster = ctx.cluster
        cache = self._profile_cache
        if cache is not None:
            c_cluster, c_version, c_profile = cache
            if (
                c_cluster is cluster
                and c_version == cluster.version
                and c_profile.rebase(ctx.now)
            ):
                return c_profile
        profile = sched.build_profile(ctx)
        self._profile_cache = (cluster, cluster.version, profile)
        return profile

    # ------------------------------------------------------------------
    @staticmethod
    def _start_in_order(
        ctx: SchedulerContext, sched: Scheduler
    ) -> Tuple[List[StartDecision], List[Job]]:
        """Start queue-order jobs while the next one fits; stop at the
        first blocked job.  Shared phase 1 of every strategy.

        Returns ``(started, remaining)`` where ``remaining`` is the
        rest of the policy order — queue keys are fixed for the pass,
        so the leftover of one sort *is* the policy order of the
        survivors and callers never re-sort.
        """
        started: List[StartDecision] = []
        pending = ctx.pending()
        if not pending:
            return started, []
        ordered = sched.queue_policy.order(pending, ctx.now)
        cluster = ctx.cluster
        index = 0
        while index < len(ordered):
            job = ordered[index]
            if job.nodes > cluster.free_node_count:
                break  # try_start_now would fail the same check
            decision = sched.try_start_now(ctx, job)
            if decision is None:
                break
            ctx.start_job(decision)
            started.append(decision)
            index += 1
        return started, ordered[index:]

    @staticmethod
    def _fold_started(
        profile: AvailabilityProfile, sched: Scheduler, decision: StartDecision
    ) -> None:
        """Track a mid-pass start on the shared profile (no rebuild)."""
        job = decision.job
        profile.apply_start(
            decision.node_mask,
            decision.plan,
            job.start_time + sched.duration_of_running(job),
        )

    @staticmethod
    def _queue_head(ctx: SchedulerContext, sched: Scheduler) -> Optional[Job]:
        """The policy-order head without sorting the whole queue.

        ``min`` returns the first minimal element, exactly what a
        stable full sort would put at index 0.  Only valid for
        stateless policies (no ``order`` bookkeeping is triggered).
        """
        pending = ctx.pending()
        if not pending:
            return None
        key = sched.queue_policy.key
        now = ctx.now
        return min(pending, key=lambda job: key(job, now))


class NoBackfill(BackfillStrategy):
    """Head-of-line blocking dispatch."""

    name = "none"

    def run(self, ctx: SchedulerContext, sched: Scheduler) -> List[StartDecision]:
        if ctx.cluster.free_node_count == 0 and sched.queue_policy.stateless:
            return []  # every try_start_now would fail its node check
        started, _ = self._start_in_order(ctx, sched)
        return started


class _ShadowPlan:
    """The cached head shadow, valid while its profile is unmutated.

    ``mutations`` stamps the profile's mutation count at the scan: any
    start or completion fold bumps it and so voids the shadow, which
    keeps the hit check in :meth:`EasyBackfill._shadow_of` a plain
    equality.
    """

    __slots__ = (
        "profile", "mutations", "head_id", "split", "dur", "shadow", "now",
    )

    def __init__(
        self, profile, mutations, head_id, split, dur, shadow, now,
    ) -> None:
        self.profile = profile
        self.mutations = mutations
        self.head_id = head_id
        self.split = split
        self.dur = dur
        self.shadow = shadow
        self.now = now


class EasyBackfill(BackfillStrategy):
    """EASY backfilling with a memory-aware shadow reservation.

    ``depth`` caps how many queued candidates are examined per cycle
    (production schedulers do the same to bound cycle latency).
    """

    name = "easy"

    def __init__(self, depth: int = 128, memory_aware: bool = True) -> None:
        if depth < 1:
            raise ConfigurationError("backfill depth must be >= 1")
        self.depth = depth
        self.memory_aware = memory_aware
        # Cross-cycle caches.  The profile cache is (cluster, version,
        # profile): valid exactly when the cluster is untouched since
        # the stamp and the profile rebases to the new instant — a
        # mid-pass ``apply_start`` fold is bit-equivalent to a rebuild,
        # so the cache is re-stamped after a pass's last fold.  The
        # shadow cache layers on top (see :class:`_ShadowPlan`), keyed
        # by the profile object, its mutation count, and the head job.
        self._profile_cache: Optional[tuple] = None
        self._shadow_cache: Optional[_ShadowPlan] = None
        #: Shadow-cache counters (exposed for tests and audits):
        #: ``reused`` counts hits, ``recompute`` full head scans.
        self.shadow_stats = {"reused": 0, "recompute": 0}

    def run(self, ctx: SchedulerContext, sched: Scheduler) -> List[StartDecision]:
        if ctx.cluster.free_node_count == 0 and sched.queue_policy.stateless:
            # Saturated machine: nothing can start, so the pass can
            # only matter through the head's promise — record it once.
            head = self._queue_head(ctx, sched)
            if head is not None and not ctx.has_promise(head.job_id):
                self._shadow_of(ctx, sched, head)
            return []
        started, remaining = self._start_in_order(ctx, sched)
        if not remaining:
            return started
        head, rest = remaining[0], remaining[1 : 1 + self.depth]
        allocator = sched.resolve_allocator(ctx.cluster)

        # The shadow is computed lazily: nothing between here and the
        # first feasible candidate mutates cluster state, so deferring
        # it is observable only through its cost.  On a busy machine
        # most cycles have a blocked head, an already-recorded promise,
        # and no startable candidate — those cycles now skip the
        # profile build and head scan entirely.
        profile: Optional[AvailabilityProfile] = None
        head_split = None
        head_dur = 0.0
        shadow: Optional[float] = None
        shadow_known = False

        def compute_shadow() -> None:
            nonlocal profile, head_split, head_dur, shadow, shadow_known
            profile, head_split, head_dur, shadow = self._shadow_of(
                ctx, sched, head
            )
            shadow_known = True

        if not ctx.has_promise(head.job_id):
            compute_shadow()

        free_count = ctx.cluster.free_node_count
        for job in rest:
            if job.nodes > free_count:
                continue  # try_start_now would fail the same check
            decision = sched.try_start_now(ctx, job)
            if decision is None:
                continue
            if not shadow_known:
                compute_shadow()
            dur = sched.est_duration(job, ctx.cluster, split=decision.split)
            if shadow is None or ctx.now + dur <= shadow + _EPS:
                # Finishes before the shadow: cannot delay the head.
                ctx.start_job(decision)
                started.append(decision)
                self._fold_started(profile, sched, decision)
                free_count = ctx.cluster.free_node_count
                continue
            # Long candidate: start it hypothetically and see whether
            # the head could still make its shadow time.  The trial is
            # a pure overlay on the pass's shared sweep; apply_start
            # has kept the profile equivalent to a fresh rebuild.
            trial = Reservation(
                job_id=job.job_id,
                start=ctx.now,
                end=ctx.now + dur,
                node_mask=decision.node_mask,
                pool_grants=tuple(sorted(decision.plan.items())),
            )
            # Bounded scan: only "can the head still start by the
            # shadow?" matters, so stop at the shadow instead of
            # walking the whole timeline on a rejection.
            head_retry = profile.sweep_cursor().earliest_start(
                head,
                head_dur,
                head_split.remote,
                sched.placement,
                allocator,
                memory_aware=self.memory_aware,
                not_after=shadow + _EPS,
                trial=trial,
            )
            if head_retry is not None and head_retry.start <= shadow + _EPS:
                ctx.start_job(decision)
                started.append(decision)
                self._fold_started(profile, sched, decision)
                free_count = ctx.cluster.free_node_count
        if profile is not None:
            # Folds kept the profile bit-equivalent to a fresh build at
            # the now-current cluster state; re-stamp so the next pass
            # can reuse it even though this pass mutated the cluster.
            self._profile_cache = (ctx.cluster, ctx.cluster.version, profile)
        return started

    def _shadow_of(
        self, ctx: SchedulerContext, sched: Scheduler, head: Job
    ) -> Tuple[AvailabilityProfile, "MemorySplit", float, Optional[float]]:
        """The cycle profile plus the head's shadow, cached across
        cycles.  Returns (profile, split, duration, shadow); shadow is
        None when the head cannot fit even an empty machine.

        Cache validity argument: if the cluster version is unchanged,
        no start/finish/failure/pool mutation happened, so base
        availability and the running set are identical; availability is
        constant between the old and new instant (the first release
        lies beyond it, checked by ``rebase``), so the head stays
        infeasible up to its cached shadow — a fresh scan would return
        the same reservation start.  A shadow equal to the compute
        instant (possible under a gate veto) is never reused, because
        a fresh scan would move it to the new instant.  Any start or
        completion fold bumps the profile's mutation count and so
        forces a fresh head scan.
        """
        profile = self._cycle_profile(ctx, sched)
        plan = self._shadow_cache
        if plan is not None:
            if (
                plan.profile is profile
                and plan.mutations == profile.mutation_count
                and plan.head_id == head.job_id
                and (plan.shadow is None or plan.shadow > plan.now)
            ):
                self.shadow_stats["reused"] += 1
                return profile, plan.split, plan.dur, plan.shadow
        cluster = ctx.cluster
        allocator = sched.resolve_allocator(cluster)
        head_split = sched.split_for(head, cluster)
        head_dur = sched.est_duration(head, cluster, split=head_split)
        head_res = profile.sweep_cursor().earliest_start(
            head,
            head_dur,
            head_split.remote,
            sched.placement,
            allocator,
            memory_aware=self.memory_aware,
        )
        shadow: Optional[float] = None
        if head_res is not None:
            shadow = head_res.start
            ctx.record_promise(head.job_id, shadow)
        self.shadow_stats["recompute"] += 1
        self._shadow_cache = _ShadowPlan(
            profile, profile.mutation_count, head.job_id,
            head_split, head_dur, shadow, ctx.now,
        )
        return profile, head_split, head_dur, shadow


class _ReservationPlan:
    """The retained cross-pass reservation plan and its perturbation
    horizon.  One instance is rebuilt at every conservative pass
    teardown; ``on_release`` mutates it in place as completions fold.

    ``entries`` is the previous pass's processed window as
    ``(job, reservation | None, duration)`` tuples; the profile still
    physically holds their reservations (the persistent plan).
    ``horizon`` is the largest release time perturbed since the
    entries were derived (completion folds, superseded or planted
    reservations, pass-local starts): evaluation at breakpoints at or
    beyond it is untouched, so entries starting strictly after it
    replay behind a probe bounded at the horizon.
    """

    __slots__ = ("profile", "mutations", "horizon", "entries")

    def __init__(
        self,
        profile: AvailabilityProfile,
        mutations: int,
        horizon: float,
        entries: List[tuple],
    ) -> None:
        self.profile = profile
        self.mutations = mutations
        self.horizon = horizon
        self.entries = entries


class ConservativeBackfill(BackfillStrategy):
    """Reservation for everyone (up to ``depth``).

    The pass rebuilds the reservation schedule from scratch in queue
    order each cycle: every job gets the earliest start compatible
    with the reservations of all jobs ahead of it, and starts *now*
    exactly when that earliest start is the current instant.  Jobs
    started mid-pass are folded back in as reservations so later queue
    entries see them.  Conservative backfill is always memory-aware
    here; the memory-blind ablation is specific to EASY (T3).

    That is the *semantic* contract.  Operationally the pass runs
    against three persistent layers, each provably decision-invisible
    (the differential suites pin bit-identical schedules via the
    golden digests in ``tests/golden/``):

    **Layer 1 — the profile cache.**  The availability profile is not
    rebuilt per cycle: pass-local starts are folded in via
    ``apply_start`` (with realized dilations, exactly what a fresh
    build would see), completions via ``on_release`` →
    ``apply_release``, and the clock advances via ``rebase`` — so the
    next cycle reuses the profile object through the shared cache.

    **Layer 2 — the persistent reservation plan.**  Teardown does
    *not* clear the standing reservations: they survive into the next
    pass (and so does the shared
    :class:`~repro.sched.profile.SweepCursor`, unless a start or
    completion fold dropped it in between).  A pass that starts from a
    provably unchanged profile diffs the queue against the retained
    plan instead of re-deriving it:

    * while the prefix replays (same job, same duration, reservation
      start beyond the probe cap, anchor infeasible), the standing
      reservation is simply *validated in place* — no
      ``add_reservation`` index inserts, no cursor re-patching, no
      promise recomputation; the replayed majority of a
      submission-triggered cycle costs one O(1) anchor count compare
      per entry;
    * the first divergence (queue reorder, duration drift, a job that
      can now start, a blown probe) *spills* the not-yet-validated
      suffix (``truncate_reservations``) — a fresh scan for entry *p*
      must see exactly the reservations of entries ahead of it — and
      the plain scan-per-entry loop takes over from that position,
      re-adding as it goes;
    * the retained fast path is armed only when the plan is current
      and no retained reservation is due at or before *now*
      (otherwise reservations are cleared up front and the pass runs
      the plain loop — the pre-retention behavior); while the probe
      cap sits beyond *now*, the first replayed entry spills for its
      bounded probe.

    **Layer 3 — the replay door.**  With the plan retained, each
    entry still needs proof that no breakpoint below its cached start
    became feasible since its scan.  Breakpoints at or beyond the
    perturbation horizon were rejected by the deriving scan; the ones
    below it (plus the new *now*) are re-evaluated by a bounded
    ``earliest_start(..., not_after=cap)`` probe — exact by
    construction, it is the full scan truncated.  A probe capped at
    *now* has one candidate, the anchor, so an anchor free-node count
    below the job's demand decides it with one compare and no spill.
    An entry whose cached start does not lie beyond the cap takes a
    full scan.

    Every scan of the pass runs through the profile's shared
    :class:`~repro.sched.profile.SweepCursor`; across a fully-replayed
    pass that folds nothing, its materialized states are never rebuilt.
    """

    name = "conservative"

    def __init__(self, depth: int = 64) -> None:
        if depth < 1:
            raise ConfigurationError("reservation depth must be >= 1")
        self.depth = depth
        self._profile_cache = None
        #: The retained cross-pass plan (see :class:`_ReservationPlan`).
        self._plan: Optional[_ReservationPlan] = None
        #: Replay-path counters (exposed for tests and audits).
        #: ``probe`` counts replays validated by the anchor count or a
        #: real bounded probe; ``recompute`` counts full scans.
        #: ``retained`` additionally counts replays validated *in
        #: place* on the persistent plan (no ``add_reservation``) — it
        #: overlaps ``probe``.
        self.replay_stats = {"retained": 0, "probe": 0, "recompute": 0}

    def on_release(
        self,
        sched: Scheduler,
        cluster,
        job: Job,
        now: float,
        version_before: int,
        node_mask: int,
    ) -> Optional[float]:
        folded_end = super().on_release(
            sched, cluster, job, now, version_before, node_mask
        )
        plan = self._plan
        if folded_end is not None and plan is not None:
            profile = plan.profile
            # The plan stays coherent only if it was stamped against
            # the state just before this fold (the fold bumped the
            # mutation count by one); anything else is already stale
            # and will fail the replay check on its own.
            if (
                self._profile_cache is not None
                and self._profile_cache[2] is profile
                and plan.mutations == profile.mutation_count - 1
            ):
                plan.mutations = profile.mutation_count
                if folded_end > plan.horizon:
                    plan.horizon = folded_end
        return folded_end

    def run(self, ctx: SchedulerContext, sched: Scheduler) -> List[StartDecision]:
        """One conservative pass: diff the queue window against the
        retained plan, validate or re-derive each entry, start what
        can start now, and retain the resulting plan for the next
        pass.  Decision-identical to rebuilding the reservation
        schedule from scratch (the differential suites enforce it).
        """
        started: List[StartDecision] = []
        pending = ctx.pending()
        if not pending:
            return started
        now = ctx.now
        ordered = sched.queue_policy.order(pending, now)
        allocator = sched.resolve_allocator(ctx.cluster)
        profile = self._cycle_profile(ctx, sched)
        window = ordered[: self.depth]
        entries: List[tuple] = []
        # replay_stats increments (with ``retained`` below), added
        # once at teardown.
        n_probe = n_recompute = 0
        # Largest breakpoint this pass's own starts can perturb: a
        # start is claimed as a reservation ending at the *estimated*
        # end during the pass and folded as a release at the
        # *realized* end afterwards; beyond the later of the two, both
        # representations evaluate identically, so the plan survives
        # the pass behind that horizon.
        pass_horizon = float("-inf")

        plan = self._plan
        cached_entries: Optional[list] = None
        cap = now
        if (
            plan is not None
            and plan.profile is profile
            and plan.mutations == profile.mutation_count
        ):
            cached_entries = plan.entries
            if plan.horizon > cap:
                cap = plan.horizon
        tracking = cached_entries is not None

        # The retained fast path: the previous pass left its standing
        # reservations in the profile.  While the plan is provably
        # unchanged and no retained reservation is due at or before
        # *now*, the prefix walk below validates each standing
        # reservation in place instead of re-adding it: zero
        # reservation-index work for the replayed majority.
        # The cap may sit beyond *now* (completion folds re-stamp the
        # plan while raising the horizon): the anchor-count shortcut is
        # then unavailable (it is guarded by ``cap <= now``), so the
        # first entry that needs a real probe or scan spills.  A plan
        # that is stale or already due spills everything up front and
        # the pass runs the plain loop (the pre-retention behavior,
        # bit-identical).
        live = False
        if profile.reservation_count:
            first_due = profile.first_reservation_start()
            live = (
                tracking
                and first_due is not None
                and first_due > now + _EPS
            )
            if not live:
                profile.clear_reservations()
        retained = 0  # standing reservations validated so far (prefix)

        # A spill (``live = False`` and ``truncate_reservations(retained)``)
        # drops the not-yet-validated retained suffix.  A fresh scan or
        # probe for entry *i* must see exactly the reservations of
        # entries ahead of it — the retained claims of entries at or
        # after *i* would under-count availability.  The validated
        # prefix (insertion indices ``0..retained-1``) stands exactly
        # as the plain loop would have rebuilt it.
        #
        # Every scan below — replay probes and full scans alike — runs
        # through the profile's one merged availability sweep, fetched
        # at each use with ``profile.sweep_cursor()``: a pass that
        # spills at position 0 (which drops the cursor) or that needs
        # no scan builds none, and on the retained fast path the
        # materialized breakpoint states are shared across passes that
        # fold nothing in between.

        # Resume points: while the queue prefix and the profile are
        # provably unchanged, each cached reservation is exact iff a
        # fresh scan would reject every breakpoint before its start —
        # breakpoints at or beyond the fold horizon were rejected by
        # the pass that derived the entry, and the ones below it (plus
        # the new *now*) are re-evaluated by a bounded probe through
        # the very same scan code.  A recompute that reproduces the
        # cached entry exactly leaves the pass state where the cache
        # assumed it, so replay resumes behind it.
        claims: List[Reservation] = []  # in-pass claims, removed at teardown

        # On a pool-unmetered machine, pool pressure is identically
        # zero, so a job's duration estimate is a pure function of its
        # request shape: a cached entry's duration is byte-identical
        # to a fresh estimate by construction, and the revalidation
        # below can reuse it without recomputing.  The memory split is
        # then looked up only by an entry that probes or scans.
        cluster = ctx.cluster
        unmetered = not cluster.has_metered_pools

        for index, job in enumerate(window):
            split = None
            entry = None
            if tracking:
                if index < len(cached_entries):
                    entry = cached_entries[index]
                    if entry[0] is not job:
                        # Queue order diverged: positions no longer
                        # correspond, so the remaining cached claims
                        # cannot be bounded — stop consulting them.
                        tracking = False
                        entry = None
                else:
                    tracking = False
            if entry is not None and unmetered:
                dur = entry[2]
            else:
                split = sched.split_for(job, cluster)
                dur = sched.est_duration(job, cluster, split=split)
            # Durations are pressure-dependent on metered machines, so
            # a cached entry is only usable while the job's estimate
            # is byte-identical to a fresh one.
            if entry is not None and entry[2] == dur:
                cached_res = entry[1]
                if cached_res is None:
                    # Static verdict (cannot fit the machine at all);
                    # replaying it skips the scan the plain loop would
                    # burn re-deriving None.
                    entries.append(entry)
                    continue
                if cached_res.start > cap + _EPS:
                    if live and (
                        retained >= profile.reservation_count
                        or profile.reservation_at(retained) is not cached_res
                    ):  # pragma: no cover - defensive; invariant-kept
                        live = False
                        profile.truncate_reservations(retained)
                    # The probe's whole range [now, cap] lies strictly
                    # below the cached start.  A probe capped at *now*
                    # has one candidate — the anchor — so a free-node
                    # count below the demand decides it with one
                    # compare.  (On the retained fast path no
                    # reservation is active at the anchor, so that
                    # count is identical with or without the standing
                    # suffix.)  Otherwise the real bounded probe runs —
                    # against the validated prefix alone.
                    if (
                        cap <= now
                        and profile.sweep_cursor().count_at_anchor() < job.nodes
                    ):
                        probe = None
                    else:
                        if live:  # spill
                            live = False
                            profile.truncate_reservations(retained)
                        if split is None:
                            split = sched.split_for(job, cluster)
                        probe = profile.sweep_cursor().earliest_start(
                            job, dur, split.remote, sched.placement,
                            allocator, not_after=cap,
                        )
                    if probe is None:
                        if live:
                            # Already standing at exactly this
                            # insertion position: validate in place.
                            retained += 1
                        else:
                            profile.add_reservation(cached_res)
                        n_probe += 1
                        ctx.record_promise(job.job_id, cached_res.start)
                        entries.append(entry)
                        continue
                    # Startable at or before the cap: fall through to
                    # the fresh scan (which will find that start).
            n_recompute += 1
            if live:  # spill
                live = False
                profile.truncate_reservations(retained)
            if split is None:
                split = sched.split_for(job, cluster)
            res = profile.sweep_cursor().earliest_start(
                job, dur, split.remote, sched.placement, allocator,
            )
            if entry is None or entry[2] != dur or res != entry[1]:
                # This position diverged from the cached plan.  The
                # divergence perturbs evaluation only below the later
                # of the two reservations' ends, so later cached
                # entries stay usable behind an escalated probe cap.
                if entry is not None and entry[1] is not None:
                    if entry[1].end > cap:
                        cap = entry[1].end
                if res is not None and res.end > cap:
                    cap = res.end
            entries.append((job, res, dur))
            if res is None:
                continue  # cannot run even empty; engine rejects at submit
            if res.start <= now + _EPS:
                decision = StartDecision(
                    job=job,
                    node_mask=res.node_mask,
                    plan=res.plan,
                    split=split,
                )
                if sched.gate.permit(ctx, sched, decision):
                    ctx.start_job(decision)
                    started.append(decision)
                    entries.pop()  # started jobs leave the queue
                    if now + dur > pass_horizon:
                        pass_horizon = now + dur
                    if now + dur > cap:
                        cap = now + dur  # the claim below perturbs to here
                    claim = Reservation(
                        job.job_id,
                        now,
                        now + dur,
                        res.node_mask,
                        res.pool_grants,
                    )
                    claims.append(claim)
                    profile.add_reservation(claim)
                    continue
                # Gate said wait: fall through to reserving its slot so
                # lower-priority jobs cannot squat on it.
            profile.add_reservation(res)
            if res.start > now + _EPS:
                ctx.record_promise(job.job_id, res.start)

        if live and retained < profile.reservation_count:  # pragma: no cover
            # Defensive: the window ended with cached entries
            # unvisited (a pending set can only shrink through starts,
            # which spill first) — their claims were never validated.
            profile.truncate_reservations(retained)

        # Teardown: the release sweep underneath is durable, and so —
        # now — are the standing reservations: they are *retained* for
        # the next pass's fast path instead of cleared and re-derived.
        # Only the in-pass claims of started jobs leave, each replaced
        # by an ``apply_start`` fold at the realized dilation (exactly
        # what a fresh build would see), restoring the "fresh build at
        # current cluster state plus the standing plan" invariant the
        # caches rest on.  The folds run first: they touch only the
        # release timeline, and they drop the cursor, so the claim
        # removals after them patch no cursor that is about to go.
        for decision in started:
            job = decision.job
            est_end = job.start_time + sched.duration_of_running(job)
            profile.apply_start(decision.node_mask, decision.plan, est_end)
            if est_end > pass_horizon:
                pass_horizon = est_end
        for claim in claims:
            profile.remove_reservation(claim)
        replay_stats = self.replay_stats
        replay_stats["retained"] += retained
        replay_stats["probe"] += n_probe
        replay_stats["recompute"] += n_recompute
        self._profile_cache = (ctx.cluster, ctx.cluster.version, profile)
        self._plan = _ReservationPlan(
            profile, profile.mutation_count, pass_horizon, entries,
        )
        return started


def backfill_for(name: str, memory_aware: bool = True, depth: Optional[int] = None):
    """Strategy factory used by :func:`repro.sched.base.build_scheduler`."""
    name = name.lower()
    if name in ("none", "nobackfill", "fcfs"):
        return NoBackfill()
    if name == "easy":
        return EasyBackfill(depth=depth or 128, memory_aware=memory_aware)
    if name in ("conservative", "cons"):
        return ConservativeBackfill(depth=depth or 64)
    raise ConfigurationError(
        f"unknown backfill strategy {name!r}; choose none/easy/conservative"
    )
