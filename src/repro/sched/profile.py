"""Future resource availability: the reservation timeline.

Backfilling needs to answer: *when, at the earliest, can this job get
its nodes **and** its pool memory, and on which nodes?*  The
:class:`AvailabilityProfile` answers it by replaying the future as
currently known:

* each running job returns its nodes and pool grants at its estimated
  end (walltime-bound, dilation-adjusted by the caller);
* each **reservation** (a promised future start) removes resources
  over its ``[start, end)`` window.

The profile is exact at node granularity — reservations hold concrete
nodes, not just counts — because rack-local pools make placement
identity matter: 16 free nodes spread over 4 racks cannot use a single
rack's pool the way 16 nodes in one rack can.

Node sets are ``int`` bitmasks throughout (bit *i* = node *i*, see
:mod:`repro.cluster.masks`): the profile starts from the cluster's
``free_mask``, hands masks straight to the placement policy, and keeps
the mask placement returns as the reservation's node set.  No scan
decodes an id; ids are decoded when a job starts.

Implementation: a sorted release timeline with a cumulative sweep —
free-node masks, pool levels, and released-node counts per
breakpoint — materialized lazily as scans reach deeper into the future
and cached thereafter.  Incremental mutation never invalidates that
cache:

* :meth:`add_reservation` / :meth:`remove_reservation` locate by
  bisect (O(log n)) but insert into and delete from sorted Python
  lists, O(n) element moves each.  The release sweep is untouched
  because reservations are layered on top of it at scan time.
  Reservations live in an **interval index**: two sorted event
  timelines (one by start, one by end) that a scan locates its active
  and window-crossing reservations in by bisect.  The same two
  timelines are the reservation bounds of the breakpoint grid
  (:meth:`breakpoints`, :meth:`SweepCursor._is_breakpoint`); no other
  copy of the bounds is kept;
* :meth:`apply_start` folds a job started *mid-pass* into the profile
  by patching the affected prefix of the cached sweep in place —
  bit-for-bit equivalent to rebuilding from the post-start cluster;
* :meth:`apply_release` is the inverse fold for a job *completion*:
  the job's release entry leaves the timeline and its resources join
  the base availability, again patching only the affected sweep
  prefix, so a strategy can keep a cached profile valid across job
  completions.

The one availability scan is the **sweep cursor**
(:class:`SweepCursor`, via :meth:`AvailabilityProfile.sweep_cursor`).
One scheduling pass runs many ``earliest_start`` scans against the
same profile, all anchored at the same instant, so the cursor
materializes the per-breakpoint availability states **once** —
lazily, as deep as the deepest scan reaches, as free-node counts plus
``int`` node bitmasks wherever a reservation claim is active — and
keeps them exact across ``add_reservation`` by patching the affected
prefix in place: a pass walks the merged release/reservation
timeline once instead of once per queued job.  Since the reservation
layer became persistent (the conservative strategy retains its plan
across passes), the cursor's lifetime is no longer bounded by the pass
either:

* ``rebase`` re-anchors a live cursor in place
  (:meth:`SweepCursor._rebase`) — materialized states are pure
  functions of their instant, so advancing the clock only retires the
  grid prefix at or before the new anchor;
* ``remove_reservation`` and a reservation-dropping
  ``truncate_reservations`` recompute only the materialized states the
  dropped claims could touch (:meth:`SweepCursor._on_remove`) and
  retire grid times that stop being breakpoints;
* ``apply_start``, ``apply_release`` and ``clear_reservations`` drop
  the cursor; the next :meth:`AvailabilityProfile.sweep_cursor` call
  rebuilds it lazily.  Patching the materialized states through a
  release fold measured slower than this drop-and-rebuild, so a caller
  that holds a cursor across a fold must re-fetch it.  Callers fetch
  it where they scan, so a pass that drops the cursor before its first
  scan, or never scans, builds none; conservative teardown folds its
  starts before it removes their claims, so those removals find no
  cursor to patch.

Every scan result and every cursor state is bitwise identical to the
brute-force oracle (``tests/_oracles.py``); the equivalence suites
enforce this on randomized workloads, and end-to-end schedules are
pinned by the golden digests in ``tests/golden/``.

Overrun clamp: a running job whose estimate has already expired (only
possible under the ``none`` kill policy) is treated as ending shortly
after *now*; the classic "expected to end any moment" convention.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Tuple

from ..cluster.masks import ids_of, mask_of as _mask_of
from ..workload.job import Job

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.cluster import Cluster
    from ..memdis.allocator import PoolAllocator
    from .placement import PlacementPolicy

__all__ = [
    "Reservation", "AvailabilityProfile", "SweepCursor", "set_scan_observer",
]

_OVERRUN_GRACE = 1.0  # seconds: expected end for already-overrun jobs
_EPS = 1e-9

#: Optional per-scan observer (see :func:`set_scan_observer`).  ``None``
#: in normal operation — the cursor's hot path pays one identity check.
_SCAN_OBSERVER: Optional[Callable[[int], None]] = None


def set_scan_observer(
    observer: Optional[Callable[[int], None]],
) -> Optional[Callable[[int], None]]:
    """Install a callback receiving every cursor scan's grid size.

    perfbench's tracer (``perfbench/tracer.py``) uses this to report
    breakpoint-grid percentiles — how many candidate instants a scan
    may walk — without instrumenting the scheduler.  Pass ``None`` to
    uninstall; returns the previous observer so callers can restore
    it.  The observer must not mutate scheduler state.
    """
    global _SCAN_OBSERVER
    previous = _SCAN_OBSERVER
    _SCAN_OBSERVER = observer
    return previous


def _release_time(release: tuple) -> float:
    return release[0]


def _event_order(event: tuple) -> tuple:
    """Window-event sort key: time, then the reference tie order
    (reservation events in insertion order, start before end, then
    releases in timeline order).  The grants payload (index 4) never
    participates in comparisons."""
    return event[:4]


@dataclass(frozen=True, slots=True)
class Reservation:
    """A promised window of resources for one job."""

    job_id: int
    start: float
    end: float
    #: The nodes placement chose, as its mask (an
    #: :class:`~repro.cluster.masks.OrderedMask` where the policy's id
    #: order is not ascending).  Equality compares the mask only.
    node_mask: int
    pool_grants: Tuple[Tuple[str, int], ...]  # sorted (pool_id, MiB)

    @property
    def node_ids(self) -> Tuple[int, ...]:
        """The node ids in placement order, decoded on each call (for
        reports and tests; the scheduler itself never needs them)."""
        return tuple(ids_of(self.node_mask))

    @property
    def plan(self) -> Dict[str, int]:
        return dict(self.pool_grants)


class AvailabilityProfile:
    """Timeline of free nodes and free pool capacity.

    Built from a snapshot of the cluster plus the running set; callers
    then add (and remove) reservations.  All queries are pure — the
    profile never touches live cluster state.  Besides the reservation
    edits, three mutators keep a long-lived profile equivalent to a
    fresh build without rebuilding it: :meth:`apply_start` and
    :meth:`apply_release` fold a job start or completion into the
    release timeline, and :meth:`rebase` advances the clock.
    """

    def __init__(
        self,
        cluster: "Cluster",
        running: Iterable[Job],
        now: float,
        duration_of: Callable[[Job], float],
    ) -> None:
        """``duration_of(job)`` is the *total* estimated occupancy of a
        running job (e.g. its dilated walltime); the profile derives
        the remaining time from ``job.start_time``."""
        self._cluster = cluster
        self._now = now
        self._base_mask: int = cluster.free_mask
        self._base_count: int = cluster.free_node_count
        self._base_pool_free: Dict[str, int] = {
            pool.pool_id: pool.free for pool in cluster.all_pools()
        }
        # Node lists and grant dicts are referenced, not copied: both
        # are written once at job start and never mutated afterwards,
        # so sharing them stays safe however many passes a strategy
        # cache keeps this profile alive for.
        releases: List[Tuple[float, Iterable[int], Dict[str, int]]] = []
        #: Any release clamped by the overrun convention?  A clamped
        #: time is a function of *this* build's ``now``, so such a
        #: profile can never be rebased to a different instant (a
        #: fresh build there would clamp differently).
        self._has_clamped_release = False
        for job in running:
            if job.start_time is None:
                continue
            est_end = job.start_time + duration_of(job)
            if est_end <= now:
                est_end = now + _OVERRUN_GRACE
                self._has_clamped_release = True
            releases.append((est_end, job.assigned_nodes, job.pool_grants))
        releases.sort(key=_release_time)  # stable: running order ties

        # The raw timeline plus a *lazily* materialized cumulative
        # sweep — free-node masks (bit i = node i) and pool levels:
        # most cycles only probe the first few breakpoints, so
        # cumulative states are built on demand, cached, and patched
        # by the folds (see _release_mask / _release_pool).  Each
        # release's own mask is kept once computed, aligned with the
        # timeline: a built entry encodes its running job's ids on
        # first use (the only ids the profile encodes), a folded start
        # arrives with its mask and keeps no ids (``None``).
        self._releases = releases  # sorted (time, node_ids | None, grants)
        self._rel_times: List[float] = [item[0] for item in releases]
        self._rel_cum_count: List[int] = list(
            accumulate(len(item[1]) for item in releases)
        )
        self._rel_cum_pool: List[Dict[str, int]] = []  # lazy prefix
        self._rel_cum_mask: List[int] = []  # lazy prefix
        self._rel_masks: List[Optional[int]] = [None] * len(releases)
        # Subsequence of releases that return pool memory (window scans).
        self._grant_times: List[float] = [
            item[0] for item in releases if item[2]
        ]
        self._grant_maps: List[Dict[str, int]] = [
            item[2] for item in releases if item[2]
        ]

        self._reservations: List[Reservation] = []
        # Interval index: the same reservations in two sorted event
        # timelines (together they are the reservation bounds of the
        # breakpoint grid), plus each reservation's registration number
        # — increasing in insertion order, so it is the tie-order key
        # the pool sweep uses, and a removal renumbers nothing.
        self._res_start_times: List[float] = []
        self._res_start_refs: List[Reservation] = []
        self._res_end_times: List[float] = []
        self._res_end_refs: List[Reservation] = []
        self._res_seq: Dict[int, int] = {}  # id(res) -> registration number
        self._next_seq = 0
        #: Bumped by :meth:`apply_start` / :meth:`apply_release`;
        #: external caches key derived results (e.g. a head shadow)
        #: on it.
        self.mutation_count = 0
        #: Pass-shared sweep cursor (see :class:`SweepCursor`); built
        #: lazily, dropped by any mutation it cannot track in place.
        self._cursor: Optional["SweepCursor"] = None

    def _release_pool(self, k: int) -> Dict[str, int]:
        """Pool levels after the first ``k`` releases (before any
        reservation claim); do not mutate."""
        if not k:
            return self._base_pool_free
        cum = self._rel_cum_pool
        i = len(cum)
        if i < k:
            releases = self._releases
            cur = cum[i - 1] if i else self._base_pool_free
            while i < k:
                cur = dict(cur)
                for pool_id, amount in releases[i][2].items():
                    cur[pool_id] = cur.get(pool_id, 0) + amount
                cum.append(cur)
                i += 1
        return cum[k - 1]

    def _release_mask(self, k: int) -> int:
        """Free-node bitmask after the first ``k`` releases (before any
        reservation claim).  With ``k == 0`` it is the base mask — the
        cluster's own ``free_mask`` object until a fold replaces it."""
        base = self._base_mask
        if not k:
            return base
        cum = self._rel_cum_mask
        i = len(cum)
        if i < k:
            releases = self._releases
            rel_masks = self._rel_masks
            cur = cum[i - 1] if i else base
            while i < k:
                mask = rel_masks[i]
                if mask is None:
                    mask = rel_masks[i] = _mask_of(releases[i][1])
                cur |= mask
                cum.append(cur)
                i += 1
        return cum[k - 1]

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self._now

    @property
    def reservations(self) -> List[Reservation]:
        """A copy of the standing reservations in insertion order."""
        return list(self._reservations)

    @property
    def reservation_count(self) -> int:
        """Number of standing reservations (O(1))."""
        return len(self._reservations)

    def reservation_at(self, index: int) -> Reservation:
        """The standing reservation with insertion index ``index``.

        Insertion indices are dense and stable under removal (later
        reservations shift down) — the retained-plan walk uses this to
        identity-check each validated position.
        """
        return self._reservations[index]

    def first_reservation_start(self) -> Optional[float]:
        """Earliest standing reservation start, or None (O(1)).

        The retained-plan "nothing due yet" precondition: while every
        standing reservation starts strictly after the pass instant,
        none claims nodes at the anchor, so anchor-count probes are
        identical with or without the standing suffix.
        """
        starts = self._res_start_times
        return starts[0] if starts else None

    def sweep_cursor(self) -> "SweepCursor":
        """The shared resumable sweep over this profile.

        Created on first use and kept exact across the reservation
        edits: ``add_reservation`` patches claims in,
        ``remove_reservation`` and a reservation-dropping
        ``truncate_reservations`` recompute only the touched window,
        and ``rebase`` re-anchors the grid — so one cursor can span
        many passes of a retained reservation plan.  The release folds
        (``apply_start`` / ``apply_release``) and
        ``clear_reservations`` drop it: a cursor fetched before a fold
        is stale afterwards, and callers re-fetch it here.
        """
        cursor = self._cursor
        if cursor is None:
            cursor = self._cursor = SweepCursor(self)
        return cursor

    def rebase(self, now: float) -> bool:
        """Advance the profile clock to a later instant, in place.

        Valid — i.e., afterwards the profile is bit-identical to a
        fresh build at ``now`` **plus the same reservations re-added in
        the same insertion order** — only when nothing happened in
        between: no cluster mutation, no release at or before the new
        instant (a fresh build would clamp an overrun), and no release
        already clamped at build time (a clamped time embeds the old
        ``now``; a fresh build at the new instant would clamp to a
        different time).  The profile checks the conditions it can see
        and returns False (leaving itself untouched) when they fail;
        the *cluster unchanged* part is the caller's contract (version
        counters).

        Standing reservations survive the rebase untouched — this is
        what lets conservative backfill keep its reservation plan (and
        the cursor's materialized states) alive across passes.  A
        reservation whose window has partly or wholly expired stays
        inert through the activity tests; whether a retained plan is
        still *usable* at the new instant (no reservation due at or
        before it) is the retaining strategy's decision, not the
        profile's.  A live sweep cursor is re-anchored in place
        (:meth:`SweepCursor._rebase`) instead of dropped: the per-
        breakpoint states are pure functions of their instant, so only
        grid times at or before the new anchor leave.
        """
        if now < self._now:
            return False
        if self._has_clamped_release:
            return False
        if self._rel_times and self._rel_times[0] <= now:
            return False
        if now != self._now:
            self._now = now
            if self._cursor is not None:
                self._cursor._rebase(now)
        return True

    def add_reservation(self, reservation: Reservation) -> Reservation:
        """Register a promised window.

        Each timeline insert is located by bisect but is an O(n) list
        insert.  The reservation carries its node mask from placement,
        so registering it encodes nothing.

        Insertion order is semantic: the pool sweep's tie order at
        equal instants follows it, so two profiles holding equal
        reservations in different orders can answer window queries
        differently.  The replay machinery therefore always rebuilds
        or retains reservations in queue-walk order.  A live sweep
        cursor is patched in place, never dropped.
        """
        self._res_seq[id(reservation)] = self._next_seq
        self._next_seq += 1
        self._reservations.append(reservation)
        pos = bisect_right(self._res_start_times, reservation.start)
        self._res_start_times.insert(pos, reservation.start)
        self._res_start_refs.insert(pos, reservation)
        pos = bisect_right(self._res_end_times, reservation.end)
        self._res_end_times.insert(pos, reservation.end)
        self._res_end_refs.insert(pos, reservation)
        if self._cursor is not None:
            self._cursor._on_add(reservation)
        return reservation

    def _unindex(self, res: Reservation) -> None:
        """Take ``res`` (already out of ``_reservations``) off the
        interval index."""
        del self._res_seq[id(res)]
        pos = bisect_left(self._res_start_times, res.start)
        while self._res_start_refs[pos] is not res:
            pos += 1
        del self._res_start_times[pos]
        del self._res_start_refs[pos]
        pos = bisect_left(self._res_end_times, res.end)
        while self._res_end_refs[pos] is not res:
            pos += 1
        del self._res_end_times[pos]
        del self._res_end_refs[pos]

    def remove_reservation(self, reservation: Reservation) -> None:
        """Withdraw one reservation; later insertion indices shift
        down.  Raises ``ValueError`` when it is not registered.  A
        live sweep cursor is patched in place: the claims folded into
        its materialized states are recomputed over the withdrawn
        window only."""
        # Identity-first: the common case removes the exact object just
        # added (a pass's own claim), skipping field-wise dataclass
        # equality.  Equal reservations are interchangeable for every
        # query, so falling back to equality preserves the original
        # semantics.
        reservations = self._reservations
        for index, existing in enumerate(reservations):
            if existing is reservation:
                break
        else:
            index = reservations.index(reservation)  # ValueError as before
        actual = reservations.pop(index)
        self._unindex(actual)
        if self._cursor is not None:
            self._cursor._on_remove((actual,))

    def clear_reservations(self) -> None:
        """Drop every reservation at once (pass teardown).

        Equivalent to ``remove_reservation`` over the whole list but
        O(count); a stale or already-due retained plan leaves this way.
        """
        if not self._reservations:
            return
        self._reservations.clear()
        self._res_seq.clear()
        self._res_start_times.clear()
        self._res_start_refs.clear()
        self._res_end_times.clear()
        self._res_end_refs.clear()
        self._cursor = None

    def truncate_reservations(self, keep: int) -> None:
        """Drop every reservation with insertion index >= ``keep``.

        The spill primitive of the retained reservation plan: when a
        pass diverges from the plan at queue position *p*, the
        validated prefix (reservations ``0..keep-1``) stands exactly as
        the pass would have rebuilt it, while the not-yet-validated
        suffix must leave before any fresh scan runs (a scan for entry
        *p* must see only the reservations of entries ahead of it).
        ``_reservations`` is maintained in insertion-index order, so
        the suffix is precisely the tail of the list.

        A no-op when nothing needs dropping (the common "every entry
        replayed" pass).  Otherwise a live cursor is patched in place:
        the materialized states inside the dropped claims' windows are
        recomputed and grid times that stop being breakpoints leave.
        """
        reservations = self._reservations
        if keep >= len(reservations):
            return
        if keep <= 0:
            self.clear_reservations()
            return
        dropped = reservations[keep:]
        del reservations[keep:]
        for res in dropped:
            self._unindex(res)
        if self._cursor is not None:
            self._cursor._on_remove(dropped)

    # ------------------------------------------------------------------
    def apply_start(
        self,
        node_mask: int,
        pool_grants: Dict[str, int],
        est_end: float,
    ) -> None:
        """Fold a job started at *now* into the profile, in place.

        Equivalent to rebuilding the profile from the post-start
        cluster state: the nodes of ``node_mask`` (the start decision's
        mask) and the grants leave the base availability and come back
        as a release at ``est_end``.  The cached sweep is patched, not
        rebuilt — entries strictly after the insertion point are
        unchanged (the subtraction and the new release cancel exactly),
        so only the prefix is rewritten.
        """
        if est_end <= self._now:
            est_end = self._now + _OVERRUN_GRACE
            self._has_clamped_release = True
        count = node_mask.bit_count()
        grants = dict(pool_grants)
        pos = bisect_right(self._rel_times, est_end)
        # Patch the materialized prefix: the state *at* the new release
        # equals the pre-patch state after the releases preceding it
        # (the resources were free), and the states before it lose the
        # nodes and grants (the job holds them until est_end).  Entries
        # after the insertion point are untouched — the subtraction and
        # the new release cancel exactly — and unmaterialized entries
        # need nothing: the lazy sweep will see the updated raw arrays.
        cum_mask = self._rel_cum_mask
        if pos <= len(cum_mask):
            cum_mask.insert(pos, cum_mask[pos - 1] if pos else self._base_mask)
        keep = ~node_mask
        for i in range(min(pos, len(cum_mask))):
            cum_mask[i] &= keep
        self._base_mask &= keep
        self._base_count -= count
        cum_pool = self._rel_cum_pool
        if pos <= len(cum_pool):
            cum_pool.insert(pos, dict(cum_pool[pos - 1] if pos else self._base_pool_free))
        if grants:
            for pool_entry in (*cum_pool[:pos], self._base_pool_free):
                for pool_id, amount in grants.items():
                    pool_entry[pool_id] = pool_entry.get(pool_id, 0) - amount
        self._rel_times.insert(pos, est_end)
        # The mask is known, so the entry needs no ids (see _release_mask).
        self._releases.insert(pos, (est_end, None, grants))
        self._rel_masks.insert(pos, node_mask)
        released = self._rel_cum_count[pos - 1] if pos else 0
        self._rel_cum_count.insert(pos, released + count)
        for i in range(pos + 1, len(self._rel_cum_count)):
            self._rel_cum_count[i] += count
        if grants:
            gpos = bisect_right(self._grant_times, est_end)
            self._grant_times.insert(gpos, est_end)
            self._grant_maps.insert(gpos, grants)
        self.mutation_count += 1
        self._cursor = None

    def apply_release(
        self,
        node_mask: int,
        pool_grants: Dict[str, int],
        est_end: float,
    ) -> bool:
        """Fold a job *completion* into the profile, in place.

        The exact inverse of :meth:`apply_start`: the job's release
        entry (located by its estimated end plus node mask — the mask
        the cluster freed) leaves the timeline, and its nodes and
        grants join the base availability.  Materialized sweep entries
        strictly before the removed entry gain the resources; entries
        after it are untouched (they already included the release).
        Equivalent to rebuilding the profile from the post-completion
        cluster state.

        Returns False — leaving the profile untouched — when the fold
        cannot be represented: a clamped (overrun) release embeds the
        build instant, and a missing entry means the caller's view of
        the running set has diverged from the profile's.
        """
        if self._has_clamped_release:
            return False
        grants = dict(pool_grants)
        rel_times = self._rel_times
        rel_masks = self._rel_masks
        pos = bisect_left(rel_times, est_end)
        total = len(rel_times)
        while pos < total and rel_times[pos] == est_end:
            _, entry_nodes, entry_grants = self._releases[pos]
            mask = rel_masks[pos]
            if mask is None:
                mask = rel_masks[pos] = _mask_of(entry_nodes)
            if mask == node_mask and entry_grants == grants:
                break
            pos += 1
        else:
            return False
        count = mask.bit_count()
        # Entries before the removed one gain the resources; later ones
        # already held them.
        cum_mask = self._rel_cum_mask
        if pos < len(cum_mask):
            del cum_mask[pos]
        for i in range(min(pos, len(cum_mask))):
            cum_mask[i] |= mask
        self._base_mask |= mask
        self._base_count += count
        cum_pool = self._rel_cum_pool
        if pos < len(cum_pool):
            del cum_pool[pos]
        if grants:
            for pool_entry in (*cum_pool[:pos], self._base_pool_free):
                for pool_id, amount in grants.items():
                    pool_entry[pool_id] = pool_entry.get(pool_id, 0) + amount
        del rel_times[pos]
        del self._releases[pos]
        del self._rel_masks[pos]
        cum = self._rel_cum_count
        del cum[pos]
        for i in range(pos, len(cum)):
            cum[i] -= count
        if entry_grants:
            gpos = bisect_left(self._grant_times, est_end)
            while self._grant_maps[gpos] is not entry_grants:
                gpos += 1
            del self._grant_times[gpos]
            del self._grant_maps[gpos]
        self.mutation_count += 1
        self._cursor = None
        return True

    # ------------------------------------------------------------------
    def breakpoints(self) -> List[float]:
        """Times at which availability can change, ascending: *now*
        plus every future release/reservation boundary — the sweep
        cursor's candidate grid.  The reservation bounds are read off
        the interval index's two event timelines."""
        now = self._now
        rel = self._rel_times
        tail = rel[bisect_right(rel, now):]
        if self._reservations:
            starts = self._res_start_times
            ends = self._res_end_times
            tail += starts[bisect_right(starts, now):]
            tail += ends[bisect_right(ends, now):]
            tail.sort()  # a merge of three sorted runs
        # Dedup in order: what sorted(set(...)) would produce, without
        # hashing every float.
        out = [now]
        last = now
        for t in tail:
            if t != last:
                out.append(t)
                last = t
        return out

    @staticmethod
    def _apply_pool_events(
        pool: Dict[str, int], pool_min: Dict[str, int], events: List[tuple]
    ) -> None:
        """Sweep window events over the level series starting at
        ``pool``, folding the running per-pool minimum into
        ``pool_min`` in place.

        Event order at equal times is the reference order (reservation
        events in insertion order, start before end, then releases in
        timeline order) — the running minimum is order-sensitive
        within an instant.  This is the single home of that tie-order
        contract.
        """
        events.sort(key=_event_order)
        level = dict(pool)
        for _, _, _, _, grants, sign in events:
            pairs = (
                grants.items() if isinstance(grants, dict) else dict(grants).items()
            )
            for pool_id, amount in pairs:
                level[pool_id] = level.get(pool_id, 0) + sign * amount
                if level[pool_id] < pool_min.get(pool_id, 0):
                    pool_min[pool_id] = level[pool_id]

    def earliest_start(
        self,
        job: Job,
        duration: float,
        remote_per_node: int,
        placement: "PlacementPolicy",
        allocator: "PoolAllocator",
        after: Optional[float] = None,
        memory_aware: bool = True,
        not_after: Optional[float] = None,
    ) -> Optional[Reservation]:
        """A scan of the shared cursor: :meth:`SweepCursor.earliest_start`."""
        return self.sweep_cursor().earliest_start(
            job, duration, remote_per_node, placement, allocator,
            after=after, memory_aware=memory_aware, not_after=not_after,
        )


class SweepCursor:
    """Pass-shared resumable sweep over one profile's merged timeline.

    One scheduling pass runs many ``earliest_start`` scans against the
    same profile — EASY's shadow plus one hypothesis trial per
    candidate, conservative backfill's one scan (or replay probe) per
    queued job — and every scan is anchored at the profile instant.
    The cursor hoists the *point-in-time* half of a scan's state out
    of the scan: for each breakpoint of the merged grid it
    materializes (lazily, in grid order, only as deep as scans
    actually reach) the exact free-node state — releases folded in,
    active reservation claims folded out — as the release-timeline
    position, the free count, and (where a claim is active) the
    free-node mask.  Scans then reject a breakpoint with one integer
    compare, and only the *window* half (reservations whose start
    falls inside the candidate window, which depends on the queried
    duration) is computed per scan, by bisect.

    Node sets inside the cursor are ``int`` bitmasks (bit *i* = node
    *i*).  Where a claim is active, a state stores its free-node mask:
    the profile's release mask
    (:meth:`AvailabilityProfile._release_mask`) with the claims'
    masks cleared, counted with ``int.bit_count``.  Where none is
    active the state stores ``None``: its nodes are the release state
    itself and its count is the release count, plain integer
    arithmetic.  The window claims are the OR of the in-window
    reservations' masks.  Only a candidate whose counts pass looks up
    its mask — the state's own, else the release mask, minus the
    window claims and an EASY trial — and hands it to placement as
    is.

    Exactness:

    * materialized states are computed with the reference activity
      tests (``start <= t + eps and t < end - eps``) against the
      profile's release sweep, so a grid state's free nodes are
      exactly the oracle's free set at that breakpoint;
    * :meth:`AvailabilityProfile.add_reservation` keeps the cursor
      live by inserting the new bounds into the grid (fresh states,
      computed directly) and clearing the new claim's bits from the
      materialized points inside its window — clearing a bit twice
      changes nothing, so the patch is exact without claim counts;
      withdrawals (:meth:`_on_remove`) recompute the affected window
      instead, since claim folding is not invertible from the states
      alone;
    * the release folds (:meth:`AvailabilityProfile.apply_start` /
      :meth:`AvailabilityProfile.apply_release`) drop the cursor, so
      the next :meth:`AvailabilityProfile.sweep_cursor` call builds a
      fresh one over the folded timeline — a caller holding a cursor
      across a fold must re-fetch it;
    * availability between adjacent grid times is constant (every
      release time and reservation bound ≥ *now* is a grid time), so
      evaluating a non-grid instant against the directly computed
      state is exact as well (used by ``after=`` scans).
    """

    __slots__ = ("_p", "_times", "_free", "_counts", "_k")

    def __init__(self, profile: AvailabilityProfile) -> None:
        self._p = profile
        #: Merged breakpoint grid (deduplicated, ascending, anchored
        #: at the profile instant) — exactly ``profile.breakpoints()``.
        self._times: List[float] = profile.breakpoints()
        # Materialized prefix, aligned with _times: the exact free-node
        # mask (None where no claim is active: the release state), the
        # free-node count, and bisect_right(rel_times, t + eps).
        self._free: List[Optional[int]] = []
        self._counts: List[int] = []
        self._k: List[int] = []

    # ------------------------------------------------------------------
    def _state_at(self, t: float) -> Tuple[Optional[int], int, int]:
        """Exact (free-node mask, free count, release index) at instant
        ``t``; the mask is None when no claim is active at ``t``."""
        p = self._p
        t_eps = t + _EPS
        k = bisect_right(p._rel_times, t_eps)
        if p._reservations:
            # Only reservations that have *started* by t can be active;
            # the start-sorted timeline bounds the walk (membership of
            # the active set is unchanged, so the state is identical).
            hi = bisect_right(p._res_start_times, t_eps)
            refs = p._res_start_refs
            claimed = 0
            for i in range(hi):
                if t < refs[i].end - _EPS:
                    claimed |= refs[i].node_mask
            if claimed:
                state = p._release_mask(k) & ~claimed
                return state, state.bit_count(), k
        return None, p._base_count + (p._rel_cum_count[k - 1] if k else 0), k

    def _materialize_to(self, j: int) -> None:
        """Extend the materialized prefix through grid index ``j``."""
        free = self._free
        i = len(free)
        if i > j:
            return
        times = self._times
        counts = self._counts
        ks = self._k
        while i <= j:
            state, count, k = self._state_at(times[i])
            free.append(state)
            counts.append(count)
            ks.append(k)
            i += 1

    def _insert_point(self, pos: int) -> None:
        """Materialize a freshly inserted grid time at ``pos``."""
        state, count, k = self._state_at(self._times[pos])
        self._free.insert(pos, state)
        self._counts.insert(pos, count)
        self._k.insert(pos, k)

    def _rebase(self, now: float) -> None:
        """Re-anchor the grid at a later instant (profile rebase).

        Grid times at or before ``now`` leave — their availability
        intervals are in the past, and ``breakpoints()`` at the new
        instant excludes them — and ``now`` becomes the new anchor.
        Every retained materialized state stays exact: states are pure
        functions of their instant (the activity tests never consult
        the profile clock), so only the anchor state is new.  When the
        old grid already carried ``now`` as a breakpoint its state is
        reused verbatim; otherwise the anchor is computed directly
        against the same release sweep and reservation set.
        """
        times = self._times
        drop = bisect_right(times, now)
        materialized = len(self._free)
        reuse = bool(drop) and times[drop - 1] == now
        cut = drop - 1 if reuse else drop
        if cut:
            del times[:cut]
            if materialized > cut:
                del self._free[:cut]
                del self._counts[:cut]
                del self._k[:cut]
            elif materialized:
                self._free.clear()
                self._counts.clear()
                self._k.clear()
        if not reuse:
            times.insert(0, now)
            if self._free:
                self._insert_point(0)

    def _on_add(self, res: Reservation) -> None:
        """Track a reservation added to the live profile.

        Called by ``add_reservation`` after the reservation is fully
        registered, so direct state computation for new grid points
        already sees it; clearing its bits again there is a no-op.
        """
        times = self._times
        free = self._free
        anchor = times[0]
        for bound in (res.start, res.end):
            if bound > anchor:
                pos = bisect_left(times, bound)
                if pos == len(times) or times[pos] != bound:
                    times.insert(pos, bound)
                    if pos < len(free):
                        self._insert_point(pos)
        mask = res.node_mask
        if not free or not mask:
            return
        p = self._p
        keep = ~mask
        counts = self._counts
        ks = self._k
        start, end = res.start, res.end
        lo = bisect_left(times, start - _EPS)
        hi = min(len(free), bisect_left(times, end))
        for j in range(lo, hi):
            t = times[j]
            if start <= t + _EPS and t < end - _EPS:
                state = free[j]
                if state is None:  # first claim here: leave the release state
                    state = p._release_mask(ks[j]) & keep
                elif state & mask:
                    state &= keep
                else:
                    continue
                free[j] = state
                counts[j] = state.bit_count()

    def _on_remove(self, dropped: Iterable[Reservation]) -> None:
        """Track withdrawn reservations on the live profile, in place.

        Claim folding is not invertible from the states alone (two
        claims may cover the same node), so every materialized state
        inside a dropped claim's activity window is recomputed against
        the post-removal profile — only those instants can differ.
        Dropped bounds leave the grid when nothing else lands there.
        """
        times = self._times
        free = self._free
        counts = self._counts
        ks = self._k
        for j in range(len(free)):
            t = times[j]
            for res in dropped:
                if res.start <= t + _EPS and t < res.end - _EPS:
                    free[j], counts[j], ks[j] = self._state_at(t)
                    break
        anchor = times[0]
        for res in dropped:
            for bound in (res.start, res.end):
                if bound <= anchor:
                    continue
                pos = bisect_left(times, bound)
                if pos < len(times) and times[pos] == bound:
                    if not self._is_breakpoint(bound):
                        del times[pos]
                        if pos < len(free):
                            del free[pos]
                            del counts[pos]
                            del ks[pos]

    def _is_breakpoint(self, t: float) -> bool:
        """Whether ``t`` is still a merged-timeline breakpoint of the
        current profile (some release time or reservation bound)."""
        p = self._p
        for timeline in (p._rel_times, p._res_start_times, p._res_end_times):
            i = bisect_left(timeline, t)
            if i < len(timeline) and timeline[i] == t:
                return True
        return False

    # ------------------------------------------------------------------
    def count_at_anchor(self) -> int:
        """Exact free-node count at the profile instant (grid anchor).

        The O(1) short-circuit for replay probes capped at *now*: the
        anchor is such a probe's only candidate, so a count below the
        job's demand decides the whole scan without paying the scan's
        setup.
        """
        if not self._free:
            self._materialize_to(0)
        return self._counts[0]

    def earliest_start(
        self,
        job: Job,
        duration: float,
        remote_per_node: int,
        placement: "PlacementPolicy",
        allocator: "PoolAllocator",
        after: Optional[float] = None,
        memory_aware: bool = True,
        not_after: Optional[float] = None,
        trial: Optional[Reservation] = None,
    ) -> Optional[Reservation]:
        """Earliest reservation satisfying nodes (and, when
        ``memory_aware``, pool memory) for the job's whole window,
        starting no earlier than ``after`` (default: the profile
        instant).

        Without ``not_after``, returns ``None`` only when the job
        cannot run even on an empty machine (too many nodes, or remote
        demand exceeding total pool reach) — callers treat that as
        "reject".  With ``not_after``, the scan stops once candidates
        exceed that bound and returns ``None`` — for callers that only
        need "can it start by T?" (EASY's no-delay check, the plan
        replay probes).

        Candidate instants — the scan anchor, the grid times after it,
        and (under a trial) the trial's end — are consumed in strictly
        increasing time order: the window-claim state (reservations
        starting inside the candidate window) slides right behind two
        monotone pointers, while the point-in-time state comes from the
        shared materialized grid.

        ``trial`` overlays one extra reservation *without* mutating
        the profile — EASY's hypothesis test, which previously paid an
        add/query/remove round-trip per candidate.  The overlay is
        exact for trials anchored at the profile instant (EASY's
        always are): such a trial can never be a window-crossing
        reservation of any scanned breakpoint, so it contributes only
        active claims and active grants plus its end event.
        """
        p = self._p
        if trial is not None and trial.start > p._now + _EPS:
            raise ValueError("trial overlay must start at the profile instant")
        nodes_needed = job.nodes
        times = self._times
        if _SCAN_OBSERVER is not None:
            _SCAN_OBSERVER(len(times))
        now = p._now
        start = now if after is None else (after if after > now else now)
        trial_mask = 0
        trial_end_eps = 0.0
        trial_const: Optional[int] = None
        extra: Optional[float] = None
        if trial is not None:
            trial_mask = trial.node_mask
            trial_end_eps = trial.end - _EPS
            # The trial's end is a breakpoint add_reservation would
            # have put on the grid; interleave it without touching the
            # shared grid.
            if trial.end > start:
                extra = trial.end
            # EASY's trial shape: no standing reservations and trial
            # nodes drawn from the base free set.  Every materialized
            # state is then a superset of the base (releases only
            # add), so the trial's overlap with any breakpoint state
            # is its full node count — an O(1) per-candidate prune,
            # and the mask is cleared only from a candidate that
            # reaches placement.
            if not p._reservations and not trial_mask & ~p._base_mask:
                trial_const = trial_mask.bit_count()

        counts = self._counts
        free_states = self._free
        ks = self._k
        num_res = len(p._reservations)
        start_times = p._res_start_times
        start_refs = p._res_start_refs
        # Sliding window-claim mask: the OR of the node masks of the
        # reservations whose start falls strictly inside the current
        # candidate window ``(t, t + duration)``.  Both edges move
        # right as the scan advances, following two monotone
        # pointers; entering reservations OR in, and a left-edge exit
        # re-ORs the remaining window — O(window) big-int ORs per
        # exit, since a bit may be claimed by more than one
        # reservation.  (wmix-conservative at seed 42: 61,247 exits
        # re-OR 3.6 masks on average, 19 at p99, 36 at most.)
        wi_lo = wi_hi = 0
        ws_claim = 0

        pending_direct: Optional[float] = None
        if start == times[0]:
            j = 0
        else:
            # Arbitrary resume anchor (``after=``): evaluate it
            # directly, then continue on the grid strictly after it.
            pending_direct = start
            j = bisect_right(times, start)
        total = len(times)

        while True:
            # Next candidate in time order, consumed at selection.
            if pending_direct is not None:
                t = pending_direct
                pending_direct = None
                grid_j: Optional[int] = None
            elif extra is not None and (j >= total or extra <= times[j]):
                if j < total and extra == times[j]:
                    extra = None  # grid already carries this instant
                    continue
                t = extra
                extra = None
                grid_j = None
            elif j < total:
                t = times[j]
                grid_j = j
                j += 1
            else:
                break
            if not_after is not None and t > not_after:
                break
            # Point-in-time state.
            if grid_j is not None:
                if grid_j >= len(free_states):
                    self._materialize_to(grid_j)
                free = free_states[grid_j]
                cnt = counts[grid_j]
                k = ks[grid_j]
            else:
                free, cnt, k = self._state_at(t)
            # Trial overlay and the O(1) count prune — the
            # overwhelmingly common rejection costs two compares.
            trial_active = trial is not None and t < trial_end_eps
            if trial_active:
                if trial_const is not None:
                    cnt -= trial_const
                else:
                    if free is None:
                        free = p._release_mask(k)
                    if free & trial_mask:
                        free &= ~trial_mask
                        cnt = free.bit_count()
            if cnt < nodes_needed:
                continue
            t_eps = t + _EPS
            end = t + duration
            end_eps = end - _EPS
            if num_res:
                # Slide the window edges to ``(t, t + duration)``; a
                # window shorter than the epsilon band snaps empty.
                left = False
                while wi_lo < num_res and start_times[wi_lo] <= t_eps:
                    if wi_lo < wi_hi:
                        left = True
                    wi_lo += 1
                if wi_hi < wi_lo:
                    wi_hi = wi_lo
                if left:
                    ws_claim = 0
                    for w in range(wi_lo, wi_hi):
                        ws_claim |= start_refs[w].node_mask
                while wi_hi < num_res and start_times[wi_hi] < end_eps:
                    ws_claim |= start_refs[wi_hi].node_mask
                    wi_hi += 1
                if ws_claim:
                    if free is None:
                        free = p._release_mask(k)
                    if free & ws_claim:
                        free &= ~ws_claim
                        if free.bit_count() < nodes_needed:
                            continue
            if free is None:
                free = p._release_mask(k)
            if trial_const and trial_active:
                free &= ~trial_mask
            result = self._window_accept(
                t, t_eps, end, end_eps, k, free, job, remote_per_node,
                placement, allocator, memory_aware, trial, trial_active,
                wi_lo, wi_hi,
            )
            if result is not None:
                return result
        return None

    def _window_accept(
        self,
        t: float,
        t_eps: float,
        end: float,
        end_eps: float,
        k: int,
        free: int,
        job: Job,
        remote_per_node: int,
        placement: "PlacementPolicy",
        allocator: "PoolAllocator",
        memory_aware: bool,
        trial: Optional[Reservation],
        trial_active: bool,
        wi_lo: int,
        wi_hi: int,
    ) -> Optional[Reservation]:
        """Pool view, placement, and allocation for one candidate whose
        node count already passed.  Pool events go through
        :meth:`AvailabilityProfile._apply_pool_events`, which owns the
        reference tie order."""
        p = self._p
        if (
            (remote_per_node == 0 or not memory_aware)
            and not placement.uses_pool_hint
        ):
            # The job draws no pool memory (its plan is {} either way)
            # and the placement cannot observe the pool hint: the
            # windowed pool view below is unconsumed, so skip building
            # it.  Decision-invisible — ``select`` with ``None`` is
            # defined identical to ``select`` with an unread hint.
            node_mask = placement.select(
                p._cluster, free, job.nodes, remote_per_node, None
            )
            if node_mask is None:
                return None
            return Reservation(
                job_id=job.job_id,
                start=t,
                end=end,
                node_mask=node_mask,
                pool_grants=(),
            )
        reservations = p._reservations
        has_res = bool(reservations) or trial is not None
        events: Optional[list] = None
        pool = dict(p._release_pool(k))
        if has_res:
            res_seq = p._res_seq
            for res in reservations:
                if res.start <= t_eps and t < res.end - _EPS and res.pool_grants:
                    for pool_id, amount in res.pool_grants:
                        pool[pool_id] = pool.get(pool_id, 0) - amount
            if trial_active and trial.pool_grants:
                for pool_id, amount in trial.pool_grants:
                    pool[pool_id] = pool.get(pool_id, 0) - amount
            if wi_lo < wi_hi:
                start_refs = p._res_start_refs
                for w in range(wi_lo, wi_hi):
                    res = start_refs[w]
                    if events is None:
                        events = []
                    events.append(
                        (res.start, 0, res_seq[id(res)], 0,
                         res.pool_grants, -1)
                    )
            end_times = p._res_end_times
            lo_e = bisect_right(end_times, t_eps)
            hi_e = bisect_left(end_times, end_eps, lo_e)
            if lo_e < hi_e:
                end_refs = p._res_end_refs
                if events is None:
                    events = []
                for w in range(lo_e, hi_e):
                    res = end_refs[w]
                    events.append(
                        (res.end, 0, res_seq[id(res)], 1,
                         res.pool_grants, +1)
                    )
            if trial is not None and t_eps < trial.end < end_eps:
                # The trial's registration number is the one
                # add_reservation would have assigned it: last.
                if events is None:
                    events = []
                events.append(
                    (trial.end, 0, p._next_seq, 1,
                     trial.pool_grants, +1)
                )
        pool_min = dict(pool)
        if has_res:
            grant_times = p._grant_times
            lo = bisect_right(grant_times, t_eps)
            hi = bisect_left(grant_times, end_eps)
            if lo < hi:
                if events is None:
                    events = []
                grant_maps = p._grant_maps
                for g in range(lo, hi):
                    events.append(
                        (grant_times[g], 1, g, 0, grant_maps[g], +1)
                    )
            if events:
                p._apply_pool_events(pool, pool_min, events)
        node_mask = placement.select(
            p._cluster, free, job.nodes, remote_per_node, pool_min
        )
        if node_mask is None:
            return None
        if not memory_aware or remote_per_node == 0:
            plan: Optional[Dict[str, int]] = {}
        else:
            plan = allocator.plan(
                p._cluster, node_mask, remote_per_node, free_override=pool_min
            )
            if plan is None:
                return None
        return Reservation(
            job_id=job.job_id,
            start=t,
            end=end,
            node_mask=node_mask,
            pool_grants=tuple(sorted(plan.items())) if plan else (),
        )
