"""Brute-force availability oracle for the differential suites.

:class:`OracleProfile` is the executable *specification* of what the
optimized :class:`repro.sched.profile.AvailabilityProfile` must
compute.  It holds no derived state at all — every query walks every
release and every reservation from scratch — so there is nothing to
get incrementally wrong: correctness is readable off the query bodies.

The semantics it pins (shared with the optimized implementation):

* **Overrun grace** — a running job whose estimated end is already in
  the past releases at ``now + _OVERRUN_GRACE``, never in the past.
* **Epsilon bands** — a release counts at ``t`` when its time is
  ``<= t + _EPS``; a reservation occupies ``t`` when
  ``start <= t + _EPS and t < end - _EPS``; window sweeps consider
  only events *strictly* inside ``(start + _EPS, end - _EPS)``.
* **Tie order** — same-instant pool events apply in a stable order
  (reservations in insertion order, start before end, then releases in
  time order), and the running minimum is updated after *each* event,
  so a +X/-X collision at one instant still dips the minimum.

The suites that anchor on it compare it query-for-query against the
optimized profile (``test_profile_equivalence.py``,
``test_profile_properties.py``, ``test_release_folding.py``).  The
end-to-end scheduler suites no longer run an oracle at all — they
compare against pinned golden digests (see ``tests/_golden.py``).
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

from repro.sched.profile import Reservation
from repro.workload.job import Job

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster
    from repro.memdis.allocator import PoolAllocator
    from repro.sched.placement import PlacementPolicy

_OVERRUN_GRACE = 1.0
_EPS = 1e-9


def mask_nodes(mask: int) -> FrozenSet[int]:
    """Node ids of a sweep-cursor bitmask (bit *i* = node *i*),
    decoded one bit at a time — independent of the profile's own
    decoder."""
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def nodes_mask(node_ids: Iterable[int]) -> int:
    """Bitmask of a node id collection, the placement input — the
    inverse of :func:`mask_nodes`, independent of the cluster's own
    encoder."""
    return sum(1 << i for i in set(node_ids))


def lowest_bits(mask: int, count: int) -> int:
    """The ``count`` lowest set bits of ``mask``, peeled one bit at a
    time from bit 0 upward — the reference for
    :func:`repro.cluster.masks.lowest_mask`."""
    out = 0
    bit = 0
    while count:
        if mask >> bit & 1:
            out |= 1 << bit
            count -= 1
        bit += 1
    return out


def cursor_free_nodes(cursor, j: int) -> FrozenSet[int]:
    """Free node ids of a sweep cursor's materialized state ``j``,
    decoded with :func:`mask_nodes`: its free-node mask, or where the
    state holds none (no active claim), the profile's release mask at
    the state's release index."""
    mask = cursor._free[j]
    if mask is None:
        mask = cursor._p._release_mask(cursor._k[j])
    return mask_nodes(mask)


class _Release(NamedTuple):
    time: float
    node_ids: Tuple[int, ...]
    grants: Dict[str, int]


class OracleProfile:
    """Rescan-everything availability profile: the reference semantics."""

    def __init__(
        self,
        cluster: "Cluster",
        running: Iterable[Job],
        now: float,
        duration_of: Callable[[Job], float],
    ) -> None:
        self._cluster = cluster
        self._now = now
        self._free_now: FrozenSet[int] = frozenset(
            node_id for node_id in range(cluster.num_nodes)
            if cluster.free_mask >> node_id & 1
        )
        self._pool_now: Dict[str, int] = {
            pool.pool_id: pool.free for pool in cluster.all_pools()
        }
        releases: List[_Release] = []
        for job in running:
            if job.start_time is None:
                continue
            est_end = job.start_time + duration_of(job)
            if est_end <= now:
                # Overran its estimate: grant it a grace period rather
                # than releasing in the past.
                est_end = now + _OVERRUN_GRACE
            releases.append(
                _Release(est_end, tuple(job.assigned_nodes), dict(job.pool_grants))
            )
        releases.sort(key=lambda release: release.time)
        self._releases: List[_Release] = releases
        # Insertion order is semantically significant: same-instant
        # pool events tie-break by it (see window_free).
        self._reservations: List[Reservation] = []

    # -- mutation ------------------------------------------------------
    @property
    def now(self) -> float:
        return self._now

    @property
    def reservations(self) -> List[Reservation]:
        return list(self._reservations)

    def add_reservation(self, reservation: Reservation) -> Reservation:
        self._reservations.append(reservation)
        return reservation

    def remove_reservation(self, reservation: Reservation) -> None:
        self._reservations.remove(reservation)

    # -- queries -------------------------------------------------------
    def breakpoints(self, after: Optional[float] = None) -> List[float]:
        """Every instant availability can change, from ``now`` (or
        ``after``) on: release times plus reservation edges."""
        horizon = self._now if after is None else max(after, self._now)
        times = {horizon}
        times.update(
            release.time for release in self._releases if release.time > horizon
        )
        for res in self._reservations:
            times.update(edge for edge in (res.start, res.end) if edge > horizon)
        return sorted(times)

    def free_at(self, time: float) -> Tuple[FrozenSet[int], Dict[str, int]]:
        free = set(self._free_now)
        pool = dict(self._pool_now)
        for release in self._releases:
            if release.time <= time + _EPS:
                free.update(release.node_ids)
                for pool_id, amount in release.grants.items():
                    pool[pool_id] = pool.get(pool_id, 0) + amount
        for res in self._reservations:
            if res.start <= time + _EPS and time < res.end - _EPS:
                free.difference_update(res.node_ids)
                for pool_id, amount in res.pool_grants:
                    pool[pool_id] = pool.get(pool_id, 0) - amount
        return frozenset(free), pool

    def window_free(
        self, start: float, duration: float
    ) -> Tuple[FrozenSet[int], Dict[str, int]]:
        """Nodes free for the whole window and the per-pool minimum
        level anywhere inside it."""
        end = start + duration
        free, pool_start = self.free_at(start)
        pool_min = dict(pool_start)
        if not self._reservations:
            return free, pool_min

        def inside(instant: float) -> bool:
            return start + _EPS < instant < end - _EPS

        # A reservation starting mid-window claims its nodes for part
        # of the window, so they are not free for the whole of it.
        claimed = set()
        events: List[Tuple[float, Dict[str, int], int]] = []
        for res in self._reservations:
            if inside(res.start):
                claimed.update(res.node_ids)
                events.append((res.start, dict(res.pool_grants), -1))
            if inside(res.end):
                events.append((res.end, dict(res.pool_grants), +1))
        for release in self._releases:
            if release.grants and inside(release.time):
                events.append((release.time, release.grants, +1))
        if claimed:
            free = frozenset(free - claimed)
        # Stable sort: same-instant events keep the order built above
        # (reservation insertion order, then releases), and the minimum
        # tracks every intermediate level — a -X before a +X at one
        # instant dips it on purpose.
        level = dict(pool_start)
        for _, grants, sign in sorted(events, key=lambda event: event[0]):
            for pool_id, amount in grants.items():
                level[pool_id] = level.get(pool_id, 0) + sign * amount
                if level[pool_id] < pool_min.get(pool_id, 0):
                    pool_min[pool_id] = level[pool_id]
        return free, pool_min

    def earliest_start(
        self,
        job: Job,
        duration: float,
        remote_per_node: int,
        placement: "PlacementPolicy",
        allocator: "PoolAllocator",
        after: Optional[float] = None,
        memory_aware: bool = True,
    ) -> Optional[Reservation]:
        """First breakpoint where the job fits for its whole window."""
        for t in self.breakpoints(after=after):
            free, pool_min = self.window_free(t, duration)
            if len(free) < job.nodes:
                continue
            node_mask = placement.select(
                self._cluster, nodes_mask(free), job.nodes, remote_per_node,
                pool_min,
            )
            if node_mask is None:
                continue
            if not memory_aware or remote_per_node == 0:
                plan: Optional[Dict[str, int]] = {}
            else:
                plan = allocator.plan(
                    self._cluster, node_mask, remote_per_node,
                    free_override=pool_min,
                )
                if plan is None:
                    continue
            return Reservation(
                job_id=job.job_id,
                start=t,
                end=t + duration,
                node_mask=node_mask,
                pool_grants=tuple(sorted((plan or {}).items())),
            )
        return None


# ----------------------------------------------------------------------
# Reference placement: the set-based select bodies
# ----------------------------------------------------------------------
def _ref_sorted_ids(cluster: "Cluster", free_nodes: FrozenSet[int]) -> List[int]:
    return sorted(free_nodes)


def _ref_by_rack(cluster: "Cluster", free_nodes: FrozenSet[int]) -> Dict[int, List[int]]:
    racks: Dict[int, List[int]] = {}
    nodes = cluster.nodes
    for node_id in _ref_sorted_ids(cluster, free_nodes):
        racks.setdefault(nodes[node_id].rack_id, []).append(node_id)
    return racks


def _ref_first_fit(cluster, free_nodes, count, remote_per_node, pool_free=None):
    if len(free_nodes) < count:
        return None
    return _ref_sorted_ids(cluster, free_nodes)[:count]


def _ref_rack_pack(cluster, free_nodes, count, remote_per_node, pool_free=None):
    if len(free_nodes) < count:
        return None
    racks = _ref_by_rack(cluster, free_nodes)
    # Most free nodes first => fewest racks touched; rack id ties.
    ordered = sorted(racks.items(), key=lambda kv: (-len(kv[1]), kv[0]))
    chosen: List[int] = []
    for _, nodes in ordered:
        take = min(count - len(chosen), len(nodes))
        chosen.extend(nodes[:take])
        if len(chosen) == count:
            return chosen
    return None


def _ref_min_remote(cluster, free_nodes, count, remote_per_node, pool_free=None):
    if len(free_nodes) < count:
        return None
    racks = _ref_by_rack(cluster, free_nodes)

    def rack_pool_free(rack_id: int) -> int:
        pool = cluster.rack(rack_id).pool
        if pool is None:
            return 0
        if pool_free is not None and pool.pool_id in pool_free:
            return pool_free[pool.pool_id]
        return pool.free

    ordered = sorted(
        racks.items(),
        key=lambda kv: (-rack_pool_free(kv[0]), -len(kv[1]), kv[0]),
    )
    chosen: List[int] = []
    for _, nodes in ordered:
        take = min(count - len(chosen), len(nodes))
        chosen.extend(nodes[:take])
        if len(chosen) == count:
            return chosen
    return None


def _ref_spread(cluster, free_nodes, count, remote_per_node, pool_free=None):
    if len(free_nodes) < count:
        return None
    racks = _ref_by_rack(cluster, free_nodes)
    queues = [list(nodes) for _, nodes in sorted(racks.items())]
    chosen: List[int] = []
    index = 0
    while len(chosen) < count:
        queue = queues[index % len(queues)]
        if queue:
            chosen.append(queue.pop(0))
        index += 1
        if all(not q for q in queues):
            break
    return chosen if len(chosen) == count else None


#: Placement policy name -> reference ``select(cluster, free node set,
#: count, remote_per_node, pool_free)``: the policies' bodies from when
#: placement consumed ``frozenset``s, kept as the independent reference
#: for the bitmask implementations (``test_placement_masks.py``).
REFERENCE_SELECT: Dict[str, Callable[..., Optional[List[int]]]] = {
    "first_fit": _ref_first_fit,
    "rack_pack": _ref_rack_pack,
    "min_remote": _ref_min_remote,
    "spread": _ref_spread,
}
