"""Node selection policies.

Given the set of free nodes — an ``int`` bitmask, bit *i* = node *i*
(:mod:`repro.cluster.masks`) — a placement policy picks the concrete
nodes a job will occupy.  On a homogeneous machine the choice is
irrelevant to the job itself — what it changes is **pool locality**:
with rack-local pools, the racks a job spans determine which pools
absorb its remote memory, so packing versus spreading moves pool
pressure around.  Experiment T4 ablates exactly this.

Policies return node-id lists in deterministic order, or ``None`` when
they cannot produce a placement (fewer free nodes than requested).
They never check pool capacity — that is the allocator's job — but
pool-aware policies use the free-capacity hint for *ordering*.
"""

from __future__ import annotations

import abc
from typing import List, Mapping, Optional, Tuple

from ..cluster.cluster import Cluster
from ..cluster.masks import lowest_ids
from ..errors import ConfigurationError

__all__ = [
    "PlacementPolicy",
    "FirstFitPlacement",
    "RackPackPlacement",
    "MinRemotePlacement",
    "SpreadPlacement",
    "placement_for",
]


class PlacementPolicy(abc.ABC):
    """Chooses concrete nodes for a job from the free set."""

    name: str = "abstract"

    #: Does :meth:`select` read the ``pool_free`` hint at all?  Hot
    #: paths skip building the (expensive) windowed pool view for jobs
    #: that need no pool memory when the placement cannot observe it —
    #: decision-invisible by construction.  Policies that order nodes
    #: by pool capacity (min_remote) set this True.
    uses_pool_hint: bool = False

    @abc.abstractmethod
    def select(
        self,
        cluster: Cluster,
        free_mask: int,
        count: int,
        remote_per_node: int,
        pool_free: Optional[Mapping[str, int]] = None,
    ) -> Optional[List[int]]:
        """Pick ``count`` nodes from ``free_mask`` or return ``None``.

        ``free_mask`` is the free node set as a bitmask (bit *i* = node
        *i*, see :mod:`repro.cluster.masks`).  ``remote_per_node`` and
        ``pool_free`` are hints for pool-aware ordering; capacity
        enforcement happens in the allocator.
        """

    @staticmethod
    def _rack_counts(cluster: Cluster, free_mask: int) -> List[Tuple[int, int]]:
        """``(rack id, free count)`` of every rack with a free node, in
        rack order, counted on each rack's slice of the mask."""
        counts = []
        for rack_id, (lo, width) in enumerate(cluster.rack_slices):
            free = (free_mask >> lo & width).bit_count()
            if free:
                counts.append((rack_id, free))
        return counts

    @staticmethod
    def _rack_ids(cluster: Cluster, free_mask: int, rack_id: int, take: int) -> List[int]:
        """The ``take`` lowest free node ids of rack ``rack_id``."""
        lo, width = cluster.rack_slices[rack_id]
        return [lo + i for i in lowest_ids(free_mask >> lo & width, take)]

    @classmethod
    def _fill_racks(
        cls, cluster: Cluster, free_mask: int, ordered: List[Tuple[int, int]], count: int
    ) -> Optional[List[int]]:
        """Take nodes rack by rack in ``ordered`` (``(rack id, free
        count)`` pairs), lowest ids first within a rack, until
        ``count`` are chosen; ``None`` when no rack has a free node."""
        chosen: List[int] = []
        for rack_id, free in ordered:
            take = min(count - len(chosen), free)
            chosen.extend(cls._rack_ids(cluster, free_mask, rack_id, take))
            if len(chosen) == count:
                return chosen
        return None


class FirstFitPlacement(PlacementPolicy):
    """Lowest node ids first — the neutral baseline."""

    name = "first_fit"

    def select(self, cluster, free_mask, count, remote_per_node, pool_free=None):
        if free_mask.bit_count() < count:
            return None
        return lowest_ids(free_mask, count)


class RackPackPlacement(PlacementPolicy):
    """Minimize racks spanned: take nodes from the emptiest racks first.

    Jobs concentrated in few racks draw on few rack pools, leaving the
    other racks' pools intact for later jobs — and single-rack jobs
    keep the rack-pool option open at all (a cross-rack job cannot use
    any rack pool as a uniform reach domain).
    """

    name = "rack_pack"

    def select(self, cluster, free_mask, count, remote_per_node, pool_free=None):
        if free_mask.bit_count() < count:
            return None
        racks = self._rack_counts(cluster, free_mask)
        # Most free nodes first => fewest racks touched; rack id ties.
        ordered = sorted(racks, key=lambda rc: (-rc[1], rc[0]))
        return self._fill_racks(cluster, free_mask, ordered, count)


class MinRemotePlacement(PlacementPolicy):
    """Pool-pressure-aware packing: fill racks with the most free pool.

    Like rack-pack, but rack order follows free *pool* capacity (per
    the hint, falling back to live state), steering remote-hungry jobs
    toward racks that can absorb them.  With no rack pools this
    degrades gracefully to rack-pack ordering.
    """

    name = "min_remote"
    uses_pool_hint = True

    def select(self, cluster, free_mask, count, remote_per_node, pool_free=None):
        if free_mask.bit_count() < count:
            return None
        racks = self._rack_counts(cluster, free_mask)

        def rack_pool_free(rack_id: int) -> int:
            pool = cluster.rack(rack_id).pool
            if pool is None:
                return 0
            if pool_free is not None and pool.pool_id in pool_free:
                return pool_free[pool.pool_id]
            return pool.free

        ordered = sorted(
            racks, key=lambda rc: (-rack_pool_free(rc[0]), -rc[1], rc[0])
        )
        return self._fill_racks(cluster, free_mask, ordered, count)


class SpreadPlacement(PlacementPolicy):
    """Round-robin across racks — the adversarial baseline.

    Deliberately maximizes racks spanned; with rack-local pools this
    denies jobs the rack-pool fast path and fragments pool usage,
    which is why it exists: T4 quantifies the cost of getting
    placement wrong.
    """

    name = "spread"

    def select(self, cluster, free_mask, count, remote_per_node, pool_free=None):
        if free_mask.bit_count() < count:
            return None
        # One node per rack per round, lowest ids first, racks in id
        # order; a rack drops out once it is exhausted.
        queues = [
            self._rack_ids(cluster, free_mask, rack_id, free)
            for rack_id, free in self._rack_counts(cluster, free_mask)
        ]
        chosen: List[int] = []
        depth = 0
        while len(chosen) < count:
            for queue in queues:
                if depth < len(queue):
                    chosen.append(queue[depth])
                    if len(chosen) == count:
                        break
            depth += 1
        return chosen


_POLICIES = {
    "first_fit": FirstFitPlacement,
    "rack_pack": RackPackPlacement,
    "min_remote": MinRemotePlacement,
    "spread": SpreadPlacement,
}


def placement_for(name: str) -> PlacementPolicy:
    cls = _POLICIES.get(name.lower())
    if cls is None:
        raise ConfigurationError(
            f"unknown placement policy {name!r}; choose from {sorted(_POLICIES)}"
        )
    return cls()
