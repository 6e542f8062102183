"""Node selection policies.

Given the set of free nodes — an ``int`` bitmask, bit *i* = node *i*
(:mod:`repro.cluster.masks`) — a placement policy picks the concrete
nodes a job will occupy.  On a homogeneous machine the choice is
irrelevant to the job itself — what it changes is **pool locality**:
with rack-local pools, the racks a job spans determine which pools
absorb its remote memory, so packing versus spreading moves pool
pressure around.  Experiment T4 ablates exactly this.

Policies return the chosen nodes as a mask, or ``None`` when they
cannot produce a placement (fewer free nodes than requested).  First
fit's choice is the ``count`` lowest free ids (:func:`lowest_mask`);
the rack policies OR together per-rack (spread: per-round) chunks into
an :class:`~repro.cluster.masks.OrderedMask`, which keeps their
non-ascending id order for the one decode at job start
(:func:`repro.engine.lifecycle.start_job`).  Nothing here decodes ids.
Policies never check pool capacity — that is the allocator's job — but
pool-aware policies use the free-capacity hint for *ordering*.
"""

from __future__ import annotations

import abc
from typing import List, Mapping, Optional, Tuple

from ..cluster.cluster import Cluster
from ..cluster.masks import OrderedMask, lowest_mask
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
    ) -> Optional[int]:
        """Pick ``count`` nodes from ``free_mask``: their mask, or ``None``.

        ``free_mask`` is the free node set as a bitmask (bit *i* = node
        *i*, see :mod:`repro.cluster.masks`); the result is a subset of
        it, an :class:`~repro.cluster.masks.OrderedMask` where the
        policy's id order is not ascending.  ``remote_per_node`` and
        ``pool_free`` are hints for pool-aware ordering; capacity
        enforcement happens in the allocator.
        """

    @staticmethod
    def _fill_racks(
        cluster: Cluster, free_mask: int, ordered: List[Tuple[int, int]], count: int
    ) -> Optional[int]:
        """Take nodes rack by rack in ``ordered`` (``(rack id, free
        count)`` pairs), lowest ids first within a rack, until
        ``count`` are chosen; ``None`` when no rack has a free node.
        Each rack's take is one chunk of the returned mask."""
        chunks: List[int] = []
        left = count
        for rack_id, free in ordered:
            take = min(left, free)
            lo, width = cluster.rack_slices[rack_id]
            chunks.append(lowest_mask(free_mask >> lo & width, take) << lo)
            left -= take
            if not left:
                return OrderedMask(chunks)
        return None


class FirstFitPlacement(PlacementPolicy):
    """Lowest node ids first — the neutral baseline."""

    name = "first_fit"

    def select(self, cluster, free_mask, count, remote_per_node, pool_free=None):
        if free_mask.bit_count() < count:
            return None
        return lowest_mask(free_mask, count)


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
        racks = cluster.rack_counts(free_mask)
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
        racks = cluster.rack_counts(free_mask)

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
        # order; a rack drops out once it is exhausted.  Racks are
        # ascending id ranges, so each round is one ascending chunk.
        rest = [free_mask & width << lo for lo, width in cluster.rack_slices]
        chunks: List[int] = []
        left = count
        while left:
            chunk = 0
            for i, bits in enumerate(rest):
                if bits:
                    low = bits & -bits
                    rest[i] = bits ^ low
                    chunk |= low
                    left -= 1
                    if not left:
                        break
            chunks.append(chunk)
        return OrderedMask(chunks)


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
