"""Pool allocation policies.

Given the nodes chosen for a job — placement's node mask — and its
per-node remote share, an allocator decides *which pools* supply the
memory.  Three reaches:

* **global** — one system-wide pool serves everything (simplest,
  maximal statistical multiplexing, but the fabric hop is longest);
* **rack**  — each node draws only from its rack's pool (short reach,
  but pools can strand capacity when racks are imbalanced);
* **hybrid** — rack pool first, overflow to the global pool.

Every allocator exposes a *non-mutating* :meth:`PoolAllocator.plan`
used by the scheduler for feasibility and reservations, and the engine
applies a returned plan atomically through the cluster.  Plans map
``pool_id -> MiB``.
"""

from __future__ import annotations

import abc
from typing import Dict, Optional

from ..cluster.cluster import Cluster
from ..cluster.masks import chunks_of
from ..errors import ConfigurationError

__all__ = [
    "PoolAllocator",
    "GlobalPoolAllocator",
    "RackLocalAllocator",
    "HybridAllocator",
    "allocator_for",
]


def _rack_demand(cluster: Cluster, node_mask: int, remote_per_node: int) -> Dict[int, int]:
    """``{rack id: remote MiB}`` of every rack ``node_mask`` meets, in
    the order the racks first appear among its ids (placement order),
    counted per rack without decoding ids."""
    demand: Dict[int, int] = {}
    for chunk in chunks_of(node_mask):
        for rack_id, count in cluster.rack_counts(chunk):
            demand[rack_id] = demand.get(rack_id, 0) + count * remote_per_node
    return demand


class PoolAllocator(abc.ABC):
    """Maps (node mask, per-node remote MiB) to pool grants."""

    name: str = "abstract"

    @abc.abstractmethod
    def plan(
        self,
        cluster: Cluster,
        node_mask: int,
        remote_per_node: int,
        free_override: Optional[Dict[str, int]] = None,
    ) -> Optional[Dict[str, int]]:
        """Return ``{pool_id: MiB}`` or ``None`` when infeasible.

        ``free_override`` lets the backfill reservation logic evaluate
        feasibility against *hypothetical* pool availability (current
        free plus grants that will have been returned by some future
        time) without touching live pool state.
        """

    # ------------------------------------------------------------------
    def _free(
        self, cluster: Cluster, pool_id: str, free_override: Optional[Dict[str, int]]
    ) -> int:
        if free_override is not None and pool_id in free_override:
            return free_override[pool_id]
        return cluster.pool_by_id(pool_id).free

    def feasible(
        self,
        cluster: Cluster,
        node_mask: int,
        remote_per_node: int,
        free_override: Optional[Dict[str, int]] = None,
    ) -> bool:
        """Convenience: is a plan possible for this demand?"""
        return self.plan(cluster, node_mask, remote_per_node, free_override) is not None


class GlobalPoolAllocator(PoolAllocator):
    """All remote memory comes from the system-wide pool."""

    name = "global"

    def plan(
        self,
        cluster: Cluster,
        node_mask: int,
        remote_per_node: int,
        free_override: Optional[Dict[str, int]] = None,
    ) -> Optional[Dict[str, int]]:
        need = remote_per_node * node_mask.bit_count()
        if need == 0:
            return {}
        if cluster.global_pool is None:
            return None
        if self._free(cluster, "global", free_override) < need:
            return None
        return {"global": need}


class RackLocalAllocator(PoolAllocator):
    """Each node draws its remote share from its own rack pool only."""

    name = "rack"

    def plan(
        self,
        cluster: Cluster,
        node_mask: int,
        remote_per_node: int,
        free_override: Optional[Dict[str, int]] = None,
    ) -> Optional[Dict[str, int]]:
        if remote_per_node == 0:
            return {}
        demand_by_rack = _rack_demand(cluster, node_mask, remote_per_node)
        grants: Dict[str, int] = {}
        for rack_id, need in demand_by_rack.items():
            pool = cluster.rack(rack_id).pool
            if pool is None:
                return None
            if self._free(cluster, pool.pool_id, free_override) < need:
                return None
            grants[pool.pool_id] = need
        return grants


class HybridAllocator(PoolAllocator):
    """Rack pool first, overflow to the global pool.

    Overflow is computed per rack: a rack whose pool cannot cover its
    nodes' demand sends the remainder to the global pool.  This is the
    policy a tiered CXL fabric implements naturally.
    """

    name = "hybrid"

    def plan(
        self,
        cluster: Cluster,
        node_mask: int,
        remote_per_node: int,
        free_override: Optional[Dict[str, int]] = None,
    ) -> Optional[Dict[str, int]]:
        if remote_per_node == 0:
            return {}
        demand_by_rack = _rack_demand(cluster, node_mask, remote_per_node)
        grants: Dict[str, int] = {}
        overflow = 0
        for rack_id, need in demand_by_rack.items():
            pool = cluster.rack(rack_id).pool
            if pool is None:
                overflow += need
                continue
            # A free_override from the reservation sweep can be
            # negative (the pool is hypothetically over-committed at
            # that instant); an unclamped take would then *inflate*
            # the global overflow past the actual demand.
            free = max(0, self._free(cluster, pool.pool_id, free_override))
            take = min(need, free)
            if take > 0:
                grants[pool.pool_id] = grants.get(pool.pool_id, 0) + take
            overflow += need - take
        if overflow > 0:
            if cluster.global_pool is None:
                return None
            if self._free(cluster, "global", free_override) < overflow:
                return None
            grants["global"] = grants.get("global", 0) + overflow
        return grants


_ALLOCATORS = {
    "global": GlobalPoolAllocator,
    "rack": RackLocalAllocator,
    "hybrid": HybridAllocator,
}


def allocator_for(name: str) -> PoolAllocator:
    """Construct an allocator by reach name."""
    cls = _ALLOCATORS.get(name)
    if cls is None:
        raise ConfigurationError(
            f"unknown pool allocator {name!r}; choose from {sorted(_ALLOCATORS)}"
        )
    return cls()
