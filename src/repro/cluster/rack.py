"""Rack grouping of nodes with an optional rack-local memory pool."""

from __future__ import annotations

from typing import List, Optional

from .node import Node
from .pool import MemoryPool

__all__ = ["Rack"]


class Rack:
    """A rack: a set of nodes plus, optionally, a rack-local pool.

    Rack locality matters because a rack-local pool is only reachable
    from its own nodes; placement policies that pack jobs into racks
    keep remote memory close and leave other racks' pools free.  Which
    of the rack's nodes are free is cluster state: count it on the
    rack's slice of :attr:`Cluster.free_mask
    <repro.cluster.cluster.Cluster.free_mask>` (``Cluster.rack_slices``).
    """

    __slots__ = ("rack_id", "nodes", "pool")

    def __init__(self, rack_id: int, nodes: List[Node], pool: Optional[MemoryPool]) -> None:
        self.rack_id = rack_id
        self.nodes = nodes
        self.pool = pool

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def pool_free(self) -> int:
        return self.pool.free if self.pool is not None else 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Rack(id={self.rack_id}, nodes={self.num_nodes}, "
            f"pool_free={self.pool_free} MiB)"
        )
