"""Hardware model: nodes, racks, disaggregated memory pools.

The cluster is the passive substrate: nodes and racks are static
capacity records, while the cluster tracks which nodes are idle, down
or held by a job (as node masks, :mod:`repro.cluster.masks`) and how
much pool memory is granted, enforces capacity, and answers
feasibility queries.  *Choosing* nodes and pool grants is the job of
the scheduler (:mod:`repro.sched`) and the memory allocator
(:mod:`repro.memdis`).
"""

from .spec import ClusterSpec, PoolSpec, NodeSpec
from .node import Node
from .rack import Rack
from .pool import MemoryPool
from .cluster import Cluster

__all__ = [
    "ClusterSpec",
    "PoolSpec",
    "NodeSpec",
    "Node",
    "Rack",
    "MemoryPool",
    "Cluster",
]
