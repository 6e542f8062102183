"""The assembled machine: nodes, racks, pools, and capacity queries."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import AllocationError
from .masks import ids_of, mask_of
from .node import Node
from .pool import MemoryPool
from .rack import Rack
from .spec import ClusterSpec

__all__ = ["Cluster"]


class Cluster:
    """Instantiated hardware built from a :class:`ClusterSpec`.

    The cluster owns state (node availability, pool grants) and enforces
    capacity; it performs no policy.  Node selection and local/remote
    splitting are decided by the scheduler stack and handed in as
    explicit grant maps.

    :class:`Node` and :class:`Rack` records are static capacity.  Node
    availability lives here only, in three structures that partition
    the node ids: :attr:`free_mask`, :attr:`down_mask` and the
    ownership map :attr:`held`.  Every mutation checks its whole
    request against them before it changes anything.  Node sets come
    in as masks: :meth:`allocate_nodes` stores placement's mask as the
    job's held mask and :meth:`release_nodes` frees it, so neither
    touches an id; ids from outside the scheduler enter through
    :meth:`checked_mask`.
    """

    def __init__(self, spec: ClusterSpec) -> None:
        spec.validate()
        self.spec = spec
        self.nodes: List[Node] = []
        self.racks: List[Rack] = []
        #: Per rack, ``(first node id, (1 << rack size) - 1)``: racks
        #: are contiguous id ranges, so ``(mask >> lo) & width`` is the
        #: rack's slice of a node mask.
        self.rack_slices: List[Tuple[int, int]] = []
        rack_count = spec.num_racks
        for rack_id in range(rack_count):
            lo = rack_id * spec.nodes_per_rack
            hi = min(lo + spec.nodes_per_rack, spec.num_nodes)
            self.rack_slices.append((lo, (1 << (hi - lo)) - 1))
            rack_nodes = [
                Node(node_id, rack_id, spec.node.cores, spec.node.local_mem)
                for node_id in range(lo, hi)
            ]
            self.nodes.extend(rack_nodes)
            pool: Optional[MemoryPool] = None
            if spec.pool.rack_pool > 0:
                pool = MemoryPool(
                    f"rack{rack_id}", spec.pool.rack_pool, spec.pool.rack_bandwidth
                )
            self.racks.append(Rack(rack_id, rack_nodes, pool))
        self.global_pool: Optional[MemoryPool] = None
        if spec.pool.global_pool > 0:
            self.global_pool = MemoryPool(
                "global", spec.pool.global_pool, spec.pool.global_bandwidth
            )
        # Node availability as node masks (bit *i* = node *i*, see
        # :mod:`repro.cluster.masks`); pool lookups are prebuilt (pool
        # identity never changes after construction).
        #: Every node id as a bitmask.
        self.all_mask: int = (1 << len(self.nodes)) - 1
        #: Idle node ids; read-only.
        self.free_mask: int = self.all_mask
        #: Out-of-service node ids; read-only.
        self.down_mask: int = 0
        #: Ownership map ``{job id: (node mask, per-node local grant
        #: MiB)}`` of every job holding nodes; read-only.
        self.held: Dict[int, Tuple[int, int]] = {}
        #: Monotone state-change counter: bumped by every mutation that
        #: can affect availability (node ownership, node state, pool
        #: grants).  Consumers use it to validate availability caches;
        #: direct mutation of a ``MemoryPool`` bypasses it, so always
        #: go through the cluster methods.
        self.version: int = 0
        # Version-batch state: within a batch (one scheduling pass)
        # the first mutation bumps the counter once and the rest are
        # absorbed — consumers only compare stamps for equality, and
        # a pass is one atomic decision unit.
        self._version_hold = False
        self._version_bumped = False
        self._pools: List[MemoryPool] = [
            rack.pool for rack in self.racks if rack.pool is not None
        ]
        if self.global_pool is not None:
            self._pools.append(self.global_pool)
        self._pools_by_id: Dict[str, MemoryPool] = {
            pool.pool_id: pool for pool in self._pools
        }
        self._pool_capacities: Dict[str, int] = {
            pool.pool_id: pool.capacity for pool in self._pools
        }
        #: Any pool with finite bandwidth?  When False, bandwidth
        #: pressure is identically zero and hot paths skip the scan.
        self.has_metered_pools: bool = any(
            pool.bandwidth != float("inf") for pool in self._pools
        )
        #: Pool-activity change stamps: monotone counters bumped when
        #: pool memory is granted (:meth:`allocate_pool` with a
        #: non-empty grant map) or returned (:meth:`release_pool`
        #: freeing anything).  Consumers cache derived views of the
        #: pool-holding running set — e.g. the start gates' next-pool-
        #: release estimate — keyed on the pair: while neither stamp
        #: moved, the set of pool-holding jobs is provably unchanged.
        self.pool_grant_count: int = 0
        self.pool_release_count: int = 0

    # ------------------------------------------------------------------
    # version batching (one bump per scheduling pass)
    # ------------------------------------------------------------------
    def begin_version_batch(self) -> None:
        """Coalesce version bumps until :meth:`end_version_batch`.

        The engine brackets each scheduling pass with a batch: the
        pass is one atomic decision unit, so its k starts (2k+
        mutations) advance the availability version once.  Cache
        consumers only ever compare stamps for equality, and a
        strategy that stamps its cache at pass teardown observes the
        final (post-bump) value either way — the coalescing is
        invisible except through the counter's arithmetic.
        """
        self._version_hold = True
        self._version_bumped = False

    def end_version_batch(self) -> None:
        self._version_hold = False

    def _bump_version(self) -> None:
        if self._version_hold:
            if self._version_bumped:
                return
            self._version_bumped = True
        self.version += 1

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    def rack(self, rack_id: int) -> Rack:
        return self.racks[rack_id]

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_racks(self) -> int:
        return len(self.racks)

    @property
    def free_node_count(self) -> int:
        return self.free_mask.bit_count()

    def owner_of(self, node_id: int) -> Optional[int]:
        """The job holding ``node_id``, or ``None``: a scan of the
        ownership map, for cold paths such as failure handling."""
        bit = 1 << node_id
        for job_id, (mask, _) in self.held.items():
            if mask & bit:
                return job_id
        return None

    def all_pools(self) -> List[MemoryPool]:
        """Every pool, rack pools first then global (do not mutate)."""
        return self._pools

    def pool_capacities(self) -> Dict[str, int]:
        """``{pool_id: capacity MiB}`` — immutable after construction
        (do not mutate the returned dict)."""
        return self._pool_capacities

    def pool_by_id(self, pool_id: str) -> MemoryPool:
        try:
            return self._pools_by_id[pool_id]
        except KeyError:
            raise KeyError(pool_id) from None

    @property
    def total_pool_free(self) -> int:
        return sum(pool.free for pool in self.all_pools())

    @property
    def total_pool_capacity(self) -> int:
        return sum(pool.capacity for pool in self.all_pools())

    @property
    def total_pool_used(self) -> int:
        return sum(pool.used for pool in self.all_pools())

    # ------------------------------------------------------------------
    # allocation (called by the engine with scheduler-chosen grants)
    # ------------------------------------------------------------------
    def checked_mask(self, node_ids: Iterable[int]) -> int:
        """Bitmask of ``node_ids``: where ids from outside the scheduler
        (snapshot restore, schedule replay, failure injection) become a
        mask.  Anything but a plain ``int`` id in ``0..N-1`` (a bool, a
        float, a string) or a repeated id raises
        :class:`AllocationError`; nothing is changed."""
        node_ids = list(node_ids)
        num_nodes = len(self.nodes)
        for node_id in node_ids:
            if type(node_id) is not int or not 0 <= node_id < num_nodes:
                raise AllocationError(
                    f"node id {node_id!r} is not an integer in 0..{num_nodes - 1}"
                )
        mask = mask_of(node_ids)
        if mask.bit_count() != len(node_ids):
            raise AllocationError(f"node ids {node_ids} repeat an id")
        return mask

    def rack_counts(self, mask: int) -> List[Tuple[int, int]]:
        """``(rack id, node count)`` of every rack ``mask`` meets, in
        rack order; only the racks between its lowest and highest node
        are looked at."""
        counts: List[Tuple[int, int]] = []
        if mask:
            per_rack = self.spec.nodes_per_rack
            slices = self.rack_slices
            first = ((mask & -mask).bit_length() - 1) // per_rack
            for rack_id in range(first, (mask.bit_length() - 1) // per_rack + 1):
                lo, width = slices[rack_id]
                count = (mask >> lo & width).bit_count()
                if count:
                    counts.append((rack_id, count))
        return counts

    def allocate_nodes(self, job_id: int, node_mask: int, local_grant: int) -> None:
        """Assign the nodes of ``node_mask`` exclusively to ``job_id``.

        ``node_mask`` is placement's choice as handed on by the start
        decision; it is stored as the job's held mask, not re-encoded.
        ``local_grant`` is the per-node local-memory grant.  The call is
        atomic: on failure, nothing is allocated.
        """
        if node_mask < 0 or node_mask >> len(self.nodes):
            raise AllocationError(
                f"node mask {node_mask:#x} names nodes outside "
                f"0..{len(self.nodes) - 1}"
            )
        taken = node_mask & ~self.free_mask
        if taken:
            raise AllocationError(
                f"nodes {ids_of(taken)} are not idle, cannot allocate "
                f"to job {job_id}"
            )
        if not 0 <= local_grant <= self.spec.node.local_mem:
            raise AllocationError(
                f"local grant {local_grant} MiB outside "
                f"[0, {self.spec.node.local_mem}] for job {job_id}"
            )
        if job_id in self.held:
            raise AllocationError(f"job {job_id} already holds nodes")
        self.free_mask ^= node_mask
        self.held[job_id] = (node_mask, local_grant)
        self._bump_version()

    def release_nodes(self, job_id: int) -> int:
        """Return every node ``job_id`` holds; returns the freed mask."""
        held = self.held.pop(job_id, None)
        if held is None:
            raise AllocationError(f"job {job_id} holds no nodes")
        mask = held[0]
        self.free_mask |= mask
        self._bump_version()
        return mask

    def take_down(self, node_id: int) -> None:
        """Remove an idle node from service (failure injection).

        The caller must release any running job first; taking down a
        busy node raises.
        """
        bit = self.checked_mask([node_id])
        if bit & ~(self.free_mask | self.down_mask):
            raise AllocationError(
                f"node {node_id} is busy with job {self.owner_of(node_id)}; "
                "release before taking it down"
            )
        self._bump_version()
        self.free_mask &= ~bit
        self.down_mask |= bit

    def bring_up(self, node_id: int) -> None:
        """Return a down node to service."""
        bit = self.checked_mask([node_id])
        if self.down_mask & bit:
            self._bump_version()
            self.down_mask ^= bit
            self.free_mask |= bit

    def allocate_pool(self, job_id: int, grants: Dict[str, int]) -> None:
        """Apply pool grants ``{pool_id: MiB}`` atomically for ``job_id``."""
        applied: List[MemoryPool] = []
        try:
            for pool_id, amount in grants.items():
                if amount <= 0:
                    continue
                pool = self.pool_by_id(pool_id)
                pool.allocate(job_id, amount)
                applied.append(pool)
        except AllocationError:
            for pool in applied:
                pool.release_if_held(job_id)
            raise
        if applied:
            self.pool_grant_count += 1
        self._bump_version()

    def release_pool(self, job_id: int) -> int:
        """Release every pool grant held by ``job_id``; returns MiB freed."""
        freed = 0
        for pool in self.all_pools():
            freed += pool.release_if_held(job_id)
        if freed:
            self.pool_release_count += 1
        self._bump_version()
        return freed

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Cheap state snapshot for metrics sampling."""
        free_count = self.free_mask.bit_count()
        return {
            "free_nodes": free_count,
            "busy_nodes": self.num_nodes - free_count - self.down_mask.bit_count(),
            "local_mem_granted": sum(
                mask.bit_count() * grant for mask, grant in self.held.values()
            ),
            "pool_used": self.total_pool_used,
            "pool_capacity": self.total_pool_capacity,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Cluster({self.spec.name}: {self.num_nodes} nodes / "
            f"{self.num_racks} racks, pool={self.total_pool_capacity} MiB)"
        )
