"""Tests for the hardware model: spec, node, pool, rack, cluster."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from repro.cluster import Cluster, ClusterSpec, MemoryPool, Node, NodeSpec, PoolSpec
from repro.cluster.masks import ids_of, mask_of
from repro.errors import AllocationError, ConfigurationError
from repro.units import GiB


class TestSpecs:
    def test_defaults_valid(self):
        ClusterSpec().validate()

    def test_num_racks_ceil(self):
        spec = ClusterSpec(num_nodes=10, nodes_per_rack=4)
        assert spec.num_racks == 3

    def test_totals(self):
        spec = ClusterSpec(
            num_nodes=4,
            nodes_per_rack=2,
            node=NodeSpec(local_mem=10 * GiB),
            pool=PoolSpec(rack_pool=5 * GiB, global_pool=7 * GiB),
        )
        assert spec.total_local_mem == 40 * GiB
        assert spec.total_pool_mem == 2 * 5 * GiB + 7 * GiB
        assert spec.total_mem == spec.total_local_mem + spec.total_pool_mem

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_nodes": 0},
            {"num_nodes": -4},
            {"nodes_per_rack": 0},
        ],
    )
    def test_invalid_counts(self, kwargs):
        with pytest.raises(ConfigurationError):
            ClusterSpec(**kwargs).validate()

    def test_invalid_node(self):
        with pytest.raises(ConfigurationError):
            ClusterSpec(node=NodeSpec(cores=0)).validate()

    def test_invalid_pool(self):
        with pytest.raises(ConfigurationError):
            ClusterSpec(pool=PoolSpec(rack_pool=-1)).validate()

    def test_fat_node_has_no_pool(self):
        spec = ClusterSpec.fat_node(num_nodes=32, local_mem="512GiB")
        assert spec.total_pool_mem == 0
        assert spec.node.local_mem == 512 * GiB
        assert not spec.pool.disaggregated

    def test_thin_node_preserves_total_dram(self):
        fat = ClusterSpec.fat_node(num_nodes=32, local_mem="512GiB")
        thin = ClusterSpec.thin_node(
            num_nodes=32, local_mem="128GiB", fat_local_mem="512GiB",
            pool_fraction=1.0, reach="global",
        )
        assert thin.total_mem == fat.total_mem

    def test_thin_node_pool_fraction_halves_pool(self):
        thin = ClusterSpec.thin_node(
            num_nodes=32, local_mem="128GiB", fat_local_mem="512GiB",
            pool_fraction=0.5, reach="global",
        )
        assert thin.pool.global_pool == 32 * (512 - 128) * GiB // 2

    def test_thin_node_rack_reach_splits_pool(self):
        thin = ClusterSpec.thin_node(
            num_nodes=32, nodes_per_rack=8, local_mem="128GiB",
            fat_local_mem="512GiB", reach="rack",
        )
        assert thin.pool.rack_pool == 32 * (512 - 128) * GiB // 4
        assert thin.pool.global_pool == 0

    def test_thin_node_local_exceeding_fat_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterSpec.thin_node(local_mem="768GiB", fat_local_mem="512GiB")

    def test_thin_node_bad_reach_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterSpec.thin_node(reach="galaxy")

    def test_dict_roundtrip(self):
        spec = ClusterSpec.thin_node(num_nodes=16, nodes_per_rack=4)
        again = ClusterSpec.from_dict(spec.to_dict())
        assert again == spec

    def test_from_dict_parses_mem_strings(self):
        spec = ClusterSpec.from_dict(
            {"num_nodes": 4, "node": {"local_mem": "32GiB"}, "pool": {"global_pool": "1TiB"}}
        )
        assert spec.node.local_mem == 32 * GiB
        assert spec.pool.global_pool == 1024 * GiB


def _state(cluster):
    """Everything a rejected mutation must leave untouched."""
    return cluster.free_mask, cluster.down_mask, dict(cluster.held), cluster.version


class TestNodeOwnership:
    """Per-node ownership checks, enforced by the cluster's masks: each
    rejection raises before any state changes."""

    def test_node_is_static_capacity(self, tiny_cluster):
        assert tiny_cluster.node(3) == Node(3, 1, 8, 16 * GiB)

    def test_allocate_release_cycle(self, tiny_cluster):
        tiny_cluster.allocate_nodes(7, 0b0101, local_grant=8 * GiB)
        assert tiny_cluster.held == {7: (0b0101, 8 * GiB)}
        assert tiny_cluster.free_mask == 0b1010
        assert tiny_cluster.owner_of(2) == 7
        assert tiny_cluster.owner_of(1) is None
        assert tiny_cluster.release_nodes(7) == 0b0101
        assert tiny_cluster.held == {}
        assert tiny_cluster.free_mask == tiny_cluster.all_mask

    def _rejects(self, cluster, call, *args):
        before = _state(cluster)
        with pytest.raises(AllocationError):
            call(*args)
        assert _state(cluster) == before

    def test_double_allocation_rejected(self, tiny_cluster):
        tiny_cluster.allocate_nodes(1, 0b0001, local_grant=0)
        self._rejects(tiny_cluster, tiny_cluster.allocate_nodes, 2, 0b0001, 0)

    def test_second_allocation_for_one_job_rejected(self, tiny_cluster):
        tiny_cluster.allocate_nodes(1, 0b0001, local_grant=0)
        self._rejects(tiny_cluster, tiny_cluster.allocate_nodes, 1, 0b0010, 0)

    def test_repeated_id_rejected(self, tiny_cluster):
        self._rejects(tiny_cluster, tiny_cluster.checked_mask, [1, 1])

    def test_release_by_wrong_owner_rejected(self, tiny_cluster):
        tiny_cluster.allocate_nodes(1, 0b0001, local_grant=0)
        self._rejects(tiny_cluster, tiny_cluster.release_nodes, 2)

    def test_release_of_idle_nodes_rejected(self, tiny_cluster):
        self._rejects(tiny_cluster, tiny_cluster.release_nodes, 1)

    def test_release_frees_exactly_the_held_mask(self, tiny_cluster):
        tiny_cluster.allocate_nodes(1, 0b0111, local_grant=0)
        tiny_cluster.allocate_nodes(2, 0b1000, local_grant=0)
        assert tiny_cluster.release_nodes(1) == 0b0111
        assert tiny_cluster.free_mask == 0b0111
        assert tiny_cluster.held == {2: (0b1000, 0)}

    def test_grant_above_capacity_rejected(self, tiny_cluster):
        self._rejects(tiny_cluster, tiny_cluster.allocate_nodes, 1, 0b0001, 17 * GiB)

    def test_negative_grant_rejected(self, tiny_cluster):
        self._rejects(tiny_cluster, tiny_cluster.allocate_nodes, 1, 0b0001, -1)

    def test_down_node_cannot_be_allocated(self, tiny_cluster):
        tiny_cluster.take_down(0)
        assert tiny_cluster.down_mask == 0b0001
        assert tiny_cluster.free_node_count == 3
        self._rejects(tiny_cluster, tiny_cluster.allocate_nodes, 1, 0b0001, 0)
        tiny_cluster.bring_up(0)
        assert tiny_cluster.down_mask == 0
        assert tiny_cluster.free_mask == tiny_cluster.all_mask

    def test_busy_node_cannot_go_down(self, tiny_cluster):
        tiny_cluster.allocate_nodes(1, 0b0001, local_grant=0)
        self._rejects(tiny_cluster, tiny_cluster.take_down, 0)

    def test_failed_allocation_rolls_back(self, tiny_cluster):
        """Free ids ahead of a taken one in the request: nothing moves."""
        tiny_cluster.allocate_nodes(1, 0b1000, local_grant=0)
        tiny_cluster.take_down(2)
        self._rejects(tiny_cluster, tiny_cluster.allocate_nodes, 2, 0b1011, 0)
        self._rejects(tiny_cluster, tiny_cluster.allocate_nodes, 2, 0b0111, 0)

    @pytest.mark.parametrize("node_id", [-1, 4])
    def test_out_of_range_ids_rejected(self, tiny_cluster, node_id):
        """A negative id must not wrap to the last node, nor a large one
        escape as ``IndexError``; a mask reaching past the last node or
        a negative mask is refused the same way."""
        self._rejects(tiny_cluster, tiny_cluster.checked_mask, [0, node_id])
        self._rejects(tiny_cluster, tiny_cluster.take_down, node_id)
        self._rejects(tiny_cluster, tiny_cluster.bring_up, node_id)
        self._rejects(tiny_cluster, tiny_cluster.allocate_nodes, 1, 1 << 4 | 1, 0)
        self._rejects(tiny_cluster, tiny_cluster.allocate_nodes, 1, -1, 0)

    @pytest.mark.parametrize("node_id", [1.5, "3", True, None])
    def test_non_integer_ids_rejected(self, tiny_cluster, node_id):
        """Only a plain ``int`` is a node id: a bool is not node 1."""
        self._rejects(tiny_cluster, tiny_cluster.checked_mask, [0, node_id])
        self._rejects(tiny_cluster, tiny_cluster.take_down, node_id)
        self._rejects(tiny_cluster, tiny_cluster.bring_up, node_id)


class TestMemoryPool:
    def test_allocate_release(self):
        pool = MemoryPool("p", 100)
        pool.allocate(1, 40)
        assert pool.used == 40
        assert pool.free == 60
        assert pool.grant_of(1) == 40
        freed = pool.release(1)
        assert freed == 40
        assert pool.used == 0

    def test_additive_grants(self):
        pool = MemoryPool("p", 100)
        pool.allocate(1, 30)
        pool.allocate(1, 20)
        assert pool.grant_of(1) == 50
        assert pool.release(1) == 50

    def test_over_capacity_rejected(self):
        pool = MemoryPool("p", 100)
        pool.allocate(1, 80)
        with pytest.raises(AllocationError):
            pool.allocate(2, 30)
        assert pool.grant_of(2) == 0  # failed alloc left no residue

    def test_zero_allocation_is_noop(self):
        pool = MemoryPool("p", 100)
        pool.allocate(1, 0)
        assert pool.active_jobs == 0
        with pytest.raises(AllocationError):
            pool.release(1)

    def test_release_unknown_job_rejected(self):
        pool = MemoryPool("p", 100)
        with pytest.raises(AllocationError):
            pool.release(99)

    def test_release_if_held(self):
        pool = MemoryPool("p", 100)
        assert pool.release_if_held(1) == 0
        pool.allocate(1, 10)
        assert pool.release_if_held(1) == 10

    def test_negative_allocation_rejected(self):
        pool = MemoryPool("p", 100)
        with pytest.raises(AllocationError):
            pool.allocate(1, -5)

    def test_utilization(self):
        pool = MemoryPool("p", 200)
        pool.allocate(1, 50)
        assert pool.utilization == 0.25
        assert MemoryPool("empty", 0).utilization == 0.0

    @given(
        st.lists(
            st.tuples(st.integers(1, 20), st.integers(0, 30)),
            max_size=50,
        )
    )
    def test_property_conservation(self, ops):
        """Random grant/release interleavings never corrupt accounting."""
        pool = MemoryPool("p", 1000)
        held: dict[int, int] = {}
        for job_id, amount in ops:
            if job_id in held:
                freed = pool.release(job_id)
                assert freed == held.pop(job_id)
            else:
                if amount <= pool.free and amount > 0:
                    pool.allocate(job_id, amount)
                    held[job_id] = amount
            assert pool.used == sum(held.values())
            assert 0 <= pool.used <= pool.capacity


class TestCluster:
    def test_construction_shapes(self, pooled_cluster):
        assert pooled_cluster.num_nodes == 8
        assert pooled_cluster.num_racks == 2
        assert pooled_cluster.rack(0).num_nodes == 4
        assert pooled_cluster.global_pool is not None
        assert all(rack.pool is not None for rack in pooled_cluster.racks)
        assert len(pooled_cluster.all_pools()) == 3

    def test_uneven_last_rack(self):
        spec = ClusterSpec(num_nodes=10, nodes_per_rack=4)
        cluster = Cluster(spec)
        assert [rack.num_nodes for rack in cluster.racks] == [4, 4, 2]
        # Node ids map to the right racks.
        assert cluster.node(9).rack_id == 2

    def test_allocate_release_nodes(self, tiny_cluster):
        tiny_cluster.allocate_nodes(1, 0b0101, local_grant=8 * GiB)
        assert tiny_cluster.free_node_count == 2
        assert ids_of(tiny_cluster.free_mask) == [1, 3]
        tiny_cluster.release_nodes(1)
        assert tiny_cluster.free_node_count == 4

    def test_allocate_nodes_atomic_on_failure(self, tiny_cluster):
        tiny_cluster.allocate_nodes(1, 0b0100, local_grant=0)
        with pytest.raises(AllocationError):
            tiny_cluster.allocate_nodes(2, 0b0111, local_grant=0)
        # Nodes 0 and 1 must have been rolled back.
        assert ids_of(tiny_cluster.free_mask) == [0, 1, 3]
        assert tiny_cluster.free_node_count == 3

    def test_free_ids_deterministic_order(self, tiny_cluster):
        tiny_cluster.allocate_nodes(1, 0b1010, local_grant=0)
        assert ids_of(tiny_cluster.free_mask) == [0, 2]

    def test_allocate_pool_atomic(self, pooled_cluster):
        # rack0 pool has 64 GiB; ask rack0=50 and global=more than free.
        pooled_cluster.global_pool.allocate(99, 120 * GiB)
        with pytest.raises(AllocationError):
            pooled_cluster.allocate_pool(
                1, {"rack0": 50 * GiB, "global": 20 * GiB}
            )
        assert pooled_cluster.rack(0).pool.grant_of(1) == 0

    def test_release_pool_returns_total(self, pooled_cluster):
        pooled_cluster.allocate_pool(1, {"rack0": 10 * GiB, "global": 5 * GiB})
        freed = pooled_cluster.release_pool(1)
        assert freed == 15 * GiB
        assert pooled_cluster.total_pool_used == 0

    def test_pool_by_id_unknown_raises(self, pooled_cluster):
        with pytest.raises(KeyError):
            pooled_cluster.pool_by_id("rack99")

    def test_snapshot(self, pooled_cluster):
        pooled_cluster.allocate_nodes(1, 0b0011, local_grant=4 * GiB)
        pooled_cluster.allocate_pool(1, {"rack0": 8 * GiB})
        snap = pooled_cluster.snapshot()
        assert snap["free_nodes"] == 6
        assert snap["busy_nodes"] == 2
        assert snap["local_mem_granted"] == 8 * GiB
        assert snap["pool_used"] == 8 * GiB

    def test_rack_slices_cover_racks(self):
        cluster = Cluster(ClusterSpec(num_nodes=10, nodes_per_rack=4))
        for rack, (lo, width) in zip(cluster.racks, cluster.rack_slices):
            ids = [node.node_id for node in rack.nodes]
            assert lo == ids[0]
            assert width == (1 << len(ids)) - 1

    @given(
        num_nodes=st.integers(1, 80),
        seed=st.integers(0, 2**32 - 1),
        steps=st.integers(1, 60),
    )
    def test_free_indexes_match_recount(self, num_nodes, seed, steps):
        """``free_mask``, ``down_mask`` and the ownership map are kept
        incrementally; after every mutation — including a failing
        allocation that rolls back — they partition the node ids and
        equal a recount from the test's own model."""
        rng = random.Random(seed)
        cluster = Cluster(ClusterSpec(num_nodes=num_nodes, nodes_per_rack=7))
        running = {}  # job id -> (ids, per-node local grant)
        down = set()
        next_job = 1

        def model_free():
            held = {i for ids, _ in running.values() for i in ids}
            return [i for i in range(num_nodes) if i not in held and i not in down]

        def check():
            free = model_free()
            held_masks = [mask for mask, _ in cluster.held.values()]
            union = 0
            for mask in [cluster.free_mask, cluster.down_mask, *held_masks]:
                assert union & mask == 0
                union |= mask
            assert union == cluster.all_mask
            assert cluster.free_mask == sum(1 << node_id for node_id in free)
            assert cluster.down_mask == sum(1 << node_id for node_id in down)
            assert cluster.held == {
                job_id: (sum(1 << i for i in ids), grant)
                for job_id, (ids, grant) in running.items()
            }
            assert cluster.free_node_count == len(free)
            snap = cluster.snapshot()
            assert snap["free_nodes"] == len(free)
            assert snap["busy_nodes"] == sum(len(ids) for ids, _ in running.values())
            assert snap["local_mem_granted"] == sum(
                len(ids) * grant for ids, grant in running.values()
            )

        check()
        for _ in range(steps):
            free = model_free()
            op = rng.choice(("allocate", "release", "down", "up", "fail"))
            if op == "allocate" and free:
                ids = rng.sample(free, rng.randint(1, len(free)))
                grant = rng.choice((0, GiB, cluster.spec.node.local_mem))
                cluster.allocate_nodes(next_job, mask_of(ids), local_grant=grant)
                running[next_job] = (ids, grant)
                next_job += 1
            elif op == "release" and running:
                job_id = rng.choice(sorted(running))
                ids, _ = running.pop(job_id)
                assert cluster.release_nodes(job_id) == mask_of(ids)
            elif op == "down" and free:
                node_id = rng.choice(free)
                cluster.take_down(node_id)
                down.add(node_id)
            elif op == "up" and down:
                node_id = rng.choice(sorted(down))
                cluster.bring_up(node_id)
                down.discard(node_id)
            elif op == "fail" and len(free) < num_nodes:
                taken = [i for i in range(num_nodes) if i not in set(free)]
                ids = rng.sample(free, rng.randint(0, len(free)))
                ids.insert(rng.randint(0, len(ids)), rng.choice(taken))
                with pytest.raises(AllocationError):
                    cluster.allocate_nodes(next_job, mask_of(ids), local_grant=0)
            check()
