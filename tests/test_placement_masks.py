"""Bitmask placement against the set-based reference bodies.

Placement policies select from an ``int`` node mask and return the
chosen nodes as a mask.  The golden digests all run ``first_fit``, and
``OracleProfile`` calls the production placement, so neither pins the
rack-aware policies.  This suite compares every policy's ``select``
with its reference body in ``tests/_oracles.py`` (the implementation
from when placement consumed and returned id collections) on random
free sets over random rack layouts, every count from 0 to one past the
free count (sampled on wide sets), and ``min_remote`` with and without
a pool hint: the returned mask must be the reference's node set, and
its decode the reference's id list in order (``rack_pack``,
``min_remote`` and ``spread`` are not ascending).  ``lowest_mask``, the
first-fit cut, is checked against a bit-by-bit oracle.
"""

from __future__ import annotations

import copy
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import Cluster, ClusterSpec, NodeSpec, PoolSpec
from repro.cluster.masks import OrderedMask, ids_of, lowest_mask
from repro.sched.placement import placement_for
from repro.units import GiB

from ._oracles import REFERENCE_SELECT, lowest_bits, nodes_mask

POLICIES = sorted(REFERENCE_SELECT)


def _cluster(num_nodes: int, per_rack: int, rng: random.Random) -> Cluster:
    """A machine with rack pools partly drawn down, so ``min_remote``'s
    live-state fallback sees unequal (and tied) pool levels."""
    cluster = Cluster(
        ClusterSpec(
            name="masks",
            num_nodes=num_nodes,
            nodes_per_rack=per_rack,
            node=NodeSpec(cores=8, local_mem=16 * GiB),
            pool=PoolSpec(rack_pool=8 * GiB, global_pool=16 * GiB),
        )
    )
    for rack in cluster.racks:
        rack.pool.allocate(1, rng.choice((0, 0, 2, 4, 8)) * GiB)
    return cluster


def _hint(cluster: Cluster, rng: random.Random):
    """A pool hint that omits some rack pools (live-state fallback)
    and repeats levels (rack-id and free-count tie breaks)."""
    return {
        rack.pool.pool_id: rng.choice((0, 1, 3)) * GiB
        for rack in cluster.racks
        if rng.random() < 0.7
    }


def _counts(free_count: int, rng: random.Random):
    """Every count from 0 to one past the free count; on a wide free
    set, the small counts, the top three and a random sample between."""
    if free_count <= 64:
        return range(free_count + 2)
    top = range(free_count - 1, free_count + 2)
    return sorted({*range(10), *top, *rng.sample(range(free_count + 2), 20)})


def _compare(cluster, free_ids, rng, masks):
    """Every policy and count, each offered mask, against the
    reference on the same free set."""
    free = frozenset(free_ids)
    hints = [None, _hint(cluster, rng)]
    for name in POLICIES:
        policy = placement_for(name)
        reference = REFERENCE_SELECT[name]
        for count in _counts(len(free), rng):
            remote = rng.choice((0, GiB))
            for hint in hints if name == "min_remote" else [None]:
                want = reference(cluster, free, count, remote, hint)
                for mask in masks:
                    got = policy.select(cluster, mask, count, remote, hint)
                    if want is None:
                        assert got is None, (name, count, hint)
                        continue
                    assert got == nodes_mask(want), (name, count, hint)
                    assert ids_of(got) == want, (name, count, hint)


@st.composite
def _busy_masks(draw):
    """Masks of up to ~1,100 bits shaped like a busy first-fit machine:
    a few scattered free ids low down, a solid free run on top."""
    width = draw(st.integers(0, 1100))
    scattered = draw(st.sets(st.integers(0, max(width - 1, 0)), max_size=40))
    top = draw(st.integers(0, width))
    return nodes_mask(scattered) | ((1 << width) - 1) >> top << top


@settings(max_examples=300, deadline=None)
@given(
    mask=st.one_of(st.integers(0, (1 << 1100) - 1), _busy_masks()),
    data=st.data(),
)
def test_lowest_mask_matches_bit_peeling(mask, data):
    """The binary-search cut equals peeling bits from bit 0, at every
    count from 0 to the popcount."""
    count = data.draw(st.integers(0, mask.bit_count()))
    assert lowest_mask(mask, count) == lowest_bits(mask, count)


@settings(max_examples=200, deadline=None)
@given(ids=st.sets(st.integers(0, 2100)), data=st.data())
def test_ids_of_lowest_mask_match_sorted(ids, data):
    """Decoding equals a sort of the id set, at every count."""
    want = sorted(ids)
    count = data.draw(st.integers(0, len(want)))
    assert ids_of(lowest_mask(nodes_mask(want), count)) == want[:count]
    assert ids_of(nodes_mask(want)) == want


@settings(max_examples=40, deadline=None)
@given(
    num_nodes=st.one_of(st.just(1024), st.integers(1, 200)),
    per_rack=st.integers(1, 70),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_select_matches_reference(num_nodes, per_rack, density, seed):
    rng = random.Random(seed)
    cluster = _cluster(num_nodes, per_rack, rng)
    free_ids = [i for i in range(num_nodes) if rng.random() < density]
    _compare(cluster, free_ids, rng, [nodes_mask(free_ids)])


@pytest.mark.parametrize("num_nodes, per_rack", [(1024, 48), (1024, 16), (13, 5)])
def test_live_free_mask_matches_reference(num_nodes, per_rack):
    """The cluster's own ``free_mask`` object and an equal mask built
    elsewhere select alike, on an uneven last rack too."""
    rng = random.Random(num_nodes * per_rack)
    cluster = _cluster(num_nodes, per_rack, rng)
    busy = rng.sample(range(num_nodes), num_nodes - min(40, num_nodes // 2))
    cluster.allocate_nodes(7, nodes_mask(busy), local_grant=0)
    free_ids = sorted(set(range(num_nodes)) - set(busy))
    assert ids_of(cluster.free_mask) == free_ids
    _compare(cluster, free_ids, rng, [cluster.free_mask, nodes_mask(free_ids)])


def test_empty_free_set():
    """No free node at all: count 0 keeps each policy's reference
    answer (the rack policies find no rack to fill)."""
    rng = random.Random(0)
    cluster = _cluster(8, 3, rng)
    _compare(cluster, [], rng, [0])


def test_ordered_mask_is_its_plain_mask():
    """An ``OrderedMask`` compares, hashes and combines as its plain
    mask, decodes chunk by chunk, and keeps its order through pickle
    and copy; arithmetic on it yields plain ints."""
    ordered = OrderedMask([nodes_mask([5, 6]), nodes_mask([0, 2])])
    plain = nodes_mask([0, 2, 5, 6])
    assert ordered == plain and hash(ordered) == hash(plain)
    assert ids_of(ordered) == [5, 6, 0, 2]
    assert ids_of(plain) == [0, 2, 5, 6]
    for twin in (pickle.loads(pickle.dumps(ordered)), copy.deepcopy(ordered)):
        assert type(twin) is OrderedMask and ids_of(twin) == [5, 6, 0, 2]
    assert type(ordered & plain) is int and type(ordered | 0) is int
