"""Node sets as ``int`` bitmasks: bit *i* set for node *i*.

Cluster node ids are dense ``0..N-1``, so one Python ``int`` holds any
node set: union, intersection and difference are single big-int
operations, and ``int.bit_count`` counts a set without decoding it.
The cluster keeps node availability this way (:attr:`Cluster.free_mask
<repro.cluster.cluster.Cluster.free_mask>`, ``down_mask`` and each job's
held mask), the sweep cursor keeps its states this way, and placement
policies select from masks and return the chosen nodes as a mask
(:func:`lowest_mask`, :class:`OrderedMask`).  That mask travels through
reservations, start decisions and the cluster unchanged; ids are
decoded (:func:`ids_of`) once per started job, in
:func:`repro.engine.lifecycle.start_job`, and on demand for listings
and reports.  Ids become a mask (:func:`mask_of`) where they enter from
outside: snapshot restore, schedule replay and failure injection.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable, List, Sequence, Tuple

__all__ = ["mask_of", "lowest_mask", "OrderedMask", "chunks_of", "ids_of"]

#: ``bytes.translate`` table turning a binary digit string into 0/1 bytes.
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def mask_of(node_ids: Iterable[int]) -> int:
    """Bitmask of an id collection."""
    mask = 0
    for node_id in node_ids:
        mask |= 1 << node_id
    return mask


def lowest_mask(mask: int, count: int) -> int:
    """The ``count`` lowest set bits of ``mask``; the caller guarantees
    ``mask`` has at least ``count`` bits set.

    A binary search for the narrowest cut width that keeps ``count``
    bits below it: the bits at or above width *w* number
    ``(mask >> w).bit_count()``, so each probe is one shift and one
    popcount, and nothing is decoded."""
    above = mask.bit_count() - count  # set bits allowed above the cut
    lo, hi = count, mask.bit_length()
    while lo < hi:
        mid = (lo + hi) >> 1
        if (mask >> mid).bit_count() <= above:
            hi = mid
        else:
            lo = mid + 1
    return mask & ((1 << lo) - 1)


class OrderedMask(int):
    """A node mask that keeps a placement's id order.

    Rack-aware placement picks nodes rack by rack (or round by round),
    so its ids are not ascending.  The mask is the OR of its disjoint
    ``chunks``, and :func:`ids_of` lists each chunk's ids ascending,
    chunk after chunk.  Everything else sees a plain ``int``: equality,
    hashing and mask arithmetic (whose results are plain ints) ignore
    the order.
    """

    chunks: Tuple[int, ...]

    def __new__(cls, chunks: Sequence[int]) -> "OrderedMask":
        mask = 0
        for chunk in chunks:
            mask |= chunk
        self = super().__new__(cls, mask)
        self.chunks = tuple(chunks)
        return self

    def __reduce__(self):
        return OrderedMask, (self.chunks,)


def chunks_of(mask: int) -> Tuple[int, ...]:
    """The ascending-ordered pieces of ``mask`` in placement order: an
    :class:`OrderedMask`'s chunks, else the mask itself."""
    return mask.chunks if type(mask) is OrderedMask else (mask,)


def _ascending(mask: int) -> List[int]:
    """Every id set in ``mask``, ascending: one C-level pass over the
    binary digits (``compress`` keeps the positions of the 1 bytes)."""
    bits = bin(mask)[:1:-1].encode().translate(_BIT_BYTES)
    return list(compress(range(len(bits)), bits))


def ids_of(mask: int) -> List[int]:
    """Every id set in ``mask``: ascending, or in placement order for an
    :class:`OrderedMask`.  The one decoder of node masks."""
    if type(mask) is OrderedMask:
        return [node_id for chunk in mask.chunks for node_id in _ascending(chunk)]
    return _ascending(mask)
