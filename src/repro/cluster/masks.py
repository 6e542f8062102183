"""Node sets as ``int`` bitmasks: bit *i* set for node *i*.

Cluster node ids are dense ``0..N-1``, so one Python ``int`` holds any
node set: union, intersection and difference are single big-int
operations, and ``int.bit_count`` counts a set without decoding it.
The cluster keeps node availability this way (:attr:`Cluster.free_mask
<repro.cluster.cluster.Cluster.free_mask>`, ``down_mask`` and each job's
held mask), the sweep cursor keeps its states this way, and placement
policies select from masks.  Decoding back to ascending id lists
happens only where a concrete placement or a listing is produced.
"""

from __future__ import annotations

from itertools import compress, islice
from typing import Iterable, List

__all__ = ["mask_of", "lowest_ids", "ids_of"]

#: ``bytes.translate`` table turning a binary digit string into 0/1 bytes.
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def mask_of(node_ids: Iterable[int]) -> int:
    """Bitmask of an id collection."""
    mask = 0
    for node_id in node_ids:
        mask |= 1 << node_id
    return mask


def _digits(mask: int) -> bytes:
    """Byte *i* is bit *i* of ``mask`` (0 or 1)."""
    return bin(mask)[:1:-1].encode().translate(_BIT_BYTES)


def lowest_ids(mask: int, count: int) -> List[int]:
    """The ``count`` lowest ids set in ``mask``, ascending; the caller
    guarantees ``mask`` has at least ``count`` bits set.  One C-level
    pass over the binary digits (``compress`` keeps the positions of
    the 1 bytes), cut at the ``count``-th set bit."""
    bits = _digits(mask)
    return list(islice(compress(range(len(bits)), bits), count))


def ids_of(mask: int) -> List[int]:
    """Every id set in ``mask``, ascending."""
    return lowest_ids(mask, mask.bit_count())
