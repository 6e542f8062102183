"""Compute-node capacity records."""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["Node"]


class Node(NamedTuple):
    """One exclusively scheduled compute node: its static capacity.

    A node never changes after the cluster is built.  Whether it is
    idle, held by a job (and with what local-memory grant) or down is
    availability, which the :class:`~repro.cluster.cluster.Cluster`
    keeps for all nodes at once as node masks.
    """

    node_id: int
    rack_id: int
    cores: int
    local_mem: int  # capacity, MiB
