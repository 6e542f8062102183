"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.cluster import ClusterSpec, Cluster, NodeSpec, PoolSpec
from repro.units import GiB
from repro.workload import Job

#: ``--hypothesis-profile=ci`` runs the stateful service model
#: (tests/test_service_model.py) at a budget too large for tier-1.
settings.register_profile("ci", max_examples=200, deadline=None)


def make_job(
    job_id: int = 1,
    submit: float = 0.0,
    nodes: int = 1,
    walltime: float = 3600.0,
    runtime: float = 1800.0,
    mem: int = 4 * GiB,
    mem_used: int | None = None,
    **kwargs,
) -> Job:
    """Concise job constructor used throughout the tests."""
    return Job(
        job_id=job_id,
        submit_time=submit,
        nodes=nodes,
        walltime=walltime,
        runtime=runtime,
        mem_per_node=mem,
        mem_used_per_node=mem if mem_used is None else mem_used,
        **kwargs,
    )


@pytest.fixture
def tiny_cluster() -> Cluster:
    """4 nodes, 2 racks, no pools, 16 GiB local each."""
    spec = ClusterSpec(
        name="tiny",
        num_nodes=4,
        nodes_per_rack=2,
        node=NodeSpec(cores=8, local_mem=16 * GiB),
        pool=PoolSpec(),
    )
    return Cluster(spec)


@pytest.fixture
def pooled_cluster() -> Cluster:
    """8 nodes, 2 racks, rack pools of 64 GiB and a 128 GiB global pool."""
    spec = ClusterSpec(
        name="pooled",
        num_nodes=8,
        nodes_per_rack=4,
        node=NodeSpec(cores=8, local_mem=16 * GiB),
        pool=PoolSpec(rack_pool=64 * GiB, global_pool=128 * GiB),
    )
    return Cluster(spec)
