"""The snapshotable cluster-state document (``GET /v1/state``).

One JSON document that fully describes what the service is doing right
now: clock, policy stack, per-node ownership, per-pool occupancy, the
queue, and the running set.  It is computed **on the engine thread**
(like every other op), so it is a consistent cut — no node can appear
both free and owned, and pool occupancy always sums to the running
set's grants.  Dashboards poll it; the load harness snapshots it into
``BENCH_SERVICE.json``; incident write-ups can archive it as the
ground truth of "what the scheduler believed at the time".
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Dict, List, Tuple

from ..cluster.masks import ids_of
from .protocol import PROTOCOL_VERSION

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .core import SchedulerService

__all__ = ["STATE_SCHEMA_VERSION", "build_state_document"]

STATE_SCHEMA_VERSION = 1


def build_state_document(
    service: "SchedulerService", include_jobs: bool = False
) -> Dict[str, Any]:
    """Assemble the state document.  Engine-thread only."""
    engine = service.engine
    cluster = service.cluster
    holders: Dict[int, Tuple[int, int]] = {
        node_id: (job_id, grant)
        for job_id, (mask, grant) in cluster.held.items()
        for node_id in ids_of(mask)
    }
    nodes: List[Dict[str, Any]] = []
    for node in cluster.nodes:
        job_id, grant = holders.get(node.node_id, (None, 0))
        if job_id is not None:
            state = "busy"
        elif cluster.down_mask >> node.node_id & 1:
            state = "down"
        else:
            state = "idle"
        nodes.append({
            "node_id": node.node_id,
            "rack_id": node.rack_id,
            "state": state,
            "job_id": job_id,
            "local_grant_mib": grant,
            "local_mem_mib": node.local_mem,
        })
    pools: List[Dict[str, Any]] = []
    for rack in cluster.racks:
        if rack.pool is not None:
            pools.append(_pool_entry(rack.pool))
    if cluster.global_pool is not None:
        pools.append(_pool_entry(cluster.global_pool))
    queue = [
        {
            "job_id": job.job_id,
            "submit_time": job.submit_time,
            "nodes": job.nodes,
            "mem_per_node": job.mem_per_node,
            "user": job.user,
        }
        for job in engine._queue
    ]
    running = [
        {
            "job_id": job.job_id,
            "start_time": job.start_time,
            "nodes": sorted(job.assigned_nodes),
            "remote_per_node": job.remote_per_node,
            "pool_grants": dict(sorted(job.pool_grants.items())),
            "dilation": job.dilation,
        }
        for job in engine._running
    ]
    document: Dict[str, Any] = {
        "schema": STATE_SCHEMA_VERSION,
        "protocol": PROTOCOL_VERSION,
        "service": {
            "mode": service.config.mode,
            "now": engine.now,
            "cycles": engine.cycles,
            "started_wall": service._started_wall,
            "uptime_s": round(time.monotonic() - service._started_mono, 3),
            "counters": service.counters.to_dict(),
        },
        "scheduler": service.scheduler.describe(),
        "cluster": {
            "name": cluster.spec.name,
            "num_nodes": cluster.num_nodes,
            "num_racks": cluster.num_racks,
            "totals": cluster.snapshot(),
            "nodes": nodes,
            "pools": pools,
        },
        "queue": queue,
        "running": running,
    }
    if include_jobs:
        document["jobs"] = [
            service._record(job.job_id) for job in engine.jobs
        ]
    return document


def _pool_entry(pool: Any) -> Dict[str, Any]:
    return {
        "pool_id": pool.pool_id,
        "capacity_mib": pool.capacity,
        "used_mib": pool.used,
        "free_mib": pool.free,
        "utilization": round(pool.utilization, 6),
    }
