"""Node ids are decoded once per started job.

Placement returns the chosen nodes as a mask, and that mask travels
through EASY's shadow scans and trials, conservative reservations,
start decisions and the cluster.  The one decode on the scheduling path
is :func:`repro.engine.lifecycle.start_job` writing ``assigned_nodes``.
This guard counts every call of the decoder
(:func:`repro.cluster.masks.ids_of`, patched in every module that binds
it) over whole simulations and requires decodes == starts: a decode
inside ``select``, a trial or ``_window_accept`` would add one per
rejected candidate or blocked-head scan.
"""

from __future__ import annotations

import sys

import pytest

from repro.cluster import Cluster, ClusterSpec, NodeSpec, PoolSpec
from repro.cluster import masks
from repro.engine.simulation import SchedulerSimulation
from repro.sched import build_scheduler
from repro.sched.profile import SweepCursor
from repro.units import GiB

from .conftest import make_job


def _cluster() -> Cluster:
    return Cluster(
        ClusterSpec(
            name="decode",
            num_nodes=32,
            nodes_per_rack=8,
            node=NodeSpec(cores=8, local_mem=16 * GiB),
            pool=PoolSpec(global_pool=256 * GiB),
        )
    )


def _count_decodes(monkeypatch) -> list:
    calls = [0]
    decode = masks.ids_of

    def counting(mask):
        calls[0] += 1
        return decode(mask)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "ids_of", None) is decode:
            monkeypatch.setattr(module, "ids_of", counting)
    return calls


def _count_scans(monkeypatch) -> dict:
    """Blocked-head shadow scans (no trial) and rejected EASY trials."""
    seen = {"shadow": 0, "rejected_trial": 0}
    scan = SweepCursor.earliest_start

    def counting(self, *args, **kwargs):
        result = scan(self, *args, **kwargs)
        if kwargs.get("trial") is None:
            seen["shadow"] += 1
        elif result is None:
            seen["rejected_trial"] += 1
        return result

    monkeypatch.setattr(SweepCursor, "earliest_start", counting)
    return seen


def _easy_jobs():
    """A wide head blocked behind a running job, long candidates that
    fit now but would delay it (rejected trials), and short ones that
    backfill; some draw pool memory."""
    jobs = [make_job(job_id=1, nodes=20, walltime=1000.0, runtime=900.0)]
    jobs.append(make_job(job_id=2, submit=1.0, nodes=32, walltime=800.0, runtime=700.0))
    job_id = 3
    for k in range(8):
        jobs.append(
            make_job(job_id=job_id, submit=2.0 + k, nodes=2 + k % 3,
                     walltime=5000.0, runtime=4000.0,
                     mem=(24 if k % 2 else 8) * GiB)
        )
        job_id += 1
    for k in range(12):
        jobs.append(
            make_job(job_id=job_id, submit=10.0 + 20.0 * k, nodes=1 + k % 4,
                     walltime=300.0, runtime=200.0)
        )
        job_id += 1
    return jobs


def _conservative_jobs():
    return [
        make_job(job_id=i, submit=5.0 * i, nodes=1 + (7 * i) % 20,
                 walltime=600.0 + 97.0 * (i % 9), runtime=400.0 + 50.0 * (i % 7),
                 mem=(20 if i % 3 == 0 else 8) * GiB)
        for i in range(1, 41)
    ]


@pytest.mark.parametrize(
    "backfill, jobs", [("easy", _easy_jobs), ("conservative", _conservative_jobs)]
)
def test_decodes_equal_starts(monkeypatch, backfill, jobs):
    scans = _count_scans(monkeypatch)
    decodes = _count_decodes(monkeypatch)
    sim = SchedulerSimulation(_cluster(), build_scheduler(backfill=backfill), jobs())
    result = sim.run()
    starts = sum(1 for job in result.jobs if job.start_time is not None)
    assert starts == len(result.jobs)
    assert decodes[0] == starts
    if backfill == "easy":
        assert scans["shadow"] > 0
        assert scans["rejected_trial"] > 0
