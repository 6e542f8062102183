"""Golden suite for the conservative plan cache under early-finish skew.

The early-finish skew regime — realized runtime far below the walltime
request — is where the reservation plan cache's *time* horizon breaks
down: every completion fold removes a release whose estimated end sits
far in the future, the probe cap balloons past every cached
reservation start, and most standing entries fall back to a full scan
each pass.  That is exactly where a replay shortcut would be most
tempting and most dangerous, so the suite pins the regime by golden
digests alone: every case's decisions must match
``tests/golden/plan_cache_skew.json`` (baselined from runs verified
against the pre-index reference pass).  Which replay door served an
entry is deliberately not asserted — any door is pure acceleration and
may only be judged by the decisions it leaves behind.
"""

from __future__ import annotations

import random
import zlib

import pytest

from repro.cluster import Cluster, ClusterSpec, NodeSpec, PoolSpec
from repro.engine.simulation import SchedulerSimulation
from repro.sched.base import build_scheduler
from repro.units import GiB, HOUR
from repro.workload import Job

from ._golden import assert_matches_golden

GOLDEN = "plan_cache_skew"


def _spec() -> ClusterSpec:
    return ClusterSpec(
        name="skew", num_nodes=16, nodes_per_rack=8,
        node=NodeSpec(cores=8, local_mem=16 * GiB),
        pool=PoolSpec(global_pool=128 * GiB),
    )


def _skewed_jobs(rng: random.Random, num_jobs: int = 40,
                 skew: float = 0.05, wide_fraction: float = 0.3):
    """Walltime-padded jobs: realized runtime is ``skew`` of the
    request, so completion folds carry horizons ~20x past the actual
    release times.  A slice of wide jobs keeps deep reservations
    standing (the entries whose replay the bound protects)."""
    jobs = []
    t = 0.0
    for job_id in range(1, num_jobs + 1):
        t += rng.expovariate(1.0 / 250.0)
        walltime = rng.uniform(2 * HOUR, 8 * HOUR)
        wide = rng.random() < wide_fraction
        jobs.append(Job(
            job_id=job_id,
            submit_time=round(t, 3),
            nodes=rng.randint(8, 14) if wide else rng.randint(1, 4),
            walltime=walltime,
            runtime=max(60.0, walltime * rng.uniform(skew * 0.5, skew * 1.5)),
            mem_per_node=rng.choice((4, 8, 16, 24)) * GiB,
            user=f"user{rng.randint(0, 3)}",
        ))
    return jobs


def _rng(token: str) -> random.Random:
    return random.Random(zlib.crc32(token.encode()))


def _run_skew(token: str, **kwargs) -> None:
    """Run the optimized stack and pin its digest."""
    rng = _rng(token)
    jobs = _skewed_jobs(rng, **kwargs)
    sched = build_scheduler(
        backfill="conservative", penalty={"kind": "linear", "beta": 0.3}
    )
    result = SchedulerSimulation(
        Cluster(_spec()), sched, [j.copy_request() for j in jobs]
    ).run()
    assert_matches_golden(GOLDEN, token, result)


def golden_cases():
    """Every case in this suite, for tools/gen_golden.py."""

    def case(token, **jobs_kwargs):
        jobs = _skewed_jobs(_rng(token), **jobs_kwargs)

        def run():
            sched = build_scheduler(
                backfill="conservative",
                penalty={"kind": "linear", "beta": 0.3},
            )
            return SchedulerSimulation(
                Cluster(_spec()), sched, [j.copy_request() for j in jobs]
            ).run()

        return token, run

    for seed in range(12):
        yield case(f"skew-{seed}")
    for seed in range(6):
        yield case(f"skew-extreme-{seed}", skew=0.02)
    for seed in range(6):
        yield case(f"skew-fire-{seed}")


class TestPlanCacheSkew:
    @pytest.mark.parametrize("seed", range(12))
    def test_skewed_workloads_match_golden(self, seed):
        """runtime ≪ walltime: decisions must match the pinned
        baseline exactly while the fold horizon sits far past every
        cached start."""
        _run_skew(f"skew-{seed}")

    @pytest.mark.parametrize("seed", range(6))
    def test_extreme_skew_matches_golden(self, seed):
        """2% realized runtime — essentially every fold pushes the
        time horizon across the whole standing plan."""
        _run_skew(f"skew-extreme-{seed}", skew=0.02)

    @pytest.mark.parametrize("seed", range(6))
    def test_fire_workloads_match_golden(self, seed):
        """Six more default-skew draws (the ``skew-fire`` tokens):
        decisions must match their pinned baseline."""
        _run_skew(f"skew-fire-{seed}")
