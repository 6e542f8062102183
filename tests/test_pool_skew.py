"""Pool-skewed conservative workloads: golden digests plus the oracle.

Entries whose reservation scans hit the pool wall replay through the
bounded probe or a full rescan like every other cached entry, but
their verdicts hinge on pool capacity rather than node counts.  This
suite drives exactly that regime and pins its schedules.

The workload mixes:

* long remote-heavy jobs that hold most of the (metered) global pool
  and queue behind each other — their reservation scans reject early
  breakpoints on pool capacity;
* node-only filler jobs whose realized runtime is a few percent of the
  requested walltime — every completion fold blows the probe's time
  cap far past the cached starts while releasing *no* pool capacity.

The pool is metered (finite bandwidth) on purpose: duration estimates
of remote jobs are pressure-dependent, and node-only folds leave pool
usage — hence pressure, hence the estimates — bit-identical, so the
cached durations revalidate and the replay path is exercised.

Every schedule must match its golden digest in
``tests/golden/pool_skew.json`` and deep-audit clean
(:func:`repro.audit.deep_audit`, the invariant oracle).
"""

from __future__ import annotations

import random
import zlib

import pytest

from repro.audit import deep_audit
from repro.cluster import Cluster, ClusterSpec, NodeSpec, PoolSpec
from repro.engine.simulation import SchedulerSimulation
from repro.sched.base import build_scheduler
from repro.units import GiB, HOUR
from repro.workload import Job

from ._golden import assert_matches_golden

GOLDEN = "pool_skew"


def _spec() -> ClusterSpec:
    # 16 thin nodes, one metered global pool barely big enough for two
    # remote-heavy jobs at once: queued remote jobs see breakpoints
    # where nodes are free but the pool is not.
    return ClusterSpec(
        name="pool-skew", num_nodes=16, nodes_per_rack=8,
        node=NodeSpec(cores=8, local_mem=16 * GiB),
        pool=PoolSpec(global_pool=96 * GiB, global_bandwidth=64 * 1024.0),
    )


def _pool_skew_jobs(rng: random.Random, num_jobs: int = 48,
                    skew: float = 0.04, remote_fraction: float = 0.4):
    """Remote-heavy long jobs contending for the pool, interleaved
    with walltime-padded node-only fillers whose early completions
    fold without returning any pool capacity."""
    jobs = []
    t = 0.0
    for job_id in range(1, num_jobs + 1):
        t += rng.expovariate(1.0 / 200.0)
        if rng.random() < remote_fraction:
            # Remote-heavy: 8-16 GiB/node above the 16 GiB local DRAM.
            walltime = rng.uniform(4 * HOUR, 10 * HOUR)
            jobs.append(Job(
                job_id=job_id,
                submit_time=round(t, 3),
                nodes=rng.randint(4, 8),
                walltime=walltime,
                runtime=walltime * rng.uniform(0.7, 0.95),
                mem_per_node=rng.choice((24, 28, 32)) * GiB,
                user=f"user{rng.randint(0, 3)}",
            ))
        else:
            # Node-only filler, heavily walltime-padded: folds blow
            # the time cap while releasing zero pool MiB.
            walltime = rng.uniform(2 * HOUR, 8 * HOUR)
            jobs.append(Job(
                job_id=job_id,
                submit_time=round(t, 3),
                nodes=rng.randint(1, 4),
                walltime=walltime,
                runtime=max(60.0, walltime * rng.uniform(skew * 0.5,
                                                         skew * 1.5)),
                mem_per_node=rng.choice((4, 8, 12)) * GiB,
                user=f"user{rng.randint(0, 3)}",
            ))
    return jobs


def _rng(token: str) -> random.Random:
    return random.Random(zlib.crc32(token.encode()))


def _run_pool_skew(token: str, spec_fn=_spec, penalty=None, **kwargs):
    """Run the optimized stack; pin its digest and deep-audit it."""
    jobs = _pool_skew_jobs(_rng(token), **kwargs)
    penalty = penalty or {"kind": "contention", "beta": 0.3, "kappa": 2.0}
    sched = build_scheduler(backfill="conservative", penalty=penalty)
    result = SchedulerSimulation(
        Cluster(spec_fn()), sched, [j.copy_request() for j in jobs]
    ).run()
    assert_matches_golden(GOLDEN, token, result)
    report = deep_audit(result)
    assert report.ok, report


def golden_cases():
    """Every case in this suite, for tools/gen_golden.py."""

    def case(token, spec_fn, penalty, **jobs_kwargs):
        jobs = _pool_skew_jobs(_rng(token), **jobs_kwargs)

        def run():
            sched = build_scheduler(backfill="conservative", penalty=penalty)
            return SchedulerSimulation(
                Cluster(spec_fn()), sched, [j.copy_request() for j in jobs]
            ).run()

        return token, run

    contention = {"kind": "contention", "beta": 0.3, "kappa": 2.0}
    for seed in range(10):
        yield case(f"pool-skew-{seed}", _spec, contention)
    for seed in range(4):
        yield case(f"pool-skew-dense-{seed}", _spec, contention,
                   remote_fraction=0.6)
    for seed in range(6):
        yield case(f"pool-skew-fire-{seed}", _spec, contention)
    yield case("pool-skew-rack", _rack_spec, {"kind": "linear", "beta": 0.3})


def _rack_spec() -> ClusterSpec:
    return ClusterSpec(
        name="pool-skew-rack", num_nodes=16, nodes_per_rack=8,
        node=NodeSpec(cores=8, local_mem=16 * GiB),
        pool=PoolSpec(rack_pool=48 * GiB),
    )


class TestPoolSkew:
    @pytest.mark.parametrize("seed", range(10))
    def test_pool_skewed_workloads_match_golden(self, seed):
        """Metered pool contention + node-only early finishers: the
        replay must be decision-invisible while the fold horizon sits
        far past every cached start."""
        _run_pool_skew(f"pool-skew-{seed}")

    @pytest.mark.parametrize("seed", range(4))
    def test_dense_remote_matches_golden(self, seed):
        """Heavier remote share: more pool-capacity rejections in the
        reservation scans the replay must reproduce."""
        _run_pool_skew(f"pool-skew-dense-{seed}", remote_fraction=0.6)

    @pytest.mark.parametrize("seed", range(6))
    def test_early_finish_skew_matches_golden(self, seed):
        """Node-only early finishers folding under pool-rejecting
        entries: the replay must stay decision-invisible."""
        _run_pool_skew(f"pool-skew-fire-{seed}")

    def test_rack_pools_match_golden(self):
        """Rack pools make the allocator's verdict depend on placement
        identity; the same workload must still match its golden."""
        _run_pool_skew(
            "pool-skew-rack", spec_fn=_rack_spec,
            penalty={"kind": "linear", "beta": 0.3},
        )
