"""Differential + unit suite for the pass-transaction engine core.

The engine now applies each scheduling pass as one transaction: the
strategy-visible half of every start is immediate, while the ledger
entries, completion events, queue removal, and cluster-version bump
are batch-committed at pass end.  The historical one-start-at-a-time
path is retained behind ``batch_starts=False`` as the anchor: every
test here runs the same workload through both and requires the results
to be **bit-identical** — schedules, ledger entry sequences, promises,
cycle counts, processed-event counts.

Coverage follows the satellite checklist: fcfs/sjf/fairshare queue
orders, metered-pool start gates (whose ``permit`` consults live
mid-pass state — the part that must *not* be deferred), and
node-failure drains with checkpoint restarts.  A hypothesis layer
fuzzes workload shapes beyond the parametrized grid.

The cluster version batch gets direct unit tests.
"""

from __future__ import annotations

import random
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterSpec, NodeSpec, PoolSpec
from repro.cluster.masks import mask_of
from repro.engine.failures import FailureEvent
from repro.engine.simulation import SchedulerSimulation
from repro.errors import AllocationError
from repro.memdis.ledger import MemoryLedger
from repro.sched.base import PassTransaction, build_scheduler
from repro.units import GiB, HOUR
from repro.workload import Job

# ----------------------------------------------------------------------
# builders (mirroring the conservative differential suite)
# ----------------------------------------------------------------------


def _spec(kind: str) -> ClusterSpec:
    if kind == "thin-global":
        return ClusterSpec(
            name=kind, num_nodes=16, nodes_per_rack=8,
            node=NodeSpec(cores=8, local_mem=16 * GiB),
            pool=PoolSpec(global_pool=128 * GiB),
        )
    if kind == "metered":
        return ClusterSpec(
            name=kind, num_nodes=16, nodes_per_rack=8,
            node=NodeSpec(cores=8, local_mem=16 * GiB),
            pool=PoolSpec(global_pool=128 * GiB, global_bandwidth=64 * 1024.0),
        )
    raise AssertionError(kind)


def _jobs(rng: random.Random, num_jobs: int = 32, quantized: bool = False):
    jobs = []
    t = 0.0
    for job_id in range(1, num_jobs + 1):
        if quantized:
            # Same-instant submissions produce multi-start passes and
            # same-instant completion groups — the batch shapes.
            t += rng.choice((0.0, 0.0, 0.0, 300.0, 600.0))
            walltime = rng.choice((600.0, 1200.0, 1800.0))
        else:
            t += rng.expovariate(1.0 / 350.0)
            walltime = rng.uniform(300.0, 5 * HOUR)
        jobs.append(Job(
            job_id=job_id,
            submit_time=round(t, 3),
            nodes=rng.randint(1, 10),
            walltime=walltime,
            runtime=walltime * rng.uniform(0.2, 1.0),
            mem_per_node=rng.choice((4, 8, 16, 24, 32)) * GiB,
            user=f"user{rng.randint(0, 3)}",
        ))
    return jobs


def _schedule_record(result):
    return [
        (
            job.job_id,
            job.state.value,
            job.start_time,
            job.end_time,
            tuple(job.assigned_nodes),
            tuple(sorted(job.pool_grants.items())),
            job.dilation,
        )
        for job in sorted(result.jobs, key=lambda j: j.job_id)
    ]


def _ledger_record(result):
    return [
        (e.time, e.job_id, e.kind, e.local_total, e.pool_grants)
        for e in result.ledger
    ]


def _run_batch_vs_sequential(spec, jobs, failures=(), **sched_kwargs):
    sched_kwargs.setdefault("penalty", {"kind": "linear", "beta": 0.3})
    results = []
    for batch in (True, False):
        sim = SchedulerSimulation(
            Cluster(spec),
            build_scheduler(**sched_kwargs),
            [job.copy_request() for job in jobs],
            failures=list(failures),
            batch_starts=batch,
        )
        results.append(sim.run())
    batched, sequential = results
    assert _schedule_record(batched) == _schedule_record(sequential)
    assert _ledger_record(batched) == _ledger_record(sequential)
    assert batched.promises == sequential.promises
    assert batched.cycles == sequential.cycles
    assert batched.events == sequential.events
    return batched


def _rng(token: str) -> random.Random:
    return random.Random(zlib.crc32(token.encode()))


# ----------------------------------------------------------------------
# batch-apply ≡ sequential differentials
# ----------------------------------------------------------------------


class TestBatchApplyEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("queue", ["fcfs", "sjf", "fairshare"])
    @pytest.mark.parametrize("backfill", ["easy", "conservative"])
    def test_policies_identical(self, seed, queue, backfill):
        token = f"txn-{seed}-{queue}-{backfill}"
        jobs = _jobs(_rng(token))
        _run_batch_vs_sequential(
            _spec("thin-global"), jobs, queue=queue, backfill=backfill
        )

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("gate", ["pressure", "adaptive"])
    def test_metered_gates_identical(self, seed, gate):
        """Gates consult live mid-pass state (pool pressure, the
        running set); deferring any strategy-visible effect would
        change their vetoes."""
        token = f"txn-gate-{seed}-{gate}"
        jobs = _jobs(_rng(token))
        _run_batch_vs_sequential(
            _spec("metered"), jobs, gate=gate, backfill="easy",
            penalty={"kind": "contention", "beta": 0.3, "kappa": 2.0},
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_quantized_multistart_identical(self, seed):
        """Coarse time grids make single passes start several jobs at
        one instant — the completion-group batch shape."""
        token = f"txn-grid-{seed}"
        jobs = _jobs(_rng(token), quantized=True)
        _run_batch_vs_sequential(
            _spec("thin-global"), jobs, backfill="conservative"
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_failure_drains_identical(self, seed):
        """Node failures cancel committed end events mid-calendar and
        drain nodes; repairs and checkpoint restarts re-enter through
        fresh passes."""
        token = f"txn-fail-{seed}"
        rng = _rng(token)
        jobs = _jobs(rng)
        for job in jobs[::4]:
            job.checkpoint_interval = 600.0
        failures = [
            FailureEvent(
                time=rng.uniform(0.0, 8000.0),
                node_id=rng.randrange(16),
                repair_time=rng.uniform(500.0, 4000.0),
            )
            for _ in range(rng.randint(1, 4))
        ]
        _run_batch_vs_sequential(
            _spec("thin-global"), jobs, backfill="conservative",
            failures=failures,
        )

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        num_jobs=st.integers(4, 24),
        backfill=st.sampled_from(["none", "easy", "conservative"]),
        queue=st.sampled_from(["fcfs", "sjf", "fairshare"]),
        kind=st.sampled_from(["thin-global", "metered"]),
        quantized=st.booleans(),
    )
    def test_hypothesis_identical(self, seed, num_jobs, backfill, queue,
                                  kind, quantized):
        jobs = _jobs(
            random.Random(seed), num_jobs=num_jobs, quantized=quantized
        )
        _run_batch_vs_sequential(
            _spec(kind), jobs, queue=queue, backfill=backfill
        )


# ----------------------------------------------------------------------
# engine/cluster/ledger transaction pieces
# ----------------------------------------------------------------------


class TestTransactionPieces:
    def test_cluster_version_batch_single_bump(self):
        cluster = Cluster(_spec("thin-global"))
        before = cluster.version
        cluster.begin_version_batch()
        cluster.allocate_nodes(1, mask_of([0, 1]), 4 * GiB)
        cluster.allocate_pool(1, {"global": 128})
        cluster.allocate_nodes(2, mask_of([2]), 4 * GiB)
        cluster.end_version_batch()
        assert cluster.version == before + 1
        cluster.release_nodes(1)  # outside a batch: bumps again
        assert cluster.version == before + 2

    def test_ledger_batch_matches_sequential(self):
        sequential, batched = MemoryLedger(), MemoryLedger()
        grants = [(1, 4096, {"global": 64}), (2, 8192, {}), (3, 1024, {"global": 8})]
        for job_id, local, pools in grants:
            sequential.record_grant(5.0, job_id, local, pools)
        batched.record_grant_batch(5.0, grants)
        assert [
            (e.time, e.job_id, e.kind, e.local_total, e.pool_grants)
            for e in sequential
        ] == [
            (e.time, e.job_id, e.kind, e.local_total, e.pool_grants)
            for e in batched
        ]
        with pytest.raises(AllocationError):
            batched.record_grant_batch(6.0, [(1, 10, {})])

    def test_pass_transaction_next_pool_release_incremental(self):
        spec = _spec("thin-global")
        cluster = Cluster(spec)
        sched = build_scheduler(penalty={"kind": "linear", "beta": 0.3})
        running = []

        def running_job(job_id, start, walltime, grants):
            job = Job(job_id=job_id, submit_time=0.0, nodes=1,
                      walltime=walltime, runtime=walltime,
                      mem_per_node=4 * GiB)
            job.start_time = start
            job.dilation = 0.0
            job.pool_grants = grants
            return job

        class _Ctx:
            pass

        ctx = _Ctx()
        ctx.running = running
        txn = PassTransaction()
        assert txn.next_pool_release(ctx, sched) is None
        running.append(running_job(1, 0.0, 1000.0, {"global": 64}))
        running.append(running_job(2, 0.0, 500.0, {}))  # no pool: ignored
        # The cache was primed on the empty list; new arrivals fold in.
        assert txn.next_pool_release(ctx, sched) == 1000.0
        running.append(running_job(3, 0.0, 300.0, {"global": 8}))
        assert txn.next_pool_release(ctx, sched) == 300.0
        # A fresh transaction recomputes from scratch identically.
        assert PassTransaction().next_pool_release(ctx, sched) == 300.0
