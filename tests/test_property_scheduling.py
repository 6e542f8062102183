"""Property-based whole-system tests.

Hypothesis generates random (cluster, workload, policy stack, failure
trace) scenarios; every resulting schedule must pass
:func:`repro.audit.deep_audit` — every invariant class it checks,
from lifecycle and node/pool occupancy to promises and ordering.  This
is the test that explores the interaction space no hand-written
scenario covers — it found its keep during development and stays as
the regression net.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.audit import deep_audit
from repro.cluster import Cluster, ClusterSpec, NodeSpec, PoolSpec
from repro.engine import FailureEvent, SchedulerSimulation
from repro.sched import build_scheduler
from repro.units import GiB
from repro.workload import Job, JobState

# ---------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------

cluster_specs = st.builds(
    lambda nodes, per_rack, local, pool_kind, pool_size: ClusterSpec(
        name="prop",
        num_nodes=nodes,
        nodes_per_rack=per_rack,
        node=NodeSpec(cores=8, local_mem=local * GiB),
        pool=PoolSpec(
            rack_pool=pool_size * GiB if pool_kind in ("rack", "both") else 0,
            global_pool=pool_size * GiB if pool_kind in ("global", "both") else 0,
        ),
    ),
    nodes=st.integers(2, 10),
    per_rack=st.integers(2, 4),
    local=st.integers(4, 32),
    pool_kind=st.sampled_from(["none", "global", "rack", "both"]),
    pool_size=st.integers(4, 64),
)


def jobs_strategy(max_nodes: int):
    def make_job_tuple(i, submit, nodes, runtime, inflate, mem_gib, used_frac):
        walltime = runtime * inflate
        mem = max(1, int(mem_gib * GiB))
        return Job(
            job_id=i,
            submit_time=float(submit),
            nodes=min(nodes, max_nodes),
            walltime=float(walltime),
            runtime=float(runtime),
            mem_per_node=mem,
            mem_used_per_node=max(1, int(mem * used_frac)),
        )

    return st.lists(
        st.tuples(
            st.floats(0, 5000, allow_nan=False, allow_infinity=False),
            st.integers(1, 6),
            st.floats(10, 5000, allow_nan=False),
            st.floats(1.0, 3.0, allow_nan=False),
            st.floats(0.1, 48.0, allow_nan=False),
            st.floats(0.1, 1.0, allow_nan=False),
        ),
        min_size=1,
        max_size=20,
    ).map(
        lambda rows: [
            make_job_tuple(i + 1, *row) for i, row in enumerate(rows)
        ]
    )


scheduler_kwargs = st.fixed_dictionaries(
    {
        "queue": st.sampled_from(["fcfs", "sjf", "ljf", "wfp", "unicef"]),
        "backfill": st.sampled_from(["none", "easy", "conservative"]),
        "placement": st.sampled_from(
            ["first_fit", "rack_pack", "min_remote", "spread"]
        ),
        "penalty": st.sampled_from(
            [
                {"kind": "none"},
                {"kind": "linear", "beta": 0.4},
                {"kind": "saturating", "beta": 0.6, "gamma": 1.0},
            ]
        ),
        "kill_policy": st.sampled_from(["strict", "dilation_aware", "none"]),
        "gate": st.sampled_from(["always", "pressure", "adaptive"]),
    }
)


# ---------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------

@given(spec=cluster_specs, data=st.data(), kwargs=scheduler_kwargs)
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_random_scenarios_audit_clean(spec, data, kwargs):
    jobs = data.draw(jobs_strategy(spec.num_nodes))
    cluster = Cluster(spec)
    scheduler = build_scheduler(**kwargs)
    result = SchedulerSimulation(cluster, scheduler, jobs).run()
    deep_audit(result).raise_if_failed()
    # Global liveness: every job reached a terminal state.
    assert all(job.state.terminal for job in result.jobs)
    # The machine is fully drained at the end.
    assert cluster.free_node_count == cluster.num_nodes
    assert cluster.total_pool_used == 0
    assert result.ledger.outstanding_remote() == 0


def test_min_remote_admission_liveness_regression():
    """Regression (hypothesis-found): with min_remote placement and
    hybrid pools, ``fits_machine`` used to order racks by *live* pool
    free at submission — a transient state could admit a 5-node
    23-GiB/node job whose selection on the fully drained machine
    spanned racks infeasibly, leaving it PENDING forever and the
    simulation stuck.  The empty-machine check now orders by capacity,
    so the verdict matches drained-machine startability.
    """
    spec = ClusterSpec(
        name="prop", num_nodes=10, nodes_per_rack=3,
        node=NodeSpec(cores=8, local_mem=13312),
        pool=PoolSpec(rack_pool=15360, global_pool=15360),
    )
    rows = (
        [(0.0, 1, 10.0, 1.0, 1.0, 1.0)] * 7
        + [(0.0, 1, 10.0, 1.0, 14.0, 1.0)] * 2
        + [(0.0, 2, 10.0, 1.0, 1.0, 1.0)]
        + [(0.0, 1, 10.0, 1.0, 1.0, 1.0)] * 2
        + [(0.0, 2, 10.0, 1.0, 1.0, 1.0)]
        + [(1.0, 5, 10.0, 1.0, 23.0, 1.0)]
    )
    jobs = []
    for i, (submit, nodes, runtime, inflate, mem_gib, used_frac) in enumerate(rows):
        mem = max(1, int(mem_gib * GiB))
        jobs.append(Job(
            job_id=i + 1, submit_time=float(submit), nodes=nodes,
            walltime=float(runtime * inflate), runtime=float(runtime),
            mem_per_node=mem, mem_used_per_node=max(1, int(mem * used_frac)),
        ))
    scheduler = build_scheduler(
        queue="fcfs", backfill="none", placement="min_remote",
        penalty={"kind": "none"}, kill_policy="strict", gate="always",
    )
    cluster = Cluster(spec)
    result = SchedulerSimulation(cluster, scheduler, jobs).run()
    deep_audit(result).raise_if_failed()
    assert all(job.state.terminal for job in result.jobs)
    # The over-wide job is rejected up front, not stranded in the queue.
    assert result.job(14).state is JobState.REJECTED


@given(spec=cluster_specs, data=st.data())
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_random_scenarios_with_failures_audit_clean(spec, data):
    jobs = data.draw(jobs_strategy(spec.num_nodes))
    failures = data.draw(
        st.lists(
            st.tuples(
                st.floats(0, 8000, allow_nan=False),
                st.integers(0, spec.num_nodes - 1),
                st.floats(60, 4000, allow_nan=False),
            ),
            max_size=5,
        ).map(
            lambda rows: [FailureEvent(t, n, r) for t, n, r in rows]
        )
    )
    cluster = Cluster(spec)
    scheduler = build_scheduler(penalty={"kind": "linear", "beta": 0.3})
    result = SchedulerSimulation(
        cluster, scheduler, jobs, failures=failures
    ).run()
    deep_audit(result).raise_if_failed()
    assert all(job.state.terminal for job in result.jobs)
    assert cluster.total_pool_used == 0


@given(spec=cluster_specs, data=st.data())
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_determinism_property(spec, data):
    """Identical inputs produce byte-identical schedules."""
    jobs = data.draw(jobs_strategy(spec.num_nodes))

    def one_run():
        fresh = [job.copy_request() for job in jobs]
        scheduler = build_scheduler(penalty={"kind": "linear", "beta": 0.3})
        result = SchedulerSimulation(Cluster(spec), scheduler, fresh).run()
        return [
            (j.job_id, j.state.value, j.start_time, tuple(j.assigned_nodes),
             tuple(sorted(j.pool_grants.items())))
            for j in result.jobs
        ]

    assert one_run() == one_run()
