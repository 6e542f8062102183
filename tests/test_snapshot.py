"""Engine checkpoint/restore round-trip tests.

The contract under test: ``restore(checkpoint(s))`` behaves exactly
like ``s`` — not just field equality at the checkpoint instant, but
*decision identity for the rest of the run*.  Every round-trip test
therefore checkpoints mid-run, continues the original AND the restored
engine to completion, and compares the full record (job execution
fields, promises, cycle counts, ledger) field for field.  Scheduler
caches are deliberately not serialized, so these tests also prove the
cold-cache restore is decision-transparent across backfill variants,
fair-share accounting, and node failures.
"""

from __future__ import annotations

import json

import pytest

from repro.config import ExperimentConfig
from repro.engine.failures import exponential_failure_trace
from repro.engine.simulation import SchedulerSimulation
from repro.errors import AllocationError, SimulationError
from repro.service.core import default_service_config
from repro.service.protocol import job_to_record
from repro.sim.rng import RandomStreams
from repro.workload.job import JobState

from .conftest import make_job


def small_config(num_jobs: int = 60, **scheduler) -> ExperimentConfig:
    config = default_service_config()
    config.workload = dict(config.workload, num_jobs=num_jobs)
    if scheduler:
        config.scheduler = dict(config.scheduler, **scheduler)
    return config


def build_online(config: ExperimentConfig, jobs, **kwargs) -> SchedulerSimulation:
    return SchedulerSimulation(
        config.build_cluster(),
        config.build_scheduler(),
        [job.copy_request() for job in jobs],
        online=True,
        **kwargs,
    )


def record_of(engine: SchedulerSimulation) -> dict:
    result = engine.online_result()
    return {
        job.job_id: job_to_record(job, result.promises.get(job.job_id))
        for job in result.jobs
    }


def roundtrip(engine: SchedulerSimulation) -> SchedulerSimulation:
    """Checkpoint through JSON (as the journal layer does) and restore
    onto a fresh cluster/scheduler built from the same config."""
    snapshot = json.loads(json.dumps(engine.checkpoint()))
    config = engine._restore_config  # attached by tests below
    return SchedulerSimulation.restore(
        config.build_cluster(), config.build_scheduler(), snapshot
    )


def run_split(config: ExperimentConfig, jobs, cut: float, **kwargs):
    """Run one engine straight through and a second with a
    checkpoint/restore at ``cut``; return both final records."""
    straight = build_online(config, jobs, **kwargs)
    straight.drain()

    original = build_online(config, jobs, **kwargs)
    original.advance_to(cut)
    original._restore_config = config
    restored = roundtrip(original)
    restored.drain()
    original.drain()
    return record_of(straight), record_of(original), record_of(restored)


SCHEDULER_VARIANTS = [
    {},  # fcfs + easy (service default)
    {"backfill": "conservative"},
    {"queue": "fairshare", "backfill": "easy"},
    {"queue": "sjf", "backfill": "conservative", "placement": "rack_pack"},
]


class TestRoundTrip:
    @pytest.mark.parametrize("scheduler", SCHEDULER_VARIANTS)
    @pytest.mark.parametrize("cut_frac", [0.25, 0.6])
    def test_mid_run_roundtrip_is_decision_identical(self, scheduler, cut_frac):
        config = small_config(num_jobs=80, **scheduler)
        jobs = config.build_jobs()
        horizon = max(job.submit_time for job in jobs)
        cut = jobs[0].submit_time + cut_frac * (horizon - jobs[0].submit_time)
        straight, original, restored = run_split(config, jobs, cut)
        assert restored == original
        assert restored == straight

    def test_roundtrip_with_failures(self):
        config = small_config(num_jobs=60)
        jobs = config.build_jobs()
        streams = RandomStreams(7)
        horizon = max(job.submit_time for job in jobs)
        failures = exponential_failure_trace(
            num_nodes=config.cluster.num_nodes,
            horizon=horizon * 2,
            mtbf=horizon,
            mean_repair=horizon / 10,
            streams=streams,
        )
        cut = jobs[0].submit_time + 0.4 * (horizon - jobs[0].submit_time)
        straight, original, restored = run_split(
            config, jobs, cut, failures=failures
        )
        assert restored == original
        assert restored == straight

    def test_roundtrip_preserves_cycles_and_clock(self):
        config = small_config(num_jobs=40)
        jobs = config.build_jobs()
        engine = build_online(config, jobs)
        cut = jobs[len(jobs) // 2].submit_time
        engine.advance_to(cut)
        engine._restore_config = config
        restored = roundtrip(engine)
        assert restored.now == engine.now
        assert restored.cycles == engine.cycles
        assert restored.queue_depth == engine.queue_depth
        assert restored.running_count == engine.running_count
        assert restored._terminal_count == engine._terminal_count
        assert restored._max_job_id == engine._max_job_id
        assert len(restored._ledger) == len(engine._ledger)
        assert restored._sim.events_processed == engine._sim.events_processed

    def test_snapshot_is_json_stable(self):
        """checkpoint → restore → checkpoint reproduces the document."""
        config = small_config(num_jobs=40)
        jobs = config.build_jobs()
        engine = build_online(config, jobs)
        engine.advance_to(jobs[len(jobs) // 2].submit_time)
        snap1 = json.loads(json.dumps(engine.checkpoint()))
        restored = SchedulerSimulation.restore(
            config.build_cluster(), config.build_scheduler(), snap1
        )
        snap2 = json.loads(json.dumps(restored.checkpoint()))
        assert snap1 == snap2

    def test_restore_then_inject_continues_id_space(self):
        config = small_config(num_jobs=20)
        jobs = config.build_jobs()
        engine = build_online(config, jobs)
        engine.advance_to(jobs[-1].submit_time)
        engine._restore_config = config
        restored = roundtrip(engine)
        new_job = make_job(
            job_id=restored._max_job_id + 1, submit=restored.now + 10.0
        )
        restored.inject_jobs([new_job])
        restored.drain()
        assert restored.job(new_job.job_id).state is JobState.COMPLETED

    def test_checkpoint_requires_online(self):
        config = small_config(num_jobs=5)
        sim = SchedulerSimulation(
            config.build_cluster(), config.build_scheduler(), config.build_jobs()
        )
        with pytest.raises(SimulationError):
            sim.checkpoint()

    def test_restore_rejects_unknown_schema(self):
        config = small_config(num_jobs=5)
        with pytest.raises(SimulationError):
            SchedulerSimulation.restore(
                config.build_cluster(), config.build_scheduler(), {"schema": 99}
            )

    @pytest.mark.parametrize(
        "field, node_ids",
        [
            ("assigned_nodes", [-1]),
            ("down_nodes", [-1]),
            ("down_nodes", [32]),
            *(
                (field, node_ids)
                for field in ("assigned_nodes", "down_nodes")
                for node_ids in ([1.5], ["3"], [True])
            ),
        ],
    )
    def test_restore_rejects_out_of_range_node_ids(self, field, node_ids):
        """A snapshot naming a node id outside the cluster, or anything
        but a plain integer id, is refused before that id touches
        cluster state (a negative id must not wrap around to the last
        node, nor ``true`` restore as node 1)."""
        config = small_config(num_jobs=5)
        engine = SchedulerSimulation(
            config.build_cluster(), config.build_scheduler(), [], online=True
        )
        engine.inject_jobs([make_job(job_id=1, runtime=1000.0)])
        engine.advance_to(0.0)
        snapshot = json.loads(json.dumps(engine.checkpoint()))
        if field == "assigned_nodes":
            (running,) = [doc for doc in snapshot["jobs"] if doc["job_id"] == 1]
            running["assigned_nodes"] = node_ids
        else:
            snapshot["down_nodes"] = node_ids
        cluster = config.build_cluster()
        with pytest.raises(AllocationError):
            SchedulerSimulation.restore(cluster, config.build_scheduler(), snapshot)
        assert cluster.down_mask == 0
        assert cluster.free_mask >> 31 & 1


class TestRngContinuation:
    def test_stream_state_roundtrip_continues_mid_sequence(self):
        streams = RandomStreams(123)
        gen = streams.get("chaos")
        gen.random(17)  # advance mid-sequence
        state = json.loads(json.dumps(streams.state_dict()))
        twin = RandomStreams.from_state_dict(state)
        assert twin.get("chaos").random(8).tolist() == gen.random(8).tolist()

    def test_unmentioned_streams_still_derive_from_seed(self):
        streams = RandomStreams(5)
        streams.get("a").random(3)
        twin = RandomStreams.from_state_dict(streams.state_dict())
        # A stream never drawn before the snapshot starts fresh from
        # the same (seed, name) derivation on both sides.
        assert (
            twin.get("b").random(4).tolist()
            == RandomStreams(5).get("b").random(4).tolist()
        )


class TestOnlineEdgeCases:
    """Satellite: online-mode ordering edge cases around drains."""

    def test_cancel_in_same_drain_as_start(self):
        """A cancel that lands at the same instant the job would start
        kills it if it already started, or withdraws it if still
        queued — either way the engine stays consistent."""
        config = small_config(num_jobs=0)
        engine = SchedulerSimulation(
            config.build_cluster(),
            config.build_scheduler(),
            [],
            online=True,
        )
        a = make_job(job_id=1, submit=0.0, nodes=1, runtime=100.0)
        b = make_job(job_id=2, submit=0.0, nodes=1, runtime=100.0)
        engine.inject_jobs([a, b])
        engine.advance_to(0.0)  # both start at t=0
        assert engine.running_count == 2
        outcome = engine.cancel_job(1)
        assert outcome == "killed"
        assert engine.job(1).state is JobState.KILLED
        assert engine.job(1).kill_reason == "cancelled"
        engine.drain()
        assert engine.job(2).state is JobState.COMPLETED

    def test_cancel_before_submit_instant_withdraws_cleanly(self):
        config = small_config(num_jobs=0)
        engine = SchedulerSimulation(
            config.build_cluster(),
            config.build_scheduler(),
            [],
            online=True,
        )
        job = make_job(job_id=1, submit=50.0)
        engine.inject_jobs([job])
        # Cancel while the submit event is still in the future.
        assert engine.cancel_job(1) == "cancelled"
        engine.drain()
        assert engine.job(1).state is JobState.CANCELLED
        assert engine.queue_depth == 0

    def test_advance_past_pending_submissions_is_ordered(self):
        """Advancing far past several submit instants fires them in
        (time, id) order exactly as an offline run would."""
        config = small_config(num_jobs=30)
        jobs = config.build_jobs()
        offline = SchedulerSimulation(
            config.build_cluster(),
            config.build_scheduler(),
            [job.copy_request() for job in jobs],
        )
        offline_result = offline.run()
        online = build_online(config, jobs)
        online.drain()
        online_records = record_of(online)
        expected = {
            job.job_id: job_to_record(
                job, offline_result.promises.get(job.job_id)
            )
            for job in offline_result.jobs
        }
        assert online_records == expected

    def test_roundtrip_mid_instant_queue_order(self):
        """Checkpoint taken when several jobs share the queue at one
        instant preserves queue order across restore."""
        config = small_config(num_jobs=0, backfill="conservative")
        engine = SchedulerSimulation(
            config.build_cluster(),
            config.build_scheduler(),
            [],
            online=True,
        )
        cluster_nodes = config.cluster.num_nodes
        blocker = make_job(
            job_id=1, submit=0.0, nodes=cluster_nodes, runtime=500.0
        )
        waiters = [
            make_job(job_id=i, submit=10.0, nodes=1, runtime=50.0)
            for i in range(2, 8)
        ]
        engine.inject_jobs([blocker] + waiters)
        engine.advance_to(10.0)
        assert engine.queue_depth == len(waiters)
        engine._restore_config = config
        restored = roundtrip(engine)
        assert [j.job_id for j in restored._queue] == [
            j.job_id for j in engine._queue
        ]
        restored.drain()
        engine.drain()
        assert record_of(restored) == record_of(engine)
