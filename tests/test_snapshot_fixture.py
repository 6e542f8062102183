"""A checked-in engine checkpoint must keep restoring identically.

``tests/golden/engine_snapshot.json`` is an online checkpoint written
mid-run by the engine as it stood before the event calendar became a
plain-tuple heap (commit ``a407ad8``).  Its calendar holds one event of
every kind the snapshot format names: pending submits, finishes, a
walltime kill, a node failure, a node repair and a requested pass.
Restoring it and draining must give records byte-identical to an
uninterrupted run of the same input, and the current engine must write
the same document at the same instant.

The fixture is a compatibility anchor, so it is never regenerated from
the current code.  ``python -m tests.test_snapshot_fixture`` writes it
and is kept only to show how it was made.
"""

from __future__ import annotations

import hashlib
import json

from repro.cluster import Cluster, ClusterSpec, NodeSpec, PoolSpec
from repro.engine.failures import FailureEvent
from repro.engine.results import canonical_json
from repro.engine.simulation import SchedulerSimulation
from repro.sched.base import build_scheduler
from repro.service.protocol import job_to_record
from repro.units import GiB

from ._golden import GOLDEN_DIR
from .conftest import make_job

FIXTURE = GOLDEN_DIR / "engine_snapshot.json"

#: The checkpoint instant, and the running job cancelled just before
#: it (the cancel leaves a scheduling pass requested in the calendar).
CUT = 800.0
CANCELLED = 3


def _cluster() -> Cluster:
    return Cluster(ClusterSpec(
        name="fixture", num_nodes=10, nodes_per_rack=5,
        node=NodeSpec(cores=8, local_mem=16 * GiB),
        pool=PoolSpec(global_pool=64 * GiB),
    ))


def _scheduler():
    return build_scheduler(
        backfill="easy", kill_policy="strict",
        penalty={"kind": "linear", "beta": 0.3},
    )


def _jobs():
    return [
        make_job(1, submit=0.0, nodes=2, runtime=1000.0, walltime=2000.0),
        # Runs past its walltime: a pending kill at the cut.
        make_job(2, submit=0.0, nodes=2, runtime=3000.0, walltime=1500.0),
        make_job(3, submit=10.0, nodes=2, runtime=2000.0, walltime=4000.0),
        make_job(4, submit=20.0, nodes=1, runtime=1500.0, walltime=3000.0,
                 mem=24 * GiB),
        make_job(5, submit=30.0, nodes=2, runtime=1500.0, walltime=3000.0),
        make_job(6, submit=5000.0, nodes=1, runtime=400.0, walltime=800.0),
        make_job(7, submit=6000.0, nodes=3, runtime=3000.0, walltime=5000.0,
                 checkpoint_interval=250.0),
        make_job(8, submit=6000.0, nodes=1, runtime=100.0, walltime=200.0),
    ]


def _failures():
    return [
        # Down across the cut: its repair is pending.
        FailureEvent(time=300.0, node_id=9, repair_time=5000.0),
        # Due after the cut, on a node job 7 will hold.
        FailureEvent(time=7000.0, node_id=0, repair_time=600.0),
    ]


def _engine_at_cut() -> SchedulerSimulation:
    engine = SchedulerSimulation(
        _cluster(), _scheduler(), _jobs(), failures=_failures(), online=True
    )
    engine.advance_to(CUT)
    assert engine.cancel_job(CANCELLED) == "killed"
    return engine


def _records(engine: SchedulerSimulation) -> str:
    result = engine.online_result()
    return canonical_json({
        "jobs": [
            job_to_record(job, result.promises.get(job.job_id))
            for job in sorted(result.jobs, key=lambda j: j.job_id)
        ],
        "cycles": result.cycles,
        "events": result.events,
    })


def _write_fixture() -> None:
    engine = _engine_at_cut()
    snapshot = engine.checkpoint()
    engine.drain()
    records = _records(engine)
    FIXTURE.write_text(json.dumps({
        "snapshot": snapshot,
        "records_sha256": hashlib.sha256(records.encode()).hexdigest(),
    }, indent=1, sort_keys=True) + "\n")


def _fixture() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_calendar_holds_every_event_kind():
    kinds = {event["kind"] for event in _fixture()["snapshot"]["events"]}
    assert kinds == {"submit", "finish", "kill", "failure", "repair", "schedule"}


def test_restored_fixture_drains_like_an_uninterrupted_run():
    fixture = _fixture()
    restored = SchedulerSimulation.restore(
        _cluster(), _scheduler(), fixture["snapshot"]
    )
    restored.drain()
    straight = _engine_at_cut()
    straight.drain()
    assert _records(restored) == _records(straight)
    digest = hashlib.sha256(_records(restored).encode()).hexdigest()
    assert digest == fixture["records_sha256"]


def test_checkpoint_writes_the_fixture_document():
    snapshot = json.loads(json.dumps(_engine_at_cut().checkpoint()))
    assert snapshot == _fixture()["snapshot"]


if __name__ == "__main__":
    _write_fixture()
