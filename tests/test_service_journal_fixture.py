"""A checked-in service journal must keep recovering identically.

``tests/golden/service_state/`` is a durable state directory written
by the service as it stood before keyed ops were resolved and applied
through one shared path (commit ``dac1d1c``): a journal only, no
snapshot.  Its script (:func:`_script`) has keyed submits, a retried
submit answered from the dedup window, idempotency conflicts against
the window and inside one drain, keyed cancels, and one drain that
both submits and cancels under keys.
``tests/golden/service_state.json`` holds what the live service
reported just before it was killed: every job record (minus the
service-side latency stamps), the dedup window in order, and the next
auto id.

Recovery must rebuild exactly that state, and the current service must
write the same journal bytes for the same script, so the record format
is unchanged.  The fixture is a compatibility anchor and is never
regenerated from the current code; ``python -m
tests.test_service_journal_fixture`` writes it and is kept only to show
how it was made.
"""

from __future__ import annotations

import json
import shutil

from repro.service import SchedulerService, ServiceConfig

from ._golden import GOLDEN_DIR
from ._service_drive import one_drain
from .test_durability import SPEC, crash, small_config

STATE_DIR = GOLDEN_DIR / "service_state"
EXPECTED = GOLDEN_DIR / "service_state.json"
SEGMENT = "journal-000001.jsonl"


def _config(state_dir) -> ServiceConfig:
    return ServiceConfig(mode="replay", state_dir=str(state_dir), checkpoint_every=0)


def _script(service: SchedulerService) -> None:
    service.submit([dict(SPEC)], idempotency_key="sub-a")
    service.submit(
        [dict(SPEC, nodes=32, walltime=5000.0, runtime=5000.0), dict(SPEC)],
        idempotency_key="sub-b",
    )
    # A retry, answered from the window.  It hits the newest entry: the
    # parent also moved a retried entry to the newest place, a refresh
    # no journal record carries and the service no longer makes.
    service.submit(
        [dict(SPEC, nodes=32, walltime=5000.0, runtime=5000.0), dict(SPEC)],
        idempotency_key="sub-b",
    )
    outcomes = [service.cancel(2, idempotency_key="can-a")]
    service.advance(100.0)
    outcomes += one_drain(service, [
        lambda: service.submit([dict(SPEC)], idempotency_key="S"),
        lambda: service.cancel(1, idempotency_key="C"),
        lambda: service.submit([dict(SPEC, nodes=2)], idempotency_key="S"),
        lambda: service.cancel(1, idempotency_key="C"),
    ])
    for call in (
        lambda: service.submit([dict(SPEC, nodes=2)], idempotency_key="sub-a"),
        lambda: service.submit([dict(SPEC)], idempotency_key="can-a"),
    ):
        try:
            call()
        except Exception as exc:  # noqa: BLE001 - conflicts are expected
            outcomes.append(exc)
    service.submit([dict(SPEC, submit_time=3000.0)])
    service.advance(2000.0)
    codes = [getattr(o, "code", None) or o.get("outcome") for o in outcomes
             if not isinstance(o, list)]
    assert codes == [
        "cancelled", "killed", "idempotency_conflict", "killed",
        "idempotency_conflict", "idempotency_conflict",
    ], codes


def _live_state(service: SchedulerService) -> dict:
    records = []
    for record in service.jobs()["jobs"]:
        record.pop("service", None)
        records.append(record)
    state = service._service_state()
    return {
        "records": records,
        "dedup": state["dedup"],
        "next_auto_id": state["next_auto_id"],
    }


def _run_script(state_dir) -> dict:
    service = SchedulerService.open(small_config(), _config(state_dir)).start()
    try:
        _script(service)
        live = _live_state(service)
    finally:
        crash(service)
    return live


def _write_fixture() -> None:
    shutil.rmtree(STATE_DIR, ignore_errors=True)
    live = _run_script(STATE_DIR)
    EXPECTED.write_text(json.dumps(live, indent=1, sort_keys=True) + "\n")


def _expected() -> dict:
    return json.loads(EXPECTED.read_text())


def test_fixture_is_journal_only():
    assert sorted(path.name for path in STATE_DIR.iterdir()) == [SEGMENT, "meta.json"]


def test_recovery_reproduces_the_live_state(tmp_path):
    state_dir = tmp_path / "state"
    shutil.copytree(STATE_DIR, state_dir)
    recovered = SchedulerService.open(small_config(), _config(state_dir))
    assert recovered.recovery == {
        "snapshot_seq": 0,
        "replayed_records": len((STATE_DIR / SEGMENT).read_text().splitlines()),
        "resumed": True,
    }
    recovered.start()
    try:
        assert json.loads(json.dumps(_live_state(recovered))) == _expected()
    finally:
        crash(recovered)


def test_service_writes_the_fixture_journal(tmp_path):
    live = _run_script(tmp_path / "state")
    assert json.loads(json.dumps(live)) == _expected()
    written = (tmp_path / "state" / SEGMENT).read_text()
    assert written == (STATE_DIR / SEGMENT).read_text()


if __name__ == "__main__":
    _write_fixture()
