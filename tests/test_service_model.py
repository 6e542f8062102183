"""A stateful model of the durable service's keyed ops.

The live drain and crash recovery apply every journal record through
the same functions, so a recovered service must hold exactly the state
the live one held: the same job records, the same dedup window in the
same order, the same next auto id.  :class:`ServiceModel` drives an
in-process durable :class:`SchedulerService` with keyed, retried and
conflicting submits, keyed cancels, clock advances, queries, batches
that land in one inbox drain, forced snapshots and SIGKILL-equivalent
crashes, and checks it against a small model of the dedup window:

* a retry inside the window is answered from the first use and applies
  nothing; the model knows which job ids and cancel outcome it gets;
* a key reused for another request is refused and journals nothing;
* the window holds the keys of the requests applied, in the order the
  service registers them (a drain's submits, then its cancels, both in
  arrival order), aged out oldest first;
* auto ids are handed out only to admitted jobs;
* after every crash and reopen, the recovered state equals the live
  state, and ``deep_audit`` finds no error in the recovered schedule
  run to completion.

Tier-1 runs a small example budget; ``--hypothesis-profile=ci``
(registered in ``tests/conftest.py``) runs the profile's larger one.
"""

from __future__ import annotations

import shutil
import tempfile
from collections import OrderedDict
from pathlib import Path

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.audit.validator import deep_audit
from repro.service import SchedulerService, ServiceConfig
from repro.service.protocol import ProtocolError

from ._service_drive import one_drain
from .test_durability import SPEC, crash, small_config

EXPERIMENT = small_config()
WINDOW = 3
KEYS = ("k0", "k1", "k2", "k3")
#: Submit bodies by name.  ``bad`` is refused on its second spec after
#: its first one validated: it must claim no auto id.
BODIES = {
    "small": [dict(SPEC)],
    "wide": [dict(SPEC, nodes=16, walltime=1200.0, runtime=900.0)],
    "bad": [dict(SPEC), dict(SPEC, nodes="x")],
}


def _run(call):
    try:
        return call()
    except ProtocolError as exc:
        return exc


def _code(outcome):
    """The error code of a refused request; None for a result."""
    return getattr(outcome, "code", None)


def _live_state(service: SchedulerService) -> dict:
    """Everything recovery must rebuild, read on a started service."""
    records = []
    for record in service.jobs()["jobs"]:
        record.pop("service", None)
        records.append(record)
    counters = service.counters
    return {
        "records": records,
        "dedup": service._service_state()["dedup"],
        "next_auto_id": service._next_auto_id,
        "applied": [counters.admitted, counters.cancelled, counters.cancel_kills],
        "journal_records": counters.journal_records,
    }


def _open(config: ServiceConfig) -> SchedulerService:
    return SchedulerService.open(EXPERIMENT, config).start()


class ServiceModel(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.root = Path(tempfile.mkdtemp(prefix="service-model-"))
        self.config = ServiceConfig(
            mode="replay",
            state_dir=str(self.root / "state"),
            checkpoint_every=0,
            dedup_window=WINDOW,
        )
        self.service = _open(self.config)
        self.jobs = 0  # admitted jobs; auto ids are 1..jobs
        self.now = 0.0
        self.records = 0  # journal records written
        #: key -> (request, outcome) in registration order, where a
        #: request is ("submit", body name) or ("cancel", job id) and
        #: the outcome is the job ids or the cancel outcome.
        self.window: "OrderedDict[str, tuple]" = OrderedDict()

    def teardown(self) -> None:
        crash(self.service)
        shutil.rmtree(self.root, ignore_errors=True)

    # ------------------------------------------------------------------
    def _call(self, request, key):
        kind, arg = request
        if kind == "submit":
            return lambda: self.service.submit(
                [dict(spec) for spec in BODIES[arg]], idempotency_key=key
            )
        return lambda: self.service.cancel(arg, idempotency_key=key)

    def _drain(self, ops, outcomes) -> None:
        """Check one drain's outcomes against the model, then advance
        the model past it.  ``ops`` are ``(request, key)`` pairs in
        arrival order."""
        firsts: dict = {}
        fresh = []
        for (request, key), outcome in zip(ops, outcomes):
            if key in self.window:
                stored, result = self.window[key]
                if stored != request:
                    assert _code(outcome) == "idempotency_conflict"
                    continue
                assert _code(outcome) is None, outcome
                if request[0] == "submit":
                    assert [r["job_id"] for r in outcome] == result
                else:
                    assert (outcome["job_id"], outcome["outcome"]) == (request[1], result)
            elif key in firsts:
                first = firsts[key]
                if first[0] != request:
                    assert _code(outcome) == "idempotency_conflict"
                else:
                    assert _same(outcome, first[1])
            else:
                if key is not None:
                    firsts[key] = (request, outcome)
                fresh.append((request, key, outcome))
        registered = []
        for request, key, outcome in fresh:
            if request[0] != "submit":
                continue
            if request[1] == "bad":
                assert _code(outcome) == "invalid_field"
                continue
            assert _code(outcome) is None, outcome
            ids = list(range(self.jobs + 1, self.jobs + 1 + len(BODIES[request[1]])))
            assert [r["job_id"] for r in outcome] == ids
            self.jobs += len(ids)
            registered.append((key, request, ids))
        for request, key, outcome in fresh:
            if request[0] != "cancel":
                continue
            if request[1] > self.jobs:
                assert _code(outcome) == "not_found"
                continue
            assert _code(outcome) is None, outcome
            assert outcome["job_id"] == request[1]
            registered.append((key, request, outcome["outcome"]))
        if any(r[0] == "cancel" or r[1] != "bad" for r, _, _ in fresh):
            self.records += 1
        for key, request, result in registered:
            if key is not None:
                self.window[key] = (request, result)
                while len(self.window) > WINDOW:
                    self.window.popitem(last=False)

    # ------------------------------------------------------------------
    requests = st.one_of(
        st.tuples(st.just("submit"), st.sampled_from(sorted(BODIES))),
        st.tuples(st.just("cancel"), st.integers(1, 8)),
    )
    keyed_ops = st.tuples(requests, st.none() | st.sampled_from(KEYS))

    @rule(op=keyed_ops)
    def request(self, op) -> None:
        self._drain([op], [_run(self._call(*op))])

    @rule(ops=st.lists(keyed_ops, min_size=2, max_size=4))
    def same_drain(self, ops) -> None:
        outcomes = one_drain(self.service, [self._call(*op) for op in ops])
        self._drain(ops, outcomes)

    @rule(delta=st.sampled_from([0.0, 100.0, 700.0]))
    def advance(self, delta) -> None:
        self.now += delta
        assert self.service.advance(self.now)["now"] == self.now
        self.records += 1

    @rule(job_id=st.integers(1, 8))
    def query(self, job_id) -> None:
        outcome = _run(lambda: self.service.query(job_id))
        if job_id > self.jobs:
            assert _code(outcome) == "not_found"
        else:
            assert outcome["job_id"] == job_id

    @rule()
    def snapshot(self) -> None:
        self.service._checkpoint_due = True
        self.service.jobs()  # the drain ends with the checkpoint

    @rule()
    def crash_and_reopen(self) -> None:
        live = _live_state(self.service)
        crash(self.service)
        self.service = _open(self.config)
        assert _live_state(self.service) == live
        # The audit judges a finished schedule: run a second recovery of
        # the same state to completion.  It is never started, so it
        # journals nothing.
        probe = SchedulerService.open(EXPERIMENT, self.config)
        probe.engine.drain()
        report = deep_audit(probe.engine.online_result())
        assert not report.errors, report.errors[:3]

    # ------------------------------------------------------------------
    @invariant()
    def matches_model(self) -> None:
        service = self.service
        assert [
            (key, kind, outcome if kind == "submit" else outcome["outcome"])
            for key, (kind, outcome, _fp) in service._dedup.items()
        ] == [
            (key, request[0], result) for key, (request, result) in self.window.items()
        ]
        assert service._next_auto_id == self.jobs + 1
        assert len(service.engine.jobs) == self.jobs
        assert service.counters.journal_records == self.records


def _same(outcome, first) -> bool:
    """Whether a same-drain repeat got its first op's outcome."""
    if _code(outcome) or _code(first):
        return _code(outcome) == _code(first)
    if isinstance(first, list):
        return [r["job_id"] for r in outcome] == [r["job_id"] for r in first]
    return (outcome["job_id"], outcome["outcome"]) == (first["job_id"], first["outcome"])


TestServiceModel = ServiceModel.TestCase
TestServiceModel.settings = (
    settings(settings.default, deadline=None)
    if settings.get_current_profile_name() == "ci"
    else settings(max_examples=40, stateful_step_count=20, deadline=None)
)


class TestRecoveryMatchesLive:
    """The divergences between the live drain and recovery that the
    model is built to find, pinned as plain regressions."""

    @staticmethod
    def _config(tmp_path, **overrides) -> ServiceConfig:
        return ServiceConfig(
            mode="replay", state_dir=str(tmp_path / "state"), checkpoint_every=0,
            **overrides,
        )

    def test_window_order_survives_a_same_drain_submit_and_cancel(self, tmp_path):
        """Recovery registers a drain's keys in the live order: submits,
        then cancels.  A retried cancel after recovery then still gets
        its original outcome instead of being applied again."""
        config = self._config(tmp_path, dedup_window=1)
        service = _open(config)
        service.submit([dict(SPEC)])
        one_drain(service, [
            lambda: service.submit([dict(SPEC)], idempotency_key="S"),
            lambda: service.cancel(1, idempotency_key="C"),
        ])
        assert list(service._dedup) == ["C"]
        crash(service)
        recovered = _open(config)
        try:
            assert list(recovered._dedup) == ["C"]
            assert recovered.cancel(1, idempotency_key="C")["outcome"] == "killed"
        finally:
            crash(recovered)

    def test_rejected_submit_claims_no_auto_id(self, tmp_path):
        config = self._config(tmp_path)
        service = _open(config)
        assert [r["job_id"] for r in service.submit([dict(SPEC)])] == [1]
        refused = _run(lambda: service.submit([dict(SPEC), dict(SPEC, nodes="x")]))
        assert refused.code == "invalid_field"
        assert service._next_auto_id == 2
        crash(service)
        recovered = _open(config)
        try:
            assert recovered._next_auto_id == 2
            assert [r["job_id"] for r in recovered.submit([dict(SPEC)])] == [2]
        finally:
            crash(recovered)

    def test_rejected_submit_frees_its_ids_within_a_drain(self, tmp_path):
        """A refused op's earlier specs reserve nothing for the ops
        after it in the same drain."""
        service = _open(self._config(tmp_path))
        try:
            refused, admitted = one_drain(service, [
                lambda: service.submit([dict(SPEC, job_id=7), dict(SPEC, nodes="x")]),
                lambda: service.submit([dict(SPEC, job_id=7)]),
            ])
            assert refused.code == "invalid_field"
            assert [r["job_id"] for r in admitted] == [7]
        finally:
            crash(service)

    def test_retry_does_not_reorder_the_window(self, tmp_path):
        """A retry answered from the window is never journaled, so it
        must not move its key: the window ages out in first-use order,
        live and after recovery alike."""
        config = self._config(tmp_path, dedup_window=2)
        service = _open(config)
        for key in ("k1", "k2", "k1", "k3"):
            service.submit([dict(SPEC)], idempotency_key=key)
        assert list(service._dedup) == ["k2", "k3"]
        crash(service)
        recovered = _open(config)
        try:
            assert list(recovered._dedup) == ["k2", "k3"]
            (again,) = recovered.submit([dict(SPEC)], idempotency_key="k1")
            assert again["job_id"] == 4  # aged out: a fresh admission
        finally:
            crash(recovered)
