"""Tests for the discrete-event kernel: the calendar and the rng.

The calendar is checked against a brute-force reference: a plain list
whose earliest live entry (by ``(time, priority, seq)``) fires next.
Random programs of callbacks that schedule, cancel and try illegal
times run on both, and every firing, the clock and the event count
must agree.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim import EventPriority, RandomStreams, Simulator


class ReferenceCalendar:
    """The calendar's contract, computed the slow and obvious way."""

    def __init__(self, start_time: float = 0.0) -> None:
        self.now = float(start_time)
        self.events_processed = 0
        self.entries: list = []
        self.seq = 0

    @property
    def pending_events(self) -> int:
        return len(self.entries)

    def schedule_at(self, time, handler, priority=EventPriority.GENERIC, payload=None):
        if math.isnan(time) or time < self.now:
            raise SimulationError(f"bad time {time}")
        self.entries.append((float(time), priority, self.seq, handler, payload))
        self.seq += 1
        return self.seq - 1

    def cancel(self, handle) -> None:
        self.entries = [entry for entry in self.entries if entry[2] != handle]

    def run(self, until=None, max_events=None) -> float:
        while self.entries:
            entry = min(self.entries, key=lambda e: e[:3])
            if until is not None and entry[0] > until:
                break
            self.entries.remove(entry)
            self.now = entry[0]
            self.events_processed += 1
            entry[3](entry[4])
            if max_events is not None and self.events_processed >= max_events:
                raise SimulationError("max_events")
        if until is not None and self.now < until:
            self.now = until
        return self.now


#: Few distinct times and priorities, so ties are the common case.
_times = st.sampled_from([0.0, 1.0, 2.0, 3.5])
_priorities = st.integers(min_value=0, max_value=5)
_ops = st.one_of(
    st.tuples(st.just("spawn"), st.sampled_from([0.0, 0.0, 0.5, 1.0]), _priorities),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=40)),
    st.tuples(st.just("nan")),
    st.tuples(st.just("past")),
)
_programs = st.fixed_dictionaries({
    "initial": st.lists(st.tuples(_times, _priorities), min_size=1, max_size=10),
    # actions[label]: what the event with that label does when it fires.
    "actions": st.lists(st.lists(_ops, max_size=3), max_size=30),
    "until": st.one_of(st.none(), _times),
    "max_events": st.one_of(st.none(), st.integers(min_value=1, max_value=40)),
})


def execute(calendar, program) -> dict:
    """Run ``program`` on ``calendar``; return what can be observed."""
    log: list = []
    handles: list = []
    actions = program["actions"]

    def schedule(time, priority):
        handles.append(calendar.schedule_at(time, fire, priority, len(handles)))

    def fire(label):
        log.append(("fire", label, calendar.now))
        for op in actions[label] if label < len(actions) else ():
            if op[0] == "spawn":
                schedule(calendar.now + op[1], op[2])
            elif op[0] == "cancel":
                # Labels not yet issued stand for never-issued handles.
                target = op[1]
                calendar.cancel(handles[target] if target < len(handles) else 10_000 + target)
            else:
                bad = math.nan if op[0] == "nan" else calendar.now - 1.0
                with pytest.raises(SimulationError):
                    calendar.schedule_at(bad, fire)
                log.append(("rejected", op[0]))

    for time, priority in program["initial"]:
        schedule(time, priority)
    stops = []
    for until in (program["until"], None):
        try:
            stops.append(calendar.run(until=until, max_events=program["max_events"]))
        except SimulationError:
            stops.append("max_events")
        stops.append((calendar.now, calendar.events_processed, calendar.pending_events))
    return {"log": log, "stops": stops}


class TestCalendar:
    @settings(max_examples=300, deadline=None)
    @given(_programs)
    def test_matches_brute_force_reference(self, program):
        calendar = Simulator()
        assert execute(calendar, program) == execute(ReferenceCalendar(), program)
        # A handle leaves the live set when it fires or is cancelled, so
        # the set only ever names entries still in the heap.
        assert calendar._live <= {entry[2] for entry in calendar._heap}

    def test_same_instant_insertions_ahead_and_behind(self):
        sim = Simulator()
        order = []

        def first(_):
            order.append("first")
            sim.schedule_at(1.0, order.append, EventPriority.FINISH, "ahead")
            sim.schedule_at(1.0, order.append, EventPriority.GENERIC, "behind")

        sim.schedule_at(1.0, first, EventPriority.KILL)
        sim.schedule_at(1.0, order.append, EventPriority.SUBMIT, "queued")
        sim.run()
        assert order == ["first", "ahead", "queued", "behind"]

    def test_cancel_a_later_same_instant_event(self):
        sim = Simulator()
        fired = []
        victim = {}

        def killer(_):
            fired.append("killer")
            sim.cancel(victim["handle"])

        sim.schedule_at(1.0, killer)
        victim["handle"] = sim.schedule_at(1.0, fired.append, payload="victim")
        sim.run()
        assert fired == ["killer"]
        assert sim.events_processed == 1
        assert sim._heap == [] and sim._live == set()

    def test_cancelling_a_fired_or_unknown_handle_changes_nothing(self):
        sim = Simulator()
        fired = sim.schedule_at(1.0, lambda _: None)
        sim.schedule_at(5.0, lambda _: None)
        sim.run(until=2.0)
        heap, live = list(sim._heap), set(sim._live)
        for handle in (fired, 999, -1):
            sim.cancel(handle)
            assert sim._heap == heap and sim._live == live
            assert sim.pending_events == 1
        sim.run()
        assert sim.events_processed == 2

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule_at(1.0, lambda _: None)
        sim.cancel(handle)
        sim.cancel(handle)
        assert sim.pending_events == 0
        sim.run()
        assert sim.events_processed == 0
        assert sim._heap == [] and sim._live == set()

    def test_cancel_does_not_walk_the_calendar(self):
        class Unwalkable(list):
            def __iter__(self):
                raise AssertionError("cancel walked the pending events")

        sim = Simulator()
        handles = [sim.schedule_at(float(t), noop) for t in range(3)]
        sim._heap = Unwalkable(sim._heap)
        for handle in (handles[1], handles[1], 999):
            sim.cancel(handle)
        assert sim.pending_events == 2

    def test_run_until_leaves_future_events_and_advances_clock(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, fired.append, payload=1)
        sim.schedule_at(10.0, fired.append, payload=10)
        assert sim.run(until=5.0) == 5.0
        assert fired == [1] and sim.pending_events == 1
        sim.run()
        assert fired == [1, 10] and sim.now == 10.0

    def test_max_events_counts_across_runs(self):
        sim = Simulator()

        def forever(_):
            sim.schedule_at(sim.now + 1.0, forever)

        sim.schedule_at(0.0, forever)
        sim.run(until=9.0)
        assert sim.events_processed == 10
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(max_events=12)
        assert sim.events_processed == 12

    def test_restore_keys_reenter_verbatim(self):
        source = Simulator()
        for time, priority in ((2.0, 0), (1.0, 3), (1.0, 1)):
            source.schedule_at(time, lambda _: None, priority)
        clone = Simulator()
        for entry in source.pending():
            clone.restore_event(*entry)
        clone.restore_clock(source.clock_state())
        assert clone.pending() == source.pending()
        assert clone.schedule_at(3.0, lambda _: None) == 3

    def test_restore_door_closed_while_running(self):
        sim = Simulator()

        def sneak(_):
            sim.restore_event(2.0, EventPriority.GENERIC, 99, noop, None)

        sim.schedule_at(1.0, sneak)
        with pytest.raises(SimulationError, match="running"):
            sim.run()


def noop(_):
    pass


def fire_order(specs) -> list:
    """Schedule ``(time, priority)`` specs on a fresh calendar, run it
    and return the spec indices in firing order."""
    sim = Simulator()
    fired: list = []
    for index, (time, priority) in enumerate(specs):
        sim.schedule_at(time, fired.append, priority, index)
    sim.run()
    return fired


class TestEventOrdering:
    def test_time_dominates(self):
        assert fire_order([(2.0, 0), (1.0, 5)]) == [1, 0]

    def test_priority_breaks_time_ties(self):
        specs = [(1.0, EventPriority.SUBMIT), (1.0, EventPriority.FINISH)]
        assert fire_order(specs) == [1, 0]

    def test_seq_breaks_remaining_ties(self):
        assert fire_order([(1.0, 3)] * 5) == [0, 1, 2, 3, 4]

    def test_priority_enum_order(self):
        # The engine depends on this canonical order.
        assert list(EventPriority) == sorted(EventPriority)
        assert [p.name for p in EventPriority] == [
            "FINISH", "KILL", "SUBMIT", "SCHEDULE", "SAMPLE", "GENERIC",
        ]


class TestSimulator:
    def test_fire_ordering(self):
        specs = [(3.0, 0), (1.0, 1), (1.0, 0), (2.0, 0)]
        assert fire_order(specs) == [2, 1, 3, 0]

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1e6, allow_nan=False),
                st.integers(min_value=0, max_value=5),
            ),
            max_size=200,
        )
    )
    def test_property_fires_sorted(self, specs):
        keys = [(time, priority, seq) for seq, (time, priority) in enumerate(specs)]
        assert [keys[i] for i in fire_order(specs)] == sorted(keys)

    def test_handles_are_insertion_order(self):
        sim = Simulator()
        handles = [sim.schedule_at(t, noop) for t in (5.0, 1.0, 3.0)]
        assert handles == [0, 1, 2]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(5.0, lambda _: seen.append(sim.now))
        assert sim.run() == 5.0
        assert seen == [5.0]

    def test_schedule_in_past_rejected(self):
        sim = Simulator(start_time=10.0)
        with pytest.raises(SimulationError, match="before current time"):
            sim.schedule_at(5.0, noop)
        assert sim.pending_events == 0

    def test_nan_time_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match="NaN"):
            sim.schedule_at(float("nan"), noop)
        assert sim.pending_events == 0

    def test_schedule_at_now_allowed(self):
        sim = Simulator()
        order = []

        def outer(_):
            order.append("outer")
            sim.schedule_at(sim.now, lambda _: order.append("inner"))

        sim.schedule_at(1.0, outer)
        sim.run()
        assert order == ["outer", "inner"]
        assert sim.now == 1.0

    def test_pending_events_counts_live_only(self):
        sim = Simulator()
        first = sim.schedule_at(1.0, noop)
        sim.schedule_at(2.0, noop)
        assert sim.pending_events == 2
        sim.cancel(first)
        assert sim.pending_events == 1

    def test_cancelled_events_skipped(self):
        sim = Simulator()
        fired = []
        first = sim.schedule_at(1.0, fired.append, payload="a")
        sim.schedule_at(2.0, fired.append, payload="b")
        sim.cancel(first)
        sim.run()
        assert fired == ["b"]
        assert sim.events_processed == 1
        assert sim.now == 2.0

    def test_cancel_prevents_firing(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule_at(1.0, fired.append, payload=1)
        sim.cancel(handle)
        sim.run()
        assert fired == []
        assert sim._heap == [] and sim._live == set()

    def test_cancel_after_until_stop(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, fired.append, payload=1)
        late = sim.schedule_at(10.0, fired.append, payload=10)
        sim.run(until=5.0)
        sim.cancel(late)
        assert sim.pending_events == 0
        assert sim.run() == 5.0
        assert fired == [1]
        assert sim._heap == [] and sim._live == set()

    def test_pending_does_not_remove(self):
        sim = Simulator()
        sim.schedule_at(2.0, noop, EventPriority.SAMPLE, "x")
        sim.schedule_at(1.0, noop, EventPriority.FINISH, "y")
        first = sim.pending()
        assert [entry[:3] for entry in first] == [
            (1.0, EventPriority.FINISH, 1), (2.0, EventPriority.SAMPLE, 0),
        ]
        assert [entry[4] for entry in first] == ["y", "x"]
        assert sim.pending() == first
        assert sim.pending_events == 2

    def test_pending_skips_cancelled(self):
        sim = Simulator()
        first = sim.schedule_at(1.0, noop)
        sim.schedule_at(2.0, noop, EventPriority.KILL)
        sim.cancel(first)
        assert [entry[:3] for entry in sim.pending()] == [(2.0, EventPriority.KILL, 1)]

    def test_run_on_empty_calendar_returns_clock(self):
        sim = Simulator(start_time=7.0)
        assert sim.run() == 7.0
        assert sim.events_processed == 0
        assert sim.run(until=9.0) == 9.0

    def test_events_spawned_during_run(self):
        sim = Simulator()
        fired = []

        def chain(_):
            fired.append(sim.now)
            if sim.now < 3:
                sim.schedule_at(sim.now + 1.0, chain)

        sim.schedule_at(1.0, chain)
        sim.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_max_events_guard(self):
        sim = Simulator()

        def forever(_):
            sim.schedule_at(sim.now + 1.0, forever)

        sim.schedule_at(0.0, forever)
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(max_events=50)
        assert sim.events_processed == 50

    def test_run_reentrant_rejected(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda _: sim.run())
        with pytest.raises(SimulationError, match="re-entrantly"):
            sim.run()
        # The failed run still releases the calendar for a later run.
        sim.schedule_at(2.0, noop)
        assert sim.run() == 2.0

    def test_restore_clock_rejected_while_running(self):
        sim = Simulator()
        state = sim.clock_state()
        sim.schedule_at(1.0, lambda _: sim.restore_clock(state))
        with pytest.raises(SimulationError, match="running"):
            sim.run()

    def test_restore_carries_events_processed(self):
        source = Simulator()
        for time in (1.0, 2.0, 3.0):
            source.schedule_at(time, noop)
        source.run(until=2.0)
        clone = Simulator()
        for entry in source.pending():
            clone.restore_event(*entry)
        clone.restore_clock(source.clock_state())
        assert clone.clock_state() == {"now": 2.0, "seq": 3, "events_processed": 2}
        clone.run()
        assert clone.events_processed == 3
        assert clone.now == 3.0

    def test_priority_order_within_instant(self):
        sim = Simulator()
        order = []
        sim.schedule_at(1.0, order.append, EventPriority.SUBMIT, "submit")
        sim.schedule_at(1.0, order.append, EventPriority.FINISH, "finish")
        sim.schedule_at(1.0, order.append, EventPriority.SCHEDULE, "schedule")
        sim.run()
        assert order == ["finish", "submit", "schedule"]

    def test_events_processed_counter(self):
        sim = Simulator()
        for t in (1.0, 2.0, 3.0):
            sim.schedule_at(t, noop)
        sim.run()
        assert sim.events_processed == 3

    def test_payload_passed(self):
        sim = Simulator()
        got = []
        sim.schedule_at(1.0, got.append, payload={"x": 1})
        sim.run()
        assert got == [{"x": 1}]


class TestRandomStreams:
    def test_same_seed_same_stream(self):
        a = RandomStreams(42).get("arrival")
        b = RandomStreams(42).get("arrival")
        assert a.uniform() == b.uniform()

    def test_streams_independent_of_request_order(self):
        s1 = RandomStreams(42)
        s2 = RandomStreams(42)
        _ = s1.get("other")  # request an extra stream first
        assert s1.get("arrival").uniform() == s2.get("arrival").uniform()

    def test_different_names_differ(self):
        s = RandomStreams(42)
        assert s.get("a").uniform() != s.get("b").uniform()

    def test_different_seeds_differ(self):
        a = RandomStreams(1).get("arrival")
        b = RandomStreams(2).get("arrival")
        assert a.uniform() != b.uniform()

    def test_get_returns_same_object(self):
        s = RandomStreams(0)
        assert s.get("x") is s.get("x")

    def test_spawn_reproducible_and_distinct(self):
        root = RandomStreams(7)
        child_a = root.spawn(0)
        child_b = root.spawn(1)
        child_a2 = RandomStreams(7).spawn(0)
        assert child_a.seed == child_a2.seed
        assert child_a.seed != child_b.seed
        assert child_a.seed != root.seed
