"""The event calendar and its run loop.

:class:`Simulator` owns the clock and one ``heapq`` of plain
``(time, priority, seq, handler, payload)`` tuples.  Events fire in
``(time, priority, seq)`` order — a strict total order, since ``seq``
is unique — and a firing calls ``handler(payload)``.  Python heaps are
not stable, so ``seq`` (an insertion counter) is what makes two runs of
the same inputs fire identically.

:meth:`Simulator.schedule_at` is the one scheduling door.  It returns
the event's ``seq`` as its handle, and the handles of pending events
form a set: :meth:`Simulator.cancel` drops a handle from it in O(1),
and the run loop skips a popped entry whose handle is no longer there.
Snapshot restore re-enters checkpointed entries through
:meth:`Simulator.restore_event`.
"""

from __future__ import annotations

import enum
import heapq
import sys
from typing import Any, Callable, Optional

from ..errors import SimulationError

__all__ = ["EventPriority", "Simulator"]

_heappush = heapq.heappush


class EventPriority(enum.IntEnum):
    """Intra-instant processing order for the batch engine; lower fires
    first.

    At one instant, resources freed by finishing or killed jobs must be
    visible to the scheduling pass, and newly submitted jobs must be in
    the queue before that pass runs; hence FINISH < KILL < SUBMIT <
    SCHEDULE.  Samples see the instant's settled state.
    """

    FINISH = 0
    KILL = 1
    SUBMIT = 2
    SCHEDULE = 3
    SAMPLE = 4
    GENERIC = 5


class Simulator:
    """Discrete-event simulator with a deterministic event calendar.

    ``now`` is the clock; ``events_processed`` counts fired events and
    is carried through :meth:`restore_clock`, so a restored engine
    continues its predecessor's count.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self.now = float(start_time)
        self.events_processed = 0
        self._heap: list = []
        # Handles of the pending, not cancelled, events.  A cancelled
        # entry stays in the heap until it is popped and skipped.
        self._live: set = set()
        self._seq = 0
        self._running = False

    @property
    def pending_events(self) -> int:
        """Live (not cancelled) events in the calendar."""
        return len(self._live)

    def schedule_at(
        self,
        time: float,
        handler: Callable[[Any], None],
        priority: int = EventPriority.GENERIC,
        payload: Any = None,
    ) -> int:
        """Schedule ``handler(payload)`` at absolute time ``time``;
        returns the event's handle.

        Scheduling in the past or at NaN is an error; scheduling *at*
        the current instant is allowed (the event fires after the
        current handler returns, ordered by priority and seq).
        """
        if not time >= self.now:  # also rejects NaN
            if time != time:
                raise SimulationError("cannot schedule event at NaN time")
            raise SimulationError(
                f"cannot schedule event at t={time} "
                f"before current time t={self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        self._live.add(seq)
        _heappush(self._heap, (float(time), priority, seq, handler, payload))
        return seq

    def cancel(self, handle: int) -> None:
        """Keep a pending event from firing.  A handle that already
        fired, was never issued or is already cancelled is ignored."""
        self._live.discard(handle)

    # ------------------------------------------------------------------
    # checkpoint support
    # ------------------------------------------------------------------
    def pending(self) -> list:
        """Every live ``(time, priority, seq, handler, payload)`` entry
        in firing order; the calendar is untouched."""
        live = self._live
        return sorted(entry for entry in self._heap if entry[2] in live)

    def restore_event(
        self,
        time: float,
        priority: int,
        seq: int,
        handler: Callable[[Any], None],
        payload: Any,
    ) -> int:
        """Re-enter a checkpointed event under its exact original key.

        Only snapshot restore calls this, before the run loop starts;
        the counter is restored separately through :meth:`restore_clock`.
        """
        if self._running:
            raise SimulationError("cannot restore events into a running simulator")
        self._live.add(seq)
        _heappush(self._heap, (float(time), priority, seq, handler, payload))
        return seq

    def clock_state(self) -> dict:
        """The scalar clock state a checkpoint must carry."""
        return {
            "now": self.now,
            "seq": self._seq,
            "events_processed": self.events_processed,
        }

    def restore_clock(self, state: dict) -> None:
        """Set the clock scalars from a checkpoint.

        ``seq`` must exceed every restored event's, so post-restore
        scheduling continues the original total order.
        """
        if self._running:
            raise SimulationError("cannot restore a running simulator")
        self.now = float(state["now"])
        self._seq = int(state["seq"])
        self.events_processed = int(state["events_processed"])

    # ------------------------------------------------------------------
    # run loop
    # ------------------------------------------------------------------
    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Fire events in order until the calendar empties.

        ``until`` stops the clock at that time: later events stay in
        the calendar and the clock advances to ``until``.
        ``max_events`` bounds the cumulative ``events_processed``
        against runaway feedback loops.  Returns the final clock.
        """
        if self._running:
            raise SimulationError("run() called re-entrantly")
        self._running = True
        heap = self._heap
        unlive = self._live.remove
        pop = heapq.heappop
        bounded = until is not None
        limit = max_events if max_events is not None else sys.maxsize
        processed = self.events_processed
        try:
            while heap:
                if bounded and heap[0][0] > until:
                    break
                time, _, seq, handler, payload = pop(heap)
                try:
                    unlive(seq)
                except KeyError:  # cancelled
                    continue
                self.now = time
                processed += 1
                handler(payload)
                if processed >= limit:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; "
                        "likely a scheduling feedback loop"
                    )
            if bounded and self.now < until:
                self.now = until
            return self.now
        finally:
            self.events_processed = processed
            self._running = False
