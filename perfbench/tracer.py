"""Outside-in layer tracing: class-level wrappers around public methods.

The benchmark never edits the library.  For a traced run it replaces
public layer methods on their classes (or module attributes) with
timing wrappers, from this file, in a process of its own.  Each
wrapper records one span: a call count, the total time inside the
call, and the *self* time — total minus the time of wrapped calls
nested inside it (per thread, so the service's HTTP threads and its
engine thread never subtract from each other).

A layer's self time is the sum of its spans' self times.  On an
offline run every span runs on the one thread whose wall the
benchmark times, so the self times of all layers plus the
unattributed remainder (``engine.self_s``) add up to that wall.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["Tracer", "percentile", "layer_table"]

#: Layers whose spans run on the timed (engine) thread; their self
#: times are what the traced wall is split into.
WALL_LAYERS = (
    "profile",
    "backfill",
    "sched",
    "placement",
    "allocator",
    "cluster",
    "swf",
    "results",
    "snapshot",
    "replay",
    "journal",
)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    index = max(0, min(len(ordered) - 1, int(q * len(ordered) + 0.5) - 1))
    return ordered[index]


class _Span:
    __slots__ = ("count", "total", "self_time", "samples")

    def __init__(self, keep_samples: bool) -> None:
        self.count = 0
        self.total = 0.0
        self.self_time = 0.0
        self.samples: Optional[List[float]] = [] if keep_samples else None


class Tracer:
    """Installs span wrappers; :meth:`uninstall` restores the originals."""

    def __init__(self) -> None:
        self.spans: Dict[str, _Span] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: List[Tuple[Any, str, Any]] = []
        self.items: Dict[str, int] = {}
        self.grids: List[int] = []
        self.schedulers: List[Any] = []
        self.simulators: List[Any] = []

    # ------------------------------------------------------------------
    def _span(self, name: str, keep_samples: bool) -> _Span:
        span = self.spans.get(name)
        if span is None:
            span = self.spans[name] = _Span(keep_samples)
        return span

    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, span: _Span, elapsed: float, children: float) -> None:
        with self._lock:
            span.count += 1
            span.total += elapsed
            span.self_time += elapsed - children
            if span.samples is not None:
                span.samples.append(elapsed)

    def timed(self, name: str, fn: Callable, keep_samples: bool = False) -> Callable:
        """``fn`` wrapped in a span called ``name``."""
        span = self._span(name, keep_samples)
        stack_of = self._stack
        record = self._record
        clock = time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = stack_of()
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                record(span, elapsed, children)

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def timed_iter(self, name: str, iterator: Iterator) -> Iterator:
        """An iterator whose every ``next`` is a span called ``name``;
        ``self.items[name]`` counts the items it yielded."""
        step = self.timed(name, iterator.__next__)
        items = self.items
        items.setdefault(name, 0)

        class _Timed:
            def __iter__(self) -> "_Timed":
                return self

            def __next__(self) -> Any:
                value = step()
                items[name] += 1
                return value

        return _Timed()

    # ------------------------------------------------------------------
    def wrap(
        self, owner: Any, attr: str, name: str, keep_samples: bool = False
    ) -> None:
        """Replace ``owner.attr`` (a plain method, classmethod or module
        function) with a span wrapper."""
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            replacement: Any = classmethod(self.timed(name, raw.__func__, keep_samples))
        else:
            replacement = self.timed(name, raw, keep_samples)
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def observe(self, owner: type, attr: str, hook: Callable[[Any, tuple], Any]) -> None:
        """Replace method ``owner.attr`` with one returning
        ``hook(result, args)`` — a tap on what a layer hands back."""
        raw = owner.__dict__[attr]

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return hook(raw(*args, **kwargs), args)

        self._undo.append((owner, attr, raw))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        from repro.sched.profile import set_scan_observer

        set_scan_observer(None)
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------------
    def install_layers(self) -> None:
        """Wrap every layer boundary the benchmark reports on, and tap
        the schedulers, simulators and scan grids the run creates."""
        from repro.cluster.cluster import Cluster
        from repro.engine.results import RollingResults
        from repro.engine.simulation import SchedulerSimulation
        from repro.memdis import allocator as allocator_mod
        from repro.runner import replay as replay_mod
        from repro.sched import placement as placement_mod
        from repro.sched.base import Scheduler
        from repro.sched.profile import AvailabilityProfile, SweepCursor, set_scan_observer
        from repro.service.core import SchedulerService
        from repro.service.journal import StateStore
        from repro.sim.engine import Simulator

        wrap = self.wrap
        wrap(AvailabilityProfile, "__init__", "profile.build")
        wrap(AvailabilityProfile, "earliest_start", "profile.scan")
        wrap(SweepCursor, "earliest_start", "profile.scan")
        wrap(AvailabilityProfile, "add_reservation", "profile.add")
        wrap(AvailabilityProfile, "truncate_reservations", "profile.truncate")
        wrap(AvailabilityProfile, "apply_start", "profile.fold")
        wrap(AvailabilityProfile, "apply_release", "profile.fold")

        wrap(Scheduler, "schedule", "backfill.pass", keep_samples=True)
        wrap(Scheduler, "notify_release", "backfill.release")

        wrap(Scheduler, "try_start_now", "sched.try_start")
        for cls in _subclasses_defining(placement_mod.PlacementPolicy, "select"):
            wrap(cls, "select", "placement.select")
        for cls in _subclasses_defining(allocator_mod.PoolAllocator, "plan"):
            wrap(cls, "plan", "allocator.plan")
        for attr in ("allocate_nodes", "release_nodes", "allocate_pool", "release_pool"):
            wrap(Cluster, attr, f"cluster.{attr}")

        self.observe(
            replay_mod.ReplaySpec,
            "segment_stream",
            lambda stream, args: self.timed_iter("swf.next", stream),
        )
        wrap(RollingResults, "ingest", "results.ingest")
        wrap(SchedulerSimulation, "checkpoint", "snapshot.checkpoint")
        wrap(SchedulerSimulation, "restore", "snapshot.restore")
        wrap(replay_mod, "stitch_chain", "replay.stitch")

        wrap(StateStore, "append", "journal.append", keep_samples=True)
        wrap(StateStore, "write_snapshot", "journal.snapshot", keep_samples=True)
        wrap(SchedulerService, "submit", "core.submit", keep_samples=True)
        wrap(SchedulerService, "advise", "core.advise", keep_samples=True)

        self.observe(Scheduler, "__init__", lambda _, args: self.schedulers.append(args[0]))
        self.observe(Simulator, "__init__", lambda _, args: self.simulators.append(args[0]))
        set_scan_observer(self.grids.append)

    # ------------------------------------------------------------------
    def _ledgers(self) -> Dict[str, Dict[str, int]]:
        ledgers: Dict[str, Dict[str, int]] = {}
        for scheduler in self.schedulers:
            for ledger, counters in scheduler.strategy_stats().items():
                merged = ledgers.setdefault(ledger, {})
                for key, value in counters.items():
                    merged[key] = merged.get(key, 0) + value
        return ledgers

    def _events(self) -> int:
        # A restored engine carries its predecessor's count forward.
        return max((sim.events_processed for sim in self.simulators), default=0)

    def mark(self) -> Dict[str, Any]:
        """A baseline for :meth:`totals`: everything counted so far."""
        with self._lock:
            spans = {
                name: (span.count, span.total, span.self_time, len(span.samples or ()))
                for name, span in self.spans.items()
            }
        return {
            "spans": spans,
            "items": dict(self.items),
            "grids": len(self.grids),
            "ledgers": self._ledgers(),
            "events": self._events(),
        }

    def totals(self, since: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """Plain-JSON trace totals: spans (with samples where kept),
        stream item counts, scan-grid percentiles, the summed backfill
        ledgers of every scheduler built, and the engine event count.
        With ``since`` (a :meth:`mark`), only what was counted after it."""
        base = since or {"spans": {}, "items": {}, "grids": 0, "ledgers": {}, "events": 0}
        ledgers = self._ledgers()
        for ledger, counters in ledgers.items():
            before = base["ledgers"].get(ledger, {})
            for key in counters:
                counters[key] -= before.get(key, 0)
        with self._lock:
            spans = {}
            for name, span in self.spans.items():
                count, total, self_time, kept = base["spans"].get(name, (0, 0.0, 0.0, 0))
                spans[name] = {
                    "count": span.count - count,
                    "total_s": span.total - total,
                    "self_s": span.self_time - self_time,
                    "samples": span.samples[kept:] if span.samples is not None else None,
                }
            grids = self.grids[base["grids"]:]
        return {
            "spans": spans,
            "items": {name: n - base["items"].get(name, 0) for name, n in self.items.items()},
            "grid_p50": percentile(grids, 0.50),
            "grid_p99": percentile(grids, 0.99),
            "ledgers": ledgers,
            "events": self._events() - base["events"],
        }


def _subclasses_defining(base: type, attr: str) -> List[type]:
    """``base`` and every loaded subclass that defines ``attr`` itself."""
    found: List[type] = []
    pending = [base]
    while pending:
        cls = pending.pop()
        if attr in cls.__dict__ and not getattr(cls.__dict__[attr], "__isabstractmethod__", False):
            found.append(cls)
        pending.extend(cls.__subclasses__())
    return found


def layer_table(spans: Dict[str, Dict[str, Any]], wall_s: float) -> Dict[str, float]:
    """Self seconds per wall layer plus ``engine`` — the remainder of
    ``wall_s`` no wrapped span covers.  The values sum to ``wall_s``."""
    table = {layer: 0.0 for layer in WALL_LAYERS}
    for name, span in spans.items():
        layer = name.split(".")[0]
        if layer in table:
            table[layer] += span["self_s"]
    table["engine"] = wall_s - sum(table.values())
    return table
