"""Parallel scenario-sweep execution.

:class:`SweepRunner` takes a :class:`~repro.runner.scenario.ScenarioGrid`
(or an explicit scenario list), consults the on-disk result cache, and
executes the remaining cells — in parallel via ``multiprocessing`` when
``workers > 1``, serially otherwise.  Execution is deterministic: every
scenario generates its own workload from its own seed inside the worker,
so a 4-worker run and a 1-worker run of the same grid produce identical
records, and records are always returned in grid order regardless of
completion order.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..analysis.experiments import run_config
from ..metrics.summary import ResultSummary
from ..units import parse_mem
from .cache import ResultCache
from .scenario import Scenario, ScenarioGrid

__all__ = [
    "SweepRunner",
    "SweepReport",
    "PoolTask",
    "run_scenario",
    "default_workers",
]

ProgressFn = Callable[[str], None]


def default_workers(fallback: int = 1) -> int:
    """Worker count from the ``REPRO_SWEEP_WORKERS`` env var.

    The one knob shared by every sweep surface (examples, benches,
    scripts); each caller picks its own ``fallback`` when it is unset.
    """
    import os

    return int(os.environ.get("REPRO_SWEEP_WORKERS", str(fallback)))


def run_scenario(scenario: Scenario) -> Dict[str, Any]:
    """Execute one scenario and return its JSON-able summary record.

    The record deliberately contains no wall-clock timing or host
    details, so records are bitwise-comparable across runs, worker
    counts, and cache round-trips.  With ``scenario.audit`` (the
    default) :func:`~repro.analysis.run_config` deep-validates the raw
    result and raises :class:`~repro.errors.AuditError` on a violation.
    """
    spec = scenario.build_cluster_spec()
    jobs = scenario.build_jobs()
    class_local_mem = scenario.class_local_mem
    if class_local_mem is not None:
        # Directly-constructed Scenario objects may carry the "512GiB"
        # string form; from_dict normalizes, this covers the rest.
        class_local_mem = parse_mem(class_local_mem)
    _, summary = run_config(
        spec,
        jobs,
        label=scenario.name or spec.name,
        audit=scenario.audit,
        sample_interval=scenario.sample_interval,
        class_local_mem=class_local_mem,
        **scenario.scheduler,
    )
    return {
        "key": scenario.key(),
        "name": scenario.name,
        "coords": dict(scenario.coords),
        "seed": scenario.effective_seed(),
        "summary": asdict(summary),
    }


def _execute_indexed(
    item: Tuple[int, Scenario]
) -> Tuple[int, Dict[str, Any], float]:
    """Worker entry point: run one cell, keep its grid position."""
    index, scenario = item
    start = time.perf_counter()
    record = run_scenario(scenario)
    return index, record, time.perf_counter() - start


@dataclass(frozen=True)
class PoolTask:
    """One node of a :meth:`SweepRunner.run_task_graph` dependency graph.

    ``func`` must be a module-level (picklable) callable; ``args`` its
    positional arguments.  ``after`` names tasks that must complete
    before this one is dispatched — the shape sharded trace replay
    needs, where segment *i* of a chain consumes segment *i-1*'s
    checkpoint while unrelated chains run concurrently.
    """

    key: str
    func: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    after: Tuple[str, ...] = ()


@dataclass
class SweepReport:
    """Everything a sweep produced, in grid order."""

    grid_name: str
    records: List[Dict[str, Any]]
    executed: int
    cached: int
    elapsed: float
    workers: int

    @property
    def total(self) -> int:
        return len(self.records)

    def summaries(self) -> List[ResultSummary]:
        """Rehydrated :class:`ResultSummary` objects, grid order."""
        from .aggregate import summary_from_record

        return [summary_from_record(record) for record in self.records]

    def rows(self) -> List[Dict[str, Any]]:
        """Tidy rows: axis coordinates + flat summary metrics."""
        from .aggregate import records_to_rows

        return records_to_rows(self.records)

    def status_line(self) -> str:
        return (
            f"{self.grid_name}: {self.executed} executed / {self.cached} cached "
            f"of {self.total} scenarios ({self.workers} worker"
            f"{'s' if self.workers != 1 else ''}, {self.elapsed:.1f}s)"
        )


class SweepRunner:
    """Runs scenario grids with caching, parallelism, and progress.

    Parameters
    ----------
    workers:
        Process count for the execution pool.  ``1`` (default) runs
        serially in-process; higher values fan cells out over a
        ``multiprocessing`` pool.  The results are identical either way.
    cache_dir:
        Directory for the JSON result cache.  ``None`` disables caching.
    progress:
        Optional callable receiving one human-readable line per
        completed cell (and per cache hit).
    """

    def __init__(
        self,
        workers: int = 1,
        cache_dir: Optional[str | Path] = None,
        progress: Optional[ProgressFn] = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        self.progress = progress

    # ------------------------------------------------------------------
    def run(self, grid: Union[ScenarioGrid, Sequence[Scenario]]) -> SweepReport:
        """Run every cell of ``grid``; return records in grid order."""
        if isinstance(grid, ScenarioGrid):
            name = grid.name
            scenarios = grid.scenarios()
        else:
            name = "scenarios"
            scenarios = list(grid)
        total = len(scenarios)
        start = time.perf_counter()

        records: List[Optional[Dict[str, Any]]] = [None] * total
        pending: List[Tuple[int, Scenario]] = []
        cached = 0
        for index, scenario in enumerate(scenarios):
            hit = self.cache.get(scenario.key()) if self.cache is not None else None
            if hit is not None:
                # Presentation fields may have changed without touching
                # the physics; refresh them from the live scenario.
                hit["name"] = scenario.name
                hit["coords"] = dict(scenario.coords)
                if isinstance(hit.get("summary"), dict):
                    hit["summary"]["label"] = scenario.name
                records[index] = hit
                cached += 1
                self._report(cached, 0, total, scenario, "cached")
            else:
                pending.append((index, scenario))

        executed = 0
        for index, record, cell_elapsed in self._execute(pending):
            records[index] = record
            executed += 1
            if self.cache is not None:
                self.cache.put(
                    record["key"],
                    record,
                    scenario=scenarios[index].to_dict(),
                    elapsed=cell_elapsed,
                )
            self._report(
                cached, executed, total, scenarios[index], f"{cell_elapsed:.1f}s"
            )

        assert all(record is not None for record in records)
        return SweepReport(
            grid_name=name,
            records=records,  # type: ignore[arg-type]
            executed=executed,
            cached=cached,
            elapsed=time.perf_counter() - start,
            workers=self.workers,
        )

    # ------------------------------------------------------------------
    def run_task_graph(self, tasks: Sequence[PoolTask]) -> Dict[str, Any]:
        """Execute a dependency graph of tasks; return ``{key: result}``.

        Ready tasks (all ``after`` dependencies completed) are
        dispatched to the sweep's process pool as slots free up, so
        independent chains overlap while each chain's internal order is
        preserved.  With ``workers == 1`` the graph runs serially in
        topological order — results are identical either way (each task
        owns its outputs; the graph only sequences them).

        A worker exception propagates to the caller with the failing
        task's key attached; tasks already dispatched run to completion,
        tasks not yet dispatched are abandoned.
        """
        by_key = {task.key: task for task in tasks}
        if len(by_key) != len(tasks):
            raise ValueError("task graph has duplicate keys")
        for task in tasks:
            for dep in task.after:
                if dep not in by_key:
                    raise ValueError(
                        f"task {task.key!r} depends on unknown task {dep!r}"
                    )

        results: Dict[str, Any] = {}
        done: set = set()

        if self.workers == 1 or len(tasks) == 1:
            remaining = list(tasks)
            while remaining:
                ready = [t for t in remaining if all(d in done for d in t.after)]
                if not ready:
                    raise ValueError("task graph has a cycle")
                for task in ready:
                    start = time.perf_counter()
                    results[task.key] = task.func(*task.args)
                    done.add(task.key)
                    remaining.remove(task)
                    if self.progress is not None:
                        self.progress(
                            f"  [{len(done)}/{len(tasks)}] {task.key} "
                            f"({time.perf_counter() - start:.1f}s)"
                        )
            return results

        import multiprocessing

        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            context = multiprocessing.get_context()
        pending = dict(by_key)
        inflight: Dict[str, Any] = {}
        with context.Pool(processes=min(self.workers, len(tasks))) as pool:
            while pending or inflight:
                for key, task in list(pending.items()):
                    if all(dep in done for dep in task.after):
                        inflight[key] = pool.apply_async(task.func, task.args)
                        del pending[key]
                if not inflight:
                    raise ValueError("task graph has a cycle")
                settled = [key for key, res in inflight.items() if res.ready()]
                if not settled:
                    time.sleep(0.005)
                    continue
                for key in settled:
                    try:
                        results[key] = inflight.pop(key).get()
                    except Exception as exc:
                        raise RuntimeError(f"task {key!r} failed: {exc}") from exc
                    done.add(key)
                    if self.progress is not None:
                        self.progress(f"  [{len(done)}/{len(tasks)}] {key}")
        return results

    # ------------------------------------------------------------------
    def _execute(self, pending: List[Tuple[int, Scenario]]):
        """Yield ``(index, record, elapsed)`` for every pending cell."""
        if not pending:
            return
        if self.workers == 1 or len(pending) == 1:
            for item in pending:
                yield _execute_indexed(item)
            return
        import multiprocessing

        workers = min(self.workers, len(pending))
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            context = multiprocessing.get_context()
        with context.Pool(processes=workers) as pool:
            yield from pool.imap_unordered(_execute_indexed, pending)

    def _report(
        self, cached: int, executed: int, total: int, scenario: Scenario, status: str
    ) -> None:
        if self.progress is None:
            return
        done = cached + executed
        self.progress(f"[{done}/{total}] {scenario.name} ({status})")
