#!/usr/bin/env python3
"""Paired perfbench check of this checkout against its parent (CI: perf-gate).

Usage, from anywhere::

    python tools/perf_gate.py PARENT_CHECKOUT

``PARENT_CHECKOUT`` is a second checkout of the commit to compare
against (CI makes one with ``git worktree add ../parent HEAD^1``).
Each side runs its own ``perfbench/run.py``, which puts that side's
``src`` first on the path, with identical settings: ``--seed 42
--seconds 5 --trace 0``.  Every workload ``BENCHMARK.json`` lists runs
:data:`PAIRS` pairs, alternating which side goes first, so a slow
spell of a shared host lands on both sides alike.

The verdict (:func:`verdict`) reads the workloads, each end-to-end
metric's ``better`` direction and its ``bound`` from ``BENCHMARK.json``;
the script has no setting of its own.  It fails when

* a run of either side is not ``correct`` or has ``failed > 0``;
* a workload or a gated metric is missing from a side's results;
* the change's median of a gated metric is worse than the parent's
  median by more than the metric's bound.

Every end-to-end metric is printed; the ones in :data:`NOT_GATED` are
not judged (see there).  Exit status 0 when the gate passes, 1 when it
fails, 2 on a usage error.  Stdlib only.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

REPO = Path(__file__).resolve().parent.parent

#: Pairs of runs per workload.
PAIRS = 3

#: The perfbench settings both sides run with.
RUN_ARGS = ("--seed", "42", "--seconds", "5", "--trace", "0")

#: Printed but never judged: perfbench's own baseline table shows
#: ``setup_s`` spreading up to 0.38 (IQR / median) between identical
#: runs on kth-replay, wider than its 0.25 bound, so a verdict on three
#: pairs would be noise.
NOT_GATED = frozenset({"setup_s"})

#: One side's results: workload name -> the JSON result line of each run,
#: ``None`` for a run that printed none.
Results = Dict[str, List[Optional[dict]]]


def run_once(root: Path, workload: str) -> Optional[dict]:
    """One perfbench run of ``workload`` in checkout ``root``.

    Returns the JSON object of the last stdout line, or ``None`` when
    the run exits non-zero or prints no such line.  The run's report is
    passed through to stderr.
    """
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         *RUN_ARGS],
        cwd=root, capture_output=True, text=True,
    )
    sys.stderr.write(proc.stdout + proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) else None


def collect(change: Path, parent: Path, workloads: List[str]) -> Tuple[Results, Results]:
    """Run every workload in ``PAIRS`` pairs, alternating which side goes
    first; a run that printed no result line is kept as ``None``."""
    sides: Dict[Path, Results] = {change: {}, parent: {}}
    for workload in workloads:
        for pair in range(PAIRS):
            order = (parent, change) if pair % 2 == 0 else (change, parent)
            for root in order:
                sides[root].setdefault(workload, []).append(run_once(root, workload))
    return sides[change], sides[parent]


def _median(runs: List[Optional[dict]], metric: str) -> Optional[float]:
    values = []
    for run in filter(None, runs):
        try:
            values.append(float(run["metrics"][metric]["value"]))
        except (KeyError, TypeError, ValueError):
            return None
    return statistics.median(values) if values else None


def verdict(benchmark: dict, change: Results, parent: Results) -> Tuple[List[list], List[str]]:
    """Judge ``change`` against ``parent`` under ``benchmark``'s bounds.

    Returns the printed table's rows and the list of failures; the gate
    passes when that list is empty.  Pure: it runs nothing.
    """
    rows: List[list] = []
    problems: List[str] = []
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        runs = {"change": change.get(workload, []), "parent": parent.get(workload, [])}
        for side, side_runs in runs.items():
            if not side_runs:
                problems.append(f"{workload}: no result from the {side}")
            for run in side_runs:
                if run is None:
                    problems.append(f"{workload}: a {side} run printed no result")
                elif run.get("correct") is not True or run.get("failed") != 0:
                    problems.append(
                        f"{workload}: {side} output check failed "
                        f"(correct={run.get('correct')}, failed={run.get('failed')})"
                    )
        if not (runs["change"] and runs["parent"]):
            continue
        for metric in benchmark["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            new, old = _median(runs["change"], name), _median(runs["parent"], name)
            gated = name not in NOT_GATED
            if new is None or old is None:
                if gated:
                    problems.append(f"{workload}: {name} missing from a result")
                continue
            ratio = new / old if old else float("inf")
            worse = ratio < 1 - bound if metric["better"] == "higher" else ratio > 1 + bound
            if not gated:
                mark = "not gated"
            elif worse:
                mark = "FAIL"
                problems.append(
                    f"{workload}: {name} median {new:.4g} vs parent {old:.4g} "
                    f"({ratio:.3f}x) is worse than the {bound:.0%} bound"
                )
            else:
                mark = "ok"
            rows.append([workload, name, metric["better"], f"{old:.4g}", f"{new:.4g}",
                         f"{ratio:.3f}", f"{bound:.2f}", mark])
    return rows, problems


def render(rows: List[list]) -> str:
    header = ["workload", "metric", "better", "parent", "change", "ratio", "bound", "verdict"]
    table = [header] + rows
    widths = [max(len(str(row[i])) for row in table) for i in range(len(header))]
    return "\n".join(
        "  ".join(str(cell).ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in table
    )


def main(argv: List[str]) -> int:
    if len(argv) != 1:
        print("usage: perf_gate.py PARENT_CHECKOUT", file=sys.stderr)
        return 2
    parent = Path(argv[0]).resolve()
    if not (parent / "perfbench" / "run.py").is_file():
        print(f"error: no perfbench/run.py in {parent}", file=sys.stderr)
        return 2
    benchmark = json.loads((REPO / "BENCHMARK.json").read_text())
    workloads = [entry["name"] for entry in benchmark["workloads"]]
    change, parent_results = collect(REPO, parent, workloads)
    rows, problems = verdict(benchmark, change, parent_results)
    print(f"perf gate: {PAIRS} alternating pairs per workload, "
          f"perfbench/run.py {' '.join(RUN_ARGS)}; medians")
    print(render(rows))
    for problem in problems:
        print(f"FAIL {problem}")
    print("perf gate: " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
