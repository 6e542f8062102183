"""Wall-clock measurement engine for the perf harness.

Every case is a :class:`PerfCase`: ``run_once`` performs one measured
unit and returns ``(elapsed_seconds, events)``, where ``events`` is the
case's natural work unit (queries answered, passes executed, simulation
events processed).  The harness repeats each case, keeps the **median**
wall-clock (robust against scheduler noise), and derives events/sec.

Cross-machine comparability: raw wall-clock depends on the host, so
every report also carries a *normalized* score — the case median
divided by the median of a fixed pure-python calibration loop measured
in the same process.  Regression gates compare normalized scores, which
makes a checked-in baseline meaningful on CI runners of a different
speed class than the machine that produced it.
"""

from __future__ import annotations

import platform
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "PerfCase",
    "PerfReport",
    "calibrate",
    "run_perf",
    "compare_reports",
    "render_report",
]

SCHEMA_VERSION = 1

#: Iterations of the calibration loop; sized to take O(50 ms) on a
#: contemporary core so three repeats stay under half a second.
_CALIBRATION_N = 1_000_000


@dataclass
class PerfCase:
    """One named measurement unit.

    ``extra`` (optional) runs once after the repeats and returns a dict
    merged into the case's payload record — the hook the trace-scale
    case uses to surface grid-size percentiles next to the gated
    wall-clock numbers.  Extra keys are
    informational: :func:`compare_reports` only reads ``normalized``,
    so they never participate in the regression gate.
    """

    name: str
    description: str
    run_once: Callable[[], Tuple[float, int]]
    repeats: int = 5
    tags: Tuple[str, ...] = ()
    extra: Optional[Callable[[], dict]] = None


@dataclass
class PerfReport:
    """The structured result of one harness invocation."""

    mode: str  # "full" | "quick"
    calibration_s: float
    cases: Dict[str, dict] = field(default_factory=dict)

    def to_payload(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "mode": self.mode,
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "calibration_ms": round(self.calibration_s * 1e3, 3),
            "cases": self.cases,
        }


def _calibration_loop(n: int = _CALIBRATION_N) -> int:
    total = 0
    for i in range(n):
        total += i * i
    return total


def calibrate(repeats: int = 3) -> float:
    """Median wall-clock of the fixed calibration loop, in seconds."""
    runs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _calibration_loop()
        runs.append(time.perf_counter() - t0)
    return statistics.median(runs)


def run_perf(
    cases: Sequence[PerfCase],
    mode: str = "full",
    repeats_override: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> PerfReport:
    """Measure every case; returns the structured report.

    ``repeats_override`` forces a repeat count on all cases (used by
    ``--repeats`` and by the test suite to keep runtime tiny).
    """
    calibration_s = calibrate()
    report = PerfReport(mode=mode, calibration_s=calibration_s)
    for case in cases:
        repeats = repeats_override or case.repeats
        runs: List[float] = []
        events = 0
        for i in range(repeats):
            elapsed, events = case.run_once()
            runs.append(elapsed)
            if progress is not None:
                progress(
                    f"  {case.name} [{i + 1}/{repeats}] {elapsed * 1e3:.1f} ms"
                )
        median_s = statistics.median(runs)
        record = {
            "description": case.description,
            "repeats": repeats,
            "runs_ms": [round(r * 1e3, 3) for r in runs],
            "median_ms": round(median_s * 1e3, 3),
            "events": events,
            "events_per_sec": (
                round(events / median_s, 1) if median_s > 0 else None
            ),
            "normalized": (
                round(median_s / calibration_s, 4) if calibration_s > 0 else None
            ),
        }
        if case.extra is not None:
            record.update(case.extra())
        report.cases[case.name] = record
    return report


def compare_reports(
    current: dict, baseline: dict, max_regression: float = 0.25
) -> List[dict]:
    """Regressions of ``current`` vs ``baseline`` on normalized scores.

    A case regresses when its normalized score grew by more than
    ``max_regression`` (0.25 = 25 % slower relative to the calibration
    loop).  Cases present in only one report are skipped — the gate
    must not fail just because a case was added or renamed.
    """
    regressions: List[dict] = []
    base_cases = baseline.get("cases", {})
    for name, cur in current.get("cases", {}).items():
        base = base_cases.get(name)
        if base is None:
            continue
        cur_norm, base_norm = cur.get("normalized"), base.get("normalized")
        if not cur_norm or not base_norm:
            continue
        ratio = cur_norm / base_norm
        if ratio > 1.0 + max_regression:
            regressions.append(
                {
                    "case": name,
                    "baseline_normalized": base_norm,
                    "current_normalized": cur_norm,
                    "ratio": round(ratio, 3),
                }
            )
    return regressions


def render_report(payload: dict) -> str:
    """ASCII table of a perf payload (CLI output)."""
    from ..metrics.report import ascii_table

    headers = ["case", "median ms", "events", "events/sec", "normalized"]
    rows = []
    for name, case in payload.get("cases", {}).items():
        rows.append(
            [
                name,
                f"{case['median_ms']:.1f}",
                str(case["events"]),
                f"{case['events_per_sec']:.0f}" if case["events_per_sec"] else "-",
                f"{case['normalized']:.3f}" if case["normalized"] else "-",
            ]
        )
    lines = [ascii_table(headers, rows)]
    lines.append(
        f"calibration: {payload['calibration_ms']:.1f} ms"
        f"  (normalized = case median / calibration; machine-portable)"
    )
    return "\n".join(lines)
