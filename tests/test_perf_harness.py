"""Tests for the wall-clock perf harness (`repro perf`).

Real measurements are exercised at tiny scale (``--scale``), so the
suite verifies plumbing — schema, determinism of case construction,
regression arithmetic, CLI exit codes — without long timings.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.perf import (
    build_cases,
    case_names,
    compare_reports,
    measure_sweep_throughput,
    run_perf,
    worker_ladder,
)
from repro.perf.core import PerfCase, render_report
from repro.perf.sweep_scaling import render_throughput

TINY = dict(quick=True, scale=0.01)


def _tiny_cases(names=None):
    return build_cases(names=names, **TINY)


class TestCaseRegistry:
    def test_case_names_stable(self):
        assert case_names() == [
            "profile_build",
            "profile_queries",
            "easy_pass",
            "conservative_pass",
            "e2e_easy",
            "e2e_conservative",
            "trace_replay",
        ]

    def test_unknown_case_rejected(self):
        with pytest.raises(KeyError):
            build_cases(names=["nope"], **TINY)

    def test_subset_selection(self):
        cases = _tiny_cases(names=["e2e_easy"])
        assert [case.name for case in cases] == ["e2e_easy"]

    def test_cases_return_elapsed_and_events(self):
        for case in _tiny_cases(names=["profile_build", "easy_pass"]):
            elapsed, events = case.run_once()
            assert elapsed >= 0.0
            assert events > 0


class TestRunPerf:
    def test_report_schema(self):
        report = run_perf(
            _tiny_cases(names=["profile_queries"]),
            mode="quick",
            repeats_override=1,
        )
        payload = report.to_payload()
        assert payload["schema"] == 1
        assert payload["mode"] == "quick"
        assert payload["calibration_ms"] > 0
        case = payload["cases"]["profile_queries"]
        assert case["repeats"] == 1
        assert len(case["runs_ms"]) == 1
        assert case["median_ms"] >= 0
        assert case["events"] > 0
        assert case["normalized"] is not None
        # Render must not crash and must mention every case.
        table = render_report(payload)
        assert "profile_queries" in table

    def test_events_deterministic_across_runs(self):
        (case,) = _tiny_cases(names=["e2e_easy"])
        _, events_a = case.run_once()
        _, events_b = case.run_once()
        assert events_a == events_b  # same seeded workload every time


def _fake_report(normalized: dict) -> dict:
    return {
        "schema": 1,
        "mode": "quick",
        "calibration_ms": 50.0,
        "cases": {
            name: {"median_ms": 1.0, "normalized": value}
            for name, value in normalized.items()
        },
    }


class TestRegressionGate:
    def test_no_regression_within_tolerance(self):
        base = _fake_report({"a": 1.0, "b": 2.0})
        cur = _fake_report({"a": 1.2, "b": 2.1})
        assert compare_reports(cur, base, max_regression=0.25) == []

    def test_regression_detected(self):
        base = _fake_report({"a": 1.0})
        cur = _fake_report({"a": 1.4})
        regs = compare_reports(cur, base, max_regression=0.25)
        assert len(regs) == 1
        assert regs[0]["case"] == "a"
        assert regs[0]["ratio"] == pytest.approx(1.4)

    def test_new_and_removed_cases_ignored(self):
        base = _fake_report({"gone": 1.0, "kept": 1.0})
        cur = _fake_report({"kept": 1.0, "added": 99.0})
        assert compare_reports(cur, base, max_regression=0.25) == []

    def test_improvement_never_flags(self):
        base = _fake_report({"a": 10.0})
        cur = _fake_report({"a": 1.0})
        assert compare_reports(cur, base, max_regression=0.25) == []


class TestPerfCLI:
    def test_list(self, capsys):
        assert main(["perf", "--list"]) == 0
        out = capsys.readouterr().out
        assert "e2e_easy" in out

    def test_run_writes_json(self, tmp_path, capsys):
        out = tmp_path / "perf.json"
        code = main([
            "perf", "--quick", "--quiet", "--scale", "0.01",
            "--repeats", "1", "--case", "profile_build",
            "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert "profile_build" in payload["cases"]

    def test_baseline_gate_passes_and_fails(self, tmp_path, capsys):
        out = tmp_path / "now.json"
        args = [
            "perf", "--quick", "--quiet", "--scale", "0.01",
            "--repeats", "1", "--case", "profile_build", "--out", str(out),
        ]
        assert main(args) == 0
        payload = json.loads(out.read_text())
        capsys.readouterr()

        # Baseline much slower than reality -> no regression.
        slow = json.loads(json.dumps(payload))
        slow["cases"]["profile_build"]["normalized"] *= 100
        slow_path = tmp_path / "slow.json"
        slow_path.write_text(json.dumps(slow))
        assert main(args + ["--baseline", str(slow_path)]) == 0

        # Baseline much faster than reality -> regression, exit 1.
        fast = json.loads(json.dumps(payload))
        fast["cases"]["profile_build"]["normalized"] /= 100
        fast_path = tmp_path / "fast.json"
        fast_path.write_text(json.dumps(fast))
        assert main(args + ["--baseline", str(fast_path)]) == 1

    def test_baseline_mode_mismatch_errors(self, tmp_path, capsys):
        out = tmp_path / "now.json"
        args = [
            "perf", "--quick", "--quiet", "--scale", "0.01",
            "--repeats", "1", "--case", "profile_build", "--out", str(out),
        ]
        assert main(args) == 0
        payload = json.loads(out.read_text())
        payload["mode"] = "full"
        other = tmp_path / "full.json"
        other.write_text(json.dumps(payload))
        assert main(args + ["--baseline", str(other)]) == 1

    def test_unknown_case_errors(self, capsys):
        assert main(["perf", "--case", "bogus", "--quiet"]) == 1

    def test_baseline_missing_or_corrupt_clean_error(self, tmp_path, capsys):
        args = [
            "perf", "--quick", "--quiet", "--scale", "0.01",
            "--repeats", "1", "--case", "profile_build", "--out", "",
        ]
        assert main(args + ["--baseline", str(tmp_path / "nope.json")]) == 1
        assert "error: cannot read baseline" in capsys.readouterr().err
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(args + ["--baseline", str(bad)]) == 1
        assert "not valid JSON" in capsys.readouterr().err


def test_perfcase_dataclass_shape():
    case = PerfCase(
        name="x", description="d", run_once=lambda: (0.0, 1), repeats=2
    )
    assert case.repeats == 2 and case.tags == ()


class TestSweepThroughput:
    def test_worker_ladder_shape(self):
        assert worker_ladder(1) == [1]
        assert worker_ladder(2) == [1, 2]
        assert worker_ladder(4) == [1, 2, 4]
        assert worker_ladder(6) == [1, 2, 4, 6]
        assert worker_ladder(8) == [1, 2, 4, 8]
        with pytest.raises(ValueError):
            worker_ladder(0)

    def test_measure_smoke(self):
        """Tiny ladder through the real runner: schema + full rungs."""
        lines = []
        payload = measure_sweep_throughput(
            2, cells=2, jobs_per_cell=25, progress=lines.append
        )
        assert payload["cells"] == 2
        assert [r["workers"] for r in payload["rungs"]] == [1, 2]
        for rung in payload["rungs"]:
            assert rung["cells"] == 2
            assert rung["cells_per_sec"] > 0
            assert rung["efficiency"] is not None
        assert payload["rungs"][0]["speedup"] == pytest.approx(1.0)
        assert len(lines) == 2
        table = render_throughput(payload)
        assert "cells/sec" in table and "workers" in table

    def test_cli_workers_flag(self, tmp_path, capsys):
        out = tmp_path / "perf.json"
        # --workers-history must point into tmp: the default path is
        # the *checked-in* trend history, which a test run must never
        # pollute (it silently did before this flag was passed here).
        history = tmp_path / "history.jsonl"
        code = main([
            "perf", "--quick", "--quiet", "--scale", "0.01",
            "--repeats", "1", "--case", "profile_build",
            "--workers", "2", "--sweep-cells", "2", "--out", str(out),
            "--workers-history", str(history),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert "sweep_throughput" in payload
        rungs = payload["sweep_throughput"]["rungs"]
        assert [r["workers"] for r in rungs] == [1, 2]
        printed = capsys.readouterr().out
        assert "sweep throughput" in printed
        # One appended record => the trend report renders and rides
        # along in the payload.
        assert "efficiency trend" in printed
        trend = payload["sweep_throughput"]["trend"]
        assert trend["records"] == 1
        assert trend["platforms"][0]["rungs"][0]["samples"] == 1

    def test_throughput_never_gates(self, tmp_path, capsys):
        """The baseline gate must ignore the sweep_throughput section
        (it has no 'cases' entry, so compare_reports skips it)."""
        base = _fake_report({"profile_build": 1.0})
        cur = _fake_report({"profile_build": 1.0})
        cur["sweep_throughput"] = {"cells": 2, "rungs": []}
        assert compare_reports(cur, base, max_regression=0.25) == []


class TestWorkersHistory:
    """Efficiency-trend tracking: `repro perf --workers` appends every
    ladder run to a JSONL history whose first record is the baseline
    that CI flags parallel-efficiency regressions against."""

    PAYLOAD = {
        "cells": 8,
        "jobs_per_cell": 60,
        "rungs": [
            {"workers": 1, "elapsed_s": 1.0, "cells_per_sec": 8.0,
             "speedup": 1.0, "efficiency": 1.0},
            {"workers": 2, "elapsed_s": 0.6, "cells_per_sec": 13.3,
             "speedup": 1.667, "efficiency": 0.833},
        ],
    }

    def test_append_creates_and_extends_jsonl(self, tmp_path):
        from repro.perf import append_workers_history

        path = tmp_path / "workers_history.jsonl"
        first = append_workers_history(self.PAYLOAD, path)
        second = append_workers_history(self.PAYLOAD, path)
        assert first is not None and second is not None
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 2
        record = json.loads(lines[0])
        assert record["schema"] == 1
        assert record["rungs"][1]["efficiency"] == 0.833

    def test_append_skips_when_directory_absent(self, tmp_path):
        from repro.perf import append_workers_history

        missing = tmp_path / "no-such-dir" / "history.jsonl"
        assert append_workers_history(self.PAYLOAD, missing) is None
        assert not missing.exists()

    def test_regression_flagged_against_first_record(self, tmp_path):
        from repro.perf import append_workers_history, efficiency_regressions

        path = tmp_path / "workers_history.jsonl"
        append_workers_history(self.PAYLOAD, path)
        degraded = {
            "rungs": [
                {"workers": 1, "cells_per_sec": 8.0, "speedup": 1.0,
                 "efficiency": 1.0},
                {"workers": 2, "cells_per_sec": 9.0, "speedup": 1.1,
                 "efficiency": 0.55},
            ]
        }
        flags = efficiency_regressions(degraded, path, max_regression=0.25)
        assert flags == [{
            "workers": 2,
            "baseline_efficiency": 0.833,
            "current_efficiency": 0.55,
            "floor": round(0.833 * 0.75, 3),
        }]
        # Within tolerance: no flags; serial rungs never flag.
        ok = {"rungs": [{"workers": 2, "cells_per_sec": 12.0,
                         "speedup": 1.5, "efficiency": 0.75}]}
        assert efficiency_regressions(ok, path, max_regression=0.25) == []

    def test_no_history_means_no_flags(self, tmp_path):
        from repro.perf import efficiency_regressions

        assert efficiency_regressions(
            self.PAYLOAD, tmp_path / "absent.jsonl"
        ) == []

    def test_checked_in_baseline_parses(self):
        with open("benchmarks/perf/workers_history.jsonl") as handle:
            record = json.loads(handle.readline())
        assert record["schema"] == 1
        assert record["platform"]  # the baseline-matching key
        assert any(r["workers"] > 1 for r in record["rungs"])

    def test_baseline_matching_is_per_platform(self, tmp_path):
        from repro.perf import efficiency_regressions

        path = tmp_path / "history.jsonl"
        foreign = {
            "schema": 1, "platform": "SomeOtherOS-1.0",
            "rungs": [{"workers": 2, "efficiency": 0.9}],
        }
        path.write_text(json.dumps(foreign) + "\n")
        degraded = {"rungs": [{"workers": 2, "cells_per_sec": 1.0,
                               "speedup": 1.0, "efficiency": 0.2}]}
        # A foreign-platform record is not a meaningful floor.
        assert efficiency_regressions(degraded, path) == []


class TestWorkersTrend:
    """The trend *report* over the whole history: per-platform series
    with baseline / median / latest per worker count — the successor
    of the first-record-only comparison."""

    @staticmethod
    def _record(platform, eff2, at):
        return {
            "schema": 1, "recorded_at": at, "platform": platform,
            "rungs": [
                {"workers": 1, "cells_per_sec": 10.0, "speedup": 1.0,
                 "efficiency": 1.0},
                {"workers": 2, "cells_per_sec": 10.0 * 2 * eff2,
                 "speedup": 2 * eff2, "efficiency": eff2},
            ],
        }

    def _history(self, tmp_path, records):
        path = tmp_path / "history.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        return path

    def test_series_baseline_median_latest(self, tmp_path):
        from repro.perf import workers_trend

        path = self._history(tmp_path, [
            self._record("hostA", 0.8, "t1"),
            self._record("hostA", 0.6, "t2"),
            self._record("hostA", 0.7, "t3"),
        ])
        trend = workers_trend(path)
        assert trend["records"] == 3
        (entry,) = trend["platforms"]
        assert entry["platform"] == "hostA"
        assert entry["first_recorded"] == "t1"
        assert entry["last_recorded"] == "t3"
        rung2 = next(r for r in entry["rungs"] if r["workers"] == 2)
        assert rung2["efficiency_series"] == [0.8, 0.6, 0.7]
        assert rung2["baseline_efficiency"] == 0.8
        assert rung2["latest_efficiency"] == 0.7
        assert rung2["median_efficiency"] == 0.7
        assert rung2["delta_vs_baseline"] == pytest.approx(-0.1)

    def test_platforms_never_mix(self, tmp_path):
        from repro.perf import workers_trend

        path = self._history(tmp_path, [
            self._record("hostA", 0.8, "t1"),
            self._record("hostB", 0.2, "t2"),
        ])
        trend = workers_trend(path)
        assert {p["platform"] for p in trend["platforms"]} == {"hostA", "hostB"}
        for entry in trend["platforms"]:
            assert entry["runs"] == 1

    def test_empty_history_yields_none(self, tmp_path):
        from repro.perf import workers_trend

        assert workers_trend(tmp_path / "absent.jsonl") is None
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert workers_trend(empty) is None

    def test_torn_line_is_skipped(self, tmp_path):
        from repro.perf import workers_trend

        path = self._history(tmp_path, [self._record("hostA", 0.8, "t1")])
        with path.open("a") as handle:
            handle.write('{"schema": 1, "recorded_at": "t2", "platfo\n')
        trend = workers_trend(path)
        assert trend["records"] == 1

    def test_render_skips_serial_rung(self, tmp_path):
        from repro.perf import render_workers_trend, workers_trend

        path = self._history(tmp_path, [
            self._record("hostA", 0.8, "t1"),
            self._record("hostA", 0.75, "t2"),
        ])
        table = render_workers_trend(workers_trend(path))
        assert "efficiency trend: hostA — 2 runs" in table
        assert "80%" in table and "75%" in table
        # The serial rung is 1.0 by construction and never rendered.
        assert "100%" not in table

    def test_checked_in_history_renders(self):
        from repro.perf import render_workers_trend, workers_trend

        trend = workers_trend("benchmarks/perf/workers_history.jsonl")
        assert trend is not None
        assert render_workers_trend(trend)

class TestTrendFreshCloneRobustness:
    """A fresh clone's first ``repro perf --workers`` run meets
    whatever workers-history it finds — absent, empty, torn, or
    hand-mangled — and must degrade to "no trend", never crash."""

    def _payload(self, eff2=0.8):
        return {"rungs": [{"workers": 2, "cells_per_sec": 16.0,
                           "speedup": 2 * eff2, "efficiency": eff2}]}

    def test_missing_and_empty_history(self, tmp_path):
        from repro.perf import efficiency_regressions, workers_trend

        absent = tmp_path / "no" / "history.jsonl"
        assert efficiency_regressions(self._payload(), absent) == []
        assert workers_trend(absent) is None
        empty = tmp_path / "history.jsonl"
        empty.write_text("")
        assert efficiency_regressions(self._payload(), empty) == []
        assert workers_trend(empty) is None

    def test_rung_without_workers_key(self, tmp_path):
        """Regression: a same-platform record whose rung carried an
        efficiency but no worker count raised KeyError('workers')."""
        import platform

        from repro.perf import efficiency_regressions

        path = tmp_path / "history.jsonl"
        path.write_text(json.dumps({
            "schema": 1, "platform": platform.platform(),
            "rungs": [{"efficiency": 0.9, "cells_per_sec": 5.0}],
        }) + "\n")
        assert efficiency_regressions(self._payload(0.1), path) == []

    def test_scalar_lines_and_non_dict_rungs(self, tmp_path):
        import platform

        from repro.perf import efficiency_regressions, workers_trend

        here = platform.platform()
        path = tmp_path / "history.jsonl"
        path.write_text("\n".join([
            "42",                                     # scalar JSON line
            '"just a string"',
            json.dumps({"platform": here, "rungs": "oops"}),
            json.dumps({"platform": here,
                        "rungs": ["junk", {"workers": True,
                                           "efficiency": 0.5}]}),
            json.dumps({"platform": here,
                        "rungs": [{"workers": 2, "efficiency": 0.9,
                                   "cells_per_sec": 18.0}]}),
        ]) + "\n")
        # Only the last record's rung survives the filter.
        flags = efficiency_regressions(self._payload(0.5), path)
        assert flags and flags[0]["baseline_efficiency"] == 0.9
        trend = workers_trend(path)
        (entry,) = [p for p in trend["platforms"] if p["platform"] == here]
        (rung,) = entry["rungs"]
        assert rung["workers"] == 2
        assert rung["efficiency_series"] == [0.9]

    def test_missing_recorded_at_renders(self, tmp_path):
        from repro.perf import render_workers_trend, workers_trend

        path = tmp_path / "history.jsonl"
        path.write_text(json.dumps({
            "platform": "hostX",
            "rungs": [{"workers": 2, "efficiency": 0.7,
                       "cells_per_sec": 14.0}],
        }) + "\n")
        table = render_workers_trend(workers_trend(path))
        assert "unknown .. unknown" in table
        assert "None" not in table
