"""Perf-harness smoke bench: the wall-clock cases at reduced scale.

The full harness is `repro perf` (see benchmarks/perf/README.md); this
bench keeps the same cases alive inside the pytest bench suite so a
broken case fails CI even before the dedicated perf-smoke job runs,
and prints a small wall-clock table alongside the paper benches.

Scale: quick-mode sizes shrunk further (scale 0.1, 1 repeat) — this is
a plumbing check with indicative numbers, not the measurement of
record.  `BENCH_PERF.json` at the repo root is the measurement of
record, refreshed per PR via `repro perf`.
"""

from __future__ import annotations

from repro.perf import build_cases, render_report, run_perf


def test_perf_harness_smoke():
    cases = build_cases(quick=True, scale=0.1)
    report = run_perf(cases, mode="quick", repeats_override=1)
    payload = report.to_payload()

    print()
    print("perf harness smoke (scale 0.1, 1 repeat — indicative only):")
    print(render_report(payload))

    assert set(payload["cases"]) == {
        "profile_build",
        "profile_queries",
        "easy_pass",
        "conservative_pass",
        "e2e_easy",
        "e2e_conservative",
        "trace_replay",
    }
    for name, case in payload["cases"].items():
        assert case["events"] > 0, name
        assert case["median_ms"] >= 0.0, name
        assert case["normalized"] is not None, name
