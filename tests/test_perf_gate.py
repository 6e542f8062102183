"""The CI perf gate's verdict (tools/perf_gate.py).

The verdict is a pure function of both sides' perfbench result lines
and ``BENCHMARK.json``, so these tests judge hand-made result lines
against the repo's own ``BENCHMARK.json`` and never run perfbench.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((REPO / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in BENCHMARK["workloads"]]
BOUNDS = {metric["name"]: metric["bound"] for metric in BENCHMARK["end_to_end"]}
BASE = {"setup_s": 2.0, "sim_jobs_per_s": 4000.0, "peak_rss_mib": 80.0}


def _load():
    spec = importlib.util.spec_from_file_location("perf_gate", REPO / "tools" / "perf_gate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gate = _load()


def line(correct=True, failed=0, **scale):
    """One perfbench result line, each metric ``BASE`` times its scale."""
    return {
        "correct": correct,
        "attempted": 10000,
        "failed": failed,
        "metrics": {
            name: {"value": value * scale.get(name, 1.0), "unit": "-"}
            for name, value in BASE.items()
        },
    }


def side(*runs, only=None):
    """The same runs for every workload (or only those in ``only``)."""
    return {w: list(runs) for w in WORKLOADS if only is None or w in only}


def judge(change, parent=None):
    parent = side(line(), line(), line()) if parent is None else parent
    return gate.verdict(BENCHMARK, change, parent)


def test_benchmark_declares_the_gated_metrics():
    assert {"sim_jobs_per_s", "peak_rss_mib", "setup_s"} <= set(BOUNDS)
    assert gate.NOT_GATED == {"setup_s"}


def test_identical_sides_pass():
    rows, problems = judge(side(line(), line(), line()))
    assert problems == []
    assert len(rows) == len(WORKLOADS) * len(BOUNDS)


def test_inside_the_bound_passes():
    slower = 1 - BOUNDS["sim_jobs_per_s"] * 0.8
    larger = 1 + BOUNDS["peak_rss_mib"] * 0.8
    change = side(*[line(sim_jobs_per_s=slower, peak_rss_mib=larger)] * 3)
    rows, problems = judge(change)
    assert problems == []
    assert {row[-1] for row in rows} == {"ok", "not gated"}


@pytest.mark.parametrize(
    "metric, scale",
    [
        ("sim_jobs_per_s", 1 - BOUNDS["sim_jobs_per_s"] * 1.2),  # higher is better
        ("peak_rss_mib", 1 + BOUNDS["peak_rss_mib"] * 1.2),  # lower is better
    ],
)
def test_past_the_bound_fails(metric, scale):
    change = side(line(), line(**{metric: scale}), line(**{metric: scale}))
    rows, problems = judge(change)
    assert len(problems) == len(WORKLOADS)
    assert all(metric in problem for problem in problems)
    assert sum(row[-1] == "FAIL" for row in rows) == len(WORKLOADS)


def test_better_by_far_passes():
    change = side(*[line(sim_jobs_per_s=3.0, peak_rss_mib=0.2)] * 3)
    assert judge(change)[1] == []


def test_one_slow_run_does_not_move_the_median():
    slow = 1 - BOUNDS["sim_jobs_per_s"] * 2
    change = side(line(), line(sim_jobs_per_s=slow), line())
    assert judge(change)[1] == []


def test_worse_setup_never_fails():
    change = side(*[line(setup_s=10.0)] * 3)
    rows, problems = judge(change)
    assert problems == []
    assert {row[-1] for row in rows if row[1] == "setup_s"} == {"not gated"}


@pytest.mark.parametrize("which", ["change", "parent"])
@pytest.mark.parametrize("bad", [{"correct": False}, {"failed": 3}])
def test_failed_output_check_fails(which, bad):
    broken = side(line(), line(**bad), line())
    clean = side(line(), line(), line())
    change, parent = (broken, clean) if which == "change" else (clean, broken)
    problems = judge(change, parent)[1]
    assert len(problems) == len(WORKLOADS)
    assert all(f"{which} output check failed" in problem for problem in problems)


@pytest.mark.parametrize("which", ["change", "parent"])
def test_missing_workload_is_an_error(which):
    partial = side(line(), line(), line(), only=WORKLOADS[:1])
    clean = side(line(), line(), line())
    change, parent = (partial, clean) if which == "change" else (clean, partial)
    problems = judge(change, parent)[1]
    assert problems == [f"{w}: no result from the {which}" for w in WORKLOADS[1:]]


def test_run_without_a_result_line_fails():
    change = side(line(), None, line())
    problems = judge(change)[1]
    assert problems == [f"{w}: a change run printed no result" for w in WORKLOADS]


def test_missing_gated_metric_is_an_error():
    stripped = line()
    del stripped["metrics"]["peak_rss_mib"]
    problems = judge(side(line(), stripped, line()))[1]
    assert problems == [f"{w}: peak_rss_mib missing from a result" for w in WORKLOADS]


def test_render_lists_every_row():
    rows, _ = judge(side(line(), line(), line()))
    table = gate.render(rows).splitlines()
    assert table[0].split()[:2] == ["workload", "metric"]
    assert len(table) == 1 + len(rows)


def test_usage_error_on_bad_arguments(tmp_path, capsys):
    assert gate.main([]) == 2
    assert gate.main([str(tmp_path)]) == 2
    assert "no perfbench/run.py" in capsys.readouterr().err


# ----------------------------------------------------------------------
# finer points of the verdict
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "runs, expected",
    [
        ([line(), line(sim_jobs_per_s=0.5)], BASE["sim_jobs_per_s"] * 0.75),
        ([None, line(), None], BASE["sim_jobs_per_s"]),
        ([None, None], None),
    ],
    ids=["even-count", "skips-missing-runs", "no-runs"],
)
def test_median_of_the_runs(runs, expected):
    assert gate._median(runs, "sim_jobs_per_s") == expected


def test_median_of_a_non_numeric_value_is_none():
    odd = line()
    odd["metrics"]["sim_jobs_per_s"]["value"] = "fast"
    assert gate._median([line(), odd], "sim_jobs_per_s") is None


@pytest.mark.parametrize("field", ["correct", "failed"])
def test_missing_status_field_fails(field):
    bare = line()
    del bare[field]
    problems = judge(side(line(), bare, line()))[1]
    assert len(problems) == len(WORKLOADS)
    assert all("change output check failed" in problem for problem in problems)


def test_zero_parent_value_of_a_lower_is_better_metric_fails():
    parent = side(*[line(peak_rss_mib=0.0)] * 3)
    rows, problems = judge(side(line(), line(), line()), parent)
    assert len(problems) == len(WORKLOADS)
    assert all("peak_rss_mib" in problem for problem in problems)
    assert all(row[-1] == "ok" for row in rows if row[1] == "sim_jobs_per_s")


def test_failure_names_medians_ratio_and_bound():
    change = side(*[line(sim_jobs_per_s=0.5)] * 3, only=WORKLOADS[:1])
    change.update(side(line(), line(), line(), only=WORKLOADS[1:]))
    problems = judge(change)[1]
    assert problems == [
        f"{WORKLOADS[0]}: sim_jobs_per_s median 2000 vs parent 4000 "
        f"(0.500x) is worse than the 25% bound"
    ]


def test_workloads_outside_the_benchmark_are_ignored():
    change = side(line(), line(), line())
    change["not-a-workload"] = [line(correct=False)]
    rows, problems = judge(change)
    assert problems == []
    assert {row[0] for row in rows} == set(WORKLOADS)


def test_rows_follow_the_benchmark_order():
    rows, _ = judge(side(line(), line(), line()))
    metrics = [metric["name"] for metric in BENCHMARK["end_to_end"]]
    assert [(row[0], row[1]) for row in rows] == [(w, m) for w in WORKLOADS for m in metrics]


# ----------------------------------------------------------------------
# running the sides, against a stub perfbench
# ----------------------------------------------------------------------
STUB = """\
import json, sys
from pathlib import Path
root = Path(__file__).resolve().parent.parent
with open(root.parent / "calls.log", "a") as log:
    log.write(json.dumps([root.name, sys.argv[1:]]) + "\\n")
out = root / "out.txt"
sys.stdout.write(out.read_text() if out.exists() else "")
code = root / "code.txt"
sys.exit(int(code.read_text()) if code.exists() else 0)
"""


def stub_root(tmp_path, name, out=None, code=None):
    """A checkout whose perfbench/run.py logs its call, prints ``out``
    and exits with ``code``."""
    root = tmp_path / name
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(STUB)
    (root / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    if out is not None:
        (root / "out.txt").write_text(out)
    if code is not None:
        (root / "code.txt").write_text(str(code))
    return root


def calls(tmp_path):
    log = tmp_path / "calls.log"
    return [json.loads(entry) for entry in log.read_text().splitlines()]


def test_run_once_reads_the_last_line(tmp_path):
    result = line(sim_jobs_per_s=1.5)
    root = stub_root(tmp_path, "side", out="report\n" + json.dumps(result) + "\n")
    assert gate.run_once(root, WORKLOADS[0]) == result


def test_run_once_passes_the_workload_and_settings(tmp_path):
    root = stub_root(tmp_path, "side", out=json.dumps(line()))
    gate.run_once(root, WORKLOADS[0])
    assert calls(tmp_path) == [["side", ["--workload", WORKLOADS[0], *gate.RUN_ARGS]]]


@pytest.mark.parametrize(
    "out, code",
    [
        (json.dumps(line()), 1),
        ("", 0),
        ("report\nnot json\n", 0),
        ("[1, 2]\n", 0),
    ],
    ids=["non-zero-exit", "no-output", "not-json", "not-an-object"],
)
def test_run_once_without_a_result_is_none(tmp_path, out, code):
    root = stub_root(tmp_path, "side", out=out, code=code)
    assert gate.run_once(root, WORKLOADS[0]) is None


def test_collect_alternates_which_side_goes_first(tmp_path):
    change = stub_root(tmp_path, "change", out=json.dumps(line()))
    parent = stub_root(tmp_path, "parent", out=json.dumps(line()))
    gate.collect(change, parent, WORKLOADS[:1])
    order = [name for name, _ in calls(tmp_path)]
    assert order == ["parent", "change", "change", "parent", "parent", "change"]


def test_collect_keeps_a_run_without_result_as_none(tmp_path):
    change = stub_root(tmp_path, "change", out="")
    parent = stub_root(tmp_path, "parent", out=json.dumps(line()))
    change_results, parent_results = gate.collect(change, parent, WORKLOADS)
    assert change_results == {w: [None] * gate.PAIRS for w in WORKLOADS}
    assert parent_results == {w: [line()] * gate.PAIRS for w in WORKLOADS}


@pytest.mark.parametrize(
    "change_scale, code, verdict",
    [(1.0, 0, "passed"), (0.5, 1, "FAILED")],
    ids=["same-speed-passes", "half-speed-fails"],
)
def test_main_end_to_end(tmp_path, monkeypatch, capsys, change_scale, code, verdict):
    change = stub_root(tmp_path, "change", out=json.dumps(line(sim_jobs_per_s=change_scale)))
    parent = stub_root(tmp_path, "parent", out=json.dumps(line()))
    monkeypatch.setattr(gate, "REPO", change)
    assert gate.main([str(parent)]) == code
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == f"perf gate: {verdict}"
    assert len(calls(tmp_path)) == 2 * gate.PAIRS * len(WORKLOADS)
