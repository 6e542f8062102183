"""The benchmark's own tests: ``python3 -m pytest perfbench -q``.

Each workload runs at a tiny scale; the tests check the output
contract (every metric by name and unit, the JSON last line), the
traced self-time accounting, the output checks, and that the
benchmark refuses to run without the scheduler sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from run import BENCHMARKED, END_TO_END, PER_LAYER, SELF_LAYERS, SERVICE_LAYER, WORKLOADS  # noqa: E402

#: Jobs multiplier per workload for the tiny runs: 50 W-MIX jobs,
#: 1,000 W-KTH jobs (enough to span four segments with waiting jobs on
#: 1024 nodes), 50 service jobs.
SCALE = {"wmix-conservative": 0.005, "kth-replay": 0.05, "service-mixed": 0.01}


def bench(tmp_path: Path, workload: str, trace: int, pins: dict | None = None):
    pins_path = tmp_path / "pins.json"
    pins_path.write_text(json.dumps({"digests": pins or {}}))
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", "42", "--seconds", "0.2", "--trace", str(trace),
            "--scale", str(SCALE[workload]), "--pins", str(pins_path),
        ],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted_with_units(tmp_path, workload):
    result, _ = bench(tmp_path, workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_self_time_accounting(tmp_path, workload):
    result, report = bench(tmp_path, workload, trace=1)
    assert result["correct"] is True
    metrics = result["metrics"]
    expected = {**PER_LAYER, **(SERVICE_LAYER if workload == "service-mixed" else {})}
    assert {name: m["unit"] for name, m in metrics.items()} == expected
    shares = sum(metrics.get(f"{layer}.share", {"value": 0.0})["value"] for layer in SELF_LAYERS)
    assert shares == pytest.approx(1.0)
    assert metrics["backfill.passes"]["value"] > 0
    assert metrics["trace.overhead_ratio"]["value"] > 0
    assert "self time per layer" in report
    if workload == "service-mixed":
        assert metrics["journal.appends"]["value"] > 0
        assert metrics["core.handler_p50_ms"]["value"] > 0
    else:
        # Offline, every span runs on the timed thread.
        assert metrics["engine.self_s"]["value"] >= 0
    if workload == "kth-replay":
        assert metrics["swf.jobs"]["value"] == 1000
        assert metrics["snapshot.checkpoints"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_pin_fails_the_run(tmp_path, workload):
    import workloads

    key = workloads.pin_key(workload, 42, workloads.scaled_jobs(workload, SCALE[workload]))
    result, report = bench(tmp_path, workload, trace=0, pins={key: "0" * 64})
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]
    assert "CHECK FAILED" in report


def test_totals_since_a_mark_count_only_later_calls():
    from tracer import Tracer

    class Layer:
        def work(self, n):
            return n

    tracer = Tracer()
    tracer.wrap(Layer, "work", "layer.work", keep_samples=True)
    try:
        layer = Layer()
        layer.work(1)
        layer.work(2)
        mark = tracer.mark()
        for n in range(3):
            layer.work(n)
    finally:
        tracer.uninstall()
    since = tracer.totals(since=mark)["spans"]["layer.work"]
    assert since["count"] == 3 and len(since["samples"]) == 3
    assert tracer.totals()["spans"]["layer.work"]["count"] == 5
    assert Layer.work.__name__ == "work" and not hasattr(Layer.work, "__wrapped__")


def test_gauge_counts_cpu_time_not_sleep():
    import time

    from gauge import SpeedGauge

    gauge = SpeedGauge(every_s=0.0)
    gauge.start()
    for _ in range(3):
        time.sleep(0.02)
        gauge.tick()
    end = time.process_time() + 0.05
    while time.process_time() < end:
        pass
    span = gauge.stop()
    assert span.wall_s >= 0.1
    assert 0.04 < span.cpu_s < 0.09
    assert span.factor > 0 and span.ref_s == span.cpu_s * span.factor


def test_ruler_hook_ticks_after_every_pass_and_uninstalls():
    import workloads
    from repro.sched.base import Scheduler

    class Counter:
        ticks = 0

        def tick(self):
            self.ticks += 1

    counter = Counter()
    original = Scheduler.schedule
    hook = workloads.RulerHook(counter).install()
    try:
        workloads.wmix_simulation(42, 40).run()
    finally:
        hook.uninstall()
    assert Scheduler.schedule is original
    assert counter.ticks > 0


def test_benchmark_json_matches_the_emitted_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(BENCHMARKED)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kth-replay", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
