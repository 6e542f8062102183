"""Worker process for the offline workloads.

Usage: ``python3 perfbench/worker.py SPEC.json`` — writes the input
(kth-replay: the SWF trace, five times, timed), makes one untimed
reference run, repeats the timed run for the spec's time budget and
prints one JSON object on its last stdout line.  Timed spans carry the
speed gauge (``gauge.py``) and report reference CPU seconds.  With ``trace`` in the
spec it then makes one traced repetition and one more untraced
repetition, so the traced wall is compared with untraced walls of the
same process and minutes.  Run by ``run.py``; never imported by it, so
the wrappers a traced worker installs live and die with this process.
"""

from __future__ import annotations

import gc
import json
import re
import resource
import shutil
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402
from gauge import Span, SpeedGauge  # noqa: E402
from tracer import Tracer  # noqa: E402

#: Timed writes of the kth-replay trace; the set-up reports their median.
_INPUT_REPEATS = 5


def _timed(
    gauge: Optional[SpeedGauge], work: Callable[[], Any], gc_ticks: bool = False
) -> Tuple[Any, Span]:
    """Run ``work``; its span, in reference seconds with a gauge or in
    plain CPU seconds without one.  The span starts from a collected
    heap, so no collection of earlier garbage lands in it.

    A set-up has no scheduling passes to run the rulers between; with
    ``gc_ticks`` they run after garbage collections instead, which the
    set-up's allocations bring every few milliseconds.  Host speed moves
    within seconds: over ten runs, kth-replay's set-up counted at the
    factor of the runs spread 0.38 (IQR over median), with these
    rulers 0.10."""
    gc.collect()
    if gauge is None:
        start, cpu = time.perf_counter(), time.process_time()
        value = work()
        return value, Span(time.perf_counter() - start, time.process_time() - cpu, 1.0)

    def tick(phase: str, info: Dict[str, int]) -> None:
        if phase == "stop":
            gauge.tick()

    gauge.start()
    if gc_ticks:
        gc.callbacks.append(tick)
    try:
        value = work()
    finally:
        if gc_ticks:
            gc.callbacks.remove(tick)
    return value, gauge.stop()


def _one_rep(
    spec: Dict[str, Any],
    gauge: Optional[SpeedGauge] = None,
    audit: bool = False,
    segments: int = workloads.KTH_SEGMENTS,
) -> Dict[str, Any]:
    """One repetition: set-up and run timed apart."""
    if spec["workload"] == "wmix-conservative":
        sim, setup = _timed(
            gauge, lambda: workloads.wmix_simulation(spec["seed"], spec["jobs"]), gc_ticks=True
        )
        result, run = _timed(gauge, sim.run)
        rep = workloads.wmix_outcome(result, audit)
    else:
        from repro.runner.replay import replay_trace

        out_dir = Path(spec["work_dir"]) / "segments"
        shutil.rmtree(out_dir, ignore_errors=True)
        replay, setup = _timed(
            gauge, lambda: workloads.kth_spec(Path(spec["trace_path"])), gc_ticks=True
        )
        payload, run = _timed(
            gauge, lambda: replay_trace(replay, segments=segments, workers=1, out_dir=out_dir)
        )
        rep = workloads.kth_outcome(payload)
        shutil.rmtree(out_dir, ignore_errors=True)
    rep.update(setup_s=setup.ref_s, wall_s=run.wall_s, cpu_s=run.cpu_s, ref_s=run.ref_s)
    return rep


def _peak_rss_mib() -> float:
    """Peak resident set since the last :func:`_reset_peak_rss`."""
    try:
        status = Path("/proc/self/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+)", status).group(1)) / 1024.0
    except (OSError, AttributeError):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _reset_peak_rss() -> None:
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        pass  # the peak then also covers the reference run


def _check(spec: Dict[str, Any], reference: str, reps: List[Dict[str, Any]]) -> None:
    """Pinned digest (when one exists) and identity with the reference run."""
    for rep in reps:
        if spec.get("pin") and rep["digest"] != spec["pin"]:
            rep["problems"].append(
                f"digest {rep['digest'][:16]} != pinned {spec['pin'][:16]}"
            )
        if rep["digest"] != reference:
            rep["problems"].append("digest differs from the reference run")
        if rep["terminal"] != spec["jobs"]:
            rep["problems"].append(
                f"{rep['terminal']} terminal records for {spec['jobs']} jobs"
            )


def main(argv: List[str]) -> int:
    spec = json.loads(Path(argv[1]).read_text())
    out: Dict[str, Any] = {"input_setup_s": []}
    gauge = SpeedGauge()

    def write_trace() -> None:
        workloads.write_kth_trace(Path(spec["trace_path"]), spec["seed"], spec["jobs"])

    if spec["workload"] == "kth-replay":
        write_trace()
    # The reference run comes first and untimed: deep_audit on the
    # offline result (wmix), or the unsharded replay the sharded one
    # must stitch to (kth).  It also warms imports, caches and the heap,
    # which made the first writes of the trace up to twice as slow as
    # the later ones; so the timed writes come after it.
    first = _one_rep(spec, audit=True, segments=1)
    if spec["workload"] == "kth-replay":
        for _ in range(_INPUT_REPEATS):
            out["input_setup_s"].append(_timed(gauge, write_trace, gc_ticks=True)[1].ref_s)
    hook = workloads.RulerHook(gauge)
    _reset_peak_rss()
    reps: List[Dict[str, Any]] = []
    measured = 0.0

    def gauged_rep() -> Dict[str, Any]:
        """A timed repetition, the rulers between its passes."""
        hook.install()
        try:
            return _one_rep(spec, gauge)
        finally:
            hook.uninstall()

    # Whole repetitions; stop where the next one would end nearer past
    # the budget than the last one ended short of it.
    while not reps or measured + reps[-1]["wall_s"] / 2 < spec["budget_s"]:
        rep = gauged_rep()
        measured += rep["wall_s"]
        reps.append(rep)
    out["rss_mib"] = _peak_rss_mib() - gauge.resident_mib
    checked = list(reps)
    if spec["trace"]:
        tracer = Tracer()
        tracer.install_layers()
        try:
            # The hook wraps outside the tracer's spans, so the rulers
            # it runs stay out of every layer's time.
            traced = gauged_rep()
        finally:
            tracer.uninstall()
        out["trace"] = tracer.totals()
        out["traced"] = traced
        del tracer  # frees the engines it captured before the last run
        reps.append(gauged_rep())
        checked += [traced, reps[-1]]
    reps[0]["problems"] += first["problems"]
    _check(spec, first["digest"], checked)
    out["reps"] = reps
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
