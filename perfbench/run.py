"""The scheduler benchmark: one command, three named workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload wmix-conservative --seed 42 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
workload once more under the layer wrappers of ``tracer.py`` and
reports the per-layer metrics instead.  A human-readable report comes
first; the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Rates and
set-up times are in reference CPU seconds (``gauge.py``).
See ``perfbench/README.md`` for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

if TYPE_CHECKING:
    from gauge import SpeedGauge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("wmix-conservative", "kth-replay", "service-mixed")

#: The workloads BENCHMARK.json lists.  service-mixed runs on demand
#: only: its cost per job depends on how requests happen to batch, which
#: moves with CPU contention (see README.md, "service-mixed").
BENCHMARKED = ("wmix-conservative", "kth-replay")

#: End-to-end metrics: name -> unit.  Every workload reports all of them.
END_TO_END = {
    "setup_s": "s",
    "sim_jobs_per_s": "jobs/s",
    "peak_rss_mib": "MiB",
}

#: The service's request latencies, in wall milliseconds: printed in the
#: report, not gated (see README.md, "What is gated").
LATENCIES = ("submit", "decision", "advise")

#: Layers whose self times split the traced wall, in report order.
SELF_LAYERS = (
    "profile", "backfill", "sched", "placement", "allocator", "cluster",
    "swf", "results", "snapshot", "replay", "journal", "engine",
)

#: Per-layer metrics: name -> unit.  Every traced run reports all of
#: them; a layer the workload never enters reports 0.  The service
#: layers are in :data:`SERVICE_LAYER`.
PER_LAYER = {
    "profile.scans": "count",
    "profile.scans_per_pass": "ratio",
    "profile.scan_s": "s",
    "profile.adds": "count",
    "profile.add_s": "s",
    "profile.truncations": "count",
    "profile.folds": "count",
    "profile.fold_s": "s",
    "profile.builds": "count",
    "profile.grid_p50": "breakpoints",
    "profile.grid_p99": "breakpoints",
    "backfill.passes": "count",
    "backfill.pass_self_s": "s",
    "backfill.pass_p50_us": "us",
    "backfill.pass_p99_us": "us",
    "backfill.release_s": "s",
    "backfill.plan_retained_ratio": "ratio",
    "backfill.shadow_reuse_ratio": "ratio",
    "sched.try_starts": "count",
    "sched.try_start_s": "s",
    "sched.start_ratio": "ratio",
    "placement.selects": "count",
    "placement.select_s": "s",
    "allocator.plans": "count",
    "allocator.plan_s": "s",
    "cluster.mutations": "count",
    "cluster.mutate_s": "s",
    "swf.jobs": "count",
    "swf.ingest_s": "s",
    "results.ingest_s": "s",
    "snapshot.checkpoints": "count",
    "snapshot.checkpoint_s": "s",
    "snapshot.restore_s": "s",
    "replay.stitch_s": "s",
    "engine.events": "count",
    "trace.overhead_ratio": "ratio",
    **{f"{layer}.self_s": "s" for layer in SELF_LAYERS if layer != "journal"},
    **{f"{layer}.share": "fraction" for layer in SELF_LAYERS if layer != "journal"},
}

#: Per-layer metrics only the service enters; service-mixed reports
#: them on top of :data:`PER_LAYER`.
SERVICE_LAYER = {
    "journal.appends": "count",
    "journal.append_s": "s",
    "journal.append_p99_ms": "ms",
    "journal.snapshots": "count",
    "journal.snapshot_s": "s",
    "journal.snapshot_max_ms": "ms",
    "journal.self_s": "s",
    "journal.share": "fraction",
    "core.handler_p50_ms": "ms",
    "core.handler_p99_ms": "ms",
    "core.batch_mean": "jobs",
    "core.shed": "count",
    "http.overhead_p50_ms": "ms",
}

_CHILD_TIMEOUT_S = 150.0


class BenchError(Exception):
    """The benchmark could not run (not a failed output check)."""


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------
def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _span(spans: Dict[str, Any], *names: str) -> Tuple[int, float, float]:
    """(count, total seconds, self seconds) summed over span names."""
    count, total, self_s = 0, 0.0, 0.0
    for name in names:
        span = spans.get(name)
        if span is not None:
            count += span["count"]
            total += span["total_s"]
            self_s += span["self_s"]
    return count, total, self_s


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(
    totals: Dict[str, Any],
    traced_wall: float,
    overhead_ratio: float,
    service: Optional[Dict[str, float]] = None,
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per-layer metric values plus the self-time table from one traced run."""
    from tracer import layer_table, percentile

    spans = totals["spans"]
    ledgers = totals["ledgers"]
    scans, scan_s, _ = _span(spans, "profile.scan")
    adds, add_s, _ = _span(spans, "profile.add")
    folds, fold_s, _ = _span(spans, "profile.fold")
    passes, _, pass_self = _span(spans, "backfill.pass")
    pass_samples = (spans.get("backfill.pass") or {}).get("samples") or []
    try_starts, try_start_s, _ = _span(spans, "sched.try_start")
    selects, select_s, _ = _span(spans, "placement.select")
    plans, plan_s, _ = _span(spans, "allocator.plan")
    cluster_spans = (
        "cluster.allocate_nodes", "cluster.release_nodes",
        "cluster.allocate_pool", "cluster.release_pool",
    )
    mutations, mutate_s, _ = _span(spans, *cluster_spans)
    starts = _span(spans, "cluster.allocate_nodes")[0]
    appends, append_s, _ = _span(spans, "journal.append")
    snapshots, snapshot_s, _ = _span(spans, "journal.snapshot")
    checkpoints, checkpoint_s, _ = _span(spans, "snapshot.checkpoint")
    append_samples = (spans.get("journal.append") or {}).get("samples") or []
    snapshot_samples = (spans.get("journal.snapshot") or {}).get("samples") or []
    handler_samples = [
        value
        for name in ("core.submit", "core.advise")
        for value in (spans.get(name) or {}).get("samples") or []
    ]
    replay = ledgers.get("replay", {})
    shadow = ledgers.get("shadow", {})
    table = layer_table(spans, traced_wall)
    service = service or {}

    values = {
        "profile.scans": scans,
        "profile.scans_per_pass": _ratio(scans, passes),
        "profile.scan_s": scan_s,
        "profile.adds": adds,
        "profile.add_s": add_s,
        "profile.truncations": _span(spans, "profile.truncate")[0],
        "profile.folds": folds,
        "profile.fold_s": fold_s,
        "profile.builds": _span(spans, "profile.build")[0],
        "profile.grid_p50": totals["grid_p50"],
        "profile.grid_p99": totals["grid_p99"],
        "backfill.passes": passes,
        "backfill.pass_self_s": pass_self,
        "backfill.pass_p50_us": percentile(pass_samples, 0.50) * 1e6,
        "backfill.pass_p99_us": percentile(pass_samples, 0.99) * 1e6,
        "backfill.release_s": _span(spans, "backfill.release")[1],
        "backfill.plan_retained_ratio": _ratio(
            replay.get("retained", 0), replay.get("retained", 0) + replay.get("recompute", 0)
        ),
        "backfill.shadow_reuse_ratio": _ratio(
            shadow.get("reused", 0), shadow.get("reused", 0) + shadow.get("recompute", 0)
        ),
        "sched.try_starts": try_starts,
        "sched.try_start_s": try_start_s,
        "sched.start_ratio": _ratio(starts, try_starts),
        "placement.selects": selects,
        "placement.select_s": select_s,
        "allocator.plans": plans,
        "allocator.plan_s": plan_s,
        "cluster.mutations": mutations,
        "cluster.mutate_s": mutate_s,
        "swf.jobs": totals["items"].get("swf.next", 0),
        "swf.ingest_s": _span(spans, "swf.next")[1],
        "results.ingest_s": _span(spans, "results.ingest")[1],
        "snapshot.checkpoints": checkpoints,
        "snapshot.checkpoint_s": checkpoint_s,
        "snapshot.restore_s": _span(spans, "snapshot.restore")[1],
        "replay.stitch_s": _span(spans, "replay.stitch")[1],
        "engine.events": totals["events"],
        "journal.appends": appends,
        "journal.append_s": append_s,
        "journal.append_p99_ms": percentile(append_samples, 0.99) * 1e3,
        "journal.snapshots": snapshots,
        "journal.snapshot_s": snapshot_s,
        "journal.snapshot_max_ms": max(snapshot_samples, default=0.0) * 1e3,
        "core.handler_p50_ms": percentile(handler_samples, 0.50) * 1e3,
        "core.handler_p99_ms": percentile(handler_samples, 0.99) * 1e3,
        "core.batch_mean": service.get("batch_mean", 0.0),
        "core.shed": service.get("shed", 0.0),
        "http.overhead_p50_ms": (
            service["client_p50_ms"] - percentile(handler_samples, 0.50) * 1e3
            if handler_samples and "client_p50_ms" in service
            else 0.0
        ),
        "trace.overhead_ratio": overhead_ratio,
    }
    for layer in SELF_LAYERS:
        values[f"{layer}.self_s"] = table[layer]
        values[f"{layer}.share"] = _ratio(table[layer], traced_wall)
    return values, table


def _latency_values(prefix: str, samples_ms: List[float]) -> Dict[str, float]:
    from tracer import percentile

    return {
        f"{prefix}_p{round(q * 100)}_ms": percentile(samples_ms, q) for q in (0.50, 0.95, 0.99)
    }


# ----------------------------------------------------------------------
# offline workloads: worker processes
# ----------------------------------------------------------------------
def _run_worker(spec: Dict[str, Any], work: Path) -> Dict[str, Any]:
    path = work / "worker.json"
    path.write_text(json.dumps(spec))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(path)],
            capture_output=True, text=True, timeout=_CHILD_TIMEOUT_S, cwd=ROOT,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {_CHILD_TIMEOUT_S:.0f}s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_offline(args: argparse.Namespace, work: Path, pins: Dict[str, str]) -> Dict[str, Any]:
    import workloads

    jobs = workloads.scaled_jobs(args.workload, args.scale)
    spec: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "jobs": jobs,
        "work_dir": str(work),
        "trace_path": str(work / "trace.swf"),
        "pin": pins.get(workloads.pin_key(args.workload, args.seed, jobs)),
        "budget_s": args.seconds / 2 if args.trace else args.seconds,
        "trace": bool(args.trace),
    }
    result = _run_worker(spec, work)
    reps = result["reps"]
    checked = reps + ([result["traced"]] if args.trace else [])
    outcome: Dict[str, Any] = {
        "attempted": jobs * len(checked),
        "failed": sum(jobs for rep in checked if rep["problems"]),
        "problems": [p for rep in checked for p in rep["problems"]],
        "digest": reps[0]["digest"],
        "pinned": spec["pin"] is not None,
        "samples": {"reps": len(reps)},
    }
    outcome["values"] = {
        "setup_s": _median(result["input_setup_s"]) + _median([rep["setup_s"] for rep in reps]),
        "sim_jobs_per_s": _median([rep["terminal"] / rep["ref_s"] for rep in reps]),
        "peak_rss_mib": result["rss_mib"],
    }
    outcome["host_speed"] = _median([rep["ref_s"] / rep["wall_s"] for rep in reps])
    outcome["wall_jobs_per_s"] = _median([rep["terminal"] / rep["wall_s"] for rep in reps])
    if args.trace:
        traced_wall = result["traced"]["wall_s"]
        outcome["layers"], outcome["table"] = layer_metrics(
            result["trace"],
            traced_wall,
            _ratio(result["traced"]["ref_s"], _median([rep["ref_s"] for rep in reps])),
        )
        outcome["traced_wall"] = traced_wall
    return outcome


# ----------------------------------------------------------------------
# service-mixed: daemon child + load generator
# ----------------------------------------------------------------------
def _start_daemon(
    round_dir: Path, config_path: Path, traced: bool, cpu: Optional[int]
) -> Tuple[subprocess.Popen, str]:
    cmd = [sys.executable, str(HERE / "daemon.py"), str(round_dir / "totals.json")]
    if traced:
        cmd.append("--trace")
    if cpu is not None:
        cmd += ["--cpu", str(cpu)]
    cmd += [
        "--", "serve", "--config", str(config_path), "--port", "0",
        "--state-dir", str(round_dir / "state"),
    ]
    with open(round_dir / "daemon.err", "w") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, text=True, cwd=ROOT)
    watchdog = threading.Timer(60.0, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
    finally:
        watchdog.cancel()
    match = re.search(r"(http://\S+)", line)
    if match is None:
        _stop_daemon(proc, force=True)
        raise BenchError(f"daemon did not start: {(round_dir / 'daemon.err').read_text()[-2000:]}")
    return proc, match.group(1)


def _stop_daemon(proc: subprocess.Popen, force: bool = False) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGKILL if force else signal.SIGTERM)
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()


def _service_round(
    round_dir: Path,
    config_path: Path,
    jobs: list,
    traced: bool,
    cpu: Optional[int],
    gauge: SpeedGauge,
) -> Dict[str, Any]:
    import workloads
    from repro.service.client import ServiceClient

    round_dir.mkdir(parents=True)
    # No ruler runs while the daemon starts: it would share the CPU.
    gauge.start()
    proc, url = _start_daemon(round_dir, config_path, traced, cpu)
    try:
        with ServiceClient(url) as probe:
            while probe.health().get("status") != "ok":
                time.sleep(0.01)
        setup_factor = gauge.stop().factor
        load = workloads.drive_service(url, jobs, gauge)
    finally:
        _stop_daemon(proc)
    totals = round_dir / "totals.json"
    if not totals.is_file():
        raise BenchError(f"daemon wrote no totals: {(round_dir / 'daemon.err').read_text()[-2000:]}")
    daemon = load["daemon"] = json.loads(totals.read_text())
    if daemon["health_cpu_s"] is None or daemon["drain_cpu_s"] is None:
        raise BenchError("the daemon recorded no health answer or no drain")
    # The daemon's CPU time in reference seconds, at the factor the
    # generator's rulers read over the same span.
    load["setup_s"] = daemon["health_cpu_s"] * setup_factor
    load["load_ref_s"] = (daemon["drain_cpu_s"] - daemon["health_cpu_s"]) * load["factor"]
    shutil.rmtree(round_dir, ignore_errors=True)
    return load


def _service_values(rounds: List[Dict[str, Any]]) -> Tuple[Dict[str, float], Dict[str, float]]:
    """The gated values (medians over rounds) and the wall-clock ones
    the report prints: accepted submissions per wall second (median
    over rounds) and the latency percentiles of every round's samples
    pooled."""
    values = {
        "setup_s": _median([load["setup_s"] for load in rounds]),
        "sim_jobs_per_s": _median([load["terminal"] / load["load_ref_s"] for load in rounds]),
        "peak_rss_mib": _median([load["daemon"]["rss_mib"] for load in rounds]),
    }
    wall = {"submit_per_s": _median([load["accepted"] / load["load_wall_s"] for load in rounds])}
    for name in LATENCIES:
        wall.update(_latency_values(name, [v for load in rounds for v in load[f"{name}_ms"]]))
    return values, wall


def run_service(args: argparse.Namespace, work: Path, pins: Dict[str, str]) -> Dict[str, Any]:
    import gc

    import workloads
    from gauge import SpeedGauge
    from repro.audit import deep_audit
    from repro.engine.simulation import SchedulerSimulation
    from repro.service.load import compare_records
    from repro.service.protocol import job_to_record

    num_jobs = workloads.scaled_jobs(args.workload, args.scale)
    config = workloads.service_config(num_jobs)
    config_path = work / "experiment.json"
    config_path.write_text(config.to_json())
    jobs = workloads.jitter(config.build_jobs(), args.seed)
    offline = SchedulerSimulation(
        config.build_cluster(), config.build_scheduler(), [job.copy_request() for job in jobs]
    ).run()
    expected = {
        job.job_id: job_to_record(job, offline.promises.get(job.job_id)) for job in offline.jobs
    }
    audit_problems = [f"offline audit: {v}" for v in deep_audit(offline).errors[:5]]
    del offline
    pin = pins.get(workloads.pin_key(args.workload, args.seed, num_jobs))
    # The load generator's long-lived objects leave the collector's
    # view, so its pauses stay flat from round to round.  The daemon
    # and the generator share one CPU, so the gauge in the generator
    # reads the speed the daemon runs at.
    gc.collect()
    gc.freeze()
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    gauge = SpeedGauge()

    def service_round(name: str, traced: bool) -> Dict[str, Any]:
        load = _service_round(work / name, config_path, jobs, traced, cpu, gauge)
        live = load.pop("live")
        problems = list(load["errors"]) + compare_records(
            {record["job_id"]: record for record in live}, expected
        )[:10]
        load["digest"] = workloads.schedule_digest(live)
        if pin is not None and load["digest"] != pin:
            problems.append(f"schedule digest {load['digest'][:16]} != pinned {pin[:16]}")
        load["problems"] = problems
        load["terminal"] = sum(
            1 for record in live if record["state"] not in ("pending", "running")
        )
        load["decision_ms"] = [
            record["service"]["decision_latency_ms"]
            for record in live
            if (record.get("service") or {}).get("decision_latency_ms") is not None
        ]
        return load

    rounds: List[Dict[str, Any]] = []
    budget = args.seconds / 2 if args.trace else args.seconds
    measured = 0.0
    # Whole rounds; stop where the next one would end nearer past the
    # budget than the last one ended short of it.
    while not rounds or measured + rounds[-1]["load_wall_s"] / 2 < budget:
        rounds.append(service_round(f"round{len(rounds)}", traced=False))
        measured += rounds[-1]["load_wall_s"]
    rounds[0]["problems"] += audit_problems
    checked = list(rounds)
    if args.trace:
        traced = service_round("traced", traced=True)
        # One more untraced round after the traced one, so the traced
        # wall is compared with rounds on both sides of it.
        rounds.append(service_round("after", traced=False))
        checked += [traced, rounds[-1]]

    values, wall = _service_values(rounds)
    outcome: Dict[str, Any] = {
        "values": values,
        "wall": wall,
        "host_speed": _median([load["load_ref_s"] / load["load_wall_s"] for load in rounds]),
        "wall_jobs_per_s": _median([load["terminal"] / load["load_wall_s"] for load in rounds]),
        "attempted": sum(load["attempted"] for load in checked),
        "failed": sum(
            load["attempted"] if load["problems"] else load["failed"] for load in checked
        ),
        "problems": [p for load in checked for p in load["problems"]],
        "digest": rounds[0]["digest"],
        "pinned": pin is not None,
        "samples": {
            "rounds": len(rounds),
            **{name: sum(len(load[f"{name}_ms"]) for load in rounds) for name in LATENCIES},
        },
    }
    if args.trace:
        if traced["daemon"]["trace"] is None:
            raise BenchError("the traced daemon recorded no drain")
        metrics = traced["metrics"]
        counters = metrics.get("counters", {})
        service = {
            "batch_mean": (metrics.get("admission_batch") or {}).get("mean") or 0.0,
            "shed": counters.get("shed_overload", 0) + counters.get("shed_deadline", 0),
            "client_p50_ms": _latency_values(
                "client", traced["submit_ms"] + traced["advise_ms"]
            )["client_p50_ms"],
        }
        outcome["layers"], outcome["table"] = layer_metrics(
            traced["daemon"]["trace"],
            traced["load_wall_s"],
            _ratio(traced["load_ref_s"], _median([load["load_ref_s"] for load in rounds])),
            service,
        )
        outcome["traced_wall"] = traced["load_wall_s"]
    return outcome


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------
def _report(args: argparse.Namespace, outcome: Dict[str, Any]) -> Dict[str, Any]:
    attempted, failed = outcome["attempted"], outcome["failed"]
    print(f"workload {args.workload}  seed {args.seed}  scale {args.scale:g}  trace {args.trace}")
    check = "pinned digest + " if outcome["pinned"] else ""
    print(f"output check: {check}identity/audit -> digest {outcome['digest']}")
    for problem in outcome["problems"][:20]:
        print(f"  CHECK FAILED: {problem}")
    print(f"error_rate = {_ratio(failed, attempted):.6f} ({failed} of {attempted} operations)")
    print(f"samples: {json.dumps(outcome['samples'])}")
    print(
        f"host speed {outcome['host_speed']:.3f} reference s per wall s; "
        f"jobs per wall second {outcome['wall_jobs_per_s']:.1f} (not gated)"
    )
    if args.trace:
        wall = outcome["traced_wall"]
        table = outcome["table"]
        print(f"traced wall {wall:.4f} s; self time per layer:")
        for layer in SELF_LAYERS:
            print(f"  {layer:<10} {table[layer]:10.4f} s  {_ratio(table[layer], wall):7.1%}")
        print(f"  {'sum':<10} {sum(table.values()):10.4f} s")
        print(f"trace.overhead_ratio {outcome['layers']['trace.overhead_ratio']:.3f}")
        chosen, units = outcome["layers"], dict(PER_LAYER)
        if args.workload == "service-mixed":
            units.update(SERVICE_LAYER)
    else:
        chosen, units = outcome["values"], END_TO_END
        for name, unit in units.items():
            print(f"  {name:<16} {chosen[name]:14.4f} {unit}")
        for name, value in outcome.get("wall", {}).items():
            unit = "ms" if name.endswith("_ms") else "jobs/s"
            print(f"  {name:<16} {value:14.4f} {unit} (wall clock, not gated)")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(chosen[name]), "unit": unit} for name, unit in units.items()},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measuring time per invocation (whole repetitions)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="job-count multiplier (the tests use tiny scales)")
    parser.add_argument("--pins", default=str(HERE / "pins.json"),
                        help="pinned digests file")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no scheduler sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    pins = workloads.load_pins(Path(args.pins))
    work = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    runner: Callable = run_service if args.workload == "service-mixed" else run_offline
    try:
        outcome = runner(args, work, pins)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's work dir is still there
    print(json.dumps(_report(args, outcome)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
