"""Command-line interface.

Nine subcommands::

    dismem-sched run --config experiment.json [--csv out.csv]
        Run one configured experiment, print the summary table, audit
        the schedule, optionally dump the per-job CSV.

    dismem-sched sweep [--grid grid.json | --demo] [--workers N]
        Expand a declarative scenario grid and run every cell — in
        parallel, with on-disk result caching so repeated sweeps skip
        completed cells.  See :mod:`repro.runner`.

    dismem-sched replay (--trace T.swf | --generate N) [--segments K]
                        [--workers W] [--verify]
        Trace-scale SWF replay: streaming ingest, rolling (bounded-
        memory) aggregation, checkpointed segments scheduled across a
        worker pool, stitched per-job records.  ``--verify`` proves the
        sharded run bit-identical to an uninterrupted one (exit 3 on
        mismatch).  See docs/PERF.md "Trace-scale methodology".

    dismem-sched demo [--jobs N] [--seed S]
        A built-in fat-vs-thin comparison on the W-MIX workload — the
        30-second tour of what the library shows.

    dismem-sched workloads
        List the bundled reference workload mixes.

    dismem-sched serve [--config experiment.json] [--port P]
                       [--state-dir DIR]
        Run the scheduler as a long-lived JSON/HTTP daemon (submit /
        cancel / query / advise / state).  With ``--state-dir`` the
        daemon is crash-safe: every acknowledged mutation is journaled
        before it is applied, and a restart on the same directory
        recovers the exact schedule.  See docs/SERVICE.md.

    dismem-sched load --url http://H:P [--clients N] [--quick]
        Replay a trace through a live daemon as N concurrent clients;
        measures submissions/sec + decision latency into
        BENCH_SERVICE.json and proves the replay decision-identical
        to the offline engine.  Exit codes: 0 ok, 3 identity mismatch,
        4 daemon unreachable, 1 other gate failures.

    dismem-sched audit [--preset NAME ...] [--backfill both] [--quick]
                       [--out AUDIT_REPORT.json] [--explain JOB_ID]
        Deep invariant gate: run the preset adversarial scenario
        library (drain storms, pool cliffs, same-instant collision
        grids, kill=none overruns, cancel-vs-backfill races, a KTH
        trace slice) and re-prove every schedule invariant from
        scratch with the structured validator.  ``--explain JOB_ID``
        replays one preset and reports the job's binding constraint
        instead.  See docs/AUDIT.md.

    dismem-sched chaos [--quick] [--out CHAOS_REPORT.json]
        Crash-recovery gate: kill the scheduler (simulated crashes and
        real SIGKILLs) mid-trace, recover from the write-ahead journal,
        and prove the recovered schedule identical to an uninterrupted
        offline run under both EASY and conservative backfill.

(Installed as ``dismem-sched`` and ``repro``; also runnable as
``python -m repro.cli``.)
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from .analysis.compare import compare_table
from .analysis.experiments import run_config
from .audit import deep_audit
from .cluster.spec import ClusterSpec
from .config import ExperimentConfig
from .engine.simulation import SchedulerSimulation
from .errors import ReproError
from .metrics.report import ascii_table, rows_to_csv
from .metrics.summary import summarize
from .units import GiB
from .workload.reference import REFERENCE_WORKLOADS, generate_reference_jobs

__all__ = ["main", "demo_grid"]


def _cmd_run(args: argparse.Namespace) -> int:
    config = ExperimentConfig.from_file(args.config)
    cluster = config.build_cluster()
    scheduler = config.build_scheduler()
    jobs = config.build_jobs()
    sim = SchedulerSimulation(
        cluster, scheduler, jobs, sample_interval=config.sample_interval
    )
    result = sim.run()
    deep_audit(result).raise_if_failed()
    summary = summarize(result, label=config.name)
    row = summary.row()
    print(ascii_table(list(row.keys()), [list(row.values())]))
    if args.gantt:
        from .metrics.gantt import render_gantt

        print()
        print(render_gantt(result, width=args.gantt))
    if args.csv:
        job_rows = [
            {
                "job_id": job.job_id,
                "submit": job.submit_time,
                "start": job.start_time,
                "end": job.end_time,
                "nodes": job.nodes,
                "mem_per_node": job.mem_per_node,
                "remote_per_node": job.remote_per_node,
                "dilation": job.dilation,
                "state": job.state.value,
            }
            for job in result.jobs
        ]
        Path(args.csv).write_text(rows_to_csv(job_rows))
        print(f"per-job records written to {args.csv}")
    return 0


def demo_grid() -> "ScenarioGrid":
    """The built-in 12-cell demonstration grid.

    Workload mix × pool budget × remote penalty on a 32-node thin
    machine — small enough to sweep in seconds, wide enough to exercise
    every axis type the runner supports.
    """
    from .runner import ScenarioGrid

    return ScenarioGrid(
        name="demo",
        base={
            "workload": {"reference": "W-MIX", "num_jobs": 150,
                         "seed": 42, "load": 0.9},
            "cluster": {"kind": "thin", "num_nodes": 32, "nodes_per_rack": 16,
                        "local_mem": "128GiB", "fat_local_mem": "512GiB",
                        "reach": "global"},
            "scheduler": {"queue": "fcfs", "backfill": "easy",
                          "placement": "first_fit",
                          "penalty": {"kind": "linear", "beta": 0.3}},
            "class_local_mem": 512 * GiB,
        },
        axes={
            "workload.reference": ["W-MIX", "W-DATA"],
            "cluster.pool_fraction": [0.25, 0.5, 1.0],
            "scheduler.penalty.beta": [0.1, 0.3],
        },
    )


def trace_kth_grid() -> "ScenarioGrid":
    """The large-cluster trace bench grid (KTH/ANL-style profile).

    W-KTH floods a 256-node thin machine with small heavy-tailed jobs,
    so backfill scans walk the deepest availability-breakpoint grids
    of the reference workloads.  Axes cover pool budget and remote
    penalty at trace-realistic depth.
    """
    from .runner import ScenarioGrid

    return ScenarioGrid(
        name="trace-kth",
        base={
            "workload": {"reference": "W-KTH", "num_jobs": 2000,
                         "seed": 7, "load": 0.9},
            "cluster": {"kind": "thin", "num_nodes": 256, "nodes_per_rack": 16,
                        "local_mem": "128GiB", "fat_local_mem": "512GiB",
                        "reach": "global"},
            "scheduler": {"queue": "fcfs", "backfill": "easy",
                          "placement": "first_fit",
                          "penalty": {"kind": "linear", "beta": 0.3}},
            "class_local_mem": 512 * GiB,
        },
        axes={
            "cluster.pool_fraction": [0.25, 0.5],
            "scheduler.penalty.beta": [0.1, 0.3],
        },
    )


#: Grids addressable as ``repro sweep --grid <name>`` without a file.
BUILTIN_GRIDS = {
    "demo": demo_grid,
    "trace-kth": trace_kth_grid,
}


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .runner import ScenarioGrid, SweepRunner, rows_table

    if args.grid and args.grid in BUILTIN_GRIDS:
        grid = BUILTIN_GRIDS[args.grid]()
    elif args.grid:
        if not Path(args.grid).is_file():
            print(f"error: {args.grid!r} is neither a grid JSON file nor a "
                  f"built-in grid ({', '.join(sorted(BUILTIN_GRIDS))})",
                  file=sys.stderr)
            return 1
        grid = ScenarioGrid.from_file(args.grid)
    else:
        grid = demo_grid()
    cache_dir: Optional[Path] = None
    if not args.no_cache:
        cache_dir = Path(args.cache_dir) / grid.name
    progress = None if args.quiet else (
        lambda line: print(line, file=sys.stderr, flush=True)
    )
    runner = SweepRunner(
        workers=args.workers,
        cache_dir=cache_dir,
        progress=progress,
    )
    report = runner.run(grid)

    rows = report.rows()
    metrics = [m.strip() for m in args.metrics.split(",") if m.strip()]
    if rows:
        unknown = [m for m in metrics if m not in rows[0]]
        if unknown:
            valid = [k for k in rows[0]
                     if k not in ("scenario", "key", *grid.axes)]
            print(f"error: unknown metric(s) {', '.join(unknown)}; "
                  f"choose from: {', '.join(valid)}", file=sys.stderr)
            return 1
    columns = ["scenario"] + list(grid.axes) + metrics
    print(rows_table(rows, columns=columns))
    if args.baseline:
        labels = [record["name"] for record in report.records]
        if args.baseline not in labels:
            print(f"error: baseline {args.baseline!r} is not a scenario label; "
                  f"choose one of: {', '.join(labels)}", file=sys.stderr)
            return 1
        print()
        print(compare_table(report.summaries(), baseline_label=args.baseline))
    if args.out:
        payload = {
            "grid": grid.to_dict(),
            "executed": report.executed,
            "cached": report.cached,
            "workers": report.workers,
            "rows": rows,
            "records": report.records,
        }
        Path(args.out).write_text(json.dumps(payload, indent=2, default=str))
        print(f"sweep results written to {args.out}")
    print(report.status_line())
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    from .audit import explain_job
    from .audit.presets import PRESET_NAMES, PRESETS, run_audit_suite, run_preset

    if args.list:
        for name in PRESET_NAMES:
            print(f"{name:>16}  {PRESETS[name].summary}")
        return 0
    names = list(args.preset) if args.preset else list(PRESET_NAMES)
    unknown = [name for name in names if name not in PRESETS]
    if unknown:
        print(f"error: unknown preset(s) {', '.join(unknown)}; "
              f"choose from: {', '.join(PRESET_NAMES)}", file=sys.stderr)
        return 1
    backfills = (
        ("easy", "conservative") if args.backfill == "both" else (args.backfill,)
    )

    if args.explain is not None:
        if not args.preset or len(names) != 1:
            print("error: --explain needs exactly one --preset to replay",
                  file=sys.stderr)
            return 1
        result = run_preset(names[0], backfill=backfills[0], quick=args.quick)
        try:
            explanation = explain_job(result, args.explain)
        except KeyError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(explanation.describe())
        return 0

    progress = None if args.quiet else (
        lambda line: print(f"  auditing {line}", file=sys.stderr, flush=True)
    )
    document = run_audit_suite(
        names, backfills=backfills, quick=args.quick, progress=progress
    )
    for cell in document["cells"]:
        status = "ok" if cell["ok"] else f"FAIL ({len(cell['violations'])})"
        advisory = (
            f"  ({len(cell['advisories'])} advisory)" if cell["advisories"] else ""
        )
        print(f"{cell['preset']:>16} [{cell['backfill']:>12}] "
              f"jobs={cell['jobs']:4d}  {status}{advisory}")
        for violation in cell["violations"][:5]:
            print(f"      [{violation['invariant']}] {violation['message']}",
                  file=sys.stderr)
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=2) + "\n")
        print(f"audit report written to {args.out}")
    total = len(document["cells"])
    if document["ok"]:
        print(f"audit: {total} cells clean")
        return 0
    bad = sum(1 for cell in document["cells"] if not cell["ok"])
    print(f"audit: {bad} of {total} cells FAILED", file=sys.stderr)
    return 1


def _cmd_replay(args: argparse.Namespace) -> int:
    import math
    import tempfile

    from .runner.replay import (
        ReplaySpec,
        generate_trace,
        replay_trace,
    )

    progress = None if args.quiet else (
        lambda line: print(line, file=sys.stderr, flush=True)
    )
    work_dir = (
        Path(args.work_dir)
        if args.work_dir
        else Path(tempfile.mkdtemp(prefix="trace-replay-"))
    )
    work_dir.mkdir(parents=True, exist_ok=True)

    if args.generate:
        trace = work_dir / f"{args.reference.lower()}-{args.generate}.swf"
        if trace.is_file():
            if progress:
                progress(f"reusing generated trace {trace}")
        else:
            info = generate_trace(
                trace,
                args.generate,
                reference=args.reference,
                seed=args.seed,
                cluster_nodes=args.nodes,
                include_memory=not args.no_memory,
            )
            if progress:
                progress(
                    f"generated {info['jobs']} jobs -> {info['path']} "
                    f"({info['bytes']:,} bytes)"
                )
    else:
        trace = Path(args.trace)
        if not trace.is_file():
            print(f"error: trace {trace} not found", file=sys.stderr)
            return 1

    synthesize = args.no_memory or args.synth_mem
    spec = ReplaySpec(
        trace=str(trace),
        cluster={"kind": "thin", "num_nodes": args.nodes, "nodes_per_rack": 16,
                 "local_mem": "128GiB", "fat_local_mem": "512GiB",
                 "pool_fraction": 0.5, "reach": "global",
                 "name": f"TRACE-THIN-{args.nodes}"},
        scheduler={"penalty": {"kind": "linear", "beta": 0.3}},
        seed=args.seed,
        cores_per_node=args.cores_per_node,
        keep_failed=args.keep_failed,
        mem_synth={"kind": "lognormal", "mu": math.log(4096.0), "sigma": 0.9,
                   "low": 128, "high": 128 * 1024} if synthesize else None,
        usage_ratio_synth={"kind": "uniform", "low": 0.5, "high": 0.95}
        if synthesize else None,
    )
    payload = replay_trace(
        spec,
        segments=args.segments,
        workers=args.workers,
        out_dir=work_dir / "segments",
        verify=args.verify,
        progress=progress,
    )

    sharded = payload["chains"]["sharded"]
    summary = sharded["summary"]
    row = {
        "jobs": sharded["records"],
        "segments": payload["segments_planned"],
        "workers": payload["workers"],
        "makespan_h": f"{summary['makespan'] / 3600.0:.1f}",
        "wait_mean_s": f"{summary['wait_mean']:.0f}",
        "bsld_mean": f"{summary['bsld_mean']:.2f}",
        "jobs_per_hour": f"{summary['throughput_jobs_per_hour']:.0f}",
        "elapsed_s": payload["elapsed_s"],
    }
    print(ascii_table(list(row.keys()), [[str(v) for v in row.values()]]))
    print(f"stitched records: {work_dir / 'segments' / 'sharded.stitched.jsonl'}"
          f" (sha256 {sharded['sha256'][:16]}…)")

    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=2))
        print(f"replay report written to {args.out}")
    if args.verify:
        verdict = payload["verify"]
        status = "IDENTICAL" if verdict["identical"] else "MISMATCH"
        print(f"sharded vs unsharded: {status} "
              f"(sha256 {'ok' if verdict['sha256_match'] else 'DIFFERS'}, "
              f"stats {'ok' if verdict['stats_match'] else 'DIFFER'})")
        if not verdict["identical"]:
            return 3
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    jobs = generate_reference_jobs(
        "W-MIX",
        seed=args.seed,
        num_jobs=args.jobs,
        cluster_nodes=64,
        max_mem_per_node=512 * GiB,
        target_load=0.9,
    )
    fat = ClusterSpec.fat_node(num_nodes=64, local_mem="512GiB", name="FAT-512")
    thin = ClusterSpec.thin_node(
        num_nodes=64, local_mem="128GiB", fat_local_mem="512GiB",
        pool_fraction=0.5, reach="global", name="THIN-128+pool/2",
    )
    summaries = []
    for spec in (fat, thin):
        _, summary = run_config(
            spec, jobs, label=spec.name,
            class_local_mem=512 * GiB,
            penalty={"kind": "linear", "beta": 0.3},
        )
        summaries.append(summary)
    print("fat-node baseline vs thin-node + pool at HALF the total DRAM:")
    print(compare_table(summaries, baseline_label="FAT-512"))
    print()
    print("stranded DRAM fraction:",
          "  ".join(f"{s.label}: {s.stranded_fraction:.1%}" for s in summaries))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import SchedulerService, ServiceConfig, default_service_config
    from .service.server import ServiceDaemon

    if args.config:
        config = ExperimentConfig.from_file(args.config)
    else:
        config = default_service_config()
    service_config = ServiceConfig(
        mode=args.mode, speed=args.speed, tick_s=args.tick,
        start_time=args.start_time,
        state_dir=args.state_dir,
        checkpoint_every=args.checkpoint_every,
        max_inbox=args.max_inbox,
        deadline_s=args.deadline_s,
    )
    service = SchedulerService.open(config, service_config)
    daemon = ServiceDaemon(service, host=args.host, port=args.port)
    daemon.start()
    durability = "ephemeral"
    if service.recovery is not None:
        durability = (
            f"durable, resumed from snapshot seq "
            f"{service.recovery['snapshot_seq']} + "
            f"{service.recovery['replayed_records']} journal records"
            if service.recovery["resumed"]
            else "durable, fresh state dir"
        )
    print(
        f"scheduler service on {daemon.url}  "
        f"(config {config.name!r}, mode {service_config.mode}, "
        f"{durability}, Ctrl-C stops)",
        flush=True,
    )
    daemon.serve_until_interrupt()
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .service.chaos import run_chaos, run_chaos_process

    config = (
        ExperimentConfig.from_file(args.config) if args.config else None
    )
    progress = None if args.quiet else (
        lambda line: print(line, file=sys.stderr, flush=True)
    )
    seeds = list(range(1, (2 if args.quick else args.seeds) + 1))
    num_jobs = 30 if args.quick else args.jobs
    report = run_chaos(
        config,
        seeds=seeds,
        num_jobs=num_jobs,
        output=None,
        progress=progress,
    )
    documents = {"inprocess": report}
    ok = report["ok"]
    print(
        f"in-process gate: {len(report['cells'])} cells, "
        f"{report['total_crashes']} crashes -> "
        f"{'ok' if report['ok'] else 'DIVERGED'}"
    )
    if not args.skip_process:
        proc = run_chaos_process(
            config,
            seed=args.seeds,
            num_jobs=min(num_jobs, 40),
            kills=1 if args.quick else 2,
            progress=progress,
        )
        documents["process"] = proc
        ok = ok and proc["ok"]
        print(
            f"subprocess gate: {proc['sigkills']} SIGKILLs, "
            f"graceful exit {proc['graceful_exit_code']} -> "
            f"{'ok' if proc['ok'] else 'DIVERGED'}"
        )
    if args.out:
        Path(args.out).write_text(json.dumps(documents, indent=2) + "\n")
        print(f"chaos report written to {args.out}")
    if not ok:
        for doc in documents.values():
            cells = doc.get("cells", [doc])
            for cell in cells:
                for problem in cell.get("problems", [])[:10]:
                    print(f"FAIL: {problem}", file=sys.stderr)
        return 1
    return 0


def _cmd_load(args: argparse.Namespace) -> int:
    """Exit codes: 0 ok, 3 decision-identity mismatch, 4 daemon
    unreachable, 1 any other gate failure — so CI and scripts can tell
    "the scheduler diverged" from "the daemon was down"."""
    from .service.load import run_load

    config = (
        ExperimentConfig.from_file(args.config) if args.config else None
    )
    try:
        document = run_load(
            args.url,
            config,
            clients=args.clients,
            batch_target=args.batch,
            num_jobs=args.jobs,
            quick=args.quick,
            output=args.out or None,
            skip_identity=args.skip_identity,
        )
    except (ConnectionError, OSError) as exc:
        print(f"error: daemon at {args.url} unreachable: {exc}",
              file=sys.stderr)
        return 4
    print(
        f"{document['jobs']} jobs / {document['windows']} windows / "
        f"{document['clients']} clients: "
        f"{document['submissions_per_sec']:.0f} submissions/sec"
    )
    decision = document["server"]["decision_latency_ms"] or {}
    print(
        f"decision latency p50={decision.get('p50')}ms "
        f"p99={decision.get('p99')}ms  "
        f"(admission batches: {document['server']['admission_batch']})"
    )
    identity = document["identity"]
    if identity["checked"]:
        verdict = "identical" if identity["identical"] else "DIVERGED"
        print(f"decision identity vs offline engine: {verdict}")
        for problem in identity["problems"][:10]:
            print(f"  {problem}", file=sys.stderr)
    if args.out:
        print(f"bench written to {args.out}")
    if not document["ok"]:
        for failure in document["failures"]:
            print(f"FAIL: {failure}", file=sys.stderr)
        if identity["checked"] and not identity["identical"]:
            return 3
        return 1
    return 0


def _cmd_workloads(args: argparse.Namespace) -> int:
    rows = []
    for name in sorted(REFERENCE_WORKLOADS):
        jobs = generate_reference_jobs(name, seed=0, num_jobs=300,
                                       cluster_nodes=64)
        mean_mem = sum(j.mem_per_node for j in jobs) / len(jobs)
        heavy = sum(1 for j in jobs if j.mem_per_node > 128 * GiB)
        rows.append([name, len(jobs), f"{mean_mem / GiB:.1f}",
                     f"{heavy / len(jobs):.0%}"])
    print(ascii_table(
        ["workload", "sample jobs", "mean GiB/node", ">128GiB jobs"], rows
    ))
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dismem-sched",
        description="HPC job scheduling with disaggregated memory: "
        "trace-driven simulation harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured experiment")
    p_run.add_argument("--config", required=True, help="experiment JSON path")
    p_run.add_argument("--csv", help="write per-job records to this CSV")
    p_run.add_argument("--gantt", type=int, nargs="?", const=100, default=0,
                       metavar="WIDTH",
                       help="print an ASCII gantt chart (optional width)")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser(
        "sweep", help="run a scenario grid (parallel, cached)"
    )
    p_sweep.add_argument(
        "--grid", help="scenario grid JSON path or a built-in name "
        "(demo, trace-kth; default: the 12-cell demo)"
    )
    p_sweep.add_argument("--workers", type=_positive_int, default=1,
                         help="process count (default 1 = serial)")
    p_sweep.add_argument("--cache-dir", default=".sweep-cache",
                         help="result cache root (default .sweep-cache)")
    p_sweep.add_argument("--no-cache", action="store_true",
                         help="disable the on-disk result cache")
    p_sweep.add_argument("--out", help="write rows + records JSON here")
    p_sweep.add_argument(
        "--metrics",
        default="wait_mean,bsld_mean,node_util,pool_util,rejected,killed",
        help="comma-separated metric columns for the table",
    )
    p_sweep.add_argument("--baseline",
                         help="also print a compare table vs this scenario label")
    p_sweep.add_argument("--quiet", action="store_true",
                         help="suppress per-cell progress lines")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_audit = sub.add_parser(
        "audit",
        help="deep-audit the preset adversarial scenario library",
    )
    p_audit.add_argument(
        "--preset", action="append", metavar="NAME",
        help="preset to run (repeatable; default: all — see --list)",
    )
    p_audit.add_argument(
        "--backfill", choices=("easy", "conservative", "both"), default="both",
        help="backfill policy column(s) to audit under (default both)",
    )
    p_audit.add_argument("--quick", action="store_true",
                         help="CI-sized preset variants")
    p_audit.add_argument("--out", metavar="AUDIT_REPORT.json",
                         help="write the machine-readable report here")
    p_audit.add_argument(
        "--explain", type=int, metavar="JOB_ID",
        help="replay one preset (requires exactly one --preset) and "
        "explain this job's start time instead of auditing",
    )
    p_audit.add_argument("--list", action="store_true",
                         help="list presets and exit")
    p_audit.add_argument("--quiet", action="store_true",
                         help="suppress per-cell progress lines")
    p_audit.set_defaults(func=_cmd_audit)

    p_replay = sub.add_parser(
        "replay",
        help="checkpointed shard-parallel SWF trace replay (bounded memory)",
    )
    source = p_replay.add_mutually_exclusive_group(required=True)
    source.add_argument("--trace", metavar="PATH",
                        help="SWF trace file to replay")
    source.add_argument("--generate", type=_positive_int, metavar="N",
                        help="generate an N-job synthetic archive-shaped "
                        "trace into the work dir and replay it")
    p_replay.add_argument("--reference", default="W-KTH",
                          help="reference mix for --generate "
                          "(default W-KTH)")
    p_replay.add_argument("--segments", type=_positive_int, default=4,
                          help="resumable checkpoint segments (default 4)")
    p_replay.add_argument("--workers", type=_positive_int, default=2,
                          help="process pool size; independent chains "
                          "overlap across workers (default 2)")
    p_replay.add_argument("--seed", type=int, default=0,
                          help="replay + generation seed (default 0)")
    p_replay.add_argument("--nodes", type=_positive_int, default=256,
                          help="thin-cluster node count (default 256)")
    p_replay.add_argument("--cores-per-node", type=_positive_int, default=1,
                          help="SWF processors per node (default 1)")
    p_replay.add_argument("--keep-failed", action="store_true",
                          help="keep SWF status-0 (failed) entries as jobs")
    p_replay.add_argument("--no-memory", action="store_true",
                          help="--generate: write -1 memory columns (forces "
                          "the deterministic synthesis path on replay)")
    p_replay.add_argument("--synth-mem", action="store_true",
                          help="synthesize memory for traces lacking the "
                          "memory columns (implied by --no-memory)")
    p_replay.add_argument("--verify", action="store_true",
                          help="also run an unsharded chain and prove the "
                          "sharded replay bit-identical (exit 3 on "
                          "mismatch)")
    p_replay.add_argument("--work-dir", metavar="DIR",
                          help="segment artifact directory; reuse it to "
                          "resume an interrupted replay (default: a fresh "
                          "temp dir)")
    p_replay.add_argument("--out", default="TRACE_REPLAY.json",
                          help="report JSON path (default TRACE_REPLAY.json; "
                          "'' disables writing)")
    p_replay.add_argument("--quiet", action="store_true",
                          help="suppress progress lines")
    p_replay.set_defaults(func=_cmd_replay)

    p_demo = sub.add_parser("demo", help="built-in fat-vs-thin comparison")
    p_demo.add_argument("--jobs", type=int, default=400)
    p_demo.add_argument("--seed", type=int, default=1)
    p_demo.set_defaults(func=_cmd_demo)

    p_wl = sub.add_parser("workloads", help="list reference workload mixes")
    p_wl.set_defaults(func=_cmd_workloads)

    p_serve = sub.add_parser(
        "serve", help="run the scheduler as a JSON/HTTP daemon"
    )
    p_serve.add_argument("--config", help="experiment JSON (cluster + "
                         "scheduler sections; default: built-in demo)")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8642,
                         help="listen port (default 8642; 0 = ephemeral)")
    p_serve.add_argument("--mode", choices=("replay", "wall"),
                         default="replay",
                         help="clock mode: 'replay' advances only on "
                         "/v1/advance (load harness), 'wall' tracks "
                         "wall time (default replay)")
    p_serve.add_argument("--speed", type=float, default=1.0,
                         help="wall mode: virtual seconds per wall second")
    p_serve.add_argument("--tick", type=float, default=0.05,
                         help="wall mode: clock tick / admission linger, "
                         "seconds (default 0.05)")
    p_serve.add_argument("--start-time", type=float, default=0.0,
                         help="virtual clock origin (default 0)")
    p_serve.add_argument("--state-dir", default=None, metavar="DIR",
                         help="durable state directory (write-ahead "
                         "journal + checkpoints); restarting on the "
                         "same directory recovers every acknowledged "
                         "mutation (default: no persistence)")
    p_serve.add_argument("--checkpoint-every", type=int, default=256,
                         metavar="N",
                         help="snapshot cadence in journal records "
                         "(0 = only at shutdown; default 256)")
    p_serve.add_argument("--max-inbox", type=int, default=0, metavar="N",
                         help="shed submissions with 429 once N ops are "
                         "queued (0 = unbounded, the default)")
    p_serve.add_argument("--deadline-s", type=float, default=0.0,
                         metavar="S",
                         help="shed ops older than S seconds with 504 "
                         "(0 = no deadline, the default)")
    p_serve.set_defaults(func=_cmd_serve)

    p_chaos = sub.add_parser(
        "chaos",
        help="crash-recovery gate: kill the service mid-trace, recover, "
        "prove decision identity",
    )
    p_chaos.add_argument("--config", help="experiment JSON (default: "
                         "built-in demo)")
    p_chaos.add_argument("--seeds", type=_positive_int, default=5,
                         help="crash-schedule seeds per scheduler "
                         "variant (default 5)")
    p_chaos.add_argument("--jobs", type=_positive_int, default=60,
                         help="trace length per cell (default 60)")
    p_chaos.add_argument("--quick", action="store_true",
                         help="CI smoke: 2 seeds, 30 jobs, 1 SIGKILL")
    p_chaos.add_argument("--skip-process", action="store_true",
                         help="skip the subprocess SIGKILL layer "
                         "(in-process gate only)")
    p_chaos.add_argument("--out", default="CHAOS_REPORT.json",
                         help="report JSON path (default "
                         "CHAOS_REPORT.json; '' disables writing)")
    p_chaos.add_argument("--quiet", action="store_true",
                         help="suppress per-cell progress lines")
    p_chaos.set_defaults(func=_cmd_chaos)

    p_load = sub.add_parser(
        "load", help="replay a trace through a live daemon, under load"
    )
    p_load.add_argument("--url", default="http://127.0.0.1:8642",
                        help="daemon base URL (default %(default)s)")
    p_load.add_argument("--config", help="experiment JSON; must match the "
                        "daemon's (default: built-in demo)")
    p_load.add_argument("--clients", type=_positive_int, default=4,
                        help="concurrent client threads (default 4)")
    p_load.add_argument("--batch", type=_positive_int, default=32,
                        help="target jobs per admission window (default 32)")
    p_load.add_argument("--jobs", type=_positive_int, default=None,
                        help="trim the trace to this many jobs")
    p_load.add_argument("--quick", action="store_true",
                        help="CI smoke: 120 jobs, lenient gates")
    p_load.add_argument("--out", default="BENCH_SERVICE.json",
                        help="bench JSON path (default BENCH_SERVICE.json; "
                        "'' disables writing)")
    p_load.add_argument("--skip-identity", action="store_true",
                        help="skip the offline decision-identity check")
    p_load.set_defaults(func=_cmd_load)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
