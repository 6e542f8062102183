"""``repro chaos``: kill the scheduler service mid-run and prove that
recovery changes nothing.

Two harnesses share one verdict — after any number of crashes, the
recovered service's final records and promises must be field-for-field
identical to an uninterrupted offline run of the same trace, and the
recovered schedule must pass the full audit invariants:

1. **In-process crash simulation** (:func:`run_chaos`): the trace is
   cut into admission windows; between windows the service is torn
   down exactly as a SIGKILL would leave it (journal fsynced, no final
   checkpoint, nothing else) and reopened from the state directory.
   Crash points, checkpoint cadence, and the number of crashes are all
   drawn from a seeded RNG, so every seed explores a different crash
   schedule deterministically.  This is the CI gate: seeds × scheduler
   variants, seconds per cell.

2. **Subprocess SIGKILL** (:func:`run_chaos_process`): a real
   ``repro serve`` daemon is spawned, loaded over HTTP with keyed
   submissions, SIGKILLed at a randomized mid-trace point, restarted
   on the same state directory, and the interrupted window is retried
   with the same idempotency keys — the lost-reply path exercised for
   real, process death and all.

The report document both produce is JSON-able and is what the CI
chaos-smoke job archives.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..audit import deep_audit
from ..config import ExperimentConfig
from ..engine.simulation import SchedulerSimulation
from ..errors import ReproError
from ..workload.job import Job
from .client import ServiceClient
from .core import SchedulerService, ServiceConfig, default_service_config
from .load import compare_records, plan_windows
from .protocol import job_to_record

__all__ = ["run_chaos", "run_chaos_process", "CHAOS_SCHEDULERS"]

#: The scheduler variants every chaos gate must hold under.  EASY and
#: conservative backfill take different code paths through promises
#: and the availability profile — surviving one says little about the
#: other.
CHAOS_SCHEDULERS = (
    {"backfill": "easy"},
    {"backfill": "conservative"},
)


def _offline_records(
    config: ExperimentConfig, jobs: Sequence[Job]
) -> Dict[int, Dict[str, Any]]:
    engine = SchedulerSimulation(
        config.build_cluster(),
        config.build_scheduler(),
        [job.copy_request() for job in jobs],
    )
    result = engine.run()
    deep_audit(result).raise_if_failed()
    return {
        job.job_id: job_to_record(job, result.promises.get(job.job_id))
        for job in result.jobs
    }


def _spec_of(job: Job) -> Dict[str, Any]:
    return {
        "job_id": job.job_id,
        "submit_time": job.submit_time,
        "nodes": job.nodes,
        "walltime": job.walltime,
        "runtime": job.runtime,
        "mem_per_node": job.mem_per_node,
        "mem_used_per_node": job.mem_used_per_node,
        "user": job.user,
        "group": job.group,
        "tag": job.tag,
    }


def _crash(service: SchedulerService) -> None:
    """Tear the service down as a SIGKILL would: acknowledged work is
    on disk (the journal fsyncs before every acknowledgement), the
    shutdown checkpoint never happens."""
    service._final_checkpoint = lambda: None  # type: ignore[method-assign]
    service.stop()


def _variant_config(
    base: Optional[ExperimentConfig], scheduler: Dict[str, Any], num_jobs: int
) -> ExperimentConfig:
    config = base or default_service_config()
    config = ExperimentConfig.from_dict(config.to_dict())
    config.workload = dict(config.workload, num_jobs=num_jobs)
    config.scheduler = dict(config.scheduler, **scheduler)
    return config


# ----------------------------------------------------------------------
# layer 1: in-process crash simulation (the CI gate)
# ----------------------------------------------------------------------
def _one_crash_run(
    config: ExperimentConfig,
    state_dir: Path,
    seed: int,
) -> Dict[str, Any]:
    """Replay one trace with seeded random crashes; return the verdict."""
    rng = np.random.default_rng(seed)
    jobs = config.build_jobs()
    windows = plan_windows(jobs, batch_target=max(2, len(jobs) // 12))
    # Every run draws its own cadence so crash points land before,
    # between, and after snapshots across the seed sweep.
    checkpoint_every = int(rng.integers(0, 6))
    crash_windows = set(
        rng.choice(
            range(len(windows)), size=min(3, max(1, len(windows) // 3)),
            replace=False,
        ).tolist()
    )
    svc_config = ServiceConfig(
        mode="replay",
        state_dir=str(state_dir),
        checkpoint_every=checkpoint_every,
    )

    crashes = 0
    service = SchedulerService.open(config, svc_config).start()
    try:
        for index, window in enumerate(windows):
            for job in window:
                service.submit(
                    [_spec_of(job)], idempotency_key=f"chaos-{seed}-{job.job_id}"
                )
            service.advance(window[-1].submit_time)
            if index in crash_windows:
                _crash(service)
                crashes += 1
                service = SchedulerService.open(config, svc_config).start()
                # The client retries its last window into the recovered
                # service; dedup must absorb every duplicate.
                for job in window:
                    service.submit(
                        [_spec_of(job)],
                        idempotency_key=f"chaos-{seed}-{job.job_id}",
                    )
        service.advance(None)
        live = {
            record["job_id"]: record
            for record in service.jobs()["jobs"]
        }
        # The recovered schedule must survive the oracle; its
        # violations join the record-identity problems below.
        recovered_report = deep_audit(service.engine.online_result())
        dedup_hits = service.counters.dedup_hits
    finally:
        service.stop()

    problems = compare_records(live, _offline_records(config, jobs))
    problems.extend(
        f"deep-audit: {violation}" for violation in recovered_report.errors
    )
    return {
        "seed": seed,
        "jobs": len(jobs),
        "windows": len(windows),
        "crashes": crashes,
        "checkpoint_every": checkpoint_every,
        "dedup_hits": dedup_hits,
        "problems": problems[:20],
        "ok": not problems,
    }


def run_chaos(
    config: Optional[ExperimentConfig] = None,
    *,
    seeds: Sequence[int] = (1, 2, 3, 4, 5),
    schedulers: Sequence[Dict[str, Any]] = CHAOS_SCHEDULERS,
    num_jobs: int = 60,
    state_root: Optional[str | Path] = None,
    output: Optional[str | Path] = None,
    progress=None,
) -> Dict[str, Any]:
    """The chaos gate: seeds × scheduler variants of :func:`_one_crash_run`.

    Returns a report document with ``ok`` False if any cell diverged
    from its offline run or failed the audit.
    """
    cells: List[Dict[str, Any]] = []
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as scratch:
        root = Path(state_root) if state_root is not None else Path(scratch)
        for scheduler in schedulers:
            variant = _variant_config(config, scheduler, num_jobs)
            for seed in seeds:
                state_dir = root / f"{scheduler['backfill']}-{seed}"
                cell = _one_crash_run(variant, state_dir, seed)
                cell["scheduler"] = dict(scheduler)
                cells.append(cell)
                if progress is not None:
                    verdict = "ok" if cell["ok"] else "DIVERGED"
                    progress(
                        f"chaos {scheduler['backfill']} seed={seed}: "
                        f"{cell['crashes']} crashes, "
                        f"{cell['dedup_hits']} dedup hits, {verdict}"
                    )
    document = {
        "schema": 1,
        "kind": "inprocess",
        "seeds": list(seeds),
        "num_jobs": num_jobs,
        "cells": cells,
        "total_crashes": sum(cell["crashes"] for cell in cells),
        "ok": all(cell["ok"] for cell in cells),
    }
    if output is not None:
        Path(output).write_text(json.dumps(document, indent=2) + "\n")
    return document


# ----------------------------------------------------------------------
# layer 2: a real daemon, a real SIGKILL
# ----------------------------------------------------------------------
_URL_RE = re.compile(r"http://[\d.]+:\d+")


def _spawn_daemon(
    config_path: Path, state_dir: Path, timeout: float = 30.0
) -> tuple[subprocess.Popen, str]:
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--config", str(config_path),
            "--port", "0",
            "--state-dir", str(state_dir),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    deadline = time.monotonic() + timeout
    line = ""
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            if process.poll() is not None:
                raise ReproError(
                    f"daemon exited {process.returncode} before serving"
                )
            continue
        match = _URL_RE.search(line)
        if match:
            return process, match.group(0)
    process.kill()
    raise ReproError(f"daemon never printed its URL (last line: {line!r})")


def run_chaos_process(
    config: Optional[ExperimentConfig] = None,
    *,
    seed: int = 1,
    num_jobs: int = 40,
    kills: int = 2,
    output: Optional[str | Path] = None,
    progress=None,
) -> Dict[str, Any]:
    """SIGKILL a live ``repro serve`` daemon mid-trace and recover it.

    The client keeps retrying the window that was in flight when the
    process died, using the same idempotency keys — exactly what a
    production submit tool would do — then the drained result is
    compared field-for-field against the offline engine.
    """
    rng = np.random.default_rng(seed)
    config = _variant_config(config, {"backfill": "easy"}, num_jobs)
    jobs = config.build_jobs()
    windows = plan_windows(jobs, batch_target=max(2, len(jobs) // 10))
    kill_windows = set(
        rng.choice(
            range(len(windows)), size=min(kills, len(windows)), replace=False
        ).tolist()
    )

    killed = 0
    with tempfile.TemporaryDirectory(prefix="repro-chaos-proc-") as scratch:
        scratch_path = Path(scratch)
        config_path = scratch_path / "experiment.json"
        config_path.write_text(config.to_json())
        state_dir = scratch_path / "state"
        process, url = _spawn_daemon(config_path, state_dir)
        try:
            client = ServiceClient(url, retries=4, backoff_s=0.05)
            for index, window in enumerate(windows):
                if index in kill_windows:
                    # Mid-window murder: submit half, SIGKILL, restart,
                    # then resubmit the WHOLE window with the same keys
                    # — recovery + dedup must sort out which half was
                    # durably applied.
                    half = max(1, len(window) // 2)
                    for job in window[:half]:
                        client.submit(
                            [_spec_of(job)],
                            idempotency_key=f"proc-{seed}-{job.job_id}",
                        )
                    process.kill()
                    process.wait(timeout=10.0)
                    killed += 1
                    client.close()
                    process, url = _spawn_daemon(config_path, state_dir)
                    client = ServiceClient(url, retries=4, backoff_s=0.05)
                    if progress is not None:
                        progress(
                            f"SIGKILL at window {index}: daemon back on {url}"
                        )
                for job in window:
                    client.submit(
                        [_spec_of(job)],
                        idempotency_key=f"proc-{seed}-{job.job_id}",
                    )
                client.advance(window[-1].submit_time)
            client.drain()
            live = {
                record["job_id"]: record for record in client.jobs()["jobs"]
            }
            recovery = client.metrics()["durability"]["recovery"]
            client.close()
        finally:
            if process.poll() is None:
                process.send_signal(signal.SIGTERM)
                try:
                    process.wait(timeout=15.0)
                except subprocess.TimeoutExpired:  # pragma: no cover
                    process.kill()
                    process.wait(timeout=10.0)

    problems = compare_records(live, _offline_records(config, jobs))
    document = {
        "schema": 1,
        "kind": "process",
        "seed": seed,
        "jobs": len(jobs),
        "windows": len(windows),
        "sigkills": killed,
        "final_recovery": recovery,
        "graceful_exit_code": process.returncode,
        "problems": problems[:20],
        "ok": not problems
        and killed == len(kill_windows)
        and process.returncode == 0,
    }
    if output is not None:
        Path(output).write_text(json.dumps(document, indent=2) + "\n")
    return document
