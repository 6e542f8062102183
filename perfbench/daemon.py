"""Daemon launcher for the service workload.

Usage: ``python3 perfbench/daemon.py TOTALS.json [--trace] [--cpu N] -- serve ARGS``

Runs ``repro serve ARGS`` in this process through the CLI's own
``main``.  The launcher reads the process's CPU time at the last
``health`` answer before the load (the set-up) and at the ``drain``
reply (``advance`` to no time), so the load phase's CPU time is their
difference.  With ``--trace`` the layer wrappers are installed first,
so the traced run keeps the two-process shape of the untraced one;
the traced totals cover the load phase only, so start-up and the
SIGTERM final checkpoint stay out of them.  With ``--cpu`` the daemon
(every thread it starts) runs on that one CPU.  When the daemon
returns from its SIGTERM drain, the launcher writes its peak RSS, the
two CPU readings (and, traced, the span totals) to ``TOTALS.json``.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from tracer import Tracer  # noqa: E402


def main(argv: List[str]) -> int:
    split = argv.index("--")
    totals_path = Path(argv[1])
    options = argv[2:split]
    if "--cpu" in options:
        os.sched_setaffinity(0, {int(options[options.index("--cpu") + 1])})
    traced = "--trace" in options
    tracer = Tracer()
    if traced:
        tracer.install_layers()
    from repro.service.core import SchedulerService

    marks: Dict[str, Any] = {"trace": None, "health_cpu_s": None, "drain_cpu_s": None}

    def on_health(result: Any, args: tuple) -> Any:
        marks["health_cpu_s"] = time.process_time()
        if traced:
            marks["start"] = tracer.mark()
        return result

    def on_advance(result: Any, args: tuple) -> Any:
        if args[1] is None:  # drain
            marks["drain_cpu_s"] = time.process_time()
            if traced:
                marks["trace"] = tracer.totals(since=marks.get("start"))
        return result

    tracer.observe(SchedulerService, "health", on_health)
    tracer.observe(SchedulerService, "advance", on_advance)
    from repro.cli import main as cli_main

    code = cli_main(argv[split + 1:])
    document = {
        "exit_code": code,
        "rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "health_cpu_s": marks["health_cpu_s"],
        "drain_cpu_s": marks["drain_cpu_s"],
        "trace": marks["trace"],
    }
    partial = totals_path.with_suffix(".tmp")
    partial.write_text(json.dumps(document))
    os.replace(partial, totals_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
