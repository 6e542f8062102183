"""Standard Workload Format (SWF) parsing and writing.

SWF is the lingua franca of the job-scheduling literature (Feitelson's
Parallel Workloads Archive): one line per job, 18 whitespace-separated
fields, ``;`` comment/header lines, ``-1`` for unknown values.  The
original study replayed production traces; this module lets any SWF
trace drop into our simulator unchanged, and — because most public SWF
traces lack memory columns — supports *memory synthesis*: missing
requested/used memory fields are drawn from a caller-supplied
distribution so memory-aware policies stay exercised.

Trace-scale traces (month-long, million-job archives) do not fit the
"read the whole file into a list" model, so the parser is built around
:func:`iter_swf`, a chunked streaming iterator that never materializes
the trace.  Three properties make the stream safe to shard and resume:

* **Chunk-boundary-invariant synthesis** — the synthesis RNG for line
  *N* is derived from ``(root seed, N)`` alone, so the same line yields
  the same job whether the file is read in chunks of 1, 64, or whole.
* **Resumable** — an :class:`SWFCursor` carries ``(lineno, emitted)``;
  feeding the tail of a file plus the cursor of the consumed prefix
  continues the stream bit-identically (fallback job ids and synthesis
  included).
* **Torn-tail tolerance** — a final line without a trailing newline
  that fails numeric parsing (a truncated download, a writer killed
  mid-line) is dropped instead of raised; mid-file garbage still
  raises :class:`TraceFormatError`.

Field map (1-based, per the SWF standard):

==  =============================  =========================================
 1  job number                     ``job_id``
 2  submit time (s)                ``submit_time``
 4  run time (s)                   ``runtime``
 7  used memory (KB per proc)      ``mem_used_per_node`` (converted)
 8  requested processors           ``nodes`` (ceil-divided by cores/node)
 9  requested time (s)             ``walltime``
10  requested memory (KB per proc) ``mem_per_node`` (converted)
11  status                         terminal-state filter
12  user id                        ``user``
13  group id                       ``group``
==  =============================  =========================================
"""

from __future__ import annotations

import io
import math
import zlib
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, TextIO, Tuple, Union

import numpy as np

from ..errors import TraceFormatError
from ..sim.rng import RandomStreams
from .job import Job
from .models import Distribution

__all__ = [
    "SWFFields",
    "SWFCursor",
    "iter_swf",
    "read_swf",
    "write_swf",
    "jobs_from_swf_text",
    "jobs_to_swf_text",
    "swf_line_submit",
]

_NUM_FIELDS = 18

#: Stream name whose crc32 keys the per-line synthesis seed — the same
#: name the pre-streaming parser drew its (sequential) generator from.
_SYNTH_STREAM = "swf-mem-synth"
_SYNTH_KEY = zlib.crc32(_SYNTH_STREAM.encode("utf-8"))

#: Default lines per chunk pulled from the underlying stream.  Purely a
#: throughput knob: results are chunk-size-invariant by construction.
DEFAULT_CHUNK_LINES = 8192


@dataclass
class SWFFields:
    """Conversion conventions between SWF fields and our job model.

    ``cores_per_node`` converts SWF "processors" to whole nodes
    (ceiling) and scales the per-processor memory columns to per-node
    MiB.  Traces that already count nodes use the default of 1.
    """

    cores_per_node: int = 1
    keep_failed: bool = False  # SWF status 0 = failed; keep as jobs?

    def procs_to_nodes(self, procs: int) -> int:
        return -(-procs // self.cores_per_node)

    def kb_per_proc_to_mib_per_node(self, kb: float) -> int:
        return int(round(kb * self.cores_per_node / 1024.0))

    def mib_per_node_to_kb_per_proc(self, mib: int) -> int:
        return int(round(mib * 1024.0 / self.cores_per_node))


@dataclass
class SWFCursor:
    """Resumable position in an SWF stream.

    ``lineno`` counts physical lines consumed (1-based for the next
    line), ``emitted`` counts jobs yielded so far — the state that
    feeds fallback job ids and the per-line synthesis seed, so a
    stream resumed from a cursor is bit-identical to one long read.
    """

    lineno: int = 0
    emitted: int = 0

    def copy(self) -> "SWFCursor":
        return SWFCursor(lineno=self.lineno, emitted=self.emitted)


def _parse_line(line: str, lineno: int) -> List[float]:
    parts = line.split()
    if len(parts) < _NUM_FIELDS:
        # Tolerate short lines by padding with -1 (some archive traces
        # drop trailing unknown fields).
        parts = parts + ["-1"] * (_NUM_FIELDS - len(parts))
    try:
        vals = [float(p) for p in parts[:_NUM_FIELDS]]
    except ValueError as exc:
        raise TraceFormatError(f"line {lineno}: non-numeric SWF field: {exc}") from exc
    if not all(map(math.isfinite, vals)):
        bad = next(p for p, v in zip(parts, vals) if not math.isfinite(v))
        raise TraceFormatError(f"line {lineno}: non-finite SWF field: {bad!r}")
    return vals


#: Identifier columns that must hold integers: (index, name).
_ID_FIELDS = ((0, "job number"), (11, "user id"), (12, "group id"))


def _emits(vals: List[float], fields: SWFFields, lineno: int) -> bool:
    """Whether a parsed data line produces a job under ``fields``.

    Mirrors the archive conventions: non-positive processor counts fall
    back to the allocated column, zero-runtime and cancelled (status 5)
    entries are dropped, failed (status 0) entries are dropped unless
    ``keep_failed``.  On a line that emits, a positive but
    non-integral processor count, or a non-integral job number, user
    id or group id, is malformed and raises :class:`TraceFormatError`
    (truncating it could collide with another job or user).
    """
    procs_req = vals[7] if vals[7] > 0 else vals[4]
    if procs_req <= 0:
        return False
    if not procs_req.is_integer():
        raise TraceFormatError(
            f"line {lineno}: non-integral processor count: {procs_req!r}"
        )
    if vals[3] <= 0:
        return False
    if vals[10] == 5:  # cancelled before start
        return False
    if vals[10] == 0 and not fields.keep_failed:  # failed
        return False
    for index, name in _ID_FIELDS:
        if not vals[index].is_integer():
            raise TraceFormatError(
                f"line {lineno}: non-integral {name}: {vals[index]!r}"
            )
    return True


def _synth_rng(seed: int, lineno: int) -> np.random.Generator:
    """Per-line synthesis generator: a pure function of (seed, line).

    Spawn-key derivation keeps the stream independent of every named
    :class:`RandomStreams` stream while making each line's draws
    invariant to how the trace was chunked or where a shard resumed.
    """
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(_SYNTH_KEY, lineno))
    return np.random.default_rng(seq)


def _build_job(
    vals: List[float],
    lineno: int,
    emitted: int,
    fields: SWFFields,
    mem_synth: Optional[Distribution],
    usage_ratio_synth: Optional[Distribution],
    synth_seed: int,
) -> Job:
    (
        job_num,
        submit,
        _wait,
        run_time,
        _procs_alloc,
        _avg_cpu,
        used_kb,
        procs_req,
        req_time,
        req_kb,
        _status,
        user_id,
        group_id,
        _app,
        _queue,
        _partition,
        _prec,
        _think,
    ) = vals
    if procs_req <= 0:
        procs_req = _procs_alloc

    nodes = fields.procs_to_nodes(int(procs_req))
    walltime = req_time if req_time > 0 else run_time
    runtime = min(run_time, walltime)

    rng: Optional[np.random.Generator] = None
    if req_kb > 0:
        mem_req = max(1, fields.kb_per_proc_to_mib_per_node(req_kb))
    elif mem_synth is not None:
        rng = _synth_rng(synth_seed, lineno)
        mem_req = max(1, int(round(mem_synth.sample(rng))))
    else:
        mem_req = 1
    if used_kb > 0:
        mem_used = min(mem_req, max(1, fields.kb_per_proc_to_mib_per_node(used_kb)))
    elif usage_ratio_synth is not None:
        if rng is None:
            rng = _synth_rng(synth_seed, lineno)
        ratio = min(1.0, max(0.0, usage_ratio_synth.sample(rng)))
        mem_used = max(1, int(round(mem_req * ratio)))
    else:
        mem_used = mem_req

    return Job(
        job_id=int(job_num) if job_num > 0 else emitted + 1,
        submit_time=max(0.0, submit),
        nodes=nodes,
        walltime=float(walltime),
        runtime=float(runtime),
        mem_per_node=mem_req,
        mem_used_per_node=mem_used,
        user=f"user{int(user_id)}" if user_id >= 0 else "user0",
        group=f"group{int(group_id)}" if group_id >= 0 else "group0",
    )


def swf_line_submit(
    line: str, lineno: int, fields: Optional[SWFFields] = None
) -> Optional[float]:
    """Submit time of a raw SWF line iff it would emit a job, else None.

    The shard planner's cheap single pass: classifies a line (header,
    blank, skipped, emitting) without constructing a :class:`Job` or
    touching synthesis.  Raises :class:`TraceFormatError` exactly where
    :func:`iter_swf` would.
    """
    fields = fields or SWFFields()
    stripped = line.strip()
    if not stripped or stripped.startswith(";"):
        return None
    vals = _parse_line(stripped, lineno)
    if not _emits(vals, fields, lineno):
        return None
    return max(0.0, vals[1])


def _line_chunks(lines: Iterator[str], chunk_lines: int) -> Iterator[List[str]]:
    while True:
        chunk = list(islice(lines, chunk_lines))
        if not chunk:
            return
        yield chunk


def iter_swf(
    source: Union[str, Path, TextIO, Iterable[str]],
    fields: Optional[SWFFields] = None,
    mem_synth: Optional[Distribution] = None,
    usage_ratio_synth: Optional[Distribution] = None,
    streams: Optional[RandomStreams] = None,
    chunk_lines: int = DEFAULT_CHUNK_LINES,
    header: Optional[dict] = None,
    cursor: Optional[SWFCursor] = None,
) -> Iterator[Job]:
    """Stream jobs out of an SWF source without materializing the trace.

    ``source`` may be a path (opened and closed internally), an open
    text file, or any iterable of lines.  Lines are pulled in chunks of
    ``chunk_lines``; the chunk size is invisible in the output.  Header
    comments are written into ``header`` (in place) as they stream by;
    ``cursor`` is advanced in place per line so a caller can record a
    resume point at any moment — see :class:`SWFCursor`.

    Jobs are yielded in **file order**, not submit order; archive
    traces are submit-sorted already, and :func:`read_swf` re-sorts for
    callers that need the guarantee.

    ``streams`` contributes only its root seed: synthesis draws are
    derived per line from ``(seed, lineno)``, never from a shared
    sequential generator, which is what makes the stream chunk- and
    shard-invariant.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", errors="replace") as fh:
            yield from iter_swf(
                fh,
                fields=fields,
                mem_synth=mem_synth,
                usage_ratio_synth=usage_ratio_synth,
                streams=streams,
                chunk_lines=chunk_lines,
                header=header,
                cursor=cursor,
            )
        return

    fields = fields or SWFFields()
    synth_seed = (streams or RandomStreams(0)).seed
    cursor = cursor if cursor is not None else SWFCursor()
    chunk_lines = max(1, int(chunk_lines))

    lines = iter(source)
    for chunk in _line_chunks(lines, chunk_lines):
        for i, raw in enumerate(chunk):
            cursor.lineno += 1
            line = raw.strip()
            if not line:
                continue
            if line.startswith(";"):
                if header is not None:
                    body = line.lstrip("; ")
                    if ":" in body:
                        key, _, value = body.partition(":")
                        header[key.strip()] = value.strip()
                continue
            try:
                vals = _parse_line(line, cursor.lineno)
            except TraceFormatError:
                if raw.endswith("\n"):
                    raise
                # No newline terminator: only the physically last line
                # of a stream can lack one.  Confirm nothing follows,
                # then treat it as a torn tail (truncated download,
                # writer killed mid-line) and end the stream cleanly.
                rest = chunk[i + 1] if i + 1 < len(chunk) else next(lines, None)
                if rest is not None:
                    raise
                return
            if not _emits(vals, fields, cursor.lineno):
                continue
            job = _build_job(
                vals,
                cursor.lineno,
                cursor.emitted,
                fields,
                mem_synth,
                usage_ratio_synth,
                synth_seed,
            )
            cursor.emitted += 1
            yield job


def jobs_from_swf_text(
    text: str,
    fields: Optional[SWFFields] = None,
    mem_synth: Optional[Distribution] = None,
    usage_ratio_synth: Optional[Distribution] = None,
    streams: Optional[RandomStreams] = None,
) -> Tuple[List[Job], dict]:
    """Parse SWF text into jobs plus the header comment dict.

    ``mem_synth`` supplies requested per-node MiB when field 10 is
    missing; ``usage_ratio_synth`` supplies used/requested ratios when
    field 7 is missing.  Both default to "requested == synthesized,
    used == requested".  Jobs with non-positive runtime or processor
    count are skipped (archive traces contain cancelled entries).

    Thin collector over :func:`iter_swf`; jobs come back sorted by
    ``(submit_time, job_id)``.
    """
    header: dict = {}
    jobs = list(
        iter_swf(
            io.StringIO(text),
            fields=fields,
            mem_synth=mem_synth,
            usage_ratio_synth=usage_ratio_synth,
            streams=streams,
            header=header,
        )
    )
    jobs.sort(key=lambda j: (j.submit_time, j.job_id))
    return jobs, header


def read_swf(
    path: str | Path,
    fields: Optional[SWFFields] = None,
    mem_synth: Optional[Distribution] = None,
    usage_ratio_synth: Optional[Distribution] = None,
    streams: Optional[RandomStreams] = None,
) -> Tuple[List[Job], dict]:
    """Parse an SWF file; see :func:`jobs_from_swf_text`.

    Streams through :func:`iter_swf` line-chunk by line-chunk — the
    file is never held in memory twice (once as text, once as jobs)
    the way the pre-streaming reader did; only the job list itself is
    materialized.
    """
    header: dict = {}
    jobs = list(
        iter_swf(
            path,
            fields=fields,
            mem_synth=mem_synth,
            usage_ratio_synth=usage_ratio_synth,
            streams=streams,
            header=header,
        )
    )
    jobs.sort(key=lambda j: (j.submit_time, j.job_id))
    return jobs, header


def jobs_to_swf_text(
    jobs: Iterable[Job],
    fields: Optional[SWFFields] = None,
    header: Optional[dict] = None,
    include_memory: bool = True,
) -> str:
    """Serialize jobs as SWF.

    Execution-record fields (wait time, status) are emitted when the
    job has run; otherwise ``-1`` per the standard.  With
    ``include_memory=False`` the memory columns are written as ``-1``
    the way most archive traces ship — useful for producing fixtures
    that exercise the memory-synthesis path of the parser.
    """
    fields = fields or SWFFields()
    out = io.StringIO()
    _write_swf_stream(out, jobs, fields, header, include_memory)
    return out.getvalue()


def _write_swf_stream(
    out: TextIO,
    jobs: Iterable[Job],
    fields: SWFFields,
    header: Optional[dict],
    include_memory: bool,
) -> int:
    """Write jobs to an open stream; returns the number of lines."""
    lines = 0
    for key, value in (header or {}).items():
        out.write(f"; {key}: {value}\n")
        lines += 1
    for job in jobs:
        wait = job.start_time - job.submit_time if job.start_time is not None else -1
        if job.state.name == "COMPLETED":
            status = 1
        elif job.state.name == "KILLED":
            status = 0
        else:
            status = -1
        run_time = (
            job.end_time - job.start_time
            if job.end_time is not None and job.start_time is not None
            else job.runtime
        )
        procs = job.nodes * fields.cores_per_node
        used_kb = (
            fields.mib_per_node_to_kb_per_proc(job.mem_used_per_node)
            if include_memory
            else -1
        )
        req_kb = (
            fields.mib_per_node_to_kb_per_proc(job.mem_per_node)
            if include_memory
            else -1
        )
        row = [
            job.job_id,
            int(job.submit_time),
            int(wait) if wait != -1 else -1,
            int(round(run_time)),
            procs if status == 1 else -1,
            -1,
            used_kb,
            procs,
            int(round(job.walltime)),
            req_kb,
            status,
            int(job.user.removeprefix("user") or 0) if job.user.startswith("user") else -1,
            int(job.group.removeprefix("group") or 0) if job.group.startswith("group") else -1,
            -1,
            -1,
            -1,
            -1,
            -1,
        ]
        out.write(" ".join(str(v) for v in row) + "\n")
        lines += 1
    return lines


def write_swf(
    jobs: Iterable[Job],
    path: str | Path,
    fields: Optional[SWFFields] = None,
    header: Optional[dict] = None,
    include_memory: bool = True,
) -> None:
    """Write jobs to ``path`` as SWF, streaming — works for any
    iterable, including generators yielding millions of jobs."""
    fields = fields or SWFFields()
    with open(path, "w", encoding="utf-8") as out:
        _write_swf_stream(out, jobs, fields, header, include_memory)
