"""Checkpointed shard-parallel trace replay.

Million-job SWF replays are the scale test of the whole stack.  Three
pieces make them first-class:

* **planning** — :func:`plan_segments` splits a trace file into
  byte-addressed, resumable segments in one cheap binary pass (no
  :class:`~repro.workload.job.Job` construction), cutting only at
  strictly-increasing submit times so every segment's stream is fully
  admitted before its boundary;
* **execution** — each segment runs as a bounded-memory engine window:
  segment 0 is a fresh online engine fed by a streaming
  :func:`~repro.workload.swf.iter_swf` source with rolling aggregation,
  segment *i>0* restores segment *i-1*'s checkpoint
  (:mod:`repro.engine.snapshot`) and attaches the next slice of the
  stream.  Segments of one chain are sequenced through
  :meth:`~repro.runner.sweep.SweepRunner.run_task_graph`; independent
  chains (replicate seeds, the unsharded verification run) overlap
  across workers.  Every segment is idempotent via an on-disk done
  marker, so a killed replay resumes where it stopped.  A chain runs
  *one* sequential fold: the marker's ``stats`` are cumulative through
  its segment, and segment *i>0* continues
  :class:`~repro.engine.results.RollingStats` from segment *i-1*'s
  marker (floats survive the JSON round trip exactly);
* **stitching** — per-segment JSONL record spills are concatenated in
  segment order as raw bytes and hashed; the record count sums the
  markers and the chain's stats are the last marker's.  Nothing is
  re-parsed or re-folded.  Because the restored calendar fires the
  identical event sequence the uninterrupted run would have, the
  stitched byte stream and the carried stats are bit-identical to the
  single-segment run's — ``--verify`` proves it by sha256 and
  field-for-field accumulator equality.

:func:`generate_trace` rounds the module out: a streaming synthetic
SWF writer (batched generation, O(batch) memory) so arbitrarily long
archive-shaped traces can be produced on demand for benches and CI.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field, fields as dataclass_fields
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional

from ..cluster.cluster import Cluster
from ..engine.results import RollingResults, RollingStats
from ..engine.simulation import SchedulerSimulation
from ..errors import ConfigurationError, ReplayStateError, TraceFormatError
from ..sched.base import Scheduler, build_scheduler
from ..sim.rng import RandomStreams
from ..units import GiB
from ..workload.job import Job
from ..workload.models import Constant, Distribution, LogNormal, Uniform
from ..workload.swf import SWFCursor, SWFFields, iter_swf, swf_line_submit, write_swf
from .scenario import build_cluster_spec
from .sweep import PoolTask, SweepRunner

__all__ = [
    "REPLAY_SCHEMA",
    "SegmentBounds",
    "ReplaySpec",
    "plan_segments",
    "run_segment",
    "stitch_chain",
    "replay_trace",
    "generate_trace",
]

#: Version of the done-marker layout.  Schema 2 markers carry stats
#: cumulative through their segment (schema 1 carried per-segment
#: stats); a marker of any other schema is never resumed or folded on.
REPLAY_SCHEMA = 2

# The default replay machine: a large thin-node cluster in the KTH/ANL
# size class — enough nodes that deep backfill queues carry hundreds of
# availability breakpoints, the regime the vectorized kernel targets.
_DEFAULT_CLUSTER: Dict[str, Any] = {
    "kind": "thin",
    "num_nodes": 256,
    "nodes_per_rack": 16,
    "local_mem": "128GiB",
    "fat_local_mem": "512GiB",
    "pool_fraction": 0.5,
    "reach": "global",
    "name": "TRACE-THIN-256",
}


# ----------------------------------------------------------------------
# planning
# ----------------------------------------------------------------------
@dataclass
class SegmentBounds:
    """One resumable slice of an SWF trace.

    ``byte_offset``/``line_count`` address the raw file slice;
    ``lineno``/``emitted`` are the :class:`~repro.workload.swf.SWFCursor`
    resume point (lines and jobs *before* the segment), which keeps
    fallback job ids and per-line synthesis draws identical to one
    uninterrupted read.  ``first_submit`` strictly exceeds the previous
    segment's ``last_submit`` — the invariant that makes the boundary
    clock (just below ``first_submit``) a legal checkpoint instant.
    """

    index: int
    byte_offset: int
    lineno: int
    emitted: int
    line_count: int
    jobs: int
    first_submit: float
    last_submit: float


def plan_segments(
    path: str | Path, segments: int, fields: Optional[SWFFields] = None
) -> List[SegmentBounds]:
    """Split a trace into ~equal-byte resumable segments, one cheap pass.

    Lines are classified with :func:`~repro.workload.swf.swf_line_submit`
    (no job construction, no synthesis).  A cut happens at the first
    emitting line past each byte target whose submit time *strictly*
    exceeds the previous segment's last submit — ties must stay in one
    segment so the boundary clock sits between distinct submit instants.
    Traces whose submits never advance yield fewer segments than
    requested; a trace with no jobs at all is a configuration error.
    """
    if segments < 1:
        raise ConfigurationError(f"segments must be >= 1, got {segments}")
    path = Path(path)
    fields = fields or SWFFields()
    size = os.path.getsize(path)
    targets = [size * k / segments for k in range(1, segments)]

    bounds: List[SegmentBounds] = []
    cur: Optional[Dict[str, Any]] = None

    def close(end_line: int) -> SegmentBounds:
        return SegmentBounds(
            index=cur["index"],
            byte_offset=cur["byte_offset"],
            lineno=cur["lineno"],
            emitted=cur["emitted"],
            line_count=end_line - cur["lineno"],
            jobs=cur["jobs"],
            first_submit=cur["first_submit"],
            last_submit=cur["last_submit"],
        )

    offset = 0
    lineno = 0
    emitted = 0
    with open(path, "rb") as fh:
        while True:
            raw = fh.readline()
            if not raw:
                break
            lineno += 1
            try:
                submit = swf_line_submit(
                    raw.decode("utf-8", errors="replace"), lineno, fields
                )
            except TraceFormatError:
                if raw.endswith(b"\n") or fh.peek(1):
                    raise
                break  # torn tail; iter_swf drops it the same way
            if submit is not None:
                if cur is None:
                    cur = {
                        "index": 0,
                        "byte_offset": 0,
                        "lineno": 0,
                        "emitted": 0,
                        "jobs": 0,
                        "first_submit": submit,
                        "last_submit": submit,
                    }
                elif (
                    targets
                    and offset >= targets[0]
                    and submit > cur["last_submit"]
                ):
                    bounds.append(close(end_line=lineno - 1))
                    while targets and offset >= targets[0]:
                        targets.pop(0)
                    cur = {
                        "index": len(bounds),
                        "byte_offset": offset,
                        "lineno": lineno - 1,
                        "emitted": emitted,
                        "jobs": 0,
                        "first_submit": submit,
                        "last_submit": submit,
                    }
                cur["jobs"] += 1
                cur["last_submit"] = submit
                emitted += 1
            offset += len(raw)
    if cur is None:
        raise ConfigurationError(f"{path}: trace contains no jobs")
    bounds.append(close(end_line=lineno))
    return bounds


def _segment_lines(path: str | Path, seg: SegmentBounds) -> Iterator[str]:
    """The raw line slice of one segment (seek + bounded readline)."""
    with open(path, "rb") as fh:
        fh.seek(seg.byte_offset)
        for _ in range(seg.line_count):
            raw = fh.readline()
            if not raw:
                return
            yield raw.decode("utf-8", errors="replace")


# ----------------------------------------------------------------------
# the replay specification (JSON-round-trippable; crosses process pools)
# ----------------------------------------------------------------------
def _dist_from_doc(doc: Optional[Dict[str, Any]]) -> Optional[Distribution]:
    if doc is None:
        return None
    kind = doc.get("kind")
    if kind == "constant":
        return Constant(float(doc["value"]))
    if kind == "uniform":
        return Uniform(float(doc["low"]), float(doc["high"]))
    if kind == "lognormal":
        return LogNormal(
            mu=float(doc["mu"]),
            sigma=float(doc["sigma"]),
            low=float(doc.get("low", 1.0)),
            high=float(doc.get("high", 1e12)),
        )
    raise ConfigurationError(f"unknown distribution kind {kind!r}")


@dataclass
class ReplaySpec:
    """Everything a replay worker needs to run one trace segment.

    Plain JSON-able data (dicts, not live objects) so the identical
    spec crosses the process pool and reconstructs bit-identical
    cluster, scheduler, and synthesis state in every worker.
    """

    trace: str
    cluster: Dict[str, Any] = field(
        default_factory=lambda: dict(_DEFAULT_CLUSTER)
    )
    scheduler: Dict[str, Any] = field(default_factory=dict)
    seed: int = 0
    cores_per_node: int = 1
    keep_failed: bool = False
    mem_synth: Optional[Dict[str, Any]] = None
    usage_ratio_synth: Optional[Dict[str, Any]] = None

    def swf_fields(self) -> SWFFields:
        return SWFFields(
            cores_per_node=self.cores_per_node, keep_failed=self.keep_failed
        )

    def build_engine_parts(self) -> tuple[Cluster, Scheduler]:
        spec = build_cluster_spec(self.cluster)
        return Cluster(spec), build_scheduler(**self.scheduler)

    def segment_stream(self, seg: SegmentBounds) -> Iterator[Job]:
        """The segment's job stream, resumed at its cursor position."""
        return iter_swf(
            _segment_lines(self.trace, seg),
            fields=self.swf_fields(),
            mem_synth=_dist_from_doc(self.mem_synth),
            usage_ratio_synth=_dist_from_doc(self.usage_ratio_synth),
            streams=RandomStreams(self.seed),
            cursor=SWFCursor(lineno=seg.lineno, emitted=seg.emitted),
        )

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "ReplaySpec":
        names = {f.name for f in dataclass_fields(cls)}
        return cls(**{k: v for k, v in doc.items() if k in names})


# ----------------------------------------------------------------------
# segment execution (module-level: crosses the process pool)
# ----------------------------------------------------------------------
def _segment_paths(out_dir: Path, chain: str, index: int):
    stem = f"{chain}-seg{index:03d}"
    return (
        out_dir / f"{stem}.records.jsonl",
        out_dir / f"{stem}.ckpt.json",
        out_dir / f"{stem}.done.json",
    )


_BLOCK = 1 << 20


def _file_sha256(path: Path) -> str:
    sha = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(_BLOCK), b""):
            sha.update(block)
    return sha.hexdigest()


def _read_marker(done_path: Path) -> Dict[str, Any]:
    """A segment's done marker of this schema.

    Raises ``ValueError`` saying why there is none: the file is
    missing, torn (not one JSON object), or from another schema.
    """
    try:
        raw = done_path.read_bytes()
    except FileNotFoundError:
        raise ValueError("missing") from None
    try:
        marker = json.loads(raw)
    except ValueError:  # not JSON, or not text at all
        marker = None
    if not isinstance(marker, dict):
        raise ValueError("torn")
    if marker.get("schema") != REPLAY_SCHEMA:
        raise ValueError(
            f"schema {marker.get('schema')!r}, not {REPLAY_SCHEMA}"
        )
    return marker


def _chain_marker(
    out_dir: Path, chain: str, index: int, user: str
) -> Dict[str, Any]:
    """Segment ``index``'s done marker, which ``user`` cannot do without.

    Raises :class:`~repro.errors.ReplayStateError` naming the chain,
    ``user`` and the segment when the marker is not usable.
    """
    _, _, done_path = _segment_paths(out_dir, chain, index)
    try:
        return _read_marker(done_path)
    except ValueError as exc:
        raise ReplayStateError(
            f"replay chain {chain!r}: {user} needs the done marker of "
            f"segment {index} ({done_path.name}), which is {exc}"
        ) from None


def run_segment(
    spec_doc: Dict[str, Any],
    seg_doc: Dict[str, Any],
    boundary: Optional[float],
    out_dir: str,
    chain: str,
) -> Dict[str, Any]:
    """Execute one trace segment in bounded memory; idempotent.

    Writes three artifacts into ``out_dir``: the rolling record spill
    (``.records.jsonl``), the boundary checkpoint (``.ckpt.json``,
    absent for the final segment, which drains instead), and a done
    marker (``.done.json``) written last — its presence means the
    other two are complete, so a re-run returns the recorded marker
    without touching the engine (crash-resumable replay).

    Segment *k>0* continues the chain's fold from the cumulative
    ``stats`` in segment *k-1*'s marker, so its own marker's ``stats``
    cover segments 0..k while ``records`` counts only its own spill.
    Without a usable predecessor marker it raises
    :class:`~repro.errors.ReplayStateError` rather than fold from
    empty stats.

    ``boundary`` is the clock to advance to before checkpointing —
    just below the next segment's first submit, so every event of this
    window (and nothing of the next) has fired.
    """
    out = Path(out_dir)
    spec = ReplaySpec.from_dict(spec_doc)
    seg = SegmentBounds(**seg_doc)
    records_path, ckpt_path, done_path = _segment_paths(out, chain, seg.index)

    try:
        marker = _read_marker(done_path)
    except ValueError:
        pass  # missing, torn or stale: the segment (re-)runs
    else:
        marker["resumed"] = True
        return marker

    carried = None
    if seg.index:
        prev = _chain_marker(out, chain, seg.index - 1, f"segment {seg.index}")
        carried = RollingStats.from_dict(prev["stats"])
    start = time.perf_counter()
    cluster, scheduler = spec.build_engine_parts()
    stream = spec.segment_stream(seg)
    tmp_records = Path(str(records_path) + ".tmp")
    rolling = RollingResults(spill_path=tmp_records, stats=carried)
    try:
        if seg.index == 0:
            sim = SchedulerSimulation(
                cluster,
                scheduler,
                [],
                online=True,
                start_time=seg.first_submit,
                job_source=stream,
                rolling=rolling,
            )
        else:
            _, prev_ckpt, _ = _segment_paths(out, chain, seg.index - 1)
            snapshot = json.loads(prev_ckpt.read_text())
            sim = SchedulerSimulation.restore(
                cluster, scheduler, snapshot, rolling=rolling, job_source=stream
            )
        if boundary is None:
            sim.drain()
            snapshot_doc = None
        else:
            sim.advance_to(boundary)
            snapshot_doc = sim.checkpoint()
        stats = rolling.stats
    finally:
        rolling.close()
    os.replace(tmp_records, records_path)
    if snapshot_doc is not None:
        tmp_ckpt = Path(str(ckpt_path) + ".tmp")
        tmp_ckpt.write_text(json.dumps(snapshot_doc))
        os.replace(tmp_ckpt, ckpt_path)

    marker = {
        "schema": REPLAY_SCHEMA,
        "chain": chain,
        "segment": seg.index,
        "stream_jobs": seg.jobs,
        "records": rolling.records,
        "sha256": _file_sha256(records_path),
        "stats": stats.to_dict(),
        "elapsed_s": round(time.perf_counter() - start, 3),
        "resumed": False,
    }
    tmp_done = Path(str(done_path) + ".tmp")
    tmp_done.write_text(json.dumps(marker))
    os.replace(tmp_done, done_path)
    return marker


def stitch_chain(
    out_dir: str | Path,
    chain: str,
    plan: List[SegmentBounds],
    stitched_path: Path,
) -> Dict[str, Any]:
    """Concatenate and hash a chain's segment spills; a byte copy.

    The segments already ran one sequential fold (each continued its
    predecessor's cumulative stats), so the last marker's ``stats`` are
    the chain's, bit-identical to a single-run fold — *not* a merge of
    per-segment partial sums.  The spills are copied and hashed in
    1 MiB blocks; no record is parsed or folded again.  Record counts
    come from the markers.
    """
    out_dir = Path(out_dir)
    markers = [_chain_marker(out_dir, chain, seg.index, "stitch") for seg in plan]
    sha = hashlib.sha256()
    with open(stitched_path, "wb") as out:
        for seg in plan:
            records_path, _, _ = _segment_paths(out_dir, chain, seg.index)
            with open(records_path, "rb") as fh:
                for block in iter(lambda: fh.read(_BLOCK), b""):
                    out.write(block)
                    sha.update(block)
    stats = RollingStats.from_dict(markers[-1]["stats"])
    records = sum(marker["records"] for marker in markers)
    return {
        "chain": chain,
        "segments": len(plan),
        "records": records,
        "sha256": sha.hexdigest(),
        "stats": stats.to_dict(),
        "summary": stats.summary_dict(),
        "path": str(stitched_path),
    }


# ----------------------------------------------------------------------
# the orchestrator
# ----------------------------------------------------------------------
def replay_trace(
    spec: ReplaySpec,
    *,
    segments: int = 4,
    workers: int = 1,
    out_dir: str | Path,
    verify: bool = False,
    progress=None,
) -> Dict[str, Any]:
    """Replay a trace in checkpointed segments; optionally prove identity.

    Plans the segment split, runs each chain's segments in dependency
    order over the sweep pool (``verify`` adds an independent
    single-segment chain that overlaps the sharded one across workers),
    stitches every chain, and — in verify mode — compares the sharded
    chain against the unsharded one by record-stream sha256 and exact
    accumulator equality.  All segment work is idempotent: re-invoking
    on the same ``out_dir`` resumes after a crash instead of redoing
    finished segments.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    plan = plan_segments(spec.trace, segments, spec.swf_fields())
    chains: Dict[str, List[SegmentBounds]] = {"sharded": plan}
    if verify:
        chains["unsharded"] = plan_segments(spec.trace, 1, spec.swf_fields())

    spec_doc = spec.to_dict()
    tasks: List[PoolTask] = []
    for chain, segs in chains.items():
        for i, seg in enumerate(segs):
            boundary = (
                math.nextafter(segs[i + 1].first_submit, -math.inf)
                if i + 1 < len(segs)
                else None
            )
            tasks.append(
                PoolTask(
                    key=f"{chain}/seg{i:03d}",
                    func=run_segment,
                    args=(spec_doc, asdict(seg), boundary, str(out), chain),
                    after=(f"{chain}/seg{i - 1:03d}",) if i else (),
                )
            )
    runner = SweepRunner(workers=workers, progress=progress)
    markers = runner.run_task_graph(tasks)

    chain_reports: Dict[str, Dict[str, Any]] = {}
    for chain, segs in chains.items():
        report = stitch_chain(out, chain, segs, out / f"{chain}.stitched.jsonl")
        report["segment_markers"] = [
            markers[f"{chain}/seg{i:03d}"] for i in range(len(segs))
        ]
        chain_reports[chain] = report

    payload: Dict[str, Any] = {
        "schema": REPLAY_SCHEMA,
        "trace": str(spec.trace),
        "trace_bytes": os.path.getsize(spec.trace),
        "spec": spec_doc,
        "segments_requested": segments,
        "segments_planned": len(plan),
        "workers": workers,
        "plan": [asdict(seg) for seg in plan],
        "chains": chain_reports,
        "elapsed_s": round(time.perf_counter() - t0, 3),
    }
    if verify:
        sharded = chain_reports["sharded"]
        unsharded = chain_reports["unsharded"]
        sha_match = sharded["sha256"] == unsharded["sha256"]
        stats_match = sharded["stats"] == unsharded["stats"]
        payload["verify"] = {
            "sha256_match": sha_match,
            "stats_match": stats_match,
            "identical": sha_match and stats_match,
        }
    return payload


# ----------------------------------------------------------------------
# trace generation
# ----------------------------------------------------------------------
def generate_trace(
    path: str | Path,
    num_jobs: int,
    *,
    reference: str = "W-KTH",
    seed: int = 0,
    cluster_nodes: int = 256,
    max_mem_per_node: int = 512 * GiB,
    target_load: float = 0.9,
    batch_jobs: int = 20_000,
    include_memory: bool = True,
    fields: Optional[SWFFields] = None,
) -> Dict[str, Any]:
    """Write a synthetic archive-shaped SWF trace of any length, streaming.

    Jobs are generated in batches of ``batch_jobs`` (each batch from
    its own derived seed), renumbered sequentially, and time-shifted so
    each batch's arrivals follow the previous batch's — a 1M-job trace
    costs O(batch) memory end to end because :func:`write_swf` consumes
    the generator directly.  ``include_memory=False`` writes ``-1``
    memory columns the way real archives ship, which exercises the
    parser's deterministic synthesis path on replay.
    """
    from ..workload.reference import generate_reference_jobs

    if num_jobs < 1:
        raise ConfigurationError(f"num_jobs must be >= 1, got {num_jobs}")
    batch_jobs = max(1, int(batch_jobs))

    def jobs() -> Iterator[Job]:
        offset = 0.0
        next_id = 1
        done = 0
        batch_index = 0
        while done < num_jobs:
            count = min(batch_jobs, num_jobs - done)
            batch = generate_reference_jobs(
                reference,
                seed=seed + batch_index,
                num_jobs=count,
                cluster_nodes=cluster_nodes,
                max_mem_per_node=max_mem_per_node,
                target_load=target_load,
            )
            batch.sort(key=lambda job: job.submit_time)
            last = offset
            for job in batch:
                job.job_id = next_id
                next_id += 1
                job.submit_time += offset
                last = job.submit_time
                yield job
            offset = last
            done += count
            batch_index += 1

    header = {
        "Computer": f"synthetic {reference}",
        "MaxNodes": str(cluster_nodes),
        "Note": f"generated trace, {num_jobs} jobs, seed {seed}",
    }
    write_swf(
        jobs(),
        path,
        fields=fields or SWFFields(),
        header=header,
        include_memory=include_memory,
    )
    return {
        "path": str(path),
        "jobs": num_jobs,
        "reference": reference,
        "seed": seed,
        "bytes": os.path.getsize(path),
    }
