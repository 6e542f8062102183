"""Streaming SWF ingest tests.

The contract under test: :func:`repro.workload.swf.iter_swf` is a
*chunk-invariant, resumable, bounded-memory* stream.  The same trace
must yield bit-identical jobs whether pulled in chunks of 1, 64, or
the whole file (synthesis included — per-line seeding, not a shared
sequential generator); a cursor recorded mid-stream must resume the
tail exactly; a torn final line is dropped while mid-file garbage
still raises; and consuming a 100k-line trace must stay within a
small constant memory ceiling (the property the trace-scale replay
path is built on).
"""

from __future__ import annotations

import math
import tracemalloc

import pytest

from repro.errors import TraceFormatError
from repro.runner.replay import generate_trace
from repro.sim.rng import RandomStreams
from repro.workload.models import LogNormal, Uniform
from repro.workload.swf import (
    SWFCursor,
    SWFFields,
    iter_swf,
    jobs_from_swf_text,
    read_swf,
    swf_line_submit,
)

_JOB_FIELDS = (
    "job_id",
    "submit_time",
    "nodes",
    "walltime",
    "runtime",
    "mem_per_node",
    "mem_used_per_node",
    "user",
    "group",
)


def job_key(job):
    return tuple(getattr(job, name) for name in _JOB_FIELDS)


def swf_line(
    job=1,
    submit=0,
    run=100,
    alloc=-1,
    used_kb=-1,
    procs=4,
    req_time=200,
    req_kb=-1,
    status=1,
    user=3,
    group=2,
):
    """One SWF data line (18 fields, -1 for unknowns)."""
    vals = [job, submit, -1, run, alloc, -1, used_kb, procs, req_time,
            req_kb, status, user, group, -1, -1, -1, -1, -1]
    return " ".join(str(v) for v in vals)


def sample_text(num_jobs=50):
    """A small trace exercising every sentinel path: headers, missing
    job ids, allocated-column fallback, skipped statuses, blanks."""
    lines = ["; Computer: test rig", "; MaxNodes: 64", ""]
    for i in range(1, num_jobs + 1):
        if i % 7 == 0:
            # No job number: parser assigns the next fallback id.
            lines.append(swf_line(job=-1, submit=i * 10, procs=i % 5 + 1))
        elif i % 11 == 0:
            # Requested processors missing: falls back to allocated.
            lines.append(swf_line(job=i, submit=i * 10, procs=-1, alloc=3))
        elif i % 13 == 0:
            lines.append(swf_line(job=i, submit=i * 10, status=5))  # cancelled
        elif i % 17 == 0:
            lines.append(swf_line(job=i, submit=i * 10, status=0))  # failed
        else:
            lines.append(swf_line(job=i, submit=i * 10, procs=i % 8 + 1))
    return "\n".join(lines) + "\n"


def synth_kwargs(seed=7):
    """Non-constant synthesis: detects any chunk/resume dependence in
    the per-line RNG derivation (a Constant would mask it)."""
    return dict(
        mem_synth=LogNormal(mu=math.log(2048), sigma=0.8, low=64, high=65536),
        usage_ratio_synth=Uniform(0.4, 0.95),
        streams=RandomStreams(seed),
    )


# ----------------------------------------------------------------------
# chunk invariance
# ----------------------------------------------------------------------
@pytest.mark.parametrize("chunk_lines", [1, 3, 64, 10**9])
def test_chunk_size_invisible_in_output(chunk_lines):
    text = sample_text()
    baseline = [
        job_key(j)
        for j in iter_swf(text.splitlines(True), **synth_kwargs())
    ]
    chunked = [
        job_key(j)
        for j in iter_swf(
            text.splitlines(True), chunk_lines=chunk_lines, **synth_kwargs()
        )
    ]
    assert chunked == baseline
    assert len(baseline) > 30  # the sample actually emits jobs


def test_synthesis_is_per_line_not_sequential():
    """Dropping a prefix must not shift later lines' synthesis draws."""
    text = sample_text()
    lines = text.splitlines(True)
    full = [job_key(j) for j in iter_swf(lines, **synth_kwargs())]
    # Resume from line 20 with the cursor of the consumed prefix.
    cursor = SWFCursor()
    head = []
    stream = iter_swf(lines, cursor=cursor, **synth_kwargs())
    for job in stream:
        head.append(job)
        if cursor.lineno >= 20:
            break
    resumed = list(
        iter_swf(
            lines[cursor.lineno:], cursor=cursor.copy(), **synth_kwargs()
        )
    )
    combined = [job_key(j) for j in head + resumed]
    assert combined == full


# ----------------------------------------------------------------------
# torn tails and malformed input
# ----------------------------------------------------------------------
def test_torn_final_line_is_dropped():
    text = sample_text(10) + swf_line(job=99, submit=990)[:7]  # no newline
    jobs = list(iter_swf(text.splitlines(True)))
    assert all(j.job_id != 99 for j in jobs)
    assert len(jobs) == len(list(iter_swf(sample_text(10).splitlines(True))))


@pytest.mark.parametrize("chunk_lines", [1, 4, 10**9])
def test_torn_tail_dropped_at_any_chunk_size(chunk_lines):
    # The torn line may or may not share a chunk with its predecessor;
    # both code paths (peek within chunk, pull next chunk) must agree.
    text = sample_text(10) + "3 garbage"
    jobs = list(iter_swf(text.splitlines(True), chunk_lines=chunk_lines))
    assert len(jobs) == len(list(iter_swf(sample_text(10).splitlines(True))))


def test_mid_file_garbage_raises():
    lines = sample_text(10).splitlines(True)
    lines.insert(5, "not an swf line\n")
    with pytest.raises(TraceFormatError):
        list(iter_swf(lines))


def test_newline_terminated_garbage_tail_raises():
    """Only a *physically last, unterminated* line may be torn."""
    text = sample_text(10) + "3 garbage\n"
    with pytest.raises(TraceFormatError):
        list(iter_swf(text.splitlines(True)))


@pytest.mark.parametrize(
    "line",
    [
        swf_line(procs="nan"),
        swf_line(procs="inf"),
        swf_line(user="inf"),
        swf_line(run="nan"),
        swf_line(req_time="nan"),
        swf_line(run="-inf"),
    ],
    ids=["nan-procs", "inf-procs", "inf-user", "nan-runtime",
         "nan-walltime", "neg-inf-runtime"],
)
def test_non_finite_field_raises(line):
    """A nan/inf field is malformed input, never a bare ValueError or
    OverflowError and never a silently accepted NaN job time."""
    lines = sample_text(5).splitlines(True) + [line + "\n"]
    with pytest.raises(TraceFormatError, match="non-finite"):
        list(iter_swf(lines))
    with pytest.raises(TraceFormatError, match="non-finite"):
        swf_line_submit(line, 7)


@pytest.mark.parametrize(
    "line",
    [
        swf_line(procs=0.5),
        swf_line(procs=2.5),
        swf_line(procs=-1, alloc=0.5),
    ],
    ids=["half-procs", "fractional-procs", "half-alloc-fallback"],
)
def test_non_integral_procs_raises(line):
    """A fractional processor count is malformed input: both the
    stream and the shard planner's classifier reject it naming the
    line, instead of building a zero-node job or truncating."""
    lines = sample_text(5).splitlines(True) + [line + "\n"]
    lineno = len(lines)
    with pytest.raises(TraceFormatError, match=f"line {lineno}: non-integral"):
        list(iter_swf(lines))
    with pytest.raises(TraceFormatError, match="line 7: non-integral"):
        swf_line_submit(line, 7)


@pytest.mark.parametrize(
    "line, name",
    [
        (swf_line(job=1.5), "job number"),
        (swf_line(user=1.7), "user id"),
        (swf_line(group=2.5), "group id"),
        (swf_line(user=-1.5), "user id"),
    ],
    ids=["half-job", "fractional-user", "fractional-group", "negative-user"],
)
def test_non_integral_ids_raise(line, name):
    """A fractional job number, user id or group id is malformed input:
    truncating job ``1.5`` to 1 could collide with a real job 1, and
    user ``1.7`` is not ``user1``.  Both the stream and the shard
    planner's classifier reject it naming the line."""
    lines = sample_text(5).splitlines(True) + [line + "\n"]
    lineno = len(lines)
    with pytest.raises(
        TraceFormatError, match=f"line {lineno}: non-integral {name}"
    ):
        list(iter_swf(lines))
    with pytest.raises(TraceFormatError, match=f"line 7: non-integral {name}"):
        swf_line_submit(line, 7)


def test_header_only_trace_yields_nothing():
    header: dict = {}
    jobs = list(
        iter_swf(
            ["; Computer: empty\n", "; MaxJobs: 0\n"], header=header
        )
    )
    assert jobs == []
    assert header == {"Computer": "empty", "MaxJobs": "0"}


# ----------------------------------------------------------------------
# sentinel handling
# ----------------------------------------------------------------------
def test_fallback_ids_stable_across_chunks_and_resume():
    """Jobs without a job number get sequential fallback ids derived
    from the *emitted* count — which must survive chunking and cursor
    resume unchanged."""
    lines = [swf_line(job=-1, submit=i * 5) + "\n" for i in range(1, 30)]
    expect = [j.job_id for j in iter_swf(lines)]
    assert expect == list(range(1, 30))
    for chunk in (1, 7):
        assert [j.job_id for j in iter_swf(lines, chunk_lines=chunk)] == expect
    cursor = SWFCursor()
    head = []
    stream = iter_swf(lines, cursor=cursor)
    for job in stream:
        head.append(job.job_id)
        if len(head) == 10:
            break
    tail = [j.job_id for j in iter_swf(lines[cursor.lineno:], cursor=cursor.copy())]
    assert head + tail == expect


def test_allocated_processor_fallback_and_status_filters():
    jobs, _ = jobs_from_swf_text(
        "\n".join(
            [
                swf_line(job=1, procs=-1, alloc=6),
                swf_line(job=2, status=5),
                swf_line(job=3, status=0),
                swf_line(job=4, run=0),
                swf_line(job=5, procs=-1, alloc=-1),
            ]
        )
        + "\n"
    )
    assert [j.job_id for j in jobs] == [1]
    assert jobs[0].nodes == 6
    kept, _ = jobs_from_swf_text(
        swf_line(job=3, status=0) + "\n", fields=SWFFields(keep_failed=True)
    )
    assert [j.job_id for j in kept] == [3]


def test_missing_memory_defaults_to_one_mib():
    jobs, _ = jobs_from_swf_text(swf_line() + "\n")
    assert jobs[0].mem_per_node == 1
    assert jobs[0].mem_used_per_node == 1


def test_cores_per_node_conversion():
    jobs, _ = jobs_from_swf_text(
        swf_line(procs=10, req_kb=2048) + "\n",
        fields=SWFFields(cores_per_node=4),
    )
    assert jobs[0].nodes == 3  # ceil(10 / 4)
    assert jobs[0].mem_per_node == 8  # 2048 KB/proc * 4 procs / 1024


# ----------------------------------------------------------------------
# read_swf rides the stream
# ----------------------------------------------------------------------
def test_read_swf_matches_text_parser(tmp_path):
    text = sample_text()
    path = tmp_path / "t.swf"
    path.write_text(text)
    from_file = read_swf(path, **synth_kwargs())
    from_text = jobs_from_swf_text(text, **synth_kwargs())
    assert [job_key(j) for j in from_file[0]] == [
        job_key(j) for j in from_text[0]
    ]
    assert from_file[1] == from_text[1] == {
        "Computer": "test rig", "MaxNodes": "64",
    }


# ----------------------------------------------------------------------
# bounded memory at trace scale
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def trace_100k(tmp_path_factory):
    path = tmp_path_factory.mktemp("swf") / "wkth-100k.swf"
    info = generate_trace(
        path, 100_000, reference="W-KTH", seed=3,
        cluster_nodes=256, include_memory=False,
    )
    assert info["jobs"] == 100_000
    return path


def test_streaming_peak_memory_bounded(trace_100k):
    """Consuming a 100k-line trace holds O(chunk) memory, not O(file).

    The measured peak is ~2 MiB (one line chunk plus one job in
    flight); the 8 MiB ceiling leaves headroom for allocator noise
    while sitting far below the ~10x-file-size cost of materializing
    the job list.
    """
    tracemalloc.start()
    count = sum(1 for _ in iter_swf(trace_100k))
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert count == 100_000
    assert peak < 8 * 2**20


def test_generated_trace_submits_monotone(trace_100k):
    last = -1.0
    count = 0
    for job in iter_swf(trace_100k):
        assert job.submit_time >= last
        last = job.submit_time
        count += 1
        assert job.job_id == count  # sequential renumbering across batches
