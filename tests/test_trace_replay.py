"""Checkpointed shard-parallel trace replay tests.

The headline contract: a trace replayed in N checkpointed segments —
serially or across a process pool — produces a record stream and
rolling statistics *bit-identical* to the uninterrupted single-segment
run (sha256 over the stitched bytes, field-for-field accumulator
equality).  Each segment continues its predecessor's fold from the
cumulative stats in its done marker, and the stitch only copies bytes,
so the re-fold of the stitched stream lives here as a check.  Around
it: segment-planning invariants (strict submit separation, full line
coverage), idempotent crash resume via done markers (mid-chain and
across a marker-schema change), the errors for an unusable predecessor
marker, the generic dependency-ordered task graph the chains run on,
and the CLI entry point.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict

import pytest

from repro import cli
from repro.engine.results import RollingStats
from repro.engine.simulation import SchedulerSimulation
from repro.errors import ConfigurationError, ReplayStateError
from repro.runner.replay import (
    ReplaySpec,
    generate_trace,
    plan_segments,
    replay_trace,
    run_segment,
)
from repro.runner.sweep import PoolTask, SweepRunner
from repro.workload.swf import iter_swf


@pytest.fixture(scope="module")
def small_trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("trace") / "wkth-400.swf"
    generate_trace(
        path, 400, reference="W-KTH", seed=11, cluster_nodes=256,
        include_memory=True,
    )
    return path


def small_spec(trace) -> ReplaySpec:
    return ReplaySpec(
        trace=str(trace),
        scheduler={"backfill": "easy", "penalty": {"kind": "linear", "beta": 0.3}},
        seed=11,
    )


# ----------------------------------------------------------------------
# segment planning
# ----------------------------------------------------------------------
def test_plan_covers_trace_with_strict_submit_separation(small_trace):
    plan = plan_segments(small_trace, 4)
    assert len(plan) == 4
    total_lines = sum(1 for _ in open(small_trace))
    assert plan[0].lineno == 0 and plan[0].byte_offset == 0
    assert sum(seg.line_count for seg in plan) == total_lines
    assert sum(seg.jobs for seg in plan) == 400
    for prev, nxt in zip(plan, plan[1:]):
        assert nxt.byte_offset > prev.byte_offset
        assert nxt.lineno == prev.lineno + prev.line_count
        assert nxt.emitted == prev.emitted + prev.jobs
        # The boundary-clock invariant: a checkpoint instant exists
        # strictly between the two segments.
        assert nxt.first_submit > prev.last_submit


def test_plan_single_segment_is_whole_trace(small_trace):
    (seg,) = plan_segments(small_trace, 1)
    assert seg.jobs == 400
    assert seg.emitted == 0


def test_plan_segment_streams_partition_the_job_stream(small_trace):
    spec = small_spec(small_trace)
    plan = plan_segments(small_trace, 4, spec.swf_fields())
    whole = [j.job_id for j in iter_swf(small_trace, fields=spec.swf_fields())]
    sharded = [
        j.job_id for seg in plan for j in spec.segment_stream(seg)
    ]
    assert sharded == whole


def test_plan_rejects_bad_inputs(tmp_path, small_trace):
    with pytest.raises(ConfigurationError):
        plan_segments(small_trace, 0)
    empty = tmp_path / "empty.swf"
    empty.write_text("; Computer: none\n")
    with pytest.raises(ConfigurationError):
        plan_segments(empty, 2)


def test_plan_collapses_when_submits_never_advance(tmp_path):
    line = "1 50 -1 100 -1 -1 -1 4 200 -1 1 0 0 -1 -1 -1 -1 -1\n"
    path = tmp_path / "flat.swf"
    path.write_text(line * 40)
    plan = plan_segments(path, 4)
    assert len(plan) == 1  # no legal cut point exists
    assert plan[0].jobs == 40


def test_plan_drops_torn_tail(tmp_path):
    line = "%d 50 -1 100 -1 -1 -1 4 200 -1 1 0 0 -1 -1 -1 -1 -1\n"
    path = tmp_path / "torn.swf"
    path.write_text("".join(line % i for i in range(1, 11)) + "11 gar")
    plan = plan_segments(path, 1)
    assert plan[0].jobs == 10


# ----------------------------------------------------------------------
# the task graph
# ----------------------------------------------------------------------
def _record(key, log_path):
    # Appends are atomic enough for order assertions (short writes).
    with open(log_path, "a") as fh:
        fh.write(key + "\n")
    return key.upper()


def _sleep_then(key, seconds):
    time.sleep(seconds)
    return key


def _boom():
    raise RuntimeError("worker exploded")


def chain_tasks(chain, n, log_path):
    return [
        PoolTask(
            key=f"{chain}/{i}",
            func=_record,
            args=(f"{chain}/{i}", str(log_path)),
            after=(f"{chain}/{i - 1}",) if i else (),
        )
        for i in range(n)
    ]


@pytest.mark.parametrize("workers", [1, 2])
def test_task_graph_respects_dependencies(tmp_path, workers):
    log = tmp_path / "order.log"
    tasks = chain_tasks("a", 3, log) + chain_tasks("b", 3, log)
    results = SweepRunner(workers=workers).run_task_graph(tasks)
    assert results == {
        f"{c}/{i}": f"{c.upper()}/{i}" for c in "ab" for i in range(3)
    }
    seen = log.read_text().splitlines()
    for chain in "ab":
        order = [s for s in seen if s.startswith(chain)]
        assert order == [f"{chain}/{i}" for i in range(3)]


def test_task_graph_rejects_duplicate_keys():
    tasks = [PoolTask(key="x", func=_boom), PoolTask(key="x", func=_boom)]
    with pytest.raises(ValueError, match="duplicate"):
        SweepRunner().run_task_graph(tasks)


def test_task_graph_rejects_unknown_dependency():
    tasks = [PoolTask(key="x", func=_boom, after=("ghost",))]
    with pytest.raises(ValueError):
        SweepRunner().run_task_graph(tasks)


def test_task_graph_rejects_cycles():
    tasks = [
        PoolTask(key="x", func=_boom, after=("y",)),
        PoolTask(key="y", func=_boom, after=("x",)),
    ]
    with pytest.raises(ValueError):
        SweepRunner().run_task_graph(tasks)


@pytest.mark.parametrize("workers", [1, 2])
def test_task_graph_surfaces_worker_failure(workers):
    # Serial execution propagates the original exception; the pool
    # path wraps it with the failing task's key.
    with pytest.raises(RuntimeError, match="worker exploded|'boom' failed"):
        SweepRunner(workers=workers).run_task_graph(
            [PoolTask(key="boom", func=_boom)]
        )


def test_task_graph_overlaps_independent_chains():
    """With 2 workers, two independent 1-task chains run concurrently:
    total wall time is well under the serial sum."""
    tasks = [
        PoolTask(key=k, func=_sleep_then, args=(k, 0.4)) for k in ("p", "q")
    ]
    t0 = time.perf_counter()
    SweepRunner(workers=2).run_task_graph(tasks)
    assert time.perf_counter() - t0 < 0.75


# ----------------------------------------------------------------------
# sharded replay identity
# ----------------------------------------------------------------------
def test_sharded_replay_identical_to_unsharded(tmp_path, small_trace):
    payload = replay_trace(
        small_spec(small_trace),
        segments=4,
        workers=2,
        out_dir=tmp_path / "segments",
        verify=True,
    )
    assert payload["segments_planned"] == 4
    assert payload["verify"] == {
        "sha256_match": True,
        "stats_match": True,
        "identical": True,
    }
    sharded = payload["chains"]["sharded"]
    unsharded = payload["chains"]["unsharded"]
    assert sharded["records"] == unsharded["records"] == 400
    assert sharded["summary"] == unsharded["summary"]
    # Every segment contributed records, so the identity is not vacuous.
    assert all(m["records"] > 0 for m in sharded["segment_markers"])


def test_replay_resumes_idempotently(tmp_path, small_trace):
    spec = small_spec(small_trace)
    out = tmp_path / "segments"
    first = replay_trace(spec, segments=3, workers=1, out_dir=out)
    second = replay_trace(spec, segments=3, workers=1, out_dir=out)
    for m1, m2 in zip(
        first["chains"]["sharded"]["segment_markers"],
        second["chains"]["sharded"]["segment_markers"],
    ):
        assert not m1["resumed"]
        assert m2["resumed"]
        assert m2["sha256"] == m1["sha256"]
        assert m2["stats"] == m1["stats"]
    assert (
        second["chains"]["sharded"]["sha256"]
        == first["chains"]["sharded"]["sha256"]
    )


def _done_path(out, chain, index):
    return out / f"{chain}-seg{index:03d}.done.json"


def _resumed(payload, chain="sharded"):
    return [m["resumed"] for m in payload["chains"][chain]["segment_markers"]]


def test_stitched_stream_refolds_to_carried_stats(tmp_path, small_trace):
    """The stitch copies bytes and reports the carried stats; folding
    the stitched JSONL line by line from empty stats must reproduce
    them exactly, for the sharded and the unsharded chain."""
    payload = replay_trace(
        small_spec(small_trace), segments=4, workers=1,
        out_dir=tmp_path / "segments", verify=True,
    )
    for chain in ("sharded", "unsharded"):
        report = payload["chains"][chain]
        refold = RollingStats()
        with open(report["path"]) as fh:
            for line in fh:
                refold.add_record(json.loads(line))
        assert refold.to_dict() == report["stats"]
        assert json.dumps(refold.to_dict()) == json.dumps(report["stats"])
        assert refold.jobs == report["records"] == 400


def test_marker_stats_are_cumulative(tmp_path, small_trace):
    payload = replay_trace(
        small_spec(small_trace), segments=4, workers=1,
        out_dir=tmp_path / "segments",
    )
    markers = payload["chains"]["sharded"]["segment_markers"]
    running = 0
    for marker in markers:
        running += marker["records"]
        assert marker["stats"]["jobs"] == running
    assert markers[-1]["stats"] == payload["chains"]["sharded"]["stats"]


def test_mid_chain_crash_resumes_from_carried_stats(tmp_path, small_trace):
    spec = small_spec(small_trace)
    out = tmp_path / "segments"
    first = replay_trace(spec, segments=4, workers=1, out_dir=out)
    for index in (2, 3):
        _done_path(out, "sharded", index).unlink()
    second = replay_trace(spec, segments=4, workers=1, out_dir=out)
    assert _resumed(first) == [False] * 4
    assert _resumed(second) == [True, True, False, False]
    for key in ("sha256", "stats", "records"):
        assert second["chains"]["sharded"][key] == first["chains"]["sharded"][key]


def test_schema_1_marker_reruns_its_segment(tmp_path, small_trace):
    """A marker from the per-segment-stats schema is never resumed or
    folded on: its segment re-runs and the chain still matches the
    unsharded run."""
    spec = small_spec(small_trace)
    out = tmp_path / "segments"
    replay_trace(spec, segments=3, workers=1, out_dir=out)
    done = _done_path(out, "sharded", 1)
    marker = json.loads(done.read_text())
    own = RollingStats()
    with open(out / "sharded-seg001.records.jsonl") as fh:
        for line in fh:
            own.add_record(json.loads(line))
    marker.update(schema=1, stats=own.to_dict(), records=own.jobs)
    done.write_text(json.dumps(marker))

    payload = replay_trace(spec, segments=3, workers=1, out_dir=out, verify=True)
    assert _resumed(payload) == [True, False, True]
    assert payload["verify"]["identical"] is True
    assert (
        payload["chains"]["sharded"]["stats"]
        == payload["chains"]["unsharded"]["stats"]
    )
    assert json.loads(done.read_text())["schema"] == 2


@pytest.mark.parametrize(
    "damage, reason",
    [
        ("missing", "which is missing"),
        ("torn", "which is torn"),
        ("schema", "which is schema 1, not 2"),
    ],
)
def test_segment_refuses_unusable_predecessor_marker(
    tmp_path, small_trace, damage, reason
):
    spec = small_spec(small_trace)
    out = tmp_path / "segments"
    replay_trace(spec, segments=3, workers=1, out_dir=out)
    prev = _done_path(out, "sharded", 0)
    if damage == "missing":
        prev.unlink()
    elif damage == "torn":
        prev.write_text(prev.read_text()[:40])
    else:
        marker = json.loads(prev.read_text())
        prev.write_text(json.dumps(dict(marker, schema=1)))
    _done_path(out, "sharded", 1).unlink()

    plan = plan_segments(small_trace, 3, spec.swf_fields())
    with pytest.raises(
        ReplayStateError,
        match=rf"chain 'sharded': segment 1 needs the done marker of "
        rf"segment 0 \(sharded-seg000\.done\.json\), {reason}",
    ):
        run_segment(
            spec.to_dict(), asdict(plan[1]), None, str(out), "sharded"
        )
    # Nothing was folded from empty stats and marked done.
    assert not _done_path(out, "sharded", 1).exists()


def test_streamed_rolling_replay_matches_offline_run(small_trace):
    """The bounded-memory online path (streaming source + rolling
    fold) reaches the same terminal facts as an offline list-based
    simulation of the materialized trace."""
    spec = small_spec(small_trace)
    (seg,) = plan_segments(small_trace, 1, spec.swf_fields())

    cluster, scheduler = spec.build_engine_parts()
    offline = SchedulerSimulation(
        cluster, scheduler, list(spec.segment_stream(seg))
    ).run()

    cluster, scheduler = spec.build_engine_parts()
    online = SchedulerSimulation(
        cluster,
        scheduler,
        [],
        online=True,
        start_time=seg.first_submit,
        job_source=spec.segment_stream(seg),
    )
    online.drain()
    result = online.online_result()

    assert result.summary_counts() == offline.summary_counts()
    assert result.makespan == offline.makespan


# ----------------------------------------------------------------------
# trace generation
# ----------------------------------------------------------------------
def test_generate_trace_batches_stay_monotone(tmp_path):
    path = tmp_path / "batched.swf"
    info = generate_trace(
        path, 120, reference="W-KTH", seed=5, cluster_nodes=64,
        batch_jobs=50,  # forces three batches through the offset shift
    )
    assert info["jobs"] == 120
    jobs = list(iter_swf(path))
    assert [j.job_id for j in jobs] == list(range(1, 121))
    submits = [j.submit_time for j in jobs]
    assert submits == sorted(submits)


def test_generate_trace_rejects_empty(tmp_path):
    with pytest.raises(ConfigurationError):
        generate_trace(tmp_path / "none.swf", 0)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_replay_generate_verify(tmp_path, capsys):
    out = tmp_path / "replay.json"
    code = cli.main(
        [
            "replay",
            "--generate", "150",
            "--segments", "3",
            "--workers", "2",
            "--nodes", "64",
            "--seed", "4",
            "--no-memory",
            "--verify",
            "--work-dir", str(tmp_path / "work"),
            "--out", str(out),
            "--quiet",
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["verify"]["identical"] is True
    assert payload["chains"]["sharded"]["records"] == 150
    captured = capsys.readouterr()
    assert "IDENTICAL" in captured.out


def test_cli_replay_writes_nothing_outside_its_paths(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "benchmarks" / "perf").mkdir(parents=True)
    code = cli.main(
        [
            "replay",
            "--generate", "60",
            "--segments", "2",
            "--workers", "1",
            "--nodes", "32",
            "--seed", "4",
            "--no-memory",
            "--work-dir", str(tmp_path / "run" / "work"),
            "--out", str(tmp_path / "run" / "replay.json"),
            "--quiet",
        ]
    )
    assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["benchmarks", "run"]
    assert list((tmp_path / "benchmarks" / "perf").iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["perf", "--quick"],
        ["replay", "--generate", "10", "--history", "history.jsonl"],
    ],
    ids=["no-perf-command", "no-replay-history-flag"],
)
def test_cli_rejects_removed_options(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
