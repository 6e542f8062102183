"""Running experiments: single arms, matrices, and replications.

The benches and examples all funnel through :func:`run_config`, which
enforces the hygiene that keeps comparisons honest:

* every arm receives a **fresh copy** of the trace (jobs are stateful);
* every run is **deep-audited** (:func:`repro.audit.deep_audit`)
  before its numbers are reported (disable
  only for deliberately broken arms, e.g. memory-blind EASY);
* summaries carry an explicit label and a common memory-class
  reference so cross-configuration tables are comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..audit import deep_audit
from ..cluster.cluster import Cluster
from ..cluster.spec import ClusterSpec
from ..engine.results import SimulationResult
from ..engine.simulation import SchedulerSimulation
from ..metrics.summary import ResultSummary, summarize
from ..sched.base import Scheduler, build_scheduler
from ..sim.rng import RandomStreams
from ..workload.filters import reset_jobs
from ..workload.job import Job

__all__ = ["run_config", "run_replications", "ExperimentArm", "run_arms"]


def run_config(
    cluster_spec: ClusterSpec,
    jobs: Sequence[Job],
    scheduler: Optional[Scheduler] = None,
    label: str = "",
    audit: bool = True,
    sample_interval: Optional[float] = None,
    class_local_mem: Optional[int] = None,
    **build_kwargs,
) -> Tuple[SimulationResult, ResultSummary]:
    """Run one (cluster, workload, scheduler) arm and summarize it.

    ``scheduler`` may be given directly; otherwise one is built from
    ``build_kwargs`` via :func:`repro.sched.base.build_scheduler`.
    """
    if scheduler is None:
        scheduler = build_scheduler(**build_kwargs)
    elif build_kwargs:
        raise ValueError("pass either a scheduler or build kwargs, not both")
    cluster = Cluster(cluster_spec)
    sim = SchedulerSimulation(
        cluster, scheduler, reset_jobs(jobs), sample_interval=sample_interval
    )
    result = sim.run()
    if audit:
        deep_audit(result).raise_if_failed()
    summary = summarize(
        result,
        label=label or cluster_spec.name,
        class_local_mem=class_local_mem,
    )
    return result, summary


@dataclass
class ExperimentArm:
    """A labelled configuration in a comparison matrix."""

    label: str
    cluster_spec: ClusterSpec
    scheduler_factory: Callable[[], Scheduler]
    audit: bool = True


def run_arms(
    arms: Iterable[ExperimentArm],
    jobs: Sequence[Job],
    class_local_mem: Optional[int] = None,
    sample_interval: Optional[float] = None,
) -> List[ResultSummary]:
    """Run every arm on fresh copies of the same trace."""
    summaries: List[ResultSummary] = []
    for arm in arms:
        _, summary = run_config(
            arm.cluster_spec,
            jobs,
            scheduler=arm.scheduler_factory(),
            label=arm.label,
            audit=arm.audit,
            class_local_mem=class_local_mem,
            sample_interval=sample_interval,
        )
        summaries.append(summary)
    return summaries


def run_replications(
    make_jobs: Callable[[RandomStreams], List[Job]],
    run_one: Callable[[List[Job]], ResultSummary],
    seeds: Sequence[int],
) -> List[ResultSummary]:
    """Replicate an experiment across seeds.

    ``make_jobs`` generates a workload from a seed-specific stream set;
    ``run_one`` runs an arm on it.  Returns per-seed summaries; combine
    with :func:`repro.analysis.stats.mean_ci` for intervals.
    """
    summaries: List[ResultSummary] = []
    for seed in seeds:
        jobs = make_jobs(RandomStreams(seed))
        summaries.append(run_one(jobs))
    return summaries
