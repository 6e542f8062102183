"""Simulation driver: glues kernel, cluster, workload, and scheduler.

:class:`SchedulerSimulation` owns the event loop; :mod:`~repro.engine.
lifecycle` the job state transitions; :mod:`~repro.engine.results` the
run record consumed by metrics, analysis and the schedule oracle
(:func:`repro.audit.deep_audit`).
"""

from .lifecycle import kill_bound, start_job, complete_job, kill_job, reject_job
from .results import SimulationResult, Promise
from .simulation import SchedulerSimulation
from .failures import FailureEvent, exponential_failure_trace

__all__ = [
    "SchedulerSimulation",
    "SimulationResult",
    "Promise",
    "FailureEvent",
    "exponential_failure_trace",
    "kill_bound",
    "start_job",
    "complete_job",
    "kill_job",
    "reject_job",
]
