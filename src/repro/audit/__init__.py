"""Audit subsystem: the schedule oracle, presets, explanations.

* :mod:`repro.audit.validator` — :func:`deep_audit`, the one schedule
  oracle: it recomputes per-instant node and pool occupancy from
  scratch and reports every violation as an :class:`AuditViolation`
  (``deep_audit(result).raise_if_failed()`` gives the raise-style
  contract integration tests and ``run_config`` use);
* :mod:`repro.audit.explain` — per-job "why this start time"
  explanations with the binding constraint and bounding breakpoint;
* :mod:`repro.audit.presets` — the curated adversarial scenario
  library behind ``repro audit`` (imported lazily: it pulls in the
  engine).
"""

from .explain import JobExplanation, explain_job, explain_schedule
from .validator import AuditReport, AuditViolation, deep_audit

__all__ = [
    "AuditReport",
    "AuditViolation",
    "deep_audit",
    "explain_job",
    "explain_schedule",
    "JobExplanation",
]
