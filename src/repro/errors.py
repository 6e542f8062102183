"""Exception hierarchy for the dismem-sched library.

Every error raised on a public code path derives from :class:`ReproError`
so callers can catch library failures with a single ``except`` clause
while still distinguishing configuration mistakes from runtime-state
violations (which usually indicate a bug and are worth reporting).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """An experiment, cluster, or workload specification is invalid."""


class UnitError(ConfigurationError):
    """A quantity string (memory size, duration) could not be parsed."""


class AllocationError(ReproError):
    """A resource allocation request violated capacity or state rules.

    Raised when code attempts to allocate busy nodes, exceed pool
    capacity, or release resources that were never granted.  Scheduler
    policies are expected to check feasibility first; seeing this error
    during a simulation indicates a policy bug, not a full system.
    """


class SchedulingError(ReproError):
    """A scheduling policy produced an inconsistent decision."""


class SimulationError(ReproError):
    """The discrete-event kernel was driven into an invalid state.

    Examples: scheduling an event in the past, running a finished
    simulation, or cancelling an event twice.
    """


class TraceFormatError(ReproError):
    """A workload trace file (SWF) is malformed."""


class ReplayStateError(ReproError):
    """A checkpointed replay's on-disk segment state cannot be continued.

    Raised when a segment's predecessor has no usable done marker
    (missing, torn, or written by another replay schema), so there is
    no fold to carry on from.
    """


class AuditError(ReproError):
    """The post-hoc schedule auditor found an invariant violation."""
