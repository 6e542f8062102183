"""Deterministic discrete-event simulation kernel.

This subpackage replaces the simpy dependency of the original artifact
with one small event calendar whose ordering is fully specified:
events fire in ``(time, priority, seq)`` order, so two simulations with
the same inputs produce byte-identical schedules.  See
:mod:`repro.sim.engine` for the calendar and its run loop, and
:mod:`repro.sim.rng` for the named random streams.
"""

from .engine import EventPriority, Simulator
from .rng import RandomStreams

__all__ = ["EventPriority", "Simulator", "RandomStreams"]
