"""The sweep cursor's availability views, read for the differential suites.

The production profile answers availability only through
:class:`repro.sched.profile.SweepCursor` scans.  To compare it with
``OracleProfile.free_at`` / ``window_free`` instant for instant, these
helpers scan with a zero-demand probe job and a placement that records
the view every candidate offers it — the nodes free throughout the
window and the per-pool minimum level — and accepts none, so the scan
visits every candidate.  Nothing here recomputes availability: every
view is exactly what the cursor would hand a real placement.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.sched.placement import PlacementPolicy

from ._oracles import mask_nodes

View = Tuple[FrozenSet[int], Dict[str, int]]

#: Zero node demand: no candidate is pruned by count, so every one
#: reaches placement (the cursor reads only ``nodes`` and ``job_id``).
_PROBE = SimpleNamespace(job_id=0, nodes=0)


class _ViewRecorder(PlacementPolicy):
    """Records each offered (free nodes, pool minimum) view — the
    node mask decoded by :func:`mask_nodes` — and rejects it."""

    name = "view-recorder"
    #: Makes the cursor build the windowed pool view for every
    #: candidate, as it does for a pool-aware placement.
    uses_pool_hint = True

    def __init__(self) -> None:
        self.views: List[View] = []

    def select(self, cluster, free_nodes, count, remote_per_node,
               pool_free=None):
        self.views.append((mask_nodes(free_nodes), dict(pool_free)))
        return None


def cursor_views(
    profile,
    duration: float,
    after: Optional[float] = None,
    not_after: Optional[float] = None,
    trial=None,
) -> List[View]:
    """The view of every candidate a cursor scan for a ``duration``
    window visits, in scan order: the grid from the anchor, or the
    ``after`` instant and the grid after it."""
    recorder = _ViewRecorder()
    profile.sweep_cursor().earliest_start(
        _PROBE, duration, 0, recorder, None,
        after=after, not_after=not_after, trial=trial,
    )
    return recorder.views


def cursor_window_free(profile, start: float, duration: float) -> View:
    """The cursor's counterpart of ``OracleProfile.window_free`` for an
    instant at or after the profile's ``now``."""
    (view,) = cursor_views(profile, duration, after=start, not_after=start)
    return view


def cursor_free_at(profile, time: float) -> View:
    """The cursor's counterpart of ``OracleProfile.free_at``: a
    zero-length window has no interior events."""
    return cursor_window_free(profile, time, 0.0)


def oracle_views(ref, duration: float, after: Optional[float] = None) -> List[View]:
    """``OracleProfile.window_free`` at every breakpoint a scan from
    ``after`` visits — the reference for :func:`cursor_views`."""
    return [ref.window_free(t, duration) for t in ref.breakpoints(after=after)]
