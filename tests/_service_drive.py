"""Driving a running :class:`SchedulerService` into one inbox drain.

Shared by the stateful service model and the checked-in journal
fixture: both need several requests to reach the engine as one drain,
in a known order, which is how group commit batches them in
production.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, List

from repro.service import SchedulerService
from repro.service.protocol import ProtocolError

from .test_durability import gate_engine, wait_for_inbox


def one_drain(service: SchedulerService, calls: List[Callable[[], Any]]) -> list:
    """Run ``calls`` from their own threads so that they land, in
    order, in one inbox drain of the started ``service``.

    A read-only request parks the engine inside its drain while the
    calls queue behind it; the gate is lifted once they are all in the
    inbox.  Returns each call's result, or the ProtocolError it raised.
    """
    busy, gate = gate_engine(service)
    parked = threading.Thread(target=service.jobs, daemon=True)
    parked.start()
    busy.wait(timeout=10.0)
    del service._process  # the parked drain holds the gate; later ones do not
    outcomes: list = [None] * len(calls)

    def run(index: int, call: Callable[[], Any]) -> None:
        try:
            outcomes[index] = call()
        except ProtocolError as exc:
            outcomes[index] = exc

    threads = []
    for index, call in enumerate(calls):
        thread = threading.Thread(target=run, args=(index, call), daemon=True)
        thread.start()
        threads.append(thread)
        wait_for_inbox(service, index + 1)
    gate.set()
    for thread in [parked, *threads]:
        thread.join(timeout=10.0)
    return outcomes
