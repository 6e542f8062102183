"""Host-speed gauge: timed spans in reference CPU seconds.

The benchmark's host is a shared VM.  Its wall clock counts time the
program never ran: the hypervisor running another guest on our CPU
(steal), other processes of the guest sharing it, waits for the disk.
And while the program runs, neighbours contend for the shared cache
and memory, which moves its speed by up to half within seconds.

So a timed span counts the CPU time of its own process
(``CLOCK_PROCESS_CPUTIME_ID``, which leaves out steal, time-sharing and
blocked waits alike) and scales it by the host's speed.  A fixed
*ruler* — a pseudo-random walk over a 16 MiB buffer, about 4 ms of CPU
— runs at the span's start, at its end and every ``every_s`` wall
seconds in between.  Each stretch between two rulers gets a factor:
``REFERENCE_S`` over the median ruler CPU time around it, to the power
``SENSITIVITY``; the span's factor is the mean of them weighted by each
stretch's CPU time.  A *reference second* is a CPU second of a host on
which the ruler takes ``REFERENCE_S``; a slower moment of the host
counts as fewer of them.  The rulers' own time counts in neither the
wall nor the CPU time.

The walk misses the private caches like the simulator's object graph
does, so it slows with the program: over minutes of repeated identical
runs on a quiet host it cut the spread of the run time (IQR over
median) from 0.34 to 0.03 on wmix-conservative and from 0.15 to 0.05
on kth-replay, where a cache-resident arithmetic loop gave 0.13 and
0.07.  Counting CPU time instead of the wall keeps that when another
process competes for the CPU: with a busy loop pinned to the
benchmark's CPU, a wall-based count read kth-replay 13% slow.
"""

from __future__ import annotations

import statistics
import time
from typing import List, NamedTuple

__all__ = ["REFERENCE_S", "SENSITIVITY", "Span", "SpeedGauge"]

#: The ruler CPU time of one reference second's host.
REFERENCE_S = 0.004

#: How much more the simulator slows than the ruler when the host
#: slows: its CPU time follows the ruler's to this power.  Fitted over
#: 20 runs of each offline workload on the baseline host, while the
#: ruler's factor moved from 0.62 to 1.11: wmix-conservative gave 1.18,
#: kth-replay 1.25.  At 1.0 the quartile spread of those runs' rates was
#: 0.087 and 0.076; at 1.2 it was 0.036 and 0.040.
SENSITIVITY = 1.2

_BUFFER_BYTES = 16 << 20
_STEPS = 15_000
_PAGE = 4096


class Span(NamedTuple):
    wall_s: float  #: wall seconds, rulers excluded
    cpu_s: float  #: CPU seconds of this process, rulers excluded
    factor: float  #: reference seconds per CPU second

    @property
    def ref_s(self) -> float:
        """The span's CPU time in reference seconds."""
        return self.cpu_s * self.factor


class SpeedGauge:
    """Samples the ruler during a span: :meth:`start`, :meth:`tick` as
    the work goes, :meth:`stop`.

    ``resident_mib`` is the buffer the gauge keeps resident, which a
    caller subtracts from its process's peak RSS.
    """

    def __init__(self, every_s: float = 0.1) -> None:
        self.every_s = every_s
        self._buffer = bytearray(_BUFFER_BYTES)
        for page in range(0, _BUFFER_BYTES, _PAGE):
            self._buffer[page] = 1
        self.resident_mib = _BUFFER_BYTES / 2**20
        self._index = 0
        self._rulers: List[float] = []
        self._stretch_cpu: List[float] = []
        self._wall = 0.0
        #: Wall and CPU clock readings at the end of the last ruler.
        self.last = 0.0
        self._last_cpu = 0.0

    def _ruler(self) -> None:
        buffer, index, total = self._buffer, self._index, 0
        mask = _BUFFER_BYTES - 1
        start = time.thread_time()
        for _ in range(_STEPS):
            index = (index * 1103515245 + 12345) & mask
            total += buffer[index]
        self._rulers.append(time.thread_time() - start)
        self._index = index
        self.last = time.perf_counter()
        self._last_cpu = time.process_time()

    def start(self) -> None:
        self._rulers = []
        self._stretch_cpu = []
        self._wall = 0.0
        self._ruler()

    def _close_stretch(self) -> None:
        self._wall += time.perf_counter() - self.last
        self._stretch_cpu.append(time.process_time() - self._last_cpu)
        self._ruler()

    def tick(self) -> None:
        """Close the open stretch if ``every_s`` has passed since the
        last ruler."""
        if time.perf_counter() - self.last >= self.every_s:
            self._close_stretch()

    def stop(self) -> Span:
        self._close_stretch()
        rulers, stretches = self._rulers, self._stretch_cpu
        # Stretch i lies between rulers i and i + 1; one more ruler on
        # each side keeps one slowed by an interrupt from counting.
        factors = [
            (REFERENCE_S / statistics.median(rulers[max(0, i - 1):i + 3])) ** SENSITIVITY
            for i in range(len(stretches))
        ]
        cpu = sum(stretches)
        if cpu > 0:
            factor = sum(c * f for c, f in zip(stretches, factors)) / cpu
        else:
            factor = statistics.fmean(factors)
        return Span(self._wall, cpu, factor)
