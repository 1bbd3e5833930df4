"""Host-speed calibration: a fixed piece of exact arithmetic, timed all
through a run, so that measured times can be put on one speed scale.

On a shared virtual machine the vCPU runs faster or slower in phases, from
seconds to many minutes long, and every task of a run slows down with it.
The probe here does the same kind of work as the program's hot loop
(Gauss-Jordan elimination over the rationals with ``Fraction`` entries and
Python lists), but it is the benchmark's own code: a change to
``liedeform`` cannot change what the probe measures.

A single probe is itself noisy: on such a host it takes anywhere from 0.6
to 1.2 times its typical time, in states that last tens of milliseconds.  So
probes are many and their trimmed mean is used.  ``BURST`` probes run right
before each in-process task, and while it runs a SIGALRM handler probes every
``EVERY_S`` seconds, so that a task of several seconds is probed all through.
A task that took ``t`` seconds, less the probes inside it, while those probes
and the ``NEAR`` probes on either side of it took ``p`` seconds on average,
is reported as ``t * PROBE_NOMINAL_S / p``: the time the task would take on
a host where the probe takes ``PROBE_NOMINAL_S``.

Work done in a fresh process (process start-up, imports) speeds up and slows
down less than the arithmetic does, so it is scaled by a probe of its own
kind instead: a fresh interpreter that imports this module and runs one
probe, started right before each such task, with ``CHILD_NOMINAL_S`` in
place of ``PROBE_NOMINAL_S`` and ``NEAR_CHILD`` probes on either side.
"""

from __future__ import annotations

import gc
import signal
import statistics
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from time import perf_counter

# seconds one probe took on the machine the benchmark was made on, in
# process and as a fresh process
PROBE_NOMINAL_S = 0.0044
CHILD_NOMINAL_S = 0.083
_CHILD_PROBE = [sys.executable, "-c",
                f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); "
                "import calibrate; calibrate.Clock().probe()"]
# seconds between timer-driven probes inside in-process tasks
EVERY_S = 0.1
# probes right before each in-process task
BURST = 2
# probes on either side of a task that also describe its speed: near enough
# to share the state of a task of a few milliseconds
NEAR = 6
# the same for fresh-process probes: one runs before each task of about a
# second, and its noise is that of a single process start, not of the
# host's phase (it does not follow the time of the task next to it), so
# more of them are averaged
NEAR_CHILD = 12
# share of the probes dropped at each end before averaging
TRIM = 0.1

_ROWS, _COLS = 14, 20
_RANK = 12  # of _matrix(); checked on every probe


def _matrix():
    """A fixed sparse integer matrix: about a quarter of the cells nonzero."""
    return [[Fraction((7 * i + 3 * j) % 11 - 5) if (i * 5 + j * 3) % 4 == 0
             else Fraction(0) for j in range(_COLS)] for i in range(_ROWS)]


def _eliminate(r):
    lead = 0
    for col in range(_COLS):
        pivot_row = next((i for i in range(lead, _ROWS) if r[i][col] != 0), None)
        if pivot_row is None:
            continue
        r[lead], r[pivot_row] = r[pivot_row], r[lead]
        pv = r[lead][col]
        r[lead] = [x / pv for x in r[lead]]
        for i in range(_ROWS):
            if i != lead and r[i][col] != 0:
                f = r[i][col]
                r[i] = [a - f * b for a, b in zip(r[i], r[lead])]
        lead += 1
        if lead == _ROWS:
            break
    return lead


class Clock:
    """Probes taken during a run, as (start, end) on the perf_counter scale,
    in process and as fresh processes, and the start of every task that
    called ``mark``."""

    def __init__(self):
        self.probes = []
        self.child_probes = []
        self.starts = []

    def probe(self):
        """One elimination with the garbage collector off, so that a
        collection of the program's heap does not land in it."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            rank = _eliminate(_matrix())
            t1 = perf_counter()
        finally:
            if was_enabled:
                gc.enable()
        if rank != _RANK:
            raise RuntimeError(f"calibration probe: rank {rank} != {_RANK}")
        self.probes.append((t0, t1))

    def probe_child(self):
        t0 = perf_counter()
        subprocess.run(_CHILD_PROBE, check=True)
        self.child_probes.append((t0, perf_counter()))

    def burst(self, child=False):
        if child:
            self.probe_child()
        else:
            for _ in range(BURST):
                self.probe()

    def mark(self, child=False):
        """Called right before a task starts: a burst (a fresh-process probe
        before a ``child`` task), then the task's start is noted."""
        self.burst(child)
        self.starts.append(perf_counter())

    @contextmanager
    def sampling(self):
        """Probe every EVERY_S seconds from a timer signal, while in-process
        tasks run (the handler runs in the main thread between bytecodes)."""
        previous = signal.signal(signal.SIGALRM, lambda *_: self.probe())
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scaled(self, seconds: float, start: float, child=False) -> float:
        """``seconds`` timed from ``start``, less the probes inside it, on
        the nominal speed scale of in-process or ``child`` work."""
        end = start + seconds
        probes = self.child_probes if child else self.probes  # in time order
        near_n = NEAR_CHILD if child else NEAR
        before = [p for p in probes if p[1] <= start][-near_n:]
        inside = [p for p in probes if start <= p[0] and p[1] <= end]
        after = [p for p in probes if p[0] >= end][:near_n]
        near = sorted(t1 - t0 for t0, t1 in before + inside + after)
        if not near:
            raise RuntimeError("no calibration probe near a timed interval")
        seconds -= sum(t1 - t0 for t0, t1 in inside)
        cut = int(len(near) * TRIM)
        typical = statistics.fmean(near[cut:len(near) - cut])
        return seconds * (CHILD_NOMINAL_S if child else PROBE_NOMINAL_S) / typical
