"""Timing under a per-call limit, normalised to the machine's pace.

The benchmark runs on small shared machines whose speed drifts by a third
over minutes while the process itself is never descheduled (the extra time
shows in user CPU time, not as steal). Raw wall times then move more between
two runs of the same code than most changes would move them. So every timed
call is also priced in a fixed reference loop: the loop is timed right
before and right after the call, and every TICK_S of CPU time during it (from
a SIGVTALRM handler, whose own time is taken out of the call's time). The
loop imitates the library's inner loop -- polynomial division through
per-coefficient field methods -- but shares no code with it, so a change to
the library cannot change the reference.

A normalised time is wall time * REF_NS / pace, i.e. the call's time on a
machine where the reference loop takes REF_NS. The pace is the mean of the
call's own samples when it has at least RECENT of them; a shorter call uses
the median of the last RECENT samples, its own included, because one
reference run is noisier than the drift it is meant to follow.
"""

from __future__ import annotations

import signal
import statistics
from collections import deque
from time import perf_counter_ns

REF_NS = 500_000  # nominal reference-loop time: the pace normalised times are quoted at
TICK_S = 0.05     # reference samples during a call, one per this much CPU time
RECENT = 9        # samples behind the pace of a short call


class JobTimeout(Exception):
    """Raised by SIGALRM when a call outlives its limit."""


class _Field:
    __slots__ = ("p", "e")

    def __init__(self, p, e):
        self.p, self.e = p, e

    def add(self, a, b):
        if self.e == 1:
            return (a + b) % self.p
        return a ^ b

    def neg(self, a):
        if self.e == 1:
            return -a % self.p
        return a

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self.e == 1:
            return a * b % self.p
        return a & b


_NUMERATOR = tuple((7 * i + 3) % 3 for i in range(150))
_DIVISOR = (1, 2, 0, 1, 1, 0, 2, 1, 1)


def reference_work():
    """About half a millisecond of schoolbook division of a fixed degree-149
    polynomial by a fixed monic degree-8 one over GF(3)."""
    f = _Field(3, 1)
    mul, sub = f.mul, f.sub
    rem = list(_NUMERATOR)
    db = len(_DIVISOR) - 1
    while len(rem) - 1 >= db:
        c = rem[-1]
        k = len(rem) - 1 - db
        for j in range(db + 1):
            rem[k + j] = sub(rem[k + j], mul(c, _DIVISOR[j]))
        while rem and rem[-1] == 0:
            rem.pop()
    return tuple(rem)


def reference_ns() -> int:
    t0 = perf_counter_ns()
    reference_work()
    return perf_counter_ns() - t0


class Clock:
    """Times calls under a limit and prices them at the reference pace.

    ``install`` takes SIGALRM (the limit) and SIGVTALRM (the samples); the
    process must not use them otherwise.
    """

    def __init__(self):
        self._samples: list[int] = []
        self._recent: deque[int] = deque(maxlen=RECENT)
        self._tick_ns = 0
        self.paces: list[float] = []  # the pace each timed call was priced at

    def install(self):
        signal.signal(signal.SIGALRM, _on_alarm)
        signal.signal(signal.SIGVTALRM, self._on_tick)

    def _sample(self):
        ns = reference_ns()
        self._samples.append(ns)
        self._recent.append(ns)

    def _on_tick(self, signum, frame):
        t0 = perf_counter_ns()
        self._sample()
        self._tick_ns += perf_counter_ns() - t0

    def time(self, fn, limit_s: float):
        """(result, status, reason, wall_ns, normalised_ns) of fn().

        status is "ok", "timeout" or "error"; a timeout or an exception
        stops the call and is reported, not raised.
        """
        out, status, reason = None, "ok", ""
        self._samples = []
        self._sample()
        self._tick_ns = 0
        t0 = perf_counter_ns()
        try:
            try:
                signal.setitimer(signal.ITIMER_VIRTUAL, TICK_S, TICK_S)
                signal.setitimer(signal.ITIMER_REAL, limit_s)
                out = fn()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        except JobTimeout:
            status, reason = "timeout", f"exceeded {limit_s:g} s"
        except Exception as exc:  # a failing call is a data point; the run goes on
            status, reason = "error", f"{type(exc).__name__}: {exc}"
        wall = perf_counter_ns() - t0 - self._tick_ns
        self._sample()
        if len(self._samples) >= RECENT:
            pace = statistics.fmean(self._samples)
        else:
            pace = statistics.median(self._recent)
        self.paces.append(pace)
        return out, status, reason, wall, wall * REF_NS / pace


def _on_alarm(signum, frame):
    raise JobTimeout()
