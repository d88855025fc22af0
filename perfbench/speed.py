"""The machine's speed, sampled while the benchmark runs.

Other load switches this machine between a fast and a slow speed, for under
a second to minutes at a time, and wall and CPU time both follow it; how much
slower a piece of code gets depends on the code. So the meter times a short
burst of fixed code written like fairhedge's scalar path (``math`` calls in
a loop, then frozen dataclasses, small functions and exceptions), but never
calls fairhedge: a change to the program cannot change the burst. Of the
bursts tried on a two-core VM, this mix tracked the slowdown of the quote,
smile and validate requests best.

While the meter is on, SIGALRM fires every ``INTERVAL_S`` of wall time and
its handler runs one burst in this thread, between the program's bytecodes;
the burst's duration is one sample. A request's time, with the bursts that
ran inside it taken out, is scaled by ``REFERENCE_S`` over the mean sample in
and around it: the result is the request's time at the reference speed.
Interval timers are not inherited by child processes.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time
from array import array
from dataclasses import dataclass

REFERENCE_S = 0.0003  # one burst at the reference speed
INTERVAL_S = 0.02
WINDOW_S = 0.1  # samples this close to a request count for it


@dataclass(frozen=True)
class _Market:
    spot: float
    drift: float
    vol: float
    rate: float


@dataclass(frozen=True)
class _Value:
    x: float
    price: float
    risk: float


def _cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def _call(m: _Market, k: float, t: float, growth: float) -> float:
    st = m.vol * math.sqrt(t)
    d1 = (math.log(m.spot / k) + (growth + 0.5 * m.vol * m.vol) * t) / st
    return m.spot * math.exp((growth - m.rate) * t) * _cdf(d1) - k * math.exp(-m.rate * t) * _cdf(
        d1 - st
    )


def _value(m: _Market, k: float, t: float, x: float) -> _Value:
    if not 0.0 <= x < 1.0:
        raise ValueError(x)
    price = _call(m, k, t, m.drift) - 0.5 * x * m.spot * (
        math.exp(m.drift * t) - math.exp(m.rate * t)
    )
    if price <= 0:
        raise ArithmeticError(price)
    return _Value(x=x, price=price, risk=abs(price - _call(m, k, t, m.rate)) * (1.0 - x))


def burst() -> float:
    """The fixed work of one sample: a loop of math calls, then a small grid scan."""
    total = 0.0
    for i in range(800):
        x = 0.001 * i
        total += math.exp(-x) * math.erfc(x) + math.log1p(x)
    best = math.inf
    for j in range(2):
        m = _Market(spot=100.0 + j, drift=0.1, vol=0.2 + 0.01 * j, rate=0.05)
        for i in range(12):
            try:
                v = _value(m, 100.0, 1.0, 0.09 * i)
            except (ValueError, ArithmeticError):
                continue
            best = min(best, v.risk)
    return total + best


class SpeedMeter:
    """Samples the burst's duration every ``INTERVAL_S`` while entered."""

    def __init__(self) -> None:
        self.at = array("d")
        self.durations = array("d")
        self.spent = 0.0  # seconds spent in bursts, for callers to take out
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        burst()
        duration = time.perf_counter() - start
        self.at.append(start)
        self.durations.append(duration)
        self.spent += duration

    def __enter__(self) -> SpeedMeter:
        burst()  # warm, outside the samples
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start: float, end: float) -> float:
        """Factor from raw seconds in [start, end] to seconds at the reference speed."""
        if not self.at:
            raise RuntimeError("the speed meter took no sample")
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        if lo == hi:  # no sample that close: take the nearest one
            lo = min(lo, len(self.at) - 1)
            hi = lo + 1
        return REFERENCE_S / statistics.fmean(self.durations[lo:hi])
