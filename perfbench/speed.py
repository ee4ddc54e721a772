"""Machine-speed normalization for times measured on a shared host.

On a shared machine the same work can take twice as long for stretches of
seconds to minutes, and wall times (and CPU times) drift with it. Each
measured interval is therefore reported in reference seconds: its wall time
scaled by a fixed piece of work timed next to it.

- In-process work (an analysis in the worker, a span): fixed stdlib work
  timed right before and right after the interval; the scale is
  LOOP_REFERENCE_S / (mean of the two times). A slow stretch of the host
  slows some kinds of work more than others (allocation more than
  arithmetic), so the reference is the geometric mean of small pieces of
  each kind the pipeline spends its time in: integer arithmetic, splitting
  and date parsing, complex exponential sums, exact-fraction `stdev`, and
  Decimal formatting.
- Process spawns (a `python -m seasonstats` analysis, a set-up spawn): a
  bare interpreter start timed next to each one, since spawns also spend
  kernel time the loop does not track; the scale is INTERP_REFERENCE_S /
  (median of the nearest bare starts).

The reference constants are fixed units, close to those times on an idle
2-core x86-64 host under Python 3.11, so reported values stay close to wall
seconds there. Work the program itself adds or removes still shows in full.
"""
from __future__ import annotations

import cmath
import math
import statistics
import time
from datetime import date
from decimal import ROUND_HALF_UP, Decimal

LOOP_REFERENCE_S = 0.00025
INTERP_REFERENCE_S = 0.05
_REPEATS = 3
_NEIGHBOURS = 5
_LINES = tuple(f"J{k % 50:02d},2015-{k % 12 + 1:02d}-{k % 28 + 1:02d},Accepted"
               for k in range(600))
_SERIES = tuple(float(k % 17) for k in range(48))
_SHARES = tuple(0.1 * k + 0.03 for k in range(12))
_PLACE = Decimal(1).scaleb(-5)


def _arithmetic():
    acc = 0
    for k in range(8000):
        acc += k * k


def _parsing():
    rows = []
    for line in _LINES:
        journal, day, decision = line.split(",")
        rows.append((journal.strip(), date.fromisoformat(day), decision.lower()))


def _complex_sums():
    n = len(_SERIES)
    for k in range(1, 6):
        abs(sum(v * cmath.exp(-2j * math.pi * k * t / n) for t, v in enumerate(_SERIES)))


def _fraction_stdev():
    for _ in range(6):
        statistics.stdev(_SHARES)


def _decimal_format():
    for v in _SHARES * 20:
        str(Decimal(repr(v)).quantize(_PLACE, rounding=ROUND_HALF_UP))


_WORK = (_arithmetic, _parsing, _complex_sums, _fraction_stdev, _decimal_format)


def _best(work) -> float:
    best = float("inf")
    for _ in range(_REPEATS):
        t0 = time.perf_counter()
        work()
        best = min(best, time.perf_counter() - t0)
    return best


def calibrate() -> float:
    """Seconds the reference work takes now: the geometric mean over its pieces,
    each the best of a few runs, to skip interrupts."""
    return math.exp(sum(math.log(_best(work)) for work in _WORK) / len(_WORK))


def scale(before: float, after: float) -> float:
    """Scale for an in-process interval timed between two calibrations."""
    return LOOP_REFERENCE_S / ((before + after) / 2)


def spawn_scales(bare_starts: list) -> list:
    """Scale for the i-th spawn, from the bare starts timed next to spawns i-5 .. i+5."""
    return [INTERP_REFERENCE_S
            / statistics.median(bare_starts[max(0, i - _NEIGHBOURS):i + _NEIGHBOURS + 1])
            for i in range(len(bare_starts))]
