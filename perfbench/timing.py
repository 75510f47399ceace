"""Host-speed-normalised timing.

On a shared host the speed of the CPU a process gets changes from one
second to the next, so raw wall time of a fixed piece of work spreads far
more than any change worth detecting.  Each timed interval is therefore
bracketed by a small pure-Python reference kernel, and converted to seconds
at a fixed nominal host speed:

    normalised = interval * NOMINAL_REF_S / mean(kernel before, kernel after)

The kernel imports nothing from liespec, so no change to the program can
move it.  It does what the program does most, Fraction arithmetic through
Python-level calls, so it slows down with the host the way the program does.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import Callable, Tuple

# Median reference_kernel() time on the reference host: a 2-core x86-64
# virtual machine running CPython 3.11.7 (see README for the measurement).
NOMINAL_REF_S = 0.0065


def reference_kernel(n: int = 300) -> Fraction:
    last = Fraction(0)
    for k in range(n):
        a = Fraction(k + 1, k + 3)
        b = Fraction(2 * k + 1, 5)
        row = (a * b - Fraction(k, 7), a + b, a / b)
        last = sum(row[1:], row[0])
    return last


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def normalise(raw_s: float, ref_before: float, ref_after: float) -> float:
    return raw_s * NOMINAL_REF_S / ((ref_before + ref_after) / 2)


def measure(fn: Callable[[], object]) -> Tuple[object, float, float]:
    """Run fn once; return (result, raw seconds, normalised seconds)."""
    before = kernel_seconds()
    t0 = time.perf_counter()
    result = fn()
    raw = time.perf_counter() - t0
    return result, raw, normalise(raw, before, kernel_seconds())
