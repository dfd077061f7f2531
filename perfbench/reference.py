"""Host-speed reference for the benchmark's times.

On a shared host the same op runs up to about 1.5 times slower for seconds
at a time while another tenant loads the core.  Such a slowdown stretches
all pure-Python work alike, so the benchmark times a fixed slice of
pure-Python work right before every op and reports the op's time scaled to
reference speed:

    reported = measured * REFERENCE_S / median(reference times of the nine
                                               ops centred on this one)

The slice does the same kinds of work as the library (``Fraction``
arithmetic, a small exact elimination, tuple hashing) but runs none of its
code, and it runs with the garbage collector off, so no change to the
library can change the slice's time.  ``REFERENCE_S`` is the slice's time
on an uncontended core of the host the benchmark was defined on (x86-64 VM,
Python 3.11.7), so reported times read as that host's uncontended times.
Raw wall-clock figures go into the provenance next to the scaled ones.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.001
WINDOW = 4  # ops on each side of an op whose reference times scale it

_MATRIX = tuple(
    tuple(Fraction((7 * i + 3 * j) % 11 + 1, (i + 2 * j) % 5 + 1) for j in range(6))
    for i in range(6)
)


def _slice() -> int:
    acc = Fraction(0)
    for i in range(1, 40):
        acc += Fraction(i, i * i + 7) * Fraction(3, i + 2)
    rows = [list(r) for r in _MATRIX]
    rank = 0
    for c in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][c]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    table = {tuple(range(i, i + 10)): i for i in range(80)}
    return rank + len(table) + acc.denominator % 2


def reference_time() -> float:
    """Wall time of one run of the fixed slice, with the collector off."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _slice()
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def to_reference(x: float, refs: list[float]) -> float:
    """``x`` seconds measured while the reference took ``median(refs)``, at reference speed."""
    return x * REFERENCE_S / statistics.median(refs)


def scaled(raw: list, refs: list[float]) -> list:
    """Scale each raw time (``None`` stays ``None``) by its neighbours' reference times."""
    return [
        None if x is None else to_reference(x, refs[max(0, i - WINDOW) : i + WINDOW + 1])
        for i, x in enumerate(raw)
    ]
