"""Tableau statistics of the paper that only the tests use: the shape chain and j."""

from springerfiber.partitions import Partition
from springerfiber.tableaux import _third_row_descent


def shape_chain(t):
    """Shapes of the truncations of a standard tableau to 0..n entries; determines the tableau."""
    row_of = {e: r for r, row in enumerate(t.rows) for e in row}
    counters = [0] * len(t.rows)
    out = [Partition(())]
    for e in range(1, t.n + 1):
        counters[row_of[e]] += 1
        out.append(Partition(c for c in counters if c))
    return tuple(out)


def j_stat(t):
    """Largest descent below the third-row entry, for shapes (r,s,1)."""
    return _third_row_descent(t)[1]
