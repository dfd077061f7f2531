"""Dense-matrix helpers that only the tests' oracles use."""

from fractions import Fraction

from springerfiber.exactlin import Matrix, unit_vector


def identity(n: int) -> Matrix:
    return Matrix(unit_vector(n, i + 1) for i in range(n))


def transpose(m: Matrix) -> Matrix:
    return Matrix(zip(*m.rows))


def is_zero(m: Matrix) -> bool:
    return all(x == 0 for row in m.rows for x in row)


def gauss_jordan(rows) -> tuple[tuple[tuple[Fraction, ...], ...], tuple[int, ...]]:
    """Textbook Gauss-Jordan over ``Fraction``: (nonzero reduced rows, pivot columns).

    Every entry of every row is divided and updated, zero or not, so it
    shares no shortcut with ``Matrix.rref``; the reduced form is unique, so
    the two must agree entry for entry.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    ncols = len(m[0]) if m else 0
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        below = [i for i in range(r, len(m)) if m[i][c] != 0]
        if not below:
            continue
        m[r], m[below[0]] = m[below[0]], m[r]
        pivot = m[r][c]
        m[r] = [x / pivot for x in m[r]]
        for i in range(len(m)):
            if i != r:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return tuple(tuple(row) for row in m[: len(pivots)]), tuple(pivots)
