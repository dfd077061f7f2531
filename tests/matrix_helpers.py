"""Dense-matrix helpers that only the tests' oracles use."""

from fractions import Fraction
from functools import lru_cache

from springerfiber.exactlin import _ONE, _ZERO, Matrix, unit_vector, vector


def identity(n: int) -> Matrix:
    return Matrix(unit_vector(n, i + 1) for i in range(n))


def transpose(m: Matrix) -> Matrix:
    return Matrix(zip(*m.rows))


def is_zero(m: Matrix) -> bool:
    return all(x == 0 for row in m.rows for x in row)


@lru_cache(maxsize=None)
def oracle_operator(t) -> Matrix:
    """Dense matrix of the operator of basis tableau ``t``: a 1 at (prev, cur) for each pair of row neighbours."""
    entries = [[0] * t.n for _ in range(t.n)]
    for row in t.rows:
        for prev, cur in zip(row, row[1:]):
            entries[prev - 1][cur - 1] = 1
    return Matrix(entries)


@lru_cache(maxsize=None)
def _dense_image(t, v):
    return oracle_operator(t).apply(v)


def dense_image(u, v) -> tuple[Fraction, ...]:
    """u(v) by ``Matrix.apply`` on the dense matrix of u's basis tableau.

    Cached per vector: the coordinate-flag sweeps apply each operator to the
    same few unit vectors many times.
    """
    return _dense_image(u.tableau, vector(v))


def flag_vectors(flag) -> tuple[tuple[Fraction, ...], ...]:
    """The flag's basis as ``Fraction`` vectors: each stored integer row divided by its scale.

    Zeros and ones are the shared ``Fraction``s that ``unit_vector`` uses, so
    the oracles skip arithmetic on zeros as they do for built vectors.
    """
    return tuple(
        tuple(_ZERO if not x else _ONE if x == s else Fraction(x, s) for x in row)
        for row, s in zip(flag._scaled, flag._scales)
    )


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


def lazy_bareiss(rows):
    """Bareiss elimination of integer rows with lazy scaling: (pivot pairs, pivot rows).

    The oracle for ``exactlin._eliminate``.  Columns are taken in order and
    the topmost remaining row nonzero in the column is the pivot row; with
    p_0 = 1 and p_s the s-th pivot, step s + 1 turns every remaining row into
    (pivot * row - entry * pivot row) / p_s, an exact division (Bareiss 1968)
    that keeps every entry a minor of the matrix.  Only the rows nonzero in
    the pivot column are updated; a row that is zero there would only be
    scaled by p_{s+1} / p_s, so each row records the number t of pivots it
    has seen and is brought to step s as row * p_s // p_t when it is next
    needed.  Each pivot row is returned as it stands when chosen.
    """
    # rows not yet used as pivots as (index, pivots seen t, entries at step t);
    # ``scales`` is p_0 = 1, p_1, .., p_s
    rest = [(i, 0, row) for i, row in enumerate(rows)]
    scales = [1]
    pivots, tops = [], []
    for c in range(len(rest[0][2]) if rest else 0):
        found = next((k for k, (_, _, row) in enumerate(rest) if row[c]), None)
        if found is None:
            continue
        i, t, top = rest.pop(found)
        s = len(scales) - 1
        previous = scales[s]
        if scales[t] != previous:
            top = [x * previous // scales[t] for x in top]
        pivot = top[c]
        for k, (j, t, row) in enumerate(rest):
            f = row[c]
            if not f:
                continue
            if scales[t] != previous:
                row = [x * previous // scales[t] for x in row]
                f = row[c]
            rest[k] = (j, s + 1, [(pivot * a - f * b) // previous for a, b in zip(row, top)])
        scales.append(pivot)
        pivots.append((i, c))
        tops.append(top)
        if not rest:
            break
    return tuple(pivots), tops
