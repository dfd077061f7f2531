"""Dense-matrix and ``Fraction`` vector helpers that only the tests' oracles use.

The library builds the chart families and the complement flag over the
integers; the ``Fraction`` routes they replaced live on here as oracles:
the v-recurrence and the chart family's vectors (``v_vectors``,
``v_full``, ``chart_etas``) and the complement flag by Gauss-Jordan
elimination over ``Fraction`` (``reduced_perp_flag``).  Textbook
Gauss-Jordan (``gauss_jordan``) is the oracle of ``exactlin._eliminate``
that shares no code with it; the column-scan core it replaced
(``column_scan_eliminate``) and Bareiss elimination with lazy scaling
(``lazy_bareiss``) check its rows and their sizes, and ``rank_profile``
runs it on ``Fraction`` rows.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd

from springerfiber.certificates import _decode_params
from springerfiber.exactlin import (
    _ONE,
    _ZERO,
    Matrix,
    _check_special,
    _eliminate,
    _integer_flag,
    _integer_rows,
    as_fraction,
    vector,
)


def unit_vector(n: int, i: int) -> tuple[Fraction, ...]:
    """The ``i``-th coordinate vector (1-based) in dimension ``n``, of the shared zero and one."""
    if not 1 <= i <= n:
        raise ValueError(f"coordinate {i} out of range 1..{n}")
    return (_ZERO,) * (i - 1) + (_ONE,) + (_ZERO,) * (n - i)


def vec_add(a, b) -> tuple[Fraction, ...]:
    """Entrywise sum; where one term is zero the other is taken as it is."""
    return tuple((x + y if y else x) if x else y for x, y in zip(a, b, strict=True))


def vec_scale(c, a) -> tuple[Fraction, ...]:
    """``c`` times ``a``; zero entries are kept as they are, and a zero ``c`` gives shared zeros."""
    c = as_fraction(c)
    if not c:
        return (_ZERO,) * len(a)
    return tuple(c * x if x else x for x in a)


def identity(n: int) -> Matrix:
    return Matrix(unit_vector(n, i + 1) for i in range(n))


def transpose(m: Matrix) -> Matrix:
    return Matrix(zip(*m.rows))


def is_zero(m: Matrix) -> bool:
    return all(x == 0 for row in m.rows for x in row)


# oracle of the operator's index map (_images)
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


def flag_rows(flag) -> tuple[tuple[int, ...], ...]:
    """The flag's integer rows: the stored ones, or the unit rows of a coordinate flag.

    A coordinate flag stores only its coordinates, as its order; its rows
    are built here, for the oracles, and never by the library.
    """
    if flag._scaled is not None:
        return flag._scaled
    n = len(flag._order)
    return tuple(tuple(int(j == c) for j in range(n)) for c in flag._order)


def flag_vectors(flag) -> tuple[tuple[Fraction, ...], ...]:
    """The flag's basis as ``Fraction`` vectors, from the integer rows of ``flag_rows``.

    A flag with a triangle order (a coordinate flag is the identity in its
    coordinates) gives each row over its diagonal entry, so a triangle
    built with 1 on its diagonal gives back its exact basis; any other flag
    gives its rows as they are.  Zeros and ones are the shared
    ``Fraction``s that ``unit_vector`` uses, so the oracles skip arithmetic
    on zeros as they do for built vectors.
    """
    rows = flag_rows(flag)
    diagonal = [1] * len(rows) if flag._order is None else [row[c] for row, c in zip(rows, flag._order)]
    return tuple(
        tuple(_ZERO if not x else _ONE if x == s else Fraction(x, s) for x in row)
        for row, s in zip(rows, diagonal)
    )


# oracle of _eliminate (pivot columns, rank profile), Matrix.rref and the general perp_flag
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


def rank_profile(rows):
    """``exactlin._eliminate`` on ``Fraction`` rows, each scaled to integers by ``_integer_rows``: (pivot pairs, pivot rows)."""
    return _eliminate(_integer_rows(rows))


# oracle of _eliminate: the pivot pairs, each pivot row up to a scalar, and a bound on every entry
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


# oracle of _eliminate's bucketed rows: the same pivot pairs and the same integer rows
def column_scan_eliminate(rows):
    """Content-divided fraction-free elimination by scanning columns: (pivot pairs, pivot rows).

    The oracle for ``exactlin._eliminate``, which keeps the remaining rows
    in buckets by their first nonzero column; this is the core it replaced.
    Each column is found by scanning every remaining row for the topmost
    nonzero one, and every remaining row is walked again to update those
    nonzero in the pivot column to pivot * row - entry * pivot row, divided
    by its content.  Rows that were never updated, and rows that became
    zero, stay in the scan.
    """
    # the rows not yet used as pivots, as (index in ``rows``, entries)
    rest = list(enumerate(rows))
    pivots, tops = [], []
    for c in range(len(rest[0][1]) if rest else 0):
        found = next((k for k, (_, row) in enumerate(rest) if row[c]), None)
        if found is None:
            continue
        i, top = rest.pop(found)
        pivot = top[c]
        for k, (j, row) in enumerate(rest):
            f = row[c]
            if f:
                row = [pivot * a - f * b for a, b in zip(row, top)]
                g = gcd(*row)
                rest[k] = (j, [x // g for x in row] if g > 1 else row)
        pivots.append((i, c))
        tops.append(top)
        if not rest:
            break
    return tuple(pivots), tops


def w_power(v, m: int) -> tuple[Fraction, ...]:
    """w^m, w: e_i -> e_{i+2} the partial inverse of the (k,k,1) operator on e_1..e_{n-1}."""
    n = len(v)
    if v[n - 1] != 0:
        raise ValueError("shift map is undefined on the last coordinate")
    shift = min(2 * m, n - 1)
    return (_ZERO,) * shift + v[: n - 1 - shift] + (_ZERO,)


# oracle of certificates' integer v-recurrence
def v_vectors(k: int, alpha) -> tuple[tuple[Fraction, ...], ...]:
    """The recurrence v_1 = e_1, v_2 = e_2, v_i = w(v_{i-2}) + alpha_i w(v_{i-1}), over ``Fraction``.

    ``alpha`` lists alpha_3..alpha_{k+1}; returns v_1..v_{k+1} in the
    ambient dimension n = 2k+1.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    alpha = tuple(as_fraction(a) for a in alpha)
    if len(alpha) != k - 1:
        raise ValueError(f"expected {k - 1} coefficients alpha_3..alpha_{k + 1}")
    n = 2 * k + 1
    vs = [unit_vector(n, 1), unit_vector(n, 2)]
    for i in range(3, k + 2):
        a = alpha[i - 3]
        vs.append(vec_add(w_power(vs[i - 3], 1), vec_scale(a, w_power(vs[i - 2], 1))))
    return tuple(vs)


def v_full(k: int, alpha) -> tuple[tuple[Fraction, ...], ...]:
    """v_1..v_{n-1}: v_{k+1+m} = w^m(v_{k+1-m}) is the last r-vector of level k+1+m."""
    vs = v_vectors(k, alpha)
    return vs + tuple(w_power(vs[k - m], m) for m in range(1, k))


# oracle of certificates.phi_map's integer chart family
def chart_etas(k: int, d: int, params) -> tuple[tuple[Fraction, ...], ...]:
    """The ``Fraction`` basis of ``phi_map(k, d, params)``, built by the recurrences of its docstring."""
    _check_special(k, d)
    params = tuple(as_fraction(p) for p in params)
    if len(params) != k + 2:
        raise ValueError(f"expected {k + 2} parameters, got {len(params)}")
    n = 2 * k + 1
    e_n = unit_vector(n, n)
    alpha, gamma, nu, _, _ = _decode_params(k, d, params)
    vs = v_full(k, tuple(alpha[i] for i in range(3, k + 2)))
    etas = [vec_add(vs[i - 1], vec_scale(gamma[i], e_n)) for i in range(1, d)]
    etas[0] = vec_add(etas[0], vec_scale(alpha[1], vs[1]))
    if d == k + 2:
        etas.append(e_n)
    else:
        etas.append(vec_add(e_n, vec_scale(nu, vs[d - 1])))
        for i in range(d + 1, k + 2):
            etas.append(vec_add(vs[i - 2], vec_scale(alpha[i + 1], vs[i - 1])))
        etas.append(vs[k])
    return tuple(etas) + vs[k + 1 :]


# oracle of the general perp_flag and _back_substituted
def reduced_perp_flag(flag, form):
    """``perp_flag`` over ``Fraction``: ``gauss_jordan`` of [P_k | e_k], P_k the integer row k permuted, sharing no elimination with the library.

    The columns of P^-1, the last n entries of the reduced rows, are then
    scaled to integers by ``_integer_rows``.
    """
    n = flag.n
    if form.n != n:
        raise ValueError("bilinear form size does not match the flag")
    zeros = [0] * n
    augmented = [
        [v[g - 1] for g in form.images] + zeros[:k] + [1] + zeros[k + 1 :] for k, v in enumerate(flag_rows(flag))
    ]
    reduced, pivots = gauss_jordan(augmented)
    if pivots != tuple(range(n)):
        raise AssertionError("form is degenerate on the flag")
    columns = tuple(tuple(row[n + k] for row in reduced) for k in reversed(range(n)))
    return _integer_flag(_integer_rows(columns), None)
