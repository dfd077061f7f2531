"""Exact-arithmetic certificates for two explicit component geometries.

Singularity of the shape (3,2,2) component labelled by 1,2,5/3,4/6,7:
a six-parameter polynomial family of strictly lower triangular matrices
parametrizes flags inside the cell whenever a handful of coordinates stay
nonzero, and seven curves of the family through the origin have linearly
independent tangent vectors there.  Seven independent tangents at a point
of a six-dimensional variety certify a singular point.  Tangents are read
off with first-order jet arithmetic as the 21 strictly lower entries, and
their rank is the pivot count of one elimination of their integer rows;
every membership test is an exact cell check, on the flag of the columns
of f(t) + I, a unit triangle in plain order.  The jets of the witness
curves hold ints, and the witness points are built from the curves' int
coefficients with no conversion.

Smoothness certificates for the components labelled by ``Q(k,k,1)``: for
every special flag (d) an explicit affine (k+2)-parameter family of flags
in the chart around it fixes the special flag at zero, lands in the open
cell whenever all parameters are nonzero, and has chart coordinates from
which the parameters can be read back affinely, witnessing a closed
immersion of affine space through each special flag of the component.
Its vectors are v_1..v_{n-1}, the v-recurrence continued in closed form:
level k+1+m of the r-recurrence is e_1..e_{2m}, then w^m of the v-vectors.
Every parameter is read back through one table per case of the chart
cells that show it, built where the parameters are decoded; only those
cells are read, straight off the chart's echelon rows, which a family in
its own chart is already.  The verifier
checks d before it reads any parameter tuple, then builds the family and
the special flag through ``phi_map`` and ``special_flag`` themselves.

Both families are unit triangles by construction, so their flags are
proved independent by checking, on their integer rows, that they form a
triangle with a nonzero diagonal, not by an elimination; a family that
breaks it raises ValueError.  Both are built as integers, with no
``Fraction`` vector: the chart families as int numerators over one
denominator, and the (3,2,2) family by evaluating its entries over
unreduced quotients of ints, each column of f(t) + I put in lowest terms
once, with the int 0 outside the family.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Sequence

from .exactlin import (
    ChartError,
    Flag,
    NilpotentOperator,
    _ONE,
    _ZERO,
    _chart_rows,
    _chart_value,
    _check_special,
    _eliminate,
    _integer_rows,
    _lowest_terms,
    _triangular_flag,
    as_fraction,
    cell_of,
    in_springer_fiber,
    jordan_operator,
    special_flag,
    special_operator,
    special_perm,
)
from .partitions import Partition
from .tableaux import StandardTableau, make_Q


class CertificateError(Exception):
    """A certificate sub-check failed."""


def _exact(x) -> int | Fraction:
    """``x`` itself if it is an int, else ``as_fraction(x)``, which raises TypeError on a float or a bool."""
    return x if type(x) is int else as_fraction(x)


class Jet:
    """First-order jet a + b*eps with eps^2 = 0, over exact rationals.

    Supports ring operations with jets and plain numbers; the derivative
    slot follows the Leibniz rule, extracting tangent vectors of
    polynomial curves exactly.  An int slot stays an int, so a jet built
    from ints computes in ints; any other rational becomes a ``Fraction``.
    """

    __slots__ = ("value", "deriv")

    def __init__(self, value, deriv=0):
        self.value = _exact(value)
        self.deriv = _exact(deriv)

    @staticmethod
    def _coerce(x) -> "Jet":
        return x if isinstance(x, Jet) else Jet(x)

    def __add__(self, other):
        o = Jet._coerce(other)
        return Jet(self.value + o.value, self.deriv + o.deriv)

    __radd__ = __add__

    def __sub__(self, other):
        o = Jet._coerce(other)
        return Jet(self.value - o.value, self.deriv - o.deriv)

    def __rsub__(self, other):
        return Jet._coerce(other).__sub__(self)

    def __mul__(self, other):
        o = Jet._coerce(other)
        return Jet(self.value * o.value, self.value * o.deriv + self.deriv * o.value)

    __rmul__ = __mul__

    def __neg__(self):
        return Jet(-self.value, -self.deriv)

    def __eq__(self, other) -> bool:
        # a jet is compared with what it can be built from, so not with a bool
        if not isinstance(other, (Jet, int, Fraction)) or isinstance(other, bool):
            return NotImplemented
        o = Jet._coerce(other)
        return self.value == o.value and self.deriv == o.deriv

    def __hash__(self) -> int:
        # a jet with no derivative equals its value, so it hashes as the value
        return hash((self.value, self.deriv)) if self.deriv else hash(self.value)

    def __repr__(self) -> str:
        return f"Jet({self.value}, {self.deriv})"


CELL_TABLEAU_322 = StandardTableau(((1, 2, 5), (3, 4), (6, 7)))
BASIS_TABLEAU_322 = StandardTableau(((1, 4, 7), (2, 5), (3, 6)))


@lru_cache(maxsize=None)
def operator_322() -> NilpotentOperator:
    """The shape (3,2,2) operator: e7 -> e4 -> e1 -> 0, e5 -> e2, e6 -> e3."""
    return jordan_operator(BASIS_TABLEAU_322)


def f_entries(t: Sequence) -> dict[tuple[int, int], object]:
    """Strictly lower entries of the six-parameter matrix family, any ring."""
    t1, t2, t3, t4, t5, t6 = t
    return {
        (2, 1): t1,
        (3, 1): t1 * t2,
        (3, 2): t2 + t3,
        (4, 2): t3 * t4 * t5,
        (4, 3): t4 * t5,
        (5, 2): t1 * t3 * t4 * t5,
        (5, 3): t1 * t4 * t5,
        (5, 4): t4,
        (6, 2): t1 * t2 * t3 * t4 * t5,
        (6, 3): t1 * t2 * t4 * t5,
        (6, 4): t2 * t4,
        (6, 5): t2 + t6,
        (7, 5): t5 * t6 * (t4 - t1),
        (7, 6): t5 * (t4 - t1),
    }


class _Quotient:
    """n / d with an int n and a positive int d, never reduced: the ring of the membership family.

    ``f_entries`` needs only +, - and x, none of which takes a gcd; the
    family's columns are put in lowest terms once, when they are finished.
    """

    __slots__ = ("n", "d")

    def __init__(self, n: int, d: int):
        self.n, self.d = n, d

    def __add__(self, other: "_Quotient") -> "_Quotient":
        return _Quotient(self.n * other.d + other.n * self.d, self.d * other.d)

    def __sub__(self, other: "_Quotient") -> "_Quotient":
        return _Quotient(self.n * other.d - other.n * self.d, self.d * other.d)

    def __mul__(self, other: "_Quotient") -> "_Quotient":
        return _Quotient(self.n * other.n, self.d * other.d)


def _parameters(t: Sequence) -> tuple[int | Fraction, ...]:
    """The six parameters, each an int as it is or else a ``Fraction`` (TypeError on a float or a bool)."""
    t = tuple(map(_exact, t))
    if len(t) != 6:
        raise ValueError("the family takes six parameters")
    return t


def _membership_conditions(t: Sequence[int | Fraction]) -> list[tuple[str, int | Fraction]]:
    return [
        ("t3", t[2]),
        ("t4", t[3]),
        ("t5", t[4]),
        ("t6", t[5]),
        ("t4 - t1", t[3] - t[0]),
    ]


def verify_curve_membership(t: Sequence) -> bool:
    """Exact check that the unipotent translate of the base flag is in the cell.

    Requires t3, t4, t5, t6 and t4 - t1 to be nonzero; the flag is spanned
    by the columns of f(t) + I over the (3,2,2) Jordan basis and must lie in
    the cell of the tableau 1,2,5/3,4/6,7.  f(t) is strictly lower
    triangular, so column j of f(t) + I is 1 at j, f(i, j) below it and 0
    above it: a unit triangle in plain order, independent with no
    elimination.  The entries are evaluated over unreduced int quotients,
    and each column is taken over the lcm of its denominators and put in
    lowest terms, which is its integer form.
    """
    t = _parameters(t)
    for name, value in _membership_conditions(t):
        if value == 0:
            raise ValueError(f"membership precondition violated: {name} must be nonzero")
    f = f_entries([_Quotient(*x.as_integer_ratio()) for x in t])
    columns = []
    for j in range(1, 8):
        below = [(i, q) for (i, c), q in f.items() if c == j]
        den = lcm(*[q.d for _, q in below])
        nums = [0] * 7
        nums[j - 1] = den
        for i, q in below:
            nums[i - 1] = q.n * (den // q.d)
        columns.append(_lowest_terms((nums, den))[0])
    return cell_of(_triangular_flag(columns, range(7)), operator_322()) == CELL_TABLEAU_322


# Each witness curve is affine in one parameter s: t_i(s) = const_i + slope_i * s.
WITNESS_CURVES: tuple[tuple[str, tuple[int, ...], tuple[int, ...]], ...] = (
    ("t = (s,0,0,0,0,0)", (0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0)),
    ("t = (0,0,s,0,0,0)", (0, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)),
    ("t = (0,0,0,s,0,0)", (0, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0)),
    ("t = (0,0,0,0,0,s)", (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1)),
    ("t = (s,1,-1,0,0,-1)", (0, 1, -1, 0, 0, -1), (1, 0, 0, 0, 0, 0)),
    ("t = (0,1,-1,s,0,-1)", (0, 1, -1, 0, 0, -1), (0, 0, 0, 1, 0, 0)),
    ("t = (0,0,0,s,1,0)", (0, 0, 0, 0, 1, 0), (0, 0, 0, 1, 0, 0)),
)

_FILL_POOL = (Fraction(1, 7), Fraction(1, 11), Fraction(1, 13), Fraction(1, 17))


def curve_tangent(const: Sequence, slope: Sequence) -> tuple[int | Fraction, ...]:
    """Tangent at s = 0 of the curve s -> f(const + slope*s), via jets.

    The 21 strictly lower entries row by row, (2,1), (3,1), (3,2), ..,
    (7,6); the cells outside the family hold the shared zero.
    """
    jets = [Jet(c, b) for c, b in zip(const, slope, strict=True)]
    values = f_entries(jets)
    for (i, j), jet in values.items():
        if jet.value != 0:
            raise CertificateError(f"curve does not pass through the origin at ({i},{j})")
    return tuple(values[i, j].deriv if (i, j) in values else _ZERO for i in range(2, 8) for j in range(1, i))


def _admissible_point(
    const: Sequence[int], slope: Sequence[int], s0: int | Fraction
) -> tuple[int | Fraction, ...]:
    """A nearby point of the curve family meeting every nonvanishing condition; ints stay ints."""
    t = [c + b * s0 for c, b in zip(const, slope)]
    pool = iter(_FILL_POOL)
    for idx in (2, 3, 4, 5):
        if t[idx] == 0:
            t[idx] = next(pool)
    if t[3] == t[0]:
        replacement = next(x for x in _FILL_POOL if x != t[0] and x != 0)
        t[3] = replacement
    point = tuple(t)
    if any(value == 0 for _, value in _membership_conditions(point)):
        raise AssertionError("perturbation failed to clear the nonvanishing conditions")
    return point


def _check(name: str, ok: bool, detail: str) -> dict:
    """One JSON check record of a certificate report."""
    return {"name": name, "status": "pass" if ok else "fail", "detail": detail}


@dataclass(frozen=True)
class SingularityCertificate:
    """Outcome of the shape (3,2,2) singularity computation."""

    shape: tuple[int, ...]
    tableau: str
    tangent_dim_lower_bound: int
    component_dim: int
    witness_curves: tuple[str, ...]
    membership_points: int
    singular: bool

    def to_json(self) -> dict:
        points = self.membership_points
        return {
            "case": "(3,2,2) singular component",
            "checks": [
                _check(
                    "tangent-rank",
                    self.tangent_dim_lower_bound > self.component_dim,
                    f"rank {self.tangent_dim_lower_bound} at the origin",
                ),
                _check(
                    "component-dimension",
                    self.component_dim == Partition(self.shape).springer_dim(),
                    f"dimension {self.component_dim}",
                ),
                _check(
                    "cell-membership",
                    points > 0 and points == 2 * len(self.witness_curves),
                    f"{points} exact membership confirmations",
                ),
            ],
            "shape": list(self.shape),
            "tableau": self.tableau,
            "witness_curves": list(self.witness_curves),
            "verdict": "singular" if self.singular else "not certified",
        }


def certify_322() -> SingularityCertificate:
    """Certify that the (3,2,2) component of 1,2,5/3,4/6,7 is singular.

    Computes the seven tangent vectors with jet arithmetic, checks their
    rank is 7 against the component dimension 6, and confirms membership
    of perturbed points of every witness curve family in the cell, two
    exact confirmations per curve.  Raises CertificateError if any
    sub-check fails.
    """
    tangents = [curve_tangent(const, slope) for _, const, slope in WITNESS_CURVES]
    tangent_rank = len(_eliminate(_integer_rows(tangents))[0])
    if tangent_rank != 7:
        raise CertificateError(f"expected tangent rank 7, got {tangent_rank}")
    component_dim = Partition((3, 2, 2)).springer_dim()
    if component_dim != 6:
        raise CertificateError(f"expected component dimension 6, got {component_dim}")
    memberships = 0
    for name, const, slope in WITNESS_CURVES:
        for s0 in (1, Fraction(1, 2)):
            point = _admissible_point(const, slope, s0)
            if not verify_curve_membership(point):
                raise CertificateError(f"membership failed for {name} near s={s0}")
            memberships += 1
    return SingularityCertificate(
        shape=(3, 2, 2),
        tableau=CELL_TABLEAU_322.text(),
        tangent_dim_lower_bound=tangent_rank,
        component_dim=component_dim,
        witness_curves=tuple(name for name, _, _ in WITNESS_CURVES),
        membership_points=memberships,
        singular=tangent_rank > component_dim,
    )


def _shift(x: tuple, m: int) -> tuple:
    """w^m, w: e_i -> e_{i+2} the partial inverse of the (k,k,1) operator on e_1..e_{n-1}.

    ``x`` is (int numerators, positive denominator), as every chart-family
    vector; each that ``phi_map`` shifts is 0 after coordinate n-1-2m.
    """
    nums, den = x
    n = len(nums)
    return (0,) * (2 * m) + nums[: n - 1 - 2 * m] + (0,), den


def _plus(x: tuple, c: Fraction, y: tuple) -> tuple:
    """x + c y over the lcm of the denominators of x and c y; x itself when c is 0."""
    if not c:
        return x
    (nx, dx), (ny, dy) = x, y
    p, q = c.numerator, c.denominator
    den = lcm(dx, q * dy)
    a, b = den // dx, p * (den // (q * dy))
    return tuple([a * s + b * t for s, t in zip(nx, ny)]), den


def _decode_params(k: int, d: int, params: tuple[Fraction, ...]) -> tuple[
    dict[int, Fraction],
    dict[int, Fraction],
    Fraction | None,
    dict[int, tuple[int, int]],
    list[tuple[str, tuple[int, int], Fraction]],
]:
    """The (alpha, gamma, nu) of the chart family through (d) and where its chart shows them.

    ``alpha`` holds alpha_1 and alpha_3..alpha_{k+1} (d = k+2) or
    alpha_3..alpha_{k+2} (d < k+2), ``gamma`` holds gamma_1..gamma_{d-1},
    and ``nu`` is None for d = k+2; see ``phi_map``.  ``cells`` maps i to
    the chart cell phi(r,c) holding alpha~_i, for every i >= 3 but d+1;
    ``shown`` lists (name, cell, value) of the parameters the chart shows
    directly: gamma_k and gamma_{k+1}, or gamma_{d-1} and nu.
    """
    alpha = {1: params[0]}
    cells = {i: (i, i + 1) for i in range(3, d - 1)}
    if d >= 4:
        cells[d - 1] = (d - 1, d + 1)
    if d == k + 2:
        alpha.update((i, params[i - 2]) for i in range(3, k + 2))
        gamma = {k: params[k], k + 1: params[k + 1]}
        nu = None
        shown = [(f"gamma_{i}", (i, k + 2), gamma[i]) for i in (k, k + 1)]
    else:
        alpha.update((i, params[i - 2]) for i in range(3, d + 1))
        alpha.update((i, params[i - 3]) for i in range(d + 2, k + 3))
        nu = params[k + 1]
        alpha[d + 1] = -nu * params[k]
        gamma = {d - 1: params[k]}
        cells[d] = (2 * k + 3 - d, 2 * k + 4 - d)
        cells.update((i, (i - 1, i)) for i in range(d + 2, k + 3))
        shown = [(f"gamma_{d - 1}", (d - 1, d), gamma[d - 1]), ("nu", (d, d + 1), nu)]
    for i in range(min(gamma) - 1, 1, -1):
        gamma[i] = -alpha[i + 2] * gamma[i + 1]
    if 1 not in gamma:
        gamma[1] = -(alpha[3] - alpha[1]) * gamma[2]
    return alpha, gamma, nu, cells, shown


def phi_map(k: int, d: int, params: Sequence) -> Flag:
    """The affine chart family through the special flag (d) for shape (k,k,1).

    ``params`` has k+2 rational entries.  For d = k+2 they are
    (alpha_1, alpha_3, .., alpha_{k+1}, gamma_k, gamma_{k+1}); for d < k+2
    they are (alpha_1, alpha_3, .., alpha_d, alpha_{d+2}, .., alpha_{k+2},
    gamma_{d-1}, nu) with alpha_{d+1} = -nu * gamma_{d-1} derived.  The
    remaining gammas satisfy gamma_i = -alpha_{i+2} gamma_{i+1} downwards,
    with gamma_1 = -(alpha_3 - alpha_1) gamma_2.

    Flag vector i is 1 at the i-th coordinate of the special permutation's
    order and 0 at the earlier ones, so the basis is checked as that
    triangle instead of eliminated; ValueError if it is not one.  Each
    vector is int numerators over one denominator, put in lowest terms when
    finished; the numerators are the flag's integer form, with no
    ``Fraction`` vector made.
    """
    _check_special(k, d)
    params = tuple(as_fraction(p) for p in params)
    if len(params) != k + 2:
        raise ValueError(f"expected {k + 2} parameters, got {len(params)}")
    n = 2 * k + 1
    e_1, e_2, e_n = (((0,) * i + (1,) + (0,) * (n - 1 - i), 1) for i in (0, 1, n - 1))
    alpha, gamma, nu, _, _ = _decode_params(k, d, params)
    # v_1 = e_1, v_2 = e_2, v_i = w(v_{i-2}) + alpha_i w(v_{i-1}) up to v_{k+1};
    # v_{k+1+m} = w^m(v_{k+1-m}) is the last r-vector of level k+1+m
    vs = [e_1, e_2]
    for i in range(3, k + 2):
        vs.append(_lowest_terms(_plus(_shift(vs[i - 3], 1), alpha[i], _shift(vs[i - 2], 1))))
    vs += [_shift(vs[k - m], m) for m in range(1, k)]
    # flag vectors 1..d-1 are v_i + gamma_i e_n
    etas = [_plus(vs[i - 1], gamma[i], e_n) for i in range(1, d)]
    etas[0] = _plus(etas[0], alpha[1], vs[1])
    if d == k + 2:
        etas.append(e_n)
    else:
        # 3 <= d < k+2 forces k >= 2
        etas.append(_plus(e_n, nu, vs[d - 1]))
        for i in range(d + 1, k + 2):
            etas.append(_plus(vs[i - 2], alpha[i + 1], vs[i - 1]))
        etas.append(vs[k])
    etas.extend(vs[k + 1 :])
    return _triangular_flag(tuple(_lowest_terms(eta)[0] for eta in etas), [p - 1 for p in special_perm(d, n).images])


def default_chart_parameters(k: int) -> tuple[tuple[Fraction, ...], ...]:
    """Three deterministic all-nonzero parameter tuples of length k+2."""
    m = k + 2
    ones = tuple(Fraction(1) for _ in range(m))
    harmonic = tuple(Fraction(1, i + 2) for i in range(m))
    alternating = tuple(
        Fraction((-1) ** i * (i + 2), 2 * i + 3) for i in range(m)
    )
    return (ones, harmonic, alternating)


def _recovery_identities(
    k: int, d: int, params: tuple[Fraction, ...], rows: Sequence[Sequence[int]]
) -> list[tuple[str, Fraction, Fraction]]:
    """(name, chart value, expected value) triples for the parameter read-back.

    The accumulated coefficients alpha~_i (alpha~_1 = alpha~_2 = 0,
    alpha~_i = alpha~_{i-2} + alpha_i) and the given parameters are read at
    their cells from ``_decode_params``; every alpha_i is then read back
    from chart values alone.  ``rows`` are the chart's echelon rows from
    ``_chart_rows``, and only the cells named are read off them, by
    ``_chart_value``.
    """
    alpha, _, _, cells, shown = _decode_params(k, d, params)
    phi = {
        (r, c): _chart_value(rows, r, c)
        for r, c in ((1, 2), *cells.values(), *(cell for _, cell, _ in shown))
    }
    given = {name: phi[cell] for name, cell, _ in shown}
    tilde = {1: _ZERO, 2: _ZERO}
    read = dict(tilde)
    recovered = []
    for i in range(3, max(alpha) + 1):
        tilde[i] = tilde[i - 2] + alpha[i]
        if i in cells:
            read[i] = phi[cells[i]]
        else:  # alpha~_{d+1} has no cell: alpha_{d+1} = -nu * gamma_{d-1}
            read[i] = read[i - 2] - given["nu"] * given[f"gamma_{d - 1}"]
        recovered.append((f"alpha_{i} recovered", read[i] - read[i - 2], alpha[i]))
    out = [("alpha_1 = phi(1,2)", phi[(1, 2)], alpha[1])]
    out += [(f"alpha~_{i} = phi({r},{c})", phi[(r, c)], tilde[i]) for i, (r, c) in cells.items()]
    out += [(f"{name} = phi({r},{c})", phi[(r, c)], value) for name, (r, c), value in shown]
    return out + recovered


def verify_smooth_chart(
    k: int, d: int, parameter_tuples: Sequence[Sequence] | None = None
) -> dict:
    """Verify the chart family through the special flag (d) of shape (k,k,1).

    Checks, all exact: the family at zero is the special flag; at each
    all-nonzero parameter tuple (the three default ones, or a nonempty
    list) it lies in the open cell of ``Q(k,k,1)`` (the all-nonzero
    hypothesis is required of every parameter); the chart coordinates of
    each such flag read the parameters back; and a mixed tuple with zero
    entries still lands in the fiber and the chart.  Every given tuple is
    checked for k+2 nonzero entries before any flag is built.  Returns a
    JSON-ready report with one entry per check.
    """
    # d is checked before any parameter tuple is read
    _check_special(k, d)
    if parameter_tuples is None:
        tuples = default_chart_parameters(k)
    else:
        tuples = tuple(tuple(as_fraction(p) for p in ps) for ps in parameter_tuples)
        if not tuples:
            raise ValueError("at least one parameter tuple is required")
        for ps in tuples:
            if len(ps) != k + 2:
                raise ValueError(f"expected {k + 2} parameters, got {len(ps)}")
            if any(p == 0 for p in ps):
                raise ValueError("cell membership tuples must be entirely nonzero")
    u = special_operator(k)
    target = make_Q(k)
    zero = (_ZERO,) * (k + 2)
    checks = [
        _check(
            "zero-parameters-give-special-flag",
            phi_map(k, d, zero).same_flag(special_flag(d, k)),
            f"family at 0 compared with the coordinate flag ({d})",
        )
    ]

    for idx, ps in enumerate(tuples):
        flag = phi_map(k, d, ps)
        checks.append(
            _check(
                f"nonzero-tuple-{idx}-in-cell",
                cell_of(flag, u) == target,
                "used: all k+2 parameters nonzero; exact cell membership",
            )
        )
        identities = _recovery_identities(k, d, ps, _chart_rows(flag, d))
        bad = [name for name, got, want in identities if got != want]
        checks.append(
            _check(
                f"nonzero-tuple-{idx}-chart-recovery",
                not bad,
                "; ".join(bad) if bad else f"{len(identities)} identities hold",
            )
        )

    mixed = tuple(_ONE if i % 2 else _ZERO for i in range(k + 2))
    flag = phi_map(k, d, mixed)
    in_fiber = in_springer_fiber(flag, u)
    in_chart = True
    try:
        _chart_rows(flag, d)
    except ChartError:
        in_chart = False
    checks.append(
        _check(
            "mixed-tuple-in-fiber-and-chart",
            in_fiber and in_chart,
            "zero entries allowed away from the open-cell check",
        )
    )

    passed = all(c["status"] == "pass" for c in checks)
    return {
        "case": {"k": k, "d": d},
        "checks": checks,
        "verdict": "pass" if passed else "fail",
    }
