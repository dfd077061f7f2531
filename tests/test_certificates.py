"""Tests of ``springerfiber.certificates``: each fast path against one oracle that does not call it.

- ``Jet``: the ring laws and the Leibniz rule on 60 drawn cases each.
- ``_Quotient`` and the column scaling of ``verify_curve_membership``:
  ``membership_oracle``, the ``Fraction`` columns of f(t) + I, on 80 drawn
  points, the 14 of ``certify_322`` and the benchmark's 90.
- ``curve_tangent``: the frozen tangent vectors; their rank by ``gauss_jordan``.
- ``_admissible_point``: the 14 points and the t4 = t1 fill, pinned.
- ``_shift``, ``_plus``, ``_decode_params`` and ``phi_map``: ``chart_etas``,
  the ``Fraction`` v-recurrence, on 80 drawn cases (k <= 7) and on the
  verifier's tuples (k <= 6).
- ``_recovery_identities``: the names pinned per case, a doubled entry read
  back (k <= 5), and a shifted chart cell failing exactly when it is read.
"""

import importlib.util
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import springerfiber.certificates as certificates_module
import springerfiber.exactlin as exactlin_module
from springerfiber.certificates import (
    BASIS_TABLEAU_322,
    CELL_TABLEAU_322,
    WITNESS_CURVES,
    _admissible_point,
    _parameters,
    _recovery_identities,
    CertificateError,
    Jet,
    SingularityCertificate,
    certify_322,
    curve_tangent,
    default_chart_parameters,
    f_entries,
    operator_322,
    phi_map,
    verify_curve_membership,
    verify_smooth_chart,
)
from springerfiber.exactlin import (
    Matrix,
    _ONE,
    _ZERO,
    _chart_rows,
    _integer_rows,
    _triangular_flag,
    as_fraction,
    in_span,
    restricted_type,
    special_flag,
    special_operator,
    special_perm,
)
from springerfiber.partitions import Partition

from matrix_helpers import (
    chart_etas,
    dense_image,
    flag_vectors,
    gauss_jordan,
    identity,
    is_zero,
    oracle_operator,
    unit_vector,
    v_full,
    v_vectors,
    vec_add,
    vec_scale,
    w_power,
)


def f_family(t) -> Matrix:
    """The 7x7 strictly lower triangular matrix of the (3,2,2) family at rational ``t``."""
    entries = f_entries(_parameters(t))
    return Matrix([[entries.get((i, j), _ZERO) for j in range(1, 8)] for i in range(1, 8)])


# the cells of a tangent, its 21 strictly lower entries row by row
LOWER_CELLS = [(i, j) for i in range(2, 8) for j in range(1, i)]


def dense_power(u, j) -> Matrix:
    """u^j multiplied out from the dense matrix of u's basis tableau."""
    m = oracle_operator(u.tableau)
    power = identity(u.n)
    for _ in range(j):
        power = power @ m
    return power


def level_recurrence(k, alpha):
    """Levels k+1..n-1 of the r-recurrence and v_1..v_{n-1}, built one level at a time.

    The v-recurrence is level k+1 (betas 0, 0, alpha_3..alpha_{k+1}).  Each
    next level re-seeds e_1, e_2 and shifts every vector of the previous
    level but the last by w: e_i -> e_{i+2}; its betas get two zeros in
    front and are cut to the level's length.  v_{level} is the level's last
    vector.  Returns ({level: (rs, betas)}, v_1..v_{n-1}).
    """
    n = 2 * k + 1

    def w(v):
        assert v[n - 1] == 0
        out = [Fraction(0)] * n
        for i in range(n - 3):
            out[i + 2] = v[i]
        return tuple(out)

    alpha = tuple(Fraction(a) for a in alpha)
    rs = [unit_vector(n, 1), unit_vector(n, 2)]
    for i in range(3, k + 2):
        rs.append(vec_add(w(rs[i - 3]), vec_scale(alpha[i - 3], w(rs[i - 2]))))
    betas = [Fraction(0), Fraction(0), *alpha]
    levels = {k + 1: (tuple(rs), tuple(betas))}
    vs = list(rs)
    for level in range(k + 2, n):
        rs = [unit_vector(n, 1), unit_vector(n, 2)] + [w(r) for r in rs[:-1]]
        betas = [Fraction(0), Fraction(0)] + betas[: level - 2]
        levels[level] = (tuple(rs), tuple(betas))
        vs.append(rs[-1])
    return levels, tuple(vs)


def r_vectors(k, i, alpha):
    """Level-``i`` auxiliary vectors r_1..r_i and their coefficients beta, in closed form.

    Level k+1 is the v-recurrence itself (beta_j = alpha_j, with
    alpha_1 = alpha_2 = 0).  Each next level re-seeds e_1, e_2 and shifts
    the previous one by w, so level k+1+m is e_1..e_{2m}, w^m(v_1..v_{i-2m})
    with the betas shifted up by 2m.
    """
    n = 2 * k + 1
    if not k + 1 <= i <= n - 1:
        raise ValueError(f"level {i} out of range {k + 1}..{n - 1}")
    alpha = tuple(as_fraction(a) for a in alpha)
    m = i - k - 1
    units = tuple(unit_vector(n, j) for j in range(1, 2 * m + 1))
    shifted = tuple(w_power(v, m) for v in v_vectors(k, alpha)[: i - 2 * m])
    betas = ((Fraction(0),) * (2 * m + 2) + alpha)[:i]
    return units + shifted, betas


fracs = st.fractions(
    min_value=-4, max_value=4, max_denominator=5
)
# jet slots: ints and Fractions mixed
rationals = st.one_of(st.integers(min_value=-4, max_value=4), fracs)


class TestJet:
    @settings(max_examples=60, deadline=None)
    @given(rationals, rationals, rationals, rationals, rationals, rationals)
    def test_ring_laws(self, a, b, c, d, e, f):
        x, y, z = Jet(a, b), Jet(c, d), Jet(e, f)
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x - y == -(y - x) == x + (-y)
        assert x - x == Jet(0, 0)

    @settings(max_examples=60, deadline=None)
    @given(rationals, rationals, rationals, rationals)
    def test_leibniz(self, a, b, c, d):
        x, y = Jet(a, b), Jet(c, d)
        for prod in (x * y, y * x):
            assert prod.value == a * c
            assert prod.deriv == a * d + b * c
        assert (a * x).deriv == a * b and (x * c).value == a * c

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=-9, max_value=9), min_size=4, max_size=4))
    def test_int_jets_keep_ints(self, ints):
        a, b, c, d = ints
        x, y = Jet(a, b), Jet(c, d)
        for jet in (x, x + y, x - y, x * y, -x, 3 * x, x - 2, 2 - x, x * y * x + y):
            assert type(jet.value) is int and type(jet.deriv) is int
        # a Fraction slot stays a Fraction, even when its value is integral
        assert type(Jet(Fraction(a), b).value) is Fraction
        assert type((x * Jet(Fraction(c), d)).deriv) is Fraction

    def test_scalar_coercion(self):
        assert 2 * Jet(1, 1) == Jet(2, 2)
        assert Jet(1, 1) - 1 == Jet(0, 1)
        assert 1 - Jet(1, 1) == Jet(0, -1)

    def test_equal_values_hash_alike(self):
        # a jet with no derivative equals its value, so a set holds them once
        assert Jet(3) == 3 == Fraction(3)
        assert len({Jet(3), 3, Fraction(3)}) == 1
        assert hash(Jet(1, 2)) == hash(Jet(Fraction(2, 2), 2)) == hash(Jet(1, 1) + Jet(0, 1))
        assert len({Jet(1, 2), Jet(1, 2) * 1, Jet(1), 1}) == 2
        # a bool is no jet value, so it compares unequal instead of raising
        assert Jet(1) != True and Jet(0) != False


@pytest.mark.parametrize(
    "call",
    [
        lambda: Jet(0.5),
        lambda: Jet(1) + 0.5,
        lambda: v_vectors(2, [0.5]),
        lambda: phi_map(2, 3, (0.5, 1, 1, 1)),
        lambda: verify_smooth_chart(2, 3, [(0.5, 1, 1, 1)]),
        lambda: verify_curve_membership((0.5, 1, 1, 2, 1, 1)),
    ],
    ids=["jet", "jet-sum", "v-vectors", "phi-map", "smooth-chart", "curve-membership"],
)
def test_float_parameters_raise(call):
    with pytest.raises(TypeError, match="got float$"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: Jet(True),
        lambda: Jet(1, False),
        lambda: Jet(1) + True,
        lambda: phi_map(2, 3, (True, 1, 1, 1)),
        lambda: verify_smooth_chart(2, 3, [(True, 1, 1, 1)]),
        lambda: verify_curve_membership((True, 1, 1, 2, 1, 1)),
        lambda: verify_curve_membership((1, 1, 1, 2, 1, False)),
    ],
    ids=["jet", "jet-deriv", "jet-sum", "phi-map", "smooth-chart", "curve-membership", "curve-membership-false"],
)
def test_bool_parameters_raise(call):
    # True is an int to Python, but no parameter means a truth value
    with pytest.raises(TypeError, match="got bool$"):
        call()


class TestFamilyMatrix:
    def test_zero_gives_zero(self):
        assert is_zero(f_family((0, 0, 0, 0, 0, 0)))

    def test_displayed_positions(self):
        t = (Fraction(1), Fraction(1), Fraction(1), Fraction(2), Fraction(1), Fraction(1))
        g = f_family(t)
        assert g.rows[4][3] == 2  # entry (5,4) = t4
        assert g.rows[6][5] == 1  # entry (7,6) = t5*(t4-t1)
        assert g.rows[2][0] == 1  # entry (3,1) = t1*t2

    def test_hand_evaluated_monomials(self):
        t = tuple(Fraction(x) for x in (2, 3, 5, 7, 11, 13))
        e = f_entries(t)
        assert e[(4, 2)] == 5 * 7 * 11
        assert e[(6, 2)] == 2 * 3 * 5 * 7 * 11
        assert e[(7, 5)] == 11 * 13 * (7 - 2)
        assert e[(6, 5)] == 3 + 13

    def test_strictly_lower(self):
        g = f_family((1, 2, 3, 4, 5, 6))
        for i in range(7):
            for j in range(i, 7):
                assert g.rows[i][j] == 0


def admissible_points():
    """The 14 points at which ``certify_322`` checks membership, in its order."""
    return [_admissible_point(const, slope, s0) for _, const, slope in WITNESS_CURVES for s0 in (1, Fraction(1, 2))]


class TestMembership:
    def test_admissible_points_are_pinned(self):
        h, a, b, c, d = (Fraction(1, m) for m in (2, 7, 11, 13, 17))
        points = admissible_points()
        assert points == [
            (1, 0, a, b, c, d),
            (h, 0, a, b, c, d),
            (0, 0, 1, a, b, c),
            (0, 0, h, a, b, c),
            (0, 0, a, 1, b, c),
            (0, 0, a, h, b, c),
            (0, 0, a, b, c, 1),
            (0, 0, a, b, c, h),
            (1, 1, -1, a, b, -1),
            (h, 1, -1, a, b, -1),
            (0, 1, -1, 1, a, -1),
            (0, 1, -1, h, a, -1),
            (0, 0, a, 1, 1, b),
            (0, 0, a, h, 1, b),
        ]
        # t4 = t1 after the fill takes the first pool value other than t1
        assert _admissible_point((0,) * 6, (1, 0, 0, 1, 0, 0), 1) == (1, 0, a, a, b, c)
        assert _admissible_point((a, 0, 0, a, 0, 0), (0,) * 6, 1) == (a, 0, a, b, b, c)
        # at s = 1 the curves' int coefficients give ints; only the fill is a Fraction
        for t in points[::2]:
            assert all(type(x) is int or x in (a, b, c, d) for x in t)

    def test_examples(self):
        assert verify_curve_membership((1, 1, 1, 2, 1, 1)) is True
        assert verify_curve_membership((0, 1, -1, 1, 1, -1)) is True

    def test_precondition_errors(self):
        with pytest.raises(ValueError):
            verify_curve_membership((1, 1, 1, 1, 1, 1))  # t4 - t1 = 0
        with pytest.raises(ValueError):
            verify_curve_membership((0, 1, 0, 1, 1, 1))  # t3 = 0

    def test_more_admissible_points(self):
        assert verify_curve_membership((Fraction(1, 2), 0, 3, -1, 2, 5)) is True


class TestTangents:
    def test_frozen_tangent_vectors(self):
        expected = [
            {(2, 1): 1},
            {(3, 2): 1},
            {(5, 4): 1},
            {(6, 5): 1},
            {(2, 1): 1, (3, 1): 1},
            {(5, 4): 1, (6, 4): 1},
            {(4, 3): 1, (5, 4): 1, (7, 6): 1},
        ]
        for (name, const, slope), want in zip(WITNESS_CURVES, expected):
            got = curve_tangent(const, slope)
            assert len(got) == len(LOWER_CELLS) == 21
            nonzero = {cell: x for cell, x in zip(LOWER_CELLS, got) if x != 0}
            assert nonzero == {k: Fraction(v) for k, v in want.items()}, name
        # by index: (2,1) is entry 0, (3,2) entry 2 and (7,6) the last
        assert curve_tangent(*WITNESS_CURVES[0][1:])[0] == 1
        assert curve_tangent(*WITNESS_CURVES[1][1:])[2] == 1
        assert curve_tangent(*WITNESS_CURVES[6][1:])[20] == 1

    def test_rank_matches_matrix_and_gauss_jordan(self, monkeypatch):
        tangents = [curve_tangent(const, slope) for _, const, slope in WITNESS_CURVES]
        assert certify_322().tangent_dim_lower_bound == Matrix(tangents).rank() == len(gauss_jordan(tangents)[1]) == 7
        # any six of the seven tangents rank 6
        for drop in range(7):
            rest = tangents[:drop] + tangents[drop + 1 :]
            assert Matrix(rest).rank() == len(gauss_jordan(rest)[1]) == 6
        # with one curve repeated the certificate sees rank 6 and fails
        monkeypatch.setattr(certificates_module, "WITNESS_CURVES", WITNESS_CURVES[:6] + WITNESS_CURVES[:1])
        with pytest.raises(CertificateError, match="expected tangent rank 7, got 6"):
            certify_322()

    def test_curve_must_pass_through_origin(self):
        with pytest.raises(CertificateError):
            curve_tangent((0, 1, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0))


class TestCertificate:
    def test_certify_322(self):
        cert = certify_322()
        assert cert.shape == (3, 2, 2)
        assert cert.tableau == "1,2,5/3,4/6,7"
        assert cert.tangent_dim_lower_bound == 7
        assert cert.component_dim == 6
        assert cert.singular is True
        assert cert.membership_points >= 5
        assert len(cert.witness_curves) == 7

    def test_json_shape(self):
        payload = certify_322().to_json()
        assert payload["verdict"] == "singular"
        assert {c["name"] for c in payload["checks"]} == {
            "tangent-rank",
            "component-dimension",
            "cell-membership",
        }
        assert all(c["status"] == "pass" for c in payload["checks"])

    def test_json_reports_failed_checks(self):
        cert = SingularityCertificate(
            shape=(3, 2, 2),
            tableau=CELL_TABLEAU_322.text(),
            tangent_dim_lower_bound=6,
            component_dim=6,
            witness_curves=tuple(name for name, _, _ in WITNESS_CURVES),
            membership_points=0,
            singular=False,
        )
        status = {c["name"]: c["status"] for c in cert.to_json()["checks"]}
        assert status == {
            "tangent-rank": "fail",
            "component-dimension": "pass",
            "cell-membership": "fail",
        }

    def test_basis_and_cell_constants(self):
        assert BASIS_TABLEAU_322.text() == "1,4,7/2,5/3,6"
        assert CELL_TABLEAU_322.text() == "1,2,5/3,4/6,7"
        assert operator_322().jordan_type == Partition((3, 2, 2))


class TestVVectors:
    def test_one_step_by_hand(self):
        # k = 2: v3 = w(e1) + a3*w(e2) = e3 + a3*e4
        vs = v_vectors(2, (Fraction(1),))
        assert vs[2] == vec_add(unit_vector(5, 3), unit_vector(5, 4))

    def test_zero_coefficients_give_units(self):
        for k in (1, 2, 3, 4):
            vs = v_vectors(k, (0,) * (k - 1))
            for i, v in enumerate(vs, start=1):
                assert v == unit_vector(2 * k + 1, i)

    @staticmethod
    def random_tuples(k, count=5, seed=11):
        import random

        rng = random.Random(seed + k)
        out = []
        while len(out) < count:
            candidate = tuple(
                Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(k - 1)
            )
            if all(c != 0 for c in candidate):
                out.append(candidate)
        return out

    def test_operator_recurrence(self):
        # u(v_i) = v_{i-2} + a_i * v_{i-1}, and every prefix span is stable
        for k in range(2, 7):
            u = special_operator(k)
            for alpha in self.random_tuples(k):
                vs = v_vectors(k, alpha)
                for i in range(3, k + 2):
                    want = vec_add(vs[i - 3], vec_scale(alpha[i - 3], vs[i - 2]))
                    assert dense_image(u, vs[i - 1]) == want
                for i in range(1, k + 2):
                    for v in vs[:i]:
                        assert in_span(vs[:i], dense_image(u, v))

    def test_prefixes_stable_with_expected_type(self):
        # span(v_1..v_i) is stable of type (i-1, 1) for i >= 2 when all
        # coefficients are nonzero
        k = 4
        alpha = (Fraction(1), Fraction(-2), Fraction(1, 3))
        u = special_operator(k)
        vs = v_vectors(k, alpha)
        for i in range(2, k + 2):
            assert restricted_type(u, vs[:i]) == Partition((i - 1, 1))

    def test_kernel_membership(self):
        # v_i lies in ker u^{i-1} and escapes ker u^{i-2} for nonzero alpha
        for k in (3, 4, 5):
            u = special_operator(k)
            for alpha in self.random_tuples(k, count=2):
                vs = v_vectors(k, alpha)
                for i in range(2, k + 2):
                    v = vs[i - 1]
                    assert all(x == 0 for x in dense_power(u, i - 1).apply(v))
                    assert any(x != 0 for x in dense_power(u, i - 2).apply(v))

    def test_unit_expansion_heads(self):
        # v_i = e_i + (accumulated alpha) e_{i+1} + span(e_{i+2}..e_{n-1})
        k = 4
        n = 2 * k + 1
        alpha = (Fraction(1), Fraction(2), Fraction(3))
        tilde = {1: Fraction(0), 2: Fraction(0)}
        for i in range(3, k + 2):
            tilde[i] = tilde[i - 2] + alpha[i - 3]
        vs = v_vectors(k, alpha)
        for i, v in enumerate(vs, start=1):
            assert v[i - 1] == 1
            if i < n:
                assert v[i] == tilde[i]
            assert all(v[j] == 0 for j in range(i - 1))
            assert v[n - 1] == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            v_vectors(2, ())
        with pytest.raises(ValueError):
            v_vectors(0, ())


class TestRVectors:
    def test_base_level_is_v(self):
        k = 3
        alpha = (Fraction(1), Fraction(2))
        rs, betas = r_vectors(k, k + 1, alpha)
        assert rs == v_vectors(k, alpha)
        assert betas == (Fraction(0), Fraction(0)) + alpha

    def test_zero_coefficients_give_units(self):
        k = 3
        n = 2 * k + 1
        for level in range(k + 1, n):
            rs, betas = r_vectors(k, level, (0, 0))
            for j, r in enumerate(rs, start=1):
                assert r == unit_vector(n, j)
            assert all(b == 0 for b in betas)

    def test_beta_shift_formula(self):
        # beta_j at level i equals alpha_{j - 2(i-k-1)} past the unit range
        k = 4
        alpha = (Fraction(3), Fraction(5), Fraction(7))
        n = 2 * k + 1
        for level in range(k + 1, n):
            _, betas = r_vectors(k, level, alpha)
            cut = 2 * (level - k)
            for j in range(1, level + 1):
                if j <= cut:
                    assert betas[j - 1] == 0
                else:
                    assert betas[j - 1] == alpha[j - 2 * (level - k - 1) - 3]

    def test_unit_expansion_heads(self):
        # r_j = e_j + (accumulated beta) e_{j+1} + span(e_{j+2}..e_{n-1})
        k = 3
        n = 2 * k + 1
        alpha = (Fraction(2), Fraction(-3))
        for level in range(k + 1, n):
            rs, betas = r_vectors(k, level, alpha)
            tilde = {0: Fraction(0), -1: Fraction(0)}
            for j in range(1, level + 1):
                tilde[j] = tilde[j - 2] + betas[j - 1]
            for j, r in enumerate(rs, start=1):
                assert r[j - 1] == 1
                if j < n:
                    assert r[j] == tilde[j]
                assert all(r[p] == 0 for p in range(j - 1))
                assert r[n - 1] == 0

    def test_level_recurrence_and_nesting(self):
        k = 3
        alpha = (Fraction(1), Fraction(-1))
        u = special_operator(k)
        n = 2 * k + 1
        for level in range(k + 1, n):
            rs, betas = r_vectors(k, level, alpha)
            # u(r_j) = r_{j-2} + beta_j r_{j-1}
            for j in range(3, level + 1):
                want = vec_add(rs[j - 3], vec_scale(betas[j - 1], rs[j - 2]))
                assert dense_image(u, rs[j - 1]) == want
            # spans grow with the level and match the v-span
            vs = v_vectors(k, alpha)
            if level > k + 1:
                prev, _ = r_vectors(k, level - 1, alpha)
                for r in prev:
                    assert in_span(rs, r)
            for v in vs:
                assert in_span(rs, v)

    def test_v_full_is_the_level_diagonal(self):
        for k in range(1, 6):
            alpha = tuple(Fraction(j + 2, j + 3) for j in range(k - 1))
            levels = range(k + 2, 2 * k + 1)
            diagonal = tuple(r_vectors(k, level, alpha)[0][level - 1] for level in levels)
            assert v_full(k, alpha) == v_vectors(k, alpha) + diagonal

    def test_closed_form_matches_level_recurrence(self):
        # level k+1+m is e_1..e_{2m}, w^m(v_1..v_{i-2m}) with betas shifted by 2m
        for k in range(1, 11):
            zero = (Fraction(0),) * (k - 1)
            for alpha in [zero, *TestVVectors.random_tuples(k, count=3, seed=29)]:
                levels, vs = level_recurrence(k, alpha)
                assert v_vectors(k, alpha) == levels[k + 1][0]
                for level, want in levels.items():
                    assert r_vectors(k, level, alpha) == want
                assert v_full(k, alpha) == vs

    def test_range_validation(self):
        with pytest.raises(ValueError):
            r_vectors(2, 2, (1,))
        with pytest.raises(ValueError):
            r_vectors(2, 5, (1,))


class TestPhiMap:
    def test_zero_gives_special_flag(self):
        for k in (1, 2, 3):
            for d in range(3, k + 3):
                flag = phi_map(k, d, (0,) * (k + 2))
                assert flag.same_flag(special_flag(d, k))

    def test_nonzero_lands_in_cell(self):
        from springerfiber.exactlin import cell_of
        from springerfiber.tableaux import make_Q

        u = special_operator(2)
        flag = phi_map(2, 4, (1, 1, 1, 1))
        assert cell_of(flag, u) == make_Q(2)
        flag = phi_map(2, 3, (1, 1, 1, 1))
        assert cell_of(flag, u) == make_Q(2)

    def test_gammas_follow_documented_recurrence(self):
        # flag vectors 1..d-1 carry gamma_1..gamma_{d-1} on e_n; the given
        # gammas are parameters k+1 (and k+2 when d = k+2), and alpha_j is
        # parameter j-1 for every j the recurrence uses
        for k in range(1, 5):
            n = 2 * k + 1
            for d in range(3, k + 3):
                for ps in default_chart_parameters(k):
                    vectors = flag_vectors(phi_map(k, d, ps))[: d - 1]
                    gamma = {i: v[n - 1] for i, v in enumerate(vectors, start=1)}
                    given = (k, k + 1) if d == k + 2 else (d - 1,)
                    assert tuple(gamma[i] for i in given) == ps[k : k + len(given)]
                    for i in range(2, min(given)):
                        assert gamma[i] == -ps[i] * gamma[i + 1]
                    if min(given) > 1:
                        assert gamma[1] == -(ps[1] - ps[0]) * gamma[2]

    def test_parameter_count_validation(self):
        with pytest.raises(ValueError):
            phi_map(2, 4, (1, 1, 1))
        with pytest.raises(ValueError):
            phi_map(2, 5, (1, 1, 1, 1))
        with pytest.raises(ValueError, match="^expected 4 parameters, got 5$"):
            phi_map(2, 4, (1, 1, 1, 1, 1))


def chart_tuples(k, signed=False):
    """The zero and mixed tuples of ``verify_smooth_chart`` and three seeded tuples.

    Seeded entries are rationals with 0 among them; unsigned ones are at
    least 0, so no sum in the family cancels to an arithmetic zero.
    """
    rng = random.Random(1900 + k)
    low = -9 if signed else 0
    seeded = [tuple(Fraction(rng.randint(low, 9), rng.randint(1, 9)) for _ in range(k + 2)) for _ in range(3)]
    return [(0,) * (k + 2), tuple(i % 2 for i in range(k + 2))] + seeded


def chart_order(k, d):
    """The 0-based coordinate order of the special permutation (d)."""
    return [p - 1 for p in special_perm(d, 2 * k + 1).images]


def recording_triangles(monkeypatch):
    """List that grows by the (scaled rows, order) of every ``_triangular_flag`` call of ``certificates``."""
    calls = []

    def recording(scaled, order):
        calls.append((tuple(scaled), list(order)))
        return _triangular_flag(scaled, order)

    monkeypatch.setattr(certificates_module, "_triangular_flag", recording)
    return calls


def triangle_of(vectors, order):
    """``_triangular_flag`` on ``Fraction`` vectors scaled to integers."""
    return _triangular_flag(_integer_rows(vectors), order)


@st.composite
def chart_cases(draw):
    """(k, d, parameters): rational entries, 0 among them, and some tuples all 0."""
    k = draw(st.integers(min_value=1, max_value=7))
    d = draw(st.integers(min_value=3, max_value=k + 2))
    entry = st.one_of(st.just(0), st.fractions(min_value=-9, max_value=9, max_denominator=12))
    return k, d, tuple(draw(entry) for _ in range(k + 2))


class TestPhiMapMatchesFractionOracle:
    """``phi_map`` over the integers gives the integer form of the ``Fraction`` recurrences."""

    @staticmethod
    def check(k, d, ps):
        flag = phi_map(k, d, ps)
        want = triangle_of(chart_etas(k, d, ps), chart_order(k, d))
        assert flag._scaled == want._scaled
        assert all(type(x) is int for row in flag._scaled for x in row)

    @settings(max_examples=80, deadline=None)
    @given(chart_cases())
    def test_drawn_cases(self, case):
        self.check(*case)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_verifier_tuples(self, k):
        # the default tuples, the zero tuple and the mixed tuple of verify_smooth_chart
        tuples = (*default_chart_parameters(k), (0,) * (k + 2), tuple(i % 2 for i in range(k + 2)))
        for d in range(3, k + 3):
            for ps in tuples:
                self.check(k, d, ps)


class TestTriangularFlags:
    """Every family flag is a unit triangle, proved so without an elimination."""

    @pytest.mark.parametrize("k", range(2, 7))
    def test_every_chart_flag(self, k):
        n = 2 * k + 1
        for d in range(3, k + 3):
            order = chart_order(k, d)
            for ps in chart_tuples(k) + chart_tuples(k, signed=True):
                vectors = flag_vectors(phi_map(k, d, ps))
                assert flag_vectors(triangle_of(vectors, order)) == vectors
                assert len(gauss_jordan(vectors)[1]) == n

    def test_every_membership_flag(self, monkeypatch):
        calls = recording_triangles(monkeypatch)
        assert certify_322().singular
        assert verify_curve_membership((Fraction(1, 2), 0, 3, -1, 2, 5))
        assert len(calls) == 2 * len(WITNESS_CURVES) + 1
        for scaled, order in calls:
            assert order == list(range(7))
            assert len(gauss_jordan(scaled)[1]) == 7

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=5), min_size=6, max_size=6))
    def test_membership_flags_of_any_point(self, t):
        t = [x if x else Fraction(1, 3) for x in t]
        # the membership preconditions: t3..t6 and t4 - t1 nonzero
        if t[3] == t[0]:
            t[3] *= 2
        with pytest.MonkeyPatch.context() as patch:
            calls = recording_triangles(patch)
            assert verify_curve_membership(tuple(t))
        [(scaled, order)] = calls
        # the columns of f(t) + I, added up as dense matrices; each is 1 at
        # its diagonal, so the rows over their diagonal entries give them back
        f, one = f_family(t).rows, identity(7).rows
        plus_identity = [[a + b for a, b in zip(*rows)] for rows in zip(f, one)]
        assert flag_vectors(_triangular_flag(scaled, order)) == tuple(zip(*plus_identity))

    def test_swapped_chart_vectors_fail_loudly(self, monkeypatch):
        # a phi_map that lists two flag vectors in the wrong order builds an
        # independent basis of another flag: the triangle check raises, so
        # the report cannot turn it into a quiet "fail"
        def swapping(scaled, order):
            scaled = list(scaled)
            scaled[1], scaled[2] = scaled[2], scaled[1]
            return _triangular_flag(tuple(scaled), order)

        monkeypatch.setattr(certificates_module, "_triangular_flag", swapping)
        for k, d in ((2, 3), (2, 4), (4, 5)):
            with pytest.raises(ValueError, match="breaks the triangle"):
                verify_smooth_chart(k, d)

    def test_flags_run_no_elimination_for_independence(self, monkeypatch):
        def no_init(self, vectors):
            raise AssertionError("Flag.__init__ ran")

        monkeypatch.setattr(exactlin_module.Flag, "__init__", no_init)
        assert verify_smooth_chart(3, 4)["verdict"] == "pass"
        assert verify_curve_membership((1, 1, 1, 2, 1, 1))


def membership_oracle(t):
    """The ``Fraction`` route to the membership flag: the columns of f(t) + I over ``Fraction``, with the shared zero, and their ``_integer_rows``."""
    f = f_entries(tuple(as_fraction(x) for x in t))
    columns = [tuple(_ONE if i == j else f.get((i, j), _ZERO) for i in range(1, 8)) for j in range(1, 8)]
    return columns, _integer_rows(columns)


WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def benchmark_membership_points(seed):
    """The (3,2,2) membership points that the benchmark's ``chart_certificates`` workload draws from ``seed``."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return [op.args[0] for op in module.setup("chart_certificates", seed).ops if op.kind == "membership"]


# membership parameters: ints and Fractions mixed, with negative values and large denominators
membership_entries = st.one_of(
    st.integers(min_value=-(10**6), max_value=10**6),
    st.fractions(min_value=-(10**3), max_value=10**3, max_denominator=10**12),
)


class TestMembershipMatchesFractionOracle:
    """The membership flag, built over int quotients, is the integer form of the ``Fraction`` columns of f(t) + I."""

    @staticmethod
    def check(t):
        with pytest.MonkeyPatch.context() as patch:
            calls = recording_triangles(patch)
            assert verify_curve_membership(t)
        [(scaled, order)] = calls
        assert scaled == membership_oracle(t)[1]
        assert all(type(x) is int for row in scaled for x in row) and order == list(range(7))

    @settings(max_examples=80, deadline=None)
    @given(st.lists(membership_entries, min_size=6, max_size=6))
    def test_drawn_points(self, t):
        # the membership preconditions: t3..t6 and t4 - t1 nonzero
        assume(all(t[2:]) and t[3] != t[0])
        self.check(tuple(t))

    def test_admissible_points(self, monkeypatch):
        # certify_322's own 14 flags, call by call
        calls = recording_triangles(monkeypatch)
        assert certify_322().singular
        assert [scaled for scaled, _ in calls] == [membership_oracle(t)[1] for t in admissible_points()]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_benchmark_points(self, seed):
        points = benchmark_membership_points(seed)
        assert len(points) == 30 and all(type(x) is Fraction for t in points for x in t)
        for t in points:
            self.check(t)


class TestSharedZeros:
    """Zeros the families build by structure: int zeros in both families' rows, the shared zero of ``exactlin`` in the tangents."""

    @pytest.mark.parametrize("k", range(2, 7))
    def test_chart_flag_zeros(self, k, monkeypatch):
        # phi_map hands _triangular_flag int rows, zero exactly where the
        # Fraction oracle puts the shared zero: no Fraction is converted
        calls = recording_triangles(monkeypatch)
        for d in range(3, k + 3):
            for ps in chart_tuples(k):
                calls.clear()
                phi_map(k, d, ps)
                [(scaled, _)] = calls
                etas = chart_etas(k, d, ps)
                assert all(type(x) is int for row in scaled for x in row)
                assert [[not x for x in row] for row in scaled] == [[x is _ZERO for x in v] for v in etas]

    def test_family_matrix_cells_outside_the_family(self, monkeypatch):
        # the family has the same cells at every t
        cells = set(f_entries((_ZERO,) * 6))
        for _, const, slope in WITNESS_CURVES:
            tangent = curve_tangent(const, slope)
            for k, cell in enumerate(LOWER_CELLS):
                # the witness curves' int coefficients keep their jets in ints
                assert type(tangent[k]) is int if cell in cells else tangent[k] is _ZERO
        # the tangents that the certificate ranks are converted once, and
        # nothing else is: each membership check hands _triangular_flag the
        # columns of f(t) + I as int rows, zero exactly where the Fraction
        # oracle's columns are zero
        converted = []

        def recording(rows):
            converted.append(tuple(rows))
            return _integer_rows(converted[-1])

        monkeypatch.setattr(certificates_module, "_integer_rows", recording)
        triangles = recording_triangles(monkeypatch)
        generic = (1, 2, 3, 4, 5, 6)
        assert certify_322().singular
        assert verify_curve_membership(generic)
        assert converted == [tuple(curve_tangent(const, slope) for _, const, slope in WITNESS_CURVES)]
        points = [*admissible_points(), generic]
        assert len(triangles) == len(points) == 2 * len(WITNESS_CURVES) + 1
        for (scaled, _), t in zip(triangles, points):
            columns = membership_oracle(t)[0]
            assert all(type(x) is int for row in scaled for x in row)
            assert [[not x for x in row] for row in scaled] == [[x == 0 for x in col] for col in columns]
        # no family entry vanishes at the generic point: its rows are zero
        # exactly at the oracle's shared zeros, the cells outside the family
        assert [[not x for x in row] for row in triangles[-1][0]] == [
            [x is _ZERO for x in col] for col in membership_oracle(generic)[0]
        ]

    def test_shift_padding(self):
        v = tuple(Fraction(x) for x in (1, 2, 3, 4, 0))
        shifted = w_power(v, 1)
        assert shifted == (0, 0, 1, 2, 0)
        assert shifted[0] is shifted[1] is shifted[4] is _ZERO


class TestVerifySmoothChart:
    def test_top_case(self):
        report = verify_smooth_chart(2, 4)
        assert report["verdict"] == "pass"
        assert all(c["status"] == "pass" for c in report["checks"])

    def test_low_case(self):
        report = verify_smooth_chart(3, 3)
        assert report["verdict"] == "pass"

    def test_k1(self):
        assert verify_smooth_chart(1, 3)["verdict"] == "pass"

    def test_default_parameters_all_nonzero(self):
        for k in (1, 2, 3, 4, 5):
            for ps in default_chart_parameters(k):
                assert len(ps) == k + 2
                assert all(p != 0 for p in ps)

    def test_rejects_zero_tuple(self):
        with pytest.raises(ValueError):
            verify_smooth_chart(2, 4, parameter_tuples=[(0, 1, 1, 1)])

    @pytest.mark.parametrize(
        "k, d, message",
        [
            (2, 2, "d must lie in 3..4, got 2"),
            (2, 5, "d must lie in 3..4, got 5"),
            (0, 3, "d must lie in 3..2, got 3"),
        ],
    )
    def test_argument_errors_come_before_any_tuple_is_read(self, k, d, message):
        class Unread:
            def __iter__(self):
                raise AssertionError("a parameter tuple was read")

        for tuples in (None, [], Unread(), [Unread()], [("x", 1)], [(1, 2)], [(0,) * (k + 2)]):
            with pytest.raises(ValueError) as exc:
                verify_smooth_chart(k, d, parameter_tuples=tuples)
            assert type(exc.value) is ValueError
            assert str(exc.value) == message

    @pytest.mark.parametrize(
        "tuples, message",
        [
            ([], "at least one parameter tuple is required"),
            ([(1, 1, 1, 1), (1, 0, 1, 1)], "cell membership tuples must be entirely nonzero"),
            ([(1, 1, 1, 1), (1, 1, 1)], "expected 4 parameters, got 3"),
            ([(1, 1, 1, 1), (1, 1, 1, 1, 1)], "expected 4 parameters, got 5"),
        ],
        ids=["empty", "zero-entry", "short", "long"],
    )
    def test_every_tuple_is_checked_before_any_flag_is_built(self, monkeypatch, tuples, message):
        calls = []
        real = certificates_module.phi_map
        monkeypatch.setattr(certificates_module, "phi_map", lambda *a: calls.append(a) or real(*a))
        with pytest.raises(ValueError) as exc:
            verify_smooth_chart(2, 4, parameter_tuples=tuples)
        assert str(exc.value) == message
        assert calls == []

    def test_unexpected_chart_error_propagates(self, monkeypatch):
        # with one parameter tuple the mixed-tuple check makes the second chart read
        real = certificates_module._chart_rows
        calls = []

        def broken(flag, d):
            calls.append(d)
            if len(calls) == 2:
                raise TypeError("broken chart")
            return real(flag, d)

        monkeypatch.setattr(certificates_module, "_chart_rows", broken)
        with pytest.raises(TypeError):
            verify_smooth_chart(2, 4, parameter_tuples=[(1, 1, 1, 1)])
        assert calls == [4, 4]


def read_back(k, d, ps, chart_ps):
    """The read-back identities of ``ps`` on the chart of the flag phi_map(k, d, chart_ps)."""
    return _recovery_identities(k, d, ps, _chart_rows(phi_map(k, d, chart_ps), d))


class TestReadBack:
    PINNED = {
        (1, 3): ("alpha_1 = phi(1,2)", "gamma_1 = phi(1,3)", "gamma_2 = phi(2,3)"),
        (2, 4): (
            "alpha_1 = phi(1,2)", "alpha~_3 = phi(3,5)", "gamma_2 = phi(2,4)",
            "gamma_3 = phi(3,4)", "alpha_3 recovered",
        ),
        (3, 3): (
            "alpha_1 = phi(1,2)", "alpha~_3 = phi(6,7)", "alpha~_5 = phi(4,5)",
            "gamma_2 = phi(2,3)", "nu = phi(3,4)",
            "alpha_3 recovered", "alpha_4 recovered", "alpha_5 recovered",
        ),
        (3, 4): (
            "alpha_1 = phi(1,2)", "alpha~_3 = phi(3,5)", "alpha~_4 = phi(5,6)",
            "gamma_3 = phi(3,4)", "nu = phi(4,5)",
            "alpha_3 recovered", "alpha_4 recovered", "alpha_5 recovered",
        ),
        (3, 5): (
            "alpha_1 = phi(1,2)", "alpha~_3 = phi(3,4)", "alpha~_4 = phi(4,6)",
            "gamma_3 = phi(3,5)", "gamma_4 = phi(4,5)",
            "alpha_3 recovered", "alpha_4 recovered",
        ),
        (4, 6): (
            "alpha_1 = phi(1,2)", "alpha~_3 = phi(3,4)", "alpha~_4 = phi(4,5)",
            "alpha~_5 = phi(5,7)", "gamma_4 = phi(4,6)", "gamma_5 = phi(5,6)",
            "alpha_3 recovered", "alpha_4 recovered", "alpha_5 recovered",
        ),
    }

    @pytest.mark.parametrize("k,d", sorted(PINNED))
    def test_pinned_identities_hold(self, k, d):
        ps = default_chart_parameters(k)[0]
        identities = read_back(k, d, ps, ps)
        assert sorted(name for name, _, _ in identities) == sorted(self.PINNED[(k, d)])
        assert all(got == want for _, got, want in identities)

    def test_read_back_is_injective(self):
        # the chart of another all-nonzero tuple reads that tuple back, so it
        # fails some identity of ps
        for k in range(1, 6):
            for d in range(3, k + 3):
                for ps in default_chart_parameters(k):
                    for j in range(k + 2):
                        other = ps[:j] + (2 * ps[j],) + ps[j + 1 :]
                        identities = read_back(k, d, ps, other)
                        own = read_back(k, d, other, other)
                        assert [got for _, got, _ in identities] == [w for _, _, w in own]
                        assert any(got != want for _, got, want in identities), (k, d, j)

    @pytest.mark.parametrize("k,d", [(2, 3), (2, 4), (3, 3), (3, 4), (3, 5)])
    def test_shifted_chart_entry_fails_iff_read(self, monkeypatch, k, d):
        ps = default_chart_parameters(k)[0]
        names = [name for name, _, _ in read_back(k, d, ps, ps)]
        read = {tuple(map(int, m)) for m in re.findall(r"phi\((\d+),(\d+)\)", " ".join(names))}
        n = 2 * k + 1
        for cell in [(r, c) for r in range(1, n + 1) for c in range(r + 1, n + 1)]:

            def shifted(flag, d, cell=cell):
                # phi(r, c) is entry c of row r over entry r, so this adds 1/7 to it
                rows = [list(row) for row in _chart_rows(flag, d)]
                r, c = cell
                rows[r - 1][c - 1] += Fraction(rows[r - 1][r - 1], 7)
                return rows

            monkeypatch.setattr("springerfiber.certificates._chart_rows", shifted)
            report = verify_smooth_chart(k, d, parameter_tuples=[ps])
            status = {c["name"]: c["status"] for c in report["checks"]}
            want = "fail" if cell in read else "pass"
            assert status["nonzero-tuple-0-chart-recovery"] == want, cell
            assert report["verdict"] == want, cell
