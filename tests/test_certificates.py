from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from springerfiber.certificates import (
    BASIS_TABLEAU_322,
    CELL_TABLEAU_322,
    WITNESS_CURVES,
    CertificateError,
    Jet,
    SingularityCertificate,
    certify_322,
    curve_tangent,
    default_chart_parameters,
    f_entries,
    f_family,
    operator_322,
    phi_map,
    r_vectors,
    v_vectors,
    verify_curve_membership,
    verify_smooth_chart,
)
from springerfiber.exactlin import (
    Matrix,
    in_span,
    restricted_type,
    special_flag,
    special_operator,
    unit_vector,
    vec_add,
    vec_scale,
)
from springerfiber.partitions import Partition

from matrix_helpers import identity, is_zero


def dense_power(u, j) -> Matrix:
    """u^j multiplied out from the dense matrix whose column i is u applied to e_i."""
    m = Matrix(zip(*(u.apply(unit_vector(u.n, i)) for i in range(1, u.n + 1))))
    power = identity(u.n)
    for _ in range(j):
        power = power @ m
    return power


fracs = st.fractions(
    min_value=-4, max_value=4, max_denominator=5
)


class TestJet:
    @settings(max_examples=60, deadline=None)
    @given(fracs, fracs, fracs, fracs, fracs, fracs)
    def test_ring_laws(self, a, b, c, d, e, f):
        x, y, z = Jet(a, b), Jet(c, d), Jet(e, f)
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x - x == Jet(0, 0)

    @settings(max_examples=60, deadline=None)
    @given(fracs, fracs, fracs, fracs)
    def test_leibniz(self, a, b, c, d):
        x, y = Jet(a, b), Jet(c, d)
        prod = x * y
        assert prod.value == a * c
        assert prod.deriv == a * d + b * c

    def test_scalar_coercion(self):
        assert 2 * Jet(1, 1) == Jet(2, 2)
        assert Jet(1, 1) - 1 == Jet(0, 1)
        assert 1 - Jet(1, 1) == Jet(0, -1)


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


class TestMembership:
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
            nonzero = {
                (i + 1, j + 1): x
                for i, row in enumerate(got.rows)
                for j, x in enumerate(row)
                if x != 0
            }
            assert nonzero == {k: Fraction(v) for k, v in want.items()}, name

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
                    assert u.apply(vs[i - 1]) == want
                for i in range(1, k + 2):
                    for v in vs[:i]:
                        assert in_span(vs[:i], u.apply(v))

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
                assert u.apply(rs[j - 1]) == want
            # spans grow with the level and match the v-span
            vs = v_vectors(k, alpha)
            if level > k + 1:
                prev, _ = r_vectors(k, level - 1, alpha)
                for r in prev:
                    assert in_span(rs, r)
            for v in vs:
                assert in_span(rs, v)

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
        from springerfiber.exactlin import in_cell
        from springerfiber.tableaux import make_Q

        u = special_operator(2)
        flag = phi_map(2, 4, (1, 1, 1, 1))
        assert in_cell(flag, u, make_Q(2))
        flag = phi_map(2, 3, (1, 1, 1, 1))
        assert in_cell(flag, u, make_Q(2))

    def test_parameter_count_validation(self):
        with pytest.raises(ValueError):
            phi_map(2, 4, (1, 1, 1))
        with pytest.raises(ValueError):
            phi_map(2, 5, (1, 1, 1, 1))


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

    def test_unexpected_chart_error_propagates(self, monkeypatch):
        # with no parameter tuples the mixed-tuple check is the only chart call
        def broken(flag, d):
            raise TypeError("broken chart")

        monkeypatch.setattr("springerfiber.certificates.chart_coords", broken)
        with pytest.raises(TypeError):
            verify_smooth_chart(2, 4, parameter_tuples=[])
