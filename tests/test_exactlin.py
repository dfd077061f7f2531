import signal
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from springerfiber.exactlin import (
    ChartError,
    Flag,
    Matrix,
    Permutation,
    StabilityError,
    bilinear_form,
    cell_of,
    cell_prime_of,
    chart_coords,
    chart_flag,
    degenerate_to_special,
    fiber_permutations,
    in_cell,
    in_span,
    in_springer_fiber,
    intersection_dim,
    jordan_flag,
    jordan_operator,
    perp_flag,
    quotient_type,
    restricted_type,
    shuffles,
    special_basis_tableau,
    special_flag,
    special_operator,
    special_perm,
    unit_vector,
)
from springerfiber.certificates import phi_map
from springerfiber.partitions import Partition, partitions_of
from springerfiber.tableaux import (
    column_superstandard,
    enumerate_tableaux,
    parse_tableau,
    schuetzenberger,
)

from matrix_helpers import identity, is_zero, transpose

T = parse_tableau


def solve_in_basis(basis, v):
    """Coordinates of v in the given basis, via an augmented reduced system."""
    cols = list(basis) + [v]
    m = Matrix(zip(*cols))
    reduced, pivots = m.rref()
    k = len(basis)
    assert k not in pivots, "vector outside the span"
    coords = [Fraction(0)] * k
    for r, p in enumerate(pivots):
        coords[p] = reduced[r][k]
    return coords


def jordan_type_by_rank(m: Matrix) -> tuple[int, ...]:
    """Independent Jordan-type oracle: kernel dimension jumps of matrix powers."""
    n = m.nrows
    dims = [0]
    power = identity(n)
    while dims[-1] < n:
        power = power @ m
        dims.append(n - power.rank())
    cols = [dims[t] - dims[t - 1] for t in range(1, len(dims))]
    widths = tuple(
        sum(1 for c in cols if c >= j) for j in range(1, max(cols) + 1)
    )
    return widths


def dense_operator(u) -> Matrix:
    """Dense matrix of the operator: column i is u applied to e_i."""
    return Matrix(zip(*(u.apply(unit_vector(u.n, i)) for i in range(1, u.n + 1))))


def dense_gram(g: Permutation) -> Matrix:
    """Gram matrix of the form pairing e_i with e_g(i)."""
    return Matrix([[int(g(i) == j) for j in range(1, g.n + 1)] for i in range(1, g.n + 1)])


# Dense reference formulas: the operator, its powers, the power kernels,
# the annihilator of a subspace and the Gram matrix are all multiplied out
# as Fraction matrices built straight from the basis tableau.


def oracle_operator(t) -> Matrix:
    """Dense matrix with a 1 at (prev, cur) for each pair of row neighbours."""
    entries = [[0] * t.n for _ in range(t.n)]
    for row in t.rows:
        for prev, cur in zip(row, row[1:]):
            entries[prev - 1][cur - 1] = 1
    return Matrix(entries)


def oracle_gram(t) -> Matrix:
    """Dense Gram matrix pairing the j-th and (m+1-j)-th vectors of each row."""
    entries = [[0] * t.n for _ in range(t.n)]
    for row in t.rows:
        for a, b in zip(row, reversed(row)):
            entries[a - 1][b - 1] = 1
    return Matrix(entries)


def oracle_powers(m: Matrix) -> list[Matrix]:
    """Powers of a nilpotent matrix from the identity up to the first zero one."""
    powers = [identity(m.nrows)]
    while not is_zero(powers[-1]):
        powers.append(powers[-1] @ m)
    return powers


def oracle_restricted_type(kernels, vecs) -> Partition:
    dims = [0]
    while dims[-1] < len(vecs):
        dims.append(intersection_dim(vecs, kernels[min(len(dims), len(kernels) - 1)]))
    return Partition([dims[t] - dims[t - 1] for t in range(1, len(dims))]).conjugate()


def oracle_quotient_type(powers, vecs) -> Partition:
    n = powers[0].nrows
    annihilator = Matrix(vecs).nullspace() if vecs else identity(n).rows
    dims = [len(vecs)]
    while dims[-1] < n:
        p = powers[min(len(dims), len(powers) - 1)]
        dims.append(n - (Matrix(annihilator) @ p).rank() if annihilator else n)
    return Partition([dims[t] - dims[t - 1] for t in range(1, len(dims))]).conjugate()


def oracle_perp_flag(flag: Flag, gram: Matrix) -> Flag:
    n = flag.n
    kernels = [identity(n).rows]
    kernels += [(Matrix(flag.prefix(i)) @ gram).nullspace() for i in range(1, n + 1)]
    chosen = []
    for j in range(1, n + 1):
        chosen.append(
            next(v for v in kernels[n - j] if Matrix(chosen + [v]).rank() > len(chosen))
        )
    return Flag(chosen)


def assert_matches_oracle(u, flags) -> None:
    """Index-map answers against the dense formulas on every prefix of each flag."""
    powers = oracle_powers(oracle_operator(u.tableau))
    assert len(powers) - 1 == u.degree
    kernels = [p.nullspace() for p in powers]
    gram = oracle_gram(u.tableau)
    form = bilinear_form(u)
    for flag in flags:
        for i in range(flag.n + 1):
            prefix = flag.prefix(i)
            assert restricted_type(u, prefix) == oracle_restricted_type(kernels, prefix)
            assert quotient_type(u, prefix) == oracle_quotient_type(powers, prefix)
        assert perp_flag(flag, form).same_flag(oracle_perp_flag(flag, gram))


class TestMatrix:
    def test_rank_pivot_orders_agree(self):
        # row2 = 2*row1 and row4 = row1 - 2*row3, so the rank is 2
        m = Matrix([[1, 2, 3], [2, 4, 6], [0, 1, 1], [1, 0, 1]])
        assert m.rank() == Matrix(reversed(m.rows)).rank() == 2
        assert transpose(m).rank() == 2

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(min_value=-4, max_value=4), min_size=4, max_size=4),
            min_size=1,
            max_size=5,
        )
    )
    def test_rank_invariants(self, rows):
        m = Matrix(rows)
        r = m.rank()
        assert r == Matrix(reversed(m.rows)).rank()
        assert r == transpose(m).rank()
        # rank-nullity over the columns
        assert r + len(m.nullspace()) == m.ncols

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_in_span_matches_rank(self, data):
        entry = st.integers(min_value=-3, max_value=3)
        row = st.lists(entry, min_size=4, max_size=4).map(tuple)
        vs = tuple(data.draw(st.lists(row, max_size=4)))
        if vs and data.draw(st.booleans()):
            # a combination of the spanning vectors, so membership is exercised
            coeffs = data.draw(st.lists(entry, min_size=len(vs), max_size=len(vs)))
            v = tuple(sum(c * w[i] for c, w in zip(coeffs, vs)) for i in range(4))
        else:
            v = data.draw(row)
        assert in_span(vs, v) == (Matrix(vs + (v,)).rank() == Matrix(vs).rank())

    def test_nullspace_vectors_are_killed(self):
        m = Matrix([[1, 2, 0], [0, 0, 1]])
        for v in m.nullspace():
            assert all(x == 0 for x in m.apply(v))

    def test_matmul_identity(self):
        m = Matrix([[1, 2], [3, 4]])
        assert m @ identity(2) == m
        assert identity(2) @ m == m

    def test_json_rationals(self):
        m = Matrix([[Fraction(1, 2), 3]])
        assert m.to_json() == [["1/2", "3"]]


class TestJordanOperator:
    def test_k_k_1_action(self):
        u = jordan_operator(T("1,3/2,4/5"))
        # chains 1<-3 and 2<-4; e1, e2, e5 are killed
        assert u.apply(unit_vector(5, 3)) == unit_vector(5, 1)
        assert u.apply(unit_vector(5, 4)) == unit_vector(5, 2)
        for i in (1, 2, 5):
            assert all(x == 0 for x in u.apply(unit_vector(5, i)))

    def test_322_action(self):
        u = jordan_operator(T("1,4,7/2,5/3,6"))
        assert u.apply(unit_vector(7, 7)) == unit_vector(7, 4)
        assert u.apply(unit_vector(7, 4)) == unit_vector(7, 1)
        assert u.apply(unit_vector(7, 5)) == unit_vector(7, 2)
        assert u.apply(unit_vector(7, 6)) == unit_vector(7, 3)
        for i in (1, 2, 3):
            assert all(x == 0 for x in u.apply(unit_vector(7, i)))

    def test_single_row_shift(self):
        u = jordan_operator(T("1,2,3"))
        assert u.apply(unit_vector(3, 3)) == unit_vector(3, 2)

    def test_nilpotency_degree(self):
        u = jordan_operator(T("1,2,3"))
        m = dense_operator(u)
        assert is_zero(m @ m @ m)
        assert not is_zero(m @ m)
        assert u.degree == 3

    def test_full_space_type_round_trip(self):
        for n in range(1, 9):
            for shape in partitions_of(n):
                u = jordan_operator(column_superstandard(shape))
                full = [unit_vector(n, i) for i in range(1, n + 1)]
                assert restricted_type(u, full) == shape


class TestRestrictedType:
    def test_examples_322(self):
        u = jordan_operator(T("1,4,7/2,5/3,6"))
        e = lambda i: unit_vector(7, i)
        assert restricted_type(u, [e(1), e(2)]) == Partition((1, 1))
        assert restricted_type(u, [e(1), e(4), e(7)]) == Partition((3,))
        assert restricted_type(u, [e(i) for i in range(1, 8)]) == Partition((3, 2, 2))
        assert restricted_type(u, []) == Partition(())

    def test_matches_induced_matrix_oracle(self):
        u = jordan_operator(T("1,4,7/2,5/3,6"))
        e = lambda i: unit_vector(7, i)
        basis = [e(1), e(2), e(4), e(5)]
        # oracle: solve for the matrix of the restriction and take its type
        cols = [solve_in_basis(basis, u.apply(w)) for w in basis]
        induced = Matrix(zip(*cols))
        assert jordan_type_by_rank(induced) == restricted_type(u, basis).parts

    def test_unstable_subspace(self):
        u = jordan_operator(T("1,2"))
        with pytest.raises(StabilityError):
            restricted_type(u, [unit_vector(2, 2)])

    def test_dependent_basis(self):
        u = jordan_operator(T("1,2"))
        with pytest.raises(ValueError):
            restricted_type(u, [unit_vector(2, 1), unit_vector(2, 1)])


class TestQuotientType:
    def test_trivial_cases(self):
        u = jordan_operator(T("1,4,7/2,5/3,6"))
        e = lambda i: unit_vector(7, i)
        assert quotient_type(u, []) == Partition((3, 2, 2))
        assert quotient_type(u, [e(i) for i in range(1, 8)]) == Partition(())

    def test_matches_induced_quotient_oracle(self):
        u = jordan_operator(T("1,4,7/2,5/3,6"))
        # quotient by span(e1): induced action on images of e2..e7 kills the
        # e1 component; build that 6x6 matrix directly
        rows = [
            [dense_operator(u).rows[i][j] for j in range(1, 7)] for i in range(1, 7)
        ]
        induced = Matrix(rows)
        assert jordan_type_by_rank(induced) == (2, 2, 2)
        assert quotient_type(u, [unit_vector(7, 1)]) == Partition((2, 2, 2))



class TestDenseOracle:
    def test_operator_matches_dense_construction(self):
        for n in range(1, 6):
            for shape in partitions_of(n):
                for t in enumerate_tableaux(shape):
                    assert dense_operator(jordan_operator(t)) == oracle_operator(t)

    def test_coordinate_flags(self):
        for n in range(1, 6):
            for shape in partitions_of(n):
                u = jordan_operator(column_superstandard(shape))
                assert_matches_oracle(u, [jordan_flag(s) for s in fiber_permutations(u)])

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_dense_chart_flags(self, data):
        k = data.draw(st.integers(min_value=1, max_value=4))
        d = data.draw(st.integers(min_value=3, max_value=k + 2))
        nonzero = st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(
            lambda x: x != 0
        )
        params = data.draw(st.lists(nonzero, min_size=k + 2, max_size=k + 2))
        assert_matches_oracle(special_operator(k), [phi_map(k, d, params)])


class TestCells:
    def test_coordinate_flag_cell_322(self):
        u = jordan_operator(T("1,4,7/2,5/3,6"))
        flag = jordan_flag(Permutation(range(1, 8)))
        assert cell_of(flag, u) == T("1,4,7/2,5/3,6")

    def test_in_cell(self):
        u = jordan_operator(T("1,3/2,4/5"))
        flag = jordan_flag(Permutation(range(1, 6)))
        assert in_cell(flag, u, cell_of(flag, u))

    def test_flag_not_in_fiber(self):
        u = jordan_operator(T("1,2"))
        bad = Flag([unit_vector(2, 2), unit_vector(2, 1)])
        assert not in_springer_fiber(bad, u)
        with pytest.raises(StabilityError):
            cell_of(bad, u)

    def test_jordan_flags_in_fiber_iff_shuffle(self):
        u = special_operator(2)
        allowed = set(shuffles(2))
        from itertools import permutations as iterperm

        for images in iterperm(range(1, 6)):
            sigma = Permutation(images)
            assert in_springer_fiber(jordan_flag(sigma), u) == (sigma in allowed)

    def test_cells_partition_fiber_flags(self):
        # every coordinate fiber flag gets exactly one cell and one dual cell
        u = special_operator(2)
        for sigma in fiber_permutations(u):
            flag = jordan_flag(sigma)
            assert cell_of(flag, u).shape == Partition((2, 2, 1))
            assert cell_prime_of(flag, u).shape == Partition((2, 2, 1))


class TestDuality:
    def test_bilinear_form_properties(self):
        for t in (T("1,3/2,4/5"), T("1,4,7/2,5/3,6")):
            u = jordan_operator(t)
            gram = dense_gram(bilinear_form(u))
            m = dense_operator(u)
            assert transpose(gram) == gram
            assert gram.rank() == u.n
            assert gram @ m == transpose(m) @ gram

    def test_perp_flag_rejects_form_of_other_size(self):
        flag = jordan_flag(Permutation(range(1, 6)))
        with pytest.raises(ValueError):
            perp_flag(flag, bilinear_form(jordan_operator(T("1,4,7/2,5/3,6"))))

    def test_perp_involution(self):
        u = special_operator(2)
        g = bilinear_form(u)
        flag = jordan_flag(Permutation((2, 1, 4, 3, 5)))
        assert perp_flag(perp_flag(flag, g), g).same_flag(flag)

    def test_perp_swaps_cells_up_to_evacuation(self):
        u = special_operator(2)
        g = bilinear_form(u)
        for sigma in fiber_permutations(u):
            flag = jordan_flag(sigma)
            assert cell_of(perp_flag(flag, g), u) == schuetzenberger(
                cell_prime_of(flag, u)
            )


def brute_force_fiber_permutations(u) -> tuple[Permutation, ...]:
    """The n! filter: permutations placing each basis vector after its chain predecessor."""
    pred = {cur: prev for row in u.tableau.rows for prev, cur in zip(row, row[1:])}
    out = []
    for images in permutations(range(1, u.n + 1)):
        position = {v: i for i, v in enumerate(images)}
        if all(position[prev] < position[cur] for cur, prev in pred.items()):
            out.append(Permutation(images))
    return tuple(out)


class TestFiberPermutations:
    def test_matches_brute_force(self):
        for n in range(1, 8):
            for shape in partitions_of(n):
                for basis in {column_superstandard(shape), enumerate_tableaux(shape)[0]}:
                    u = jordan_operator(basis)
                    assert fiber_permutations(u) == brute_force_fiber_permutations(u)

    def test_bound_checked_before_work(self):
        u = jordan_operator(column_superstandard(Partition((1,) * 13)))

        def timed_out(signum, frame):
            raise AssertionError("fiber_permutations started work above the bound")

        previous = signal.signal(signal.SIGALRM, timed_out)
        signal.alarm(5)
        try:
            with pytest.raises(ValueError, match="bound"):
                fiber_permutations(u)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


class TestShuffles:
    def test_count(self):
        from math import factorial

        for k in (1, 2, 3):
            assert len(shuffles(k)) == factorial(2 * k + 1) // (
                factorial(k) * factorial(k)
            )

    def test_k1_is_all_of_s3(self):
        assert len(shuffles(1)) == 6

    def test_matches_generic_fiber_test(self):
        for k in (1, 2):
            assert set(shuffles(k)) == set(fiber_permutations(special_operator(k)))


class TestSpecialPermAndFlag:
    def test_example(self):
        assert special_perm(3, 5).images == (1, 2, 5, 3, 4)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            special_perm(2, 5)
        with pytest.raises(ValueError):
            special_perm(5, 5)
        with pytest.raises(ValueError):
            special_perm(3, 6)

    def test_special_flag_in_cell_chart_origin(self):
        coords = chart_coords(special_flag(4, 2), 4)
        assert coords.is_zero()

    def test_special_basis_tableau(self):
        assert special_basis_tableau(2) == T("1,3/2,4/5")
        assert special_basis_tableau(3) == T("1,3,5/2,4,6/7")


class TestChart:
    def test_round_trip_random(self):
        import random

        rng = random.Random(7)
        for n, d in ((5, 3), (5, 4), (7, 5)):
            for _ in range(5):
                phi = {
                    (i, j): Fraction(rng.randint(-6, 6), rng.randint(1, 5))
                    for i in range(1, n + 1)
                    for j in range(i + 1, n + 1)
                }
                from springerfiber.exactlin import ChartCoordinates

                coords = ChartCoordinates(d=d, n=n, phi=phi)
                flag = chart_flag(coords)
                assert chart_coords(flag, d).phi == phi

    def test_coords_invariant_under_prefix_changes(self):
        # replacing each basis vector by a combination of earlier ones plus a
        # nonzero multiple of itself keeps the flag, hence the coordinates
        from springerfiber.exactlin import ChartCoordinates, vec_add, vec_scale

        phi = {
            (i, j): Fraction(j - i, i + j) for i in range(1, 6) for j in range(i + 1, 6)
        }
        coords = ChartCoordinates(d=3, n=5, phi=phi)
        flag = chart_flag(coords)
        mixed = []
        for i, v in enumerate(flag.vectors):
            w = vec_scale(Fraction(i + 2, 3), v)
            for p in range(i):
                w = vec_add(w, vec_scale(Fraction(1, p + 5), flag.vectors[p]))
            mixed.append(w)
        assert chart_coords(Flag(mixed), 3).phi == phi

    def test_outside_chart(self):
        # V_1 spanned by e_3 has no pivot at position (d)(1) = e_1
        flag = jordan_flag(Permutation((3, 2, 5, 1, 4)))
        with pytest.raises(ChartError):
            chart_coords(flag, 3)


class TestDegeneration:
    def test_fixed_points(self):
        for k, d in ((2, 3), (2, 4), (3, 5)):
            sigma = special_perm(d, 2 * k + 1)
            assert degenerate_to_special(sigma, k) == sigma

    def test_k1_exhaustive(self):
        terminal = {degenerate_to_special(s, 1).images for s in shuffles(1)}
        assert terminal == {(1, 2, 3)}

    def test_terminal_special_form(self):
        for k in (2, 3):
            n = 2 * k + 1
            for sigma in shuffles(k):
                t = degenerate_to_special(sigma, k)
                d = t.position_of(n)
                assert d >= 3
                assert t.images == tuple(range(1, d)) + (n,) + tuple(range(d, n))

    def test_terminal_position_fixed_after_first_reduction(self):
        # the bubble phase never moves the largest value, so the terminal d is
        # the position of n once it has passed the positions of 1 and 2
        for k in (2, 3):
            n = 2 * k + 1
            for sigma in shuffles(k):
                t = degenerate_to_special(sigma, k)
                expected = max(
                    sigma.position_of(n), sigma.position_of(1), sigma.position_of(2)
                )
                assert t.position_of(n) == expected

    def test_kernel_bound_consistency(self):
        # whenever the terminal form is (d) with d <= k+2, the first reduction
        # phase alone already placed the largest value at position d <= k+2
        for k in (2, 3, 4):
            n = 2 * k + 1
            for sigma in shuffles(k):
                images = list(sigma.images)
                changed = True
                while changed:
                    changed = False
                    for i in (1, 2):
                        if images.index(n) < images.index(i):
                            pa, pb = images.index(i), images.index(n)
                            images[pa], images[pb] = images[pb], images[pa]
                            changed = True
                after_a = images.index(n) + 1
                d = degenerate_to_special(sigma, k).position_of(n)
                assert after_a == d
                if d <= k + 2:
                    assert after_a <= k + 2

    def test_rejects_non_shuffle(self):
        with pytest.raises(ValueError):
            degenerate_to_special(Permutation((3, 1, 2, 5, 4)), 2)


class TestPermutation:
    def test_inverse_and_parse(self):
        p = Permutation.parse("1,2,5,3,4")
        assert p.inverse().images == (1, 2, 4, 5, 3)
        assert str(p) == "1,2,5,3,4"
        with pytest.raises(ValueError):
            Permutation((1, 1, 2))
