"""Tests of ``springerfiber.exactlin``: each fast path against one oracle that does not call it.

- ``_eliminate`` with ``_integer_rows``: ``gauss_jordan`` of ``matrix_helpers``
  (the rank profile, ``Matrix.rref``), and its lazy Bareiss (entry sizes)
  and column-scan (identical rows) oracles on sparse and edge-case rows.
- The coordinate route (``_coordinates_stable``, the coordinate pivots and
  the coordinate ``perp_flag``): ``chain_segment_cells`` over every fiber
  coordinate flag with n <= 7, and ``Flag`` of the same unit vectors, which
  eliminates, over every permutation with n <= 6 (``TestCoordinateRoute``).
- The interleaved route (``_prefix_pivots`` behind the cells,
  ``in_springer_fiber`` and ``same_flag``): the per-prefix dense
  definitions, the meet-dimension tables, and ``fraction_flag_pivots``.
- The cell read-off (``_tableau_from_columns``, the reversal and evacuation
  in ``cell_prime_of``): ``chain_segment_cells`` and the table read-offs.
- The general ``perp_flag`` with ``_back_substituted``:
  ``reduced_perp_flag`` (Gauss-Jordan over ``Fraction``) and the pairing.
- Charts (``_chart_rows``, ``_chart_value``): ``chart_coords_by_rows``; the
  flag builders: the integer form and ``flag_vectors``.
"""

import signal
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

import springerfiber.exactlin as exactlin_module
from springerfiber.exactlin import (
    ChartError,
    Flag,
    Matrix,
    NilpotentOperator,
    Permutation,
    StabilityError,
    _ZERO,
    _chart_rows,
    _eliminate,
    _images,
    _integer_rows,
    _lowest_terms,
    _prefix_pivots,
    _triangular_flag,
    as_fraction,
    bilinear_form,
    cell_of,
    cell_prime_of,
    chart_coords,
    fiber_permutations,
    in_span,
    in_springer_fiber,
    intersection_dim,
    jordan_flag,
    jordan_operator,
    perp_flag,
    quotient_type,
    restricted_type,
    special_basis_tableau,
    special_flag,
    special_operator,
    special_perm,
    vector,
)
from springerfiber.certificates import default_chart_parameters, f_entries, phi_map, verify_smooth_chart
from springerfiber.partitions import Partition, partitions_of
from springerfiber.tableaux import (
    StandardTableau,
    _tableau_from_columns,
    column_superstandard,
    enumerate_tableaux,
    from_shape_chain,
    parse_tableau,
    schuetzenberger,
)

from matrix_helpers import (
    chart_etas,
    column_scan_eliminate,
    dense_image,
    flag_rows,
    flag_vectors,
    gauss_jordan,
    identity,
    is_zero,
    lazy_bareiss,
    oracle_operator,
    rank_profile,
    reduced_perp_flag,
    transpose,
    unit_vector,
    vec_add,
    vec_scale,
)
from tableau_helpers import shape_chain

T = parse_tableau


# oracle of _subspace_pivots (restricted_type): the induced matrix of a subspace
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


# oracle of _subspace_pivots: a Jordan type from the ranks of dense powers
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


def image(u, v):
    """The library's u(v), read off its index map by ``_images``."""
    return tuple(exactlin_module._images(u, [v], u.n)[0])


# oracle of bilinear_form: its Gram matrix multiplied out
def dense_gram(g: Permutation) -> Matrix:
    """Gram matrix of the form pairing e_i with e_g(i)."""
    return Matrix([[int(g(i) == j) for j in range(1, g.n + 1)] for i in range(1, g.n + 1)])


# Dense reference formulas: the operator, its powers, the power kernels,
# the annihilator of a subspace and the Gram matrix are all multiplied out
# as Fraction matrices built straight from the basis tableau.


# oracle of bilinear_form's self-adjointness check
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


# oracle of _subspace_pivots in the kernel order (restricted_type)
def oracle_restricted_type(kernels, vecs) -> Partition:
    dims = [0]
    while dims[-1] < len(vecs):
        dims.append(intersection_dim(vecs, kernels[min(len(dims), len(kernels) - 1)]))
    return Partition([dims[t] - dims[t - 1] for t in range(1, len(dims))]).conjugate()


# oracle of _subspace_pivots in the image order (quotient_type)
def oracle_quotient_type(powers, vecs) -> Partition:
    n = powers[0].nrows
    annihilator = Matrix(vecs).nullspace() if vecs else identity(n).rows
    dims = [len(vecs)]
    while dims[-1] < n:
        p = powers[min(len(dims), len(powers) - 1)]
        dims.append(n - (Matrix(annihilator) @ p).rank() if annihilator else n)
    return Partition([dims[t] - dims[t - 1] for t in range(1, len(dims))]).conjugate()


# oracle of _subspace_pivots (restricted_type, quotient_type): the dense powers and their kernels
def assert_matches_oracle(u, flags) -> None:
    """Index-map answers against the dense formulas on every prefix of each flag."""
    powers = oracle_powers(oracle_operator(u.tableau))
    assert len(powers) - 1 == u.jordan_type.num_columns
    kernels = [p.nullspace() for p in powers]
    for flag in flags:
        for i in range(flag.n + 1):
            prefix = flag_vectors(flag)[:i]
            assert restricted_type(u, prefix) == oracle_restricted_type(kernels, prefix)
            assert quotient_type(u, prefix) == oracle_quotient_type(powers, prefix)


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
        assert in_span(vs, v) == (len(gauss_jordan(vs + (v,))[1]) == len(gauss_jordan(vs)[1]))

    def test_nullspace_vectors_are_killed(self):
        m = Matrix([[1, 2, 0], [0, 0, 1]])
        for v in m.nullspace():
            assert all(x == 0 for x in m.apply(v))

    def test_matmul_identity(self):
        m = Matrix([[1, 2], [3, 4]])
        assert m @ identity(2) == m
        assert identity(2) @ m == m


# Entries with large coprime denominators, so a row's lcm scaling matters.
RATIONAL = st.builds(
    Fraction,
    st.integers(min_value=-5, max_value=5),
    st.sampled_from([1, 2, 3, 7, 10007, 65537, 2**31 - 1, 2**61 - 1]),
)


@st.composite
def rational_matrices(draw):
    """Row lists over Q, with dependent rows, zero rows and zero columns mixed in."""
    ncols = draw(st.integers(min_value=0, max_value=6))
    row = st.lists(RATIONAL, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, max_size=5))
    if rows:
        # rational combinations of the drawn rows make the matrix rank-deficient
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            coeffs = draw(st.lists(RATIONAL, min_size=len(rows), max_size=len(rows)))
            rows.append([sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(ncols)])
    rows += [[Fraction(0)] * ncols] * draw(st.integers(min_value=0, max_value=2))
    zero_columns = draw(st.sets(st.integers(min_value=0, max_value=max(ncols - 1, 0))))
    rows = [[Fraction(0) if j in zero_columns else x for j, x in enumerate(r)] for r in rows]
    return draw(st.permutations(rows))


# Mostly zero; the nonzero entries are rarely 1, so pivots are mostly not units.
SPARSE_ENTRY = st.one_of(
    st.just(Fraction(0)),
    st.just(Fraction(0)),
    st.just(Fraction(0)),
    st.sampled_from([2, 3, -2, 5, -7]).map(Fraction),
    RATIONAL,
)
# The nonzero ones, for pivots.
SPARSE_PIVOT = st.one_of(st.sampled_from([2, 3, -2, 5, -7]).map(Fraction), RATIONAL.filter(bool))


@st.composite
def sparse_matrices(draw):
    """Permutation matrices, mostly-zero rows, and fiber-style columns v1, u v1, v2, u v2, ..

    The elimination skips rows that are zero in the pivot column; these
    shapes leave rows untouched across many pivots, most of them not 1.
    """
    kind = draw(st.sampled_from(["permutation", "sparse", "interleaved"]))
    n = draw(st.integers(min_value=1, max_value=7))
    if kind == "permutation":
        order = draw(st.permutations(range(n)))
        rows = [list(unit_vector(n, j + 1)) for j in order]
        # drop rows or repeat them scaled, so the profile is not always the diagonal
        keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        rows = [r for r, k in zip(rows, keep) if k] or rows
        scale = draw(SPARSE_ENTRY)
        rows += [vec_scale(scale, r) for r in draw(st.lists(st.sampled_from(rows), max_size=2))]
    elif kind == "sparse":
        ncols = draw(st.integers(min_value=0, max_value=8))
        row = st.lists(SPARSE_ENTRY, min_size=ncols, max_size=ncols)
        rows = draw(st.lists(row, min_size=1, max_size=8))
    else:
        u = jordan_operator(column_superstandard(draw(st.sampled_from(list(partitions_of(n))))))
        if draw(st.booleans()):
            vs = flag_vectors(jordan_flag(Permutation(draw(st.permutations(range(1, n + 1))))))
        else:
            vs = draw(st.lists(st.lists(SPARSE_ENTRY, min_size=n, max_size=n), min_size=1, max_size=n))
        columns = [x for v in vs for x in (v, dense_image(u, v))]
        rows = [list(r) for r in zip(*columns)]
    return draw(st.permutations(rows))


def pivot_columns(rows):
    return tuple(c for _, c in rank_profile(rows)[0])


class TestPivotColumns:
    def test_empty_shapes(self):
        assert rank_profile([]) == ((), [])
        assert rank_profile([[], []]) == ((), [])
        assert rank_profile([[Fraction(0)] * 3] * 2) == ((), [])

    def test_dependency_hidden_by_denominators(self):
        # row 2 is row 1 times 3/65537; their numerators alone are independent
        p = 2**31 - 1
        rows = [
            [Fraction(1, p), Fraction(2, 3), Fraction(0)],
            [Fraction(3, 65537 * p), Fraction(2, 65537), Fraction(0)],
            [Fraction(0), Fraction(1, 7), Fraction(5, p)],
        ]
        assert pivot_columns(rows) == gauss_jordan(rows)[1] == (0, 1)

    def test_exact_division_keeps_entries_small(self):
        # a 40 x 40 diagonally dominant matrix: every Bareiss entry is a minor
        # of a few hundred bits, and a content-divided row is no larger, while
        # elimination that never divides doubles the bit length at every step
        assert_diagonal_profile_in_time(diagonal_matrix())

    def test_lazy_scaling_keeps_entries_small(self):
        # a 60 x 60 banded matrix whose nonzeros sit every 4th column, so each
        # row is updated, then skipped by 3 pivots (none of them 1), then
        # updated again; a skipped row must be left as it is and every updated
        # row divided by its content, or the entries outgrow the minors
        assert_diagonal_profile_in_time(banded_matrix())


def diagonal_matrix(n=40):
    """A diagonally dominant n x n integer matrix with a full diagonal."""
    return [[2 * n if i == j else (i * j) % 3 - 1 for j in range(n)] for i in range(n)]


def banded_matrix(n=60, stride=4, width=12):
    """A diagonally dominant n x n integer matrix whose nonzeros sit every ``stride``-th column of a band."""
    return [
        [
            2 * n if i == j else (i * j) % 3 - 1 if abs(i - j) <= width and (i - j) % stride == 0 else 0
            for j in range(n)
        ]
        for i in range(n)
    ]


# oracle of _eliminate's content division: entries that outgrow the minors run out of time
def assert_diagonal_profile_in_time(rows, seconds=5):
    """The rank profile of a diagonally dominant integer matrix is its diagonal, within ``seconds``."""

    def timed_out(signum, frame):
        raise AssertionError("entries grew beyond the minors of the matrix")

    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(seconds)
    try:
        pairs, _ = rank_profile([[Fraction(x) for x in r] for r in rows])
        assert pairs == tuple((i, i) for i in range(len(rows)))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestEliminateAgainstLazyBareiss:
    """``_eliminate`` against Bareiss elimination with lazy scaling, the ``matrix_helpers`` oracle.

    The pivot pairs are the same, each pivot row is a nonzero rational
    multiple of the oracle's, and no entry is larger than the oracle's.
    """

    def check(self, rows):
        copies = [list(row) for row in rows]
        pairs, tops = _eliminate(rows)
        want_pairs, want_tops = lazy_bareiss(rows)
        assert pairs == want_pairs
        assert len(tops) == len(want_tops)
        for (i, c), top, want in zip(pairs, tops, want_tops):
            assert top[c] and all(a * want[c] == b * top[c] for a, b in zip(top, want, strict=True))
            assert all(abs(a) <= abs(b) for a, b in zip(top, want))
            # a pivot row is the caller's own row, or an updated row divided by its content
            assert top is rows[i] or gcd(*top) == 1
        # the input rows are not changed, and the first pivot row is never updated
        assert [list(row) for row in rows] == copies
        assert not pairs or tops[0] is rows[pairs[0][0]]

    @settings(max_examples=300, deadline=None)
    @given(rational_matrices())
    def test_rational(self, rows):
        self.check(_integer_rows(rows))

    @settings(max_examples=300, deadline=None)
    @given(sparse_matrices())
    def test_sparse(self, rows):
        self.check(_integer_rows(rows))

    @pytest.mark.parametrize("rows", [diagonal_matrix(), banded_matrix()], ids=["diagonal", "banded"])
    def test_pivot_columns_matrices(self, rows):
        self.check(rows)

    def test_rows_zero_in_the_pivot_column_are_left_as_they_are(self):
        rows = [[0, 2, 0], [4, 0, 0], [0, 0, 6]]
        pairs, tops = _eliminate(rows)
        assert pairs == ((1, 0), (0, 1), (2, 2))
        assert all(top is rows[i] for (i, _), top in zip(pairs, tops))


def interleaved_rows(u, flag, order):
    """The rows that ``_flag_pivots`` eliminates: the coordinates in ``order``, columns v1, u v1, v2, u v2, .."""
    scaled = flag_rows(flag)
    columns = [x for pair in zip(scaled, _images(u, scaled, flag.n)) for x in pair]
    rows = list(zip(*columns))
    return [rows[c] for c in order]


class TestEliminateAgainstColumnScan:
    """``_eliminate`` against the column-scan core it replaced, the ``matrix_helpers`` oracle.

    The pivot pairs and the pivot rows are the same integers, and a pivot
    row is the caller's own object exactly when the oracle's is, that is,
    when neither core updated it.
    """

    def check(self, rows):
        copies = [list(row) for row in rows]
        pairs, tops = _eliminate(rows)
        want_pairs, want_tops = column_scan_eliminate(rows)
        assert pairs == want_pairs
        assert [list(top) for top in tops] == [list(want) for want in want_tops]
        for (i, _), top, want in zip(pairs, tops, want_tops):
            assert (top is rows[i]) == (want is rows[i])
        assert [list(row) for row in rows] == copies

    @settings(max_examples=300, deadline=None)
    @given(sparse_matrices())
    def test_sparse(self, rows):
        self.check(_integer_rows(rows))

    @pytest.mark.parametrize(
        "rows",
        [
            [],
            [()],
            [(), (), ()],
            [(0, 0, 0), (0, 0, 0)],
            [(0, 0, 0), (1, 2, 3), (0, 0, 0), (1, 2, 3), (2, 4, 6)],
            [(0, 3, 0), (2, 0, 4), (0, 3, 0), (2, 0, 4)],
            # rows 1 and 2 vanish after the first update; row 3 then leads
            [(1, 2, 3), (2, 4, 6), (-3, -6, -9), (0, 0, 5)],
            [(2, 1, 0), (4, 2, 1), (6, 3, 0), (0, 0, 7)],
        ],
        ids=["empty", "one-zero-width", "zero-width", "all-zero", "duplicates",
             "duplicates-sparse", "vanishing", "vanishing-then-lead"],
    )
    def test_edge_cases(self, rows):
        self.check(rows)

    def test_permutation_matrices(self):
        for n in range(1, 6):
            for sigma in permutations(range(n)):
                self.check([tuple(int(j == s) for j in range(n)) for s in sigma])
                self.check([tuple((s + 2) * (j == s) for j in range(n)) for s in sigma])

    def test_every_coordinate_flag_up_to_6_in_both_orders(self):
        for n in range(1, 7):
            for shape in partitions_of(n):
                u = jordan_operator(column_superstandard(shape))
                for sigma in fiber_permutations(u):
                    flag = jordan_flag(sigma)
                    for order in (u.kernel_order, u.image_order):
                        self.check(interleaved_rows(u, flag, order))

    @pytest.mark.parametrize("rows", [diagonal_matrix(), banded_matrix()], ids=["diagonal", "banded"])
    def test_pivot_columns_matrices(self, rows):
        self.check(rows)


class TestRref:
    """``Matrix.rref`` against the textbook Gauss-Jordan of ``matrix_helpers``."""

    @settings(max_examples=200, deadline=None)
    @given(rational_matrices())
    def test_rational_matches_gauss_jordan(self, rows):
        assert Matrix(rows).rref() == gauss_jordan(rows)

    @settings(max_examples=200, deadline=None)
    @given(sparse_matrices())
    def test_sparse_matches_gauss_jordan(self, rows):
        assert Matrix(rows).rref() == gauss_jordan(rows)


class TestRankProfile:
    """rank(rows[:r], columns[:c]) is the number of pivot pairs above r and left of c."""

    def check(self, rows):
        pairs, _ = rank_profile(rows)
        assert len({i for i, _ in pairs}) == len(pairs)
        ncols = len(rows[0]) if rows else 0
        for r in range(len(rows) + 1):
            # Gauss-Jordan takes the columns in order, so the pivot columns of
            # the leading c columns are its pivot columns left of c
            pivots = gauss_jordan(rows[:r])[1]
            for c in range(ncols + 1):
                leading = sum(p < c for p in pivots)
                assert sum(i < r and j < c for i, j in pairs) == leading, (r, c)

    @settings(max_examples=300, deadline=None)
    @given(rational_matrices())
    def test_leading_ranks_match_rref(self, rows):
        self.check(rows)

    @settings(max_examples=150, deadline=None)
    @given(sparse_matrices())
    def test_sparse_leading_ranks_match_gauss_jordan(self, rows):
        self.check(rows)

    def test_zero_empty_and_rank_deficient(self):
        F = Fraction
        equal_rows = [[F(1), F(2)], [F(1), F(2)]]
        # a zero row on top, a row and its multiple, the first pivot at the bottom
        deficient = [
            [F(0), F(0), F(0)],
            [F(0), F(3), F(1)],
            [F(0), F(6), F(2)],
            [F(1), F(0), F(1, 2)],
        ]
        for rows in ([], [[], []], [[F(0)] * 3] * 4, equal_rows, deficient):
            self.check(rows)
        # the pivot of equal rows is the top one, so rows[:1] has rank 1
        pairs, tops = rank_profile(equal_rows)
        assert (pairs, [list(top) for top in tops]) == (((0, 0),), [[1, 2]])
        assert rank_profile(deficient)[0] == ((3, 0), (1, 1))


class TestEchelonRows:
    def test_rows_are_scaled_to_integers(self):
        # each row is scaled by the lcm of its denominators before elimination
        F = Fraction
        rows = [[F(1, 2), F(1, 3)], [F(1), F(1, 2)]]
        # the scaled rows are int tuples, and an updated row is a new list
        pairs, tops = rank_profile(rows)
        assert (pairs, [list(top) for top in tops]) == (((0, 0), (1, 1)), [[3, 2], [0, -1]])


class TestExactEntries:
    """An int or a Fraction is read as its value; a float, a bool, a complex or a Decimal raises TypeError."""

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(st.integers(min_value=-(10**6), max_value=10**6), st.fractions(max_denominator=10**4)))
    def test_inexact_entries_raise_and_rationals_keep_their_value(self, x):
        value = Fraction(x)
        for exact in (x, value):
            assert type(as_fraction(exact)) is Fraction and as_fraction(exact) == value
            flag = Flag([[1, exact], [0, 1]])
            # the stored rows are the integer form, (1, value) times its denominator
            assert flag_rows(flag) == ((value.denominator, value.numerator), (0, 1))
        assert vector([x, 1]) == vector([value, 1])
        for inexact in (float(value), complex(value), Decimal(value.numerator) / Decimal(value.denominator)):
            with pytest.raises(TypeError, match="^entries must be exact rationals"):
                as_fraction(inexact)
            with pytest.raises(TypeError, match="^entries must be exact rationals"):
                Flag([[1, inexact], [0, 1]])

    @pytest.mark.parametrize("x", [True, False])
    def test_a_bool_is_not_an_entry(self, x):
        # a bool is an int to Python, but no entry means a truth value
        for call in (as_fraction, lambda x: vector([x, 1]), lambda x: Flag([[1, x], [0, 1]])):
            with pytest.raises(TypeError, match="got bool$"):
                call(x)

    def test_a_float_is_not_rounded_into_a_flag(self):
        # 0.1 is 3602879701896397 / 2**55, not 1/10
        with pytest.raises(TypeError, match="got float$"):
            Flag([[0.1, 0], [0, 1]])
        with pytest.raises(TypeError, match="got float$"):
            vec_scale(0.5, (Fraction(1),))


class TestVectorArithmetic:
    def test_lengths_must_match(self):
        with pytest.raises(ValueError):
            vec_add((Fraction(1),), ())

    def test_vector_converts_lists_and_ints(self):
        for entries in ([1, Fraction(1, 2)], (1, 2), [0], (Fraction(3), 0)):
            v = vector(entries)
            assert type(v) is tuple and v == tuple(Fraction(x) for x in entries)
            assert all(type(x) is Fraction for x in v)
        v = (Fraction(1), Fraction(0))
        assert vector(v) is v
        assert vector(iter(v)) == v


class TestJordanOperator:
    def test_k_k_1_action(self):
        u = jordan_operator(T("1,3/2,4/5"))
        # chains 1<-3 and 2<-4; e1, e2, e5 are killed
        assert image(u, unit_vector(5, 3)) == unit_vector(5, 1)
        assert image(u, unit_vector(5, 4)) == unit_vector(5, 2)
        for i in (1, 2, 5):
            assert all(x == 0 for x in image(u, unit_vector(5, i)))

    def test_322_action(self):
        u = jordan_operator(T("1,4,7/2,5/3,6"))
        assert image(u, unit_vector(7, 7)) == unit_vector(7, 4)
        assert image(u, unit_vector(7, 4)) == unit_vector(7, 1)
        assert image(u, unit_vector(7, 5)) == unit_vector(7, 2)
        assert image(u, unit_vector(7, 6)) == unit_vector(7, 3)
        for i in (1, 2, 3):
            assert all(x == 0 for x in image(u, unit_vector(7, i)))

    def test_single_row_shift(self):
        u = jordan_operator(T("1,2,3"))
        assert image(u, unit_vector(3, 3)) == unit_vector(3, 2)

    def test_nilpotency_degree(self):
        u = jordan_operator(T("1,2,3"))
        m = oracle_operator(u.tableau)
        assert is_zero(m @ m @ m)
        assert not is_zero(m @ m)
        assert u.jordan_type.num_columns == 3

    def test_full_space_type_round_trip(self):
        for n in range(1, 9):
            for shape in partitions_of(n):
                u = jordan_operator(column_superstandard(shape))
                full = [unit_vector(n, i) for i in range(1, n + 1)]
                assert restricted_type(u, full) == shape

    def test_orders_cut_every_kernel_and_image(self):
        # the coordinates on which ker u^j (im u^j) vanishes, read off the
        # dense powers, are a leading block of kernel_order (image_order)
        # of size n - dim; the last power is zero, so every j is covered
        for n in range(7):
            for shape in partitions_of(n):
                for t in enumerate_tableaux(shape):
                    u = jordan_operator(t)
                    assert sorted(u.kernel_order) == sorted(u.image_order) == list(range(n))
                    powers, kernels = dense_powers_and_kernels(t)
                    for j, (power, kernel) in enumerate(zip(powers, kernels)):
                        images = transpose(power).rows
                        for order, span, dim in (
                            (u.kernel_order, kernel, len(kernel)),
                            (u.image_order, images, power.rank()),
                        ):
                            zero = {c for c in range(n) if all(v[c] == 0 for v in span)}
                            assert zero == set(order[: n - dim]), (t, j)


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
        cols = [solve_in_basis(basis, dense_image(u, w)) for w in basis]
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

    def test_stable_span_with_unstable_prefixes(self):
        # span(e_2) is not stable (u e_2 = e_1), but span(e_2, e_1) is everything
        u = jordan_operator(T("1,2"))
        assert restricted_type(u, [unit_vector(2, 2), unit_vector(2, 1)]) == Partition((2,))

    def test_dependent_and_unstable_basis_is_reported_as_dependent(self):
        # e_3, e_4, e_3 + e_4: dependent, and the images e_1, e_2 raise the
        # rank to 4 > 3; one elimination decides both, dependence first
        u = special_operator(2)
        basis = [unit_vector(5, 3), unit_vector(5, 4), vec_add(unit_vector(5, 3), unit_vector(5, 4))]
        for restricted in (restricted_type, quotient_type):
            with pytest.raises(ValueError) as exc:
                restricted(u, basis)
            assert type(exc.value) is ValueError
            assert str(exc.value) == "subspace basis is linearly dependent"

    @pytest.mark.parametrize(
        "rows",
        [[(1, 0, 0)], [(1, 0, 0, 0, 0)], [(1, 0, 0, 0), (0, 1, 0)], [(1, 0, 0), (0, 1, 0, 0)]],
        ids=["short", "long", "second-short", "first-short"],
    )
    def test_basis_and_operator_sizes_must_match(self, rows):
        # basis vectors of unequal lengths get the same message as a basis of the wrong size
        u = jordan_operator(T("1,2/3,4"))
        for subspace_type in (restricted_type, quotient_type):
            with pytest.raises(ValueError, match="^vector length does not match$"):
                subspace_type(u, fractions(rows))
        assert restricted_type(u, []) == Partition(())
        assert quotient_type(u, []) == Partition((2, 2))
        # entries that are not Fractions are converted
        assert restricted_type(u, [(1, 0, 0, 0), (0, 0, 1, 0)]) == Partition((1, 1))


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
            [oracle_operator(u.tableau).rows[i][j] for j in range(1, 7)] for i in range(1, 7)
        ]
        induced = Matrix(rows)
        assert jordan_type_by_rank(induced) == (2, 2, 2)
        assert quotient_type(u, [unit_vector(7, 1)]) == Partition((2, 2, 2))

    def test_stable_span_with_unstable_prefixes(self):
        u = jordan_operator(T("1,2"))
        assert quotient_type(u, [unit_vector(2, 2), unit_vector(2, 1)]) == Partition(())

    def test_unstable_subspace(self):
        u = jordan_operator(T("1,2"))
        with pytest.raises(StabilityError, match="^subspace is not stable under the operator$"):
            quotient_type(u, [unit_vector(2, 2)])



class TestDenseOracle:
    def test_operator_matches_dense_construction(self):
        # the index map on every basis vector and on a vector of distinct entries
        for n in range(1, 6):
            vs = [[int(i == j) for j in range(n)] for i in range(n)] + [list(range(1, n + 1))]
            for shape in partitions_of(n):
                for t in enumerate_tableaux(shape):
                    images = exactlin_module._images(jordan_operator(t), vs, n)
                    assert images == [list(oracle_operator(t).apply(v)) for v in vs]

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


# oracle of the cell read-off (_tableau_from_columns): a tableau from a chain of diagrams
def chain_tableau(diagrams):
    """The standard tableau of a chain of diagrams, one ``Partition`` step at a time.

    Each step compares two partitions row by row.  It shares no code with
    the column read-off behind ``from_shape_chain`` and the cell labels, so
    the cell oracles below build their tableaux with it.
    """
    if not diagrams or diagrams[0].n != 0:
        raise ValueError("chain must start with the empty diagram")
    rows = []
    for e, (prev, cur) in enumerate(zip(diagrams, diagrams[1:]), start=1):
        prev_parts = prev.parts + (0,) * (len(cur) - len(prev))
        if cur.n != prev.n + 1 or len(cur) < len(prev):
            raise ValueError(f"step {e} of chain does not add a single box")
        grown = [r for r in range(len(cur)) if cur[r] != prev_parts[r]]
        if len(grown) != 1 or cur[grown[0]] != prev_parts[grown[0]] + 1:
            raise ValueError(f"step {e} of chain does not add a single box")
        r = grown[0]
        if r == len(rows):
            rows.append([])
        rows[r].append(e)
    return StandardTableau(rows)


# Per-prefix definitions that the whole-flag eliminations replace: one
# restricted or quotient type per prefix, from the dense powers and their
# kernels, and stability and equality checked prefix by prefix with ranks.
# They share no code with the cell tables or the read-off, and are the
# oracle of the interleaved route on chart flags and random dense flags.


@lru_cache(maxsize=None)
def dense_powers_and_kernels(t):
    powers = oracle_powers(oracle_operator(t))
    return powers, [p.nullspace() for p in powers]


def oracle_cell_of(flag: Flag, u):
    kernels = dense_powers_and_kernels(u.tableau)[1]
    return chain_tableau([oracle_restricted_type(kernels, flag_vectors(flag)[:i]) for i in range(flag.n + 1)])


def oracle_cell_prime_of(flag: Flag, u):
    n, powers = flag.n, dense_powers_and_kernels(u.tableau)[0]
    chain = [oracle_quotient_type(powers, flag_vectors(flag)[: n - j]) for j in range(n + 1)]
    return schuetzenberger(chain_tableau(chain))


def oracle_in_fiber(flag: Flag, u) -> bool:
    images = tuple(dense_image(u, v) for v in flag_vectors(flag))
    return all(Matrix(flag_vectors(flag)[:i] + images[:i]).rank() == i for i in range(1, flag.n + 1))


def oracle_same_flag(a: Flag, b: Flag) -> bool:
    return a.n == b.n and all(
        Matrix(flag_vectors(a)[:i] + flag_vectors(b)[:i]).rank() == i for i in range(1, a.n + 1)
    )


# oracle of the interleaved route: cells, in_springer_fiber and same_flag by the per-prefix definitions
def assert_matches_prefix_oracles(u, flag: Flag, tilt: int) -> None:
    """Whole-flag answers against the per-prefix definitions.

    Also compares ``same_flag`` with a triangular change of basis of the
    flag (the same flag) and with the flag whose vector ``tilt`` picks up
    the next one (a different flag that shares every other prefix).
    """
    inside = oracle_in_fiber(flag, u)
    assert in_springer_fiber(flag, u) == inside
    if inside:
        assert cell_of(flag, u) == oracle_cell_of(flag, u)
        assert cell_prime_of(flag, u) == oracle_cell_prime_of(flag, u)
    else:
        with pytest.raises(StabilityError):
            cell_of(flag, u)
        with pytest.raises(StabilityError):
            cell_prime_of(flag, u)
    vs = flag_vectors(flag)
    rebased = Flag(vs[:1] + tuple(vec_add(v, w) for v, w in zip(vs[1:], vs)))
    assert oracle_same_flag(flag, rebased) and flag.same_flag(rebased)
    if flag.n > 1:
        k = tilt % (flag.n - 1)
        tilted = Flag(vs[:k] + (vec_add(vs[k], vs[k + 1]),) + vs[k + 1 :])
        assert not oracle_same_flag(flag, tilted) and not flag.same_flag(tilted)


# oracle of the coordinate route (_coordinates_stable, the coordinate pivots) and the cell read-off
def chain_segment_cells(u, sigma: Permutation):
    """``cell_of`` and ``cell_prime_of`` of a fiber coordinate flag, by combinatorics.

    The prefix sigma(1..i) holds an initial segment of every chain (row of
    the basis tableau).  Its restricted type is the sorted segment lengths;
    the quotient type is the sorted lengths of the complementary final
    segments, which grow as sigma is read from the end.  When a segment
    grows to length h, the sorted lengths grow in the row after those
    already at least h long, and entry i goes there.
    """
    chain = {e: r for r, row in enumerate(u.tableau.rows) for e in row}

    def grown(entries):
        lengths = [0] * len(u.tableau.rows)
        rows = []
        for i, e in enumerate(entries, start=1):
            h = lengths[chain[e]] + 1
            r = sum(x >= h for x in lengths)
            lengths[chain[e]] = h
            if r == len(rows):
                rows.append([])
            rows[r].append(i)
        return StandardTableau(rows)

    return grown(sigma.images), schuetzenberger(grown(reversed(sigma.images)))


class TestWholeFlag:
    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_chart_flags_match_prefix_oracles(self, data):
        k = data.draw(st.integers(min_value=1, max_value=4))
        d = data.draw(st.integers(min_value=3, max_value=k + 2))
        entry = st.fractions(min_value=-5, max_value=5, max_denominator=6)
        params = data.draw(st.lists(entry, min_size=k + 2, max_size=k + 2))
        tilt = data.draw(st.integers(min_value=0, max_value=8))
        assert_matches_prefix_oracles(special_operator(k), phi_map(k, d, params), tilt)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_flags_match_prefix_oracles(self, data):
        # dense small-integer flags: almost all lie outside the fiber unless u = 0
        n = data.draw(st.integers(min_value=1, max_value=5))
        shape = data.draw(st.sampled_from(list(partitions_of(n))))
        entry = st.integers(min_value=-2, max_value=2).map(Fraction)
        vectors = data.draw(triangle_bases(n, entry, st.sampled_from([1, -1, 2, -2]).map(Fraction)))
        u = jordan_operator(column_superstandard(shape))
        tilt = data.draw(st.integers(min_value=0, max_value=8))
        assert_matches_prefix_oracles(u, Flag(vectors), tilt)


# The meet-dimension tables that the pivot-coordinate read-off replaced: one
# elimination gives dim(span(v_1..v_i) meet ker u^j), or the preimage
# dimensions, for every prefix i and power j, and the tableau is read off the
# column heights of that table.  Kept as the oracle of ``cell_of`` and
# ``cell_prime_of`` on dense chart flags and on a flag that leaves the fiber
# part way, with the chain read-off they replaced in turn.


def nested_meet_dims(vecs, images, order, cuts):
    """Per cut r: dim(span(vecs[:i]) meet the coordinates zero on order[:r]) for i = 0..len(vecs).

    ``images`` holds u(v) for each v of ``vecs``.
    """
    columns = [x for pair in zip(vecs, images) for x in pair]
    pairs, _ = rank_profile([[w[c] for w in columns] for c in order])
    if any(c % 2 for _, c in pairs):
        raise StabilityError("flag is not stable under the operator")
    out = []
    for r in cuts:
        pivots = {c // 2 for i, c in pairs if i < r}
        dims = [0]
        for i in range(len(vecs)):
            dims.append(dims[-1] + (i not in pivots))
        out.append(dims)
    return out


def kernel_dims(u, vecs, images):
    """Row j, entry i: dim(span(vecs[:i]) meet ker u^j) for j = 0..degree."""
    order = sorted(range(u.n), key=lambda i: -u.column[i])
    cuts = [sum(c > j for c in u.column) for j in range(1, u.jordan_type.num_columns + 1)]
    return [[0] * (len(vecs) + 1)] + nested_meet_dims(vecs, images, order, cuts)


def preimage_dims(u, vecs, images):
    """Row j, entry i: dim of the preimage of span(vecs[:i]) under u^j for j = 0..degree."""
    order = sorted(range(u.n), key=lambda i: u.boxes_right[i])
    cuts = [sum(b < j for b in u.boxes_right) for j in range(u.jordan_type.num_columns)]
    dims = nested_meet_dims(vecs, images, order, cuts)
    return [[r + m for m in row] for r, row in zip(cuts, dims)] + [[u.n] * (len(vecs) + 1)]


def jordan_type_of_dims(dims):
    """The Jordan type whose column j has dims[j] - dims[j-1] boxes (power-kernel jumps)."""
    return Partition([b - a for a, b in zip(dims, dims[1:]) if b > a]).conjugate()


def tableau_from_dims(table):
    """The standard tableau of a chain of diagrams given by its column heights.

    ``table[j][i]`` is the number of boxes of diagram i in its first j
    columns; from i - 1 to i exactly one column j must grow, by one box,
    and entry i goes in row (new height - 1), which must hold j entries.
    """
    heights = [[b - a for a, b in zip(lower, upper)] for lower, upper in zip(table, table[1:])]
    if any(h[0] for h in heights):
        raise ValueError("chain must start with the empty diagram")
    rows = []
    for i in range(1, len(table[0])):
        grown = [j for j, h in enumerate(heights) if h[i] != h[i - 1]]
        if len(grown) != 1 or heights[grown[0]][i] != heights[grown[0]][i - 1] + 1:
            raise ValueError(f"step {i} of chain does not add a single box")
        j = grown[0]
        r = heights[j][i] - 1
        if r == len(rows):
            rows.append([])
        if len(rows[r]) != j:
            raise ValueError(f"step {i} of chain does not add a single box")
        rows[r].append(i)
    return StandardTableau(rows)


def table_cell_prime_of(preimage):
    return schuetzenberger(tableau_from_dims([row[::-1] for row in preimage]))


def chain_cell_of(kernel):
    return chain_tableau([jordan_type_of_dims(dims) for dims in zip(*kernel)])


def chain_cell_prime_of(preimage):
    types = [jordan_type_of_dims(dims) for dims in zip(*preimage)]
    return schuetzenberger(chain_tableau(types[::-1]))


def stable_table(dims, u, vecs, images):
    """``dims(u, vecs, images)``, or None when its elimination finds an unstable prefix."""
    try:
        return dims(u, vecs, images)
    except StabilityError:
        return None


# oracle of the interleaved route's cells and the read-off: the meet-dimension tables
def assert_matches_table_read_offs(u, flag: Flag) -> None:
    """``cell_of`` and ``cell_prime_of`` against the table and chain read-offs of one table each.

    The images of the flag vectors, the two tables and the fiber verdict
    that the chain read-offs rest on are computed once per flag: both
    read-offs of a cell share its table, and where the library raises
    StabilityError the table finds an unstable prefix and the flag is
    outside the fiber.
    """
    vs = flag_vectors(flag)
    images = [dense_image(u, v) for v in vs]
    inside = in_springer_fiber(flag, u)
    for fast, table, read_offs in (
        (cell_of, stable_table(kernel_dims, u, vs, images), (tableau_from_dims, chain_cell_of)),
        (cell_prime_of, stable_table(preimage_dims, u, vs, images), (table_cell_prime_of, chain_cell_prime_of)),
    ):
        try:
            got = fast(flag, u)
        except StabilityError as exc:
            assert str(exc) == "flag is not stable under the operator"
            assert table is None and not inside
        else:
            assert table is not None and inside
            assert [read(table) for read in read_offs] == [got] * len(read_offs)


# oracle of the read-off (_tableau_from_columns): the table of a known shape chain
def kernel_table(chain):
    """Row j, entry i: the boxes of diagram i in its first j columns, as ``kernel_dims`` gives."""
    width = max((p.parts[0] for p in chain if p.parts), default=0)
    return [[sum(min(part, j) for part in p.parts) for p in chain] for j in range(width + 1)]


# oracle of the read-off (_tableau_from_columns): the column word of a known tableau
def column_word(t):
    """The 1-based column of each entry 1..n of a standard tableau."""
    columns = [0] * t.n
    for row in t.rows:
        for j, e in enumerate(row, start=1):
            columns[e - 1] = j
    return columns


class TestCellReadOff:
    def test_every_coordinate_flag_up_to_7(self):
        for n in range(1, 8):
            for shape in partitions_of(n):
                u = jordan_operator(column_superstandard(shape))
                for sigma in fiber_permutations(u):
                    flag = jordan_flag(sigma)
                    assert in_springer_fiber(flag, u)
                    assert (cell_of(flag, u), cell_prime_of(flag, u)) == chain_segment_cells(u, sigma)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_dense_chart_flags(self, data):
        k = data.draw(st.integers(min_value=1, max_value=4))
        d = data.draw(st.integers(min_value=3, max_value=k + 2))
        entry = st.fractions(min_value=-5, max_value=5, max_denominator=6)
        params = data.draw(st.lists(entry, min_size=k + 2, max_size=k + 2))
        assert_matches_table_read_offs(special_operator(k), phi_map(k, d, params))

    @pytest.mark.parametrize("n", range(3, 6))
    def test_centralizer_moves_keep_both_labels(self, n):
        # T sends chain a's j-th vector to chain b's (j - s)-th, s = max(0,
        # |a| - |b|); it commutes with u and T^2 = 0, so I + T moves each
        # coordinate fiber flag to a fiber flag with no coordinate basis and
        # the same Jordan types on every prefix and quotient
        for shape in partitions_of(n):
            u = jordan_operator(column_superstandard(shape))
            dense_u = oracle_operator(u.tableau)
            for a, b in permutations(u.tableau.rows, 2):
                s = max(0, len(a) - len(b))
                shifted = {x: b[j - s] for j, x in enumerate(a) if j >= s}
                moved = Matrix(
                    vec_add(unit_vector(n, i), unit_vector(n, shifted[i])) if i in shifted else unit_vector(n, i)
                    for i in range(1, n + 1)
                )
                assert transpose(moved) @ dense_u == dense_u @ transpose(moved)
                for sigma in fiber_permutations(u):
                    flag = Flag([moved.rows[i - 1] for i in sigma.images])
                    coordinate = jordan_flag(sigma)
                    assert cell_of(flag, u) == cell_of(coordinate, u)
                    assert cell_prime_of(flag, u) == cell_prime_of(coordinate, u)

    def test_stable_prefixes_then_an_unstable_one(self):
        # one chain e_4 -> e_3 -> e_2 -> e_1: prefixes 1 and 2 are stable, 3 is not
        u = jordan_operator(T("1,2,3,4"))
        e = lambda i: unit_vector(4, i)
        coordinate = Flag([e(1), e(2), e(4), e(3)])
        dense = Flag(
            [e(1), vec_add(e(2), e(1)), vec_add(e(4), vec_scale(2, e(1))), vec_add(e(3), e(2))]
        )
        for flag in (coordinate, dense):
            vs = flag_vectors(flag)
            ranks = [Matrix(vs[:i] + tuple(dense_image(u, v) for v in vs[:i])).rank() for i in (1, 2, 3)]
            assert ranks == [1, 2, 4]
            assert_matches_table_read_offs(u, flag)
            for cell in (cell_of, cell_prime_of):
                with pytest.raises(StabilityError, match="^flag is not stable under the operator$"):
                    cell(flag, u)

    def test_read_off_matches_shape_chain(self):
        for n in range(7):
            for shape in partitions_of(n):
                for t in enumerate_tableaux(shape):
                    chain = shape_chain(t)
                    table = kernel_table(chain)
                    assert tableau_from_dims(table) == t
                    assert from_shape_chain(chain) == t
                    assert chain_tableau([jordan_type_of_dims(d) for d in zip(*table)]) == t

    def test_column_word_round_trip(self):
        for n in range(8):
            for shape in partitions_of(n):
                for t in enumerate_tableaux(shape):
                    assert _tableau_from_columns(column_word(t)) == t

    # each table is a column word, entry i in column table[i - 1]; the last step is the bad one
    @pytest.mark.parametrize(
        "table",
        [
            [2],  # column 2 grows while column 1 is empty
            [1, 3],  # column 3 grows while column 2 is empty
            [1, 2, 2],  # column 2 grows below a row with no box in column 1
            [1, 1, 3],  # column 3 before column 2
            [0],  # there is no column 0
            [1, 2, 1, 3, 3],  # (3,1) to (3,2) by a box in column 3
            [-1],  # there is no negative column
            [1, -1],  # the same after a box
            [1, 5],  # a column past the box count
        ],
    )
    def test_read_off_rejects_steps_that_add_no_single_box(self, table):
        with pytest.raises(ValueError) as exc:
            _tableau_from_columns(table)
        assert str(exc.value) == f"step {len(table)} of chain does not add a single box"

    def test_one_elimination_per_cell_label(self, monkeypatch):
        u = special_operator(2)
        dense = phi_map(2, 3, (1, Fraction(1, 2), 3, -2))
        # every elimination, from Fraction or from integer rows, runs the integer core
        calls = counting(monkeypatch, "_eliminate")
        flag = jordan_flag(Permutation((1, 2, 5, 3, 4)))
        unstable = jordan_flag(Permutation((3, 1, 2, 4, 5)))
        assert calls == []
        # a coordinate flag and its perp flag read their permutations and eliminate
        # nothing; the dense chart flag eliminates once per question
        for f, eliminations in ((flag, 0), (dense, 1)):
            for cell in (cell_of, cell_prime_of):
                calls.clear()
                cell(f, u)
                assert len(calls) == eliminations
            calls.clear()
            perp = perp_flag(f, bilinear_form(u))
            assert len(calls) == eliminations
            for g in (f, perp):
                calls.clear()
                assert in_springer_fiber(g, u)
                assert len(calls) == eliminations
        calls.clear()
        assert not in_springer_fiber(unstable, u)
        for cell in (cell_of, cell_prime_of):
            with pytest.raises(StabilityError):
                cell(unstable, u)
        cell_of(perp_flag(flag, bilinear_form(u)), u)
        assert calls == []
        for f in (flag, dense):
            # the prefixes of a fiber flag are stable subspaces
            for subspace_type in (restricted_type, quotient_type):
                calls.clear()
                subspace_type(u, flag_vectors(f)[:3])
                assert len(calls) == 1


# oracle of _flag_pivots' interleaved route: Fraction columns and dense images
def fraction_flag_pivots(u, flag: Flag, order):
    """``_flag_pivots`` by ``rank_profile`` of the ``Fraction`` columns v_i, u(v_i)."""
    columns = [x for v in flag_vectors(flag) for x in (v, dense_image(u, v))]
    rows = list(zip(*columns))
    pairs = rank_profile([rows[c] for c in order])[0]
    if any(c % 2 for _, c in pairs):
        raise StabilityError("flag is not stable under the operator")
    return [order[i] for i, _ in pairs]


# oracle of same_flag's _prefix_pivots: Fraction columns
def fraction_same_flag(a: Flag, b: Flag) -> bool:
    """``same_flag`` by ``rank_profile`` of the ``Fraction`` columns v_i, w_i."""
    columns = [x for pair in zip(flag_vectors(a), flag_vectors(b)) for x in pair]
    return a.n == b.n and all(c % 2 == 0 for _, c in rank_profile(list(zip(*columns)))[0])


def outcome(f, *args):
    """``f(*args)``, or the type and message of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@st.composite
def triangle_bases(draw, n, entry, pivot):
    """n vectors independent by construction: a triangle in a drawn coordinate order, then a drawn change within the flag.

    Vector i is a ``pivot`` (nonzero) at order[i], 0 at order[:i] and an
    ``entry`` after, so the vectors are independent; every flag has such a
    basis in some order.  Then vector i gains an ``entry`` multiple of each
    earlier vector, which keeps the flag and hides the triangle.
    """
    order = draw(st.permutations(range(n)))
    vectors = []
    for i in range(n):
        v = [_ZERO] * n
        v[order[i]] = draw(pivot)
        for c in order[i + 1 :]:
            v[c] = draw(entry)
        for w in vectors:
            v = vec_add(v, vec_scale(draw(entry), w))
        vectors.append(tuple(v))
    return vectors


# nonzero entries in [-5, 5] with denominators up to 7
NONZERO_FRACTION = st.builds(
    lambda sign, x: sign * x, st.sampled_from([1, -1]), st.fractions(min_value=Fraction(1, 7), max_value=5, max_denominator=7)
)


@st.composite
def integer_path_cases(draw):
    """(operator, flag): dense rational flags, chart flags, and fiber flags with shuffled vectors."""
    kind = draw(st.sampled_from(["dense", "chart", "shuffled"]))
    if kind == "chart":
        k = draw(st.integers(min_value=1, max_value=4))
        d = draw(st.integers(min_value=3, max_value=k + 2))
        # zero parameters put shared zeros and unit entries into the flag
        entry = st.one_of(st.just(0), st.fractions(min_value=-5, max_value=5, max_denominator=6))
        flag = phi_map(k, d, draw(st.lists(entry, min_size=k + 2, max_size=k + 2)))
        if draw(st.booleans()):
            return special_operator(k), flag
        n = flag.n
    else:
        n = draw(st.integers(min_value=1, max_value=6))
    u = jordan_operator(column_superstandard(draw(st.sampled_from(list(partitions_of(n))))))
    if kind == "dense":
        entry = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-5, max_value=5, max_denominator=7))
        flag = Flag(draw(triangle_bases(n, entry, NONZERO_FRACTION)))
    elif kind == "shuffled":
        fiber = jordan_flag(draw(st.sampled_from(fiber_permutations(u))))
        flag = Flag(draw(st.permutations(flag_vectors(fiber))))
    return u, flag


class TestIntegerPath:
    """Flag questions scale each flag vector once and read its image off the integers."""

    @settings(max_examples=200, deadline=None)
    @given(integer_path_cases())
    def test_pivots_match_fraction_columns(self, case):
        u, flag = case
        for order in (u.kernel_order, u.image_order):
            assert outcome(exactlin_module._flag_pivots, u, flag, order) == outcome(
                fraction_flag_pivots, u, flag, order
            )
        inside = outcome(fraction_flag_pivots, u, flag, range(flag.n))
        assert in_springer_fiber(flag, u) == (not isinstance(inside, tuple))

    @settings(max_examples=100, deadline=None)
    @given(integer_path_cases(), st.data())
    def test_same_flag_matches_fraction_columns(self, case, data):
        _, flag = case
        vs = flag_vectors(flag)
        k = data.draw(st.integers(min_value=0, max_value=flag.n - 1))
        c = data.draw(st.fractions(min_value=-3, max_value=3, max_denominator=5))
        # adding a multiple of an earlier vector keeps the flag, of a later one changes it
        earlier = vs[:k] + (vec_add(vs[k], vec_scale(c, vs[k - 1])),) + vs[k + 1 :] if k else vs
        others = [Flag(earlier), Flag(vs[::-1])]
        if k + 1 < flag.n:
            others.append(Flag(vs[:k] + (vec_add(vs[k], vs[k + 1]),) + vs[k + 1 :]))
        for other in others:
            assert flag.same_flag(other) == fraction_same_flag(flag, other)
        assert flag.same_flag(Flag(earlier))

    @pytest.mark.parametrize("size", [0, 3, 5, 6], ids=["empty", "n-1", "n+1", "n+2"])
    def test_flag_and_operator_sizes_must_match(self, size):
        u = jordan_operator(T("1,2/3,4"))
        dense = Flag([[Fraction(i + 1, j + 1) ** i for j in range(size)] for i in range(size)])
        for flag in (jordan_flag(Permutation(range(1, size + 1))), dense):
            for question in (cell_of, cell_prime_of, in_springer_fiber):
                with pytest.raises(ValueError, match="^vector length does not match$"):
                    question(flag, u)
            assert not flag.same_flag(jordan_flag(Permutation(range(1, 5))))


class TestCoordinateRoute:
    """A coordinate flag answers from its permutation; ``Flag`` of the same unit vectors eliminates, the reference."""

    @pytest.mark.parametrize("n", range(7))
    def test_every_permutation_matches_the_elimination_route(self, n):
        # the column-superstandard basis and the first enumerated one of every shape
        bases = {t for shape in partitions_of(n) for t in (column_superstandard(shape), enumerate_tableaux(shape)[0])}
        operators = [jordan_operator(t) for t in sorted(bases, key=lambda t: t.rows)]
        forms = [bilinear_form(u) for u in operators]
        for images in permutations(range(1, n + 1)):
            coordinate = jordan_flag(Permutation(images))
            reference = Flag([unit_vector(n, i) for i in images])
            assert coordinate._scaled is None and coordinate._order == tuple(i - 1 for i in images)
            assert reference._scaled is not None
            assert coordinate.same_flag(reference) and reference.same_flag(coordinate)
            for u, g in zip(operators, forms):
                # equal labels, or StabilityError with its message on both sides
                for cell in (cell_of, cell_prime_of):
                    assert outcome(cell, coordinate, u) == outcome(cell, reference, u)
                stable = in_springer_fiber(coordinate, u)
                assert stable == in_springer_fiber(reference, u)
                if stable:
                    perp, want = perp_flag(coordinate, g), perp_flag(reference, g)
                    assert perp.same_flag(want) and want.same_flag(perp)
                    assert cell_of(perp, u) == cell_of(want, u)
                    # the elimination route gives the unit vectors themselves,
                    # which the coordinate route holds as their coordinates only
                    assert flag_rows(perp) == want._scaled
                    assert perp._order == tuple(row.index(1) for row in want._scaled)
                    assert perp._scaled is None
                    assert want._scaled is not None

    @pytest.mark.parametrize("n", range(6))
    def test_same_flag_matches_the_prefix_pivots_of_the_references(self, n):
        # every ordered pair of coordinate flags, so both argument orders: the
        # coordinate pair, both mixed pairs and _prefix_pivots of the references agree
        flags = [jordan_flag(Permutation(images)) for images in permutations(range(1, n + 1))]
        references = [Flag([unit_vector(n, c + 1) for c in flag._order]) for flag in flags]
        for a, ra in zip(flags, references):
            for b, rb in zip(flags, references):
                want = _prefix_pivots(ra._scaled, rb._scaled, range(n)) is not None
                assert want == (a._order == b._order)
                assert a.same_flag(b) == a.same_flag(rb) == ra.same_flag(b) == want

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_same_flag_of_a_changed_basis(self, data):
        # scaling the unit vectors and adding multiples of earlier vectors keeps
        # the coordinate flag; adding the next vector to one changes it
        n = data.draw(st.integers(min_value=1, max_value=6))
        images = data.draw(st.permutations(range(1, n + 1)))
        coordinate = jordan_flag(Permutation(images))
        kept = []
        for i in images:
            v = unit_vector(n, i)
            for w in kept:
                v = vec_add(v, vec_scale(data.draw(st.one_of(st.just(_ZERO), RATIONAL)), w))
            kept.append(vec_scale(data.draw(NONZERO_FRACTION), v))
        others = [Flag(kept)]
        if n > 1:
            k = data.draw(st.integers(min_value=0, max_value=n - 2))
            others.append(Flag(kept[:k] + [vec_add(kept[k], kept[k + 1])] + kept[k + 1 :]))
        for other, want in zip(others, (True, False)):
            assert fraction_same_flag(coordinate, other) == want
            assert coordinate.same_flag(other) == other.same_flag(coordinate) == want

    @pytest.mark.parametrize("k", range(1, 5))
    def test_same_flag_of_chart_families_and_special_flags(self, k):
        # the chart family (d) at zero is the special flag (d) and no other;
        # any nonzero parameter moves it off every special flag
        n = 2 * k + 1
        zero = (0,) * (k + 2)
        units = [tuple(int(i == j) for i in range(k + 2)) for j in range(k + 2)]
        specials = {d: special_flag(d, k) for d in range(3, k + 3)}
        for d in specials:
            for ps in (zero, *units, *default_chart_parameters(k)):
                family = phi_map(k, d, ps)
                for e, special in specials.items():
                    want = _prefix_pivots(family._scaled, flag_rows(special), range(n)) is not None
                    assert want == (e == d and ps == zero)
                    assert family.same_flag(special) == special.same_flag(family) == want

    @pytest.mark.parametrize("size", [0, 3, 5, 6], ids=["empty", "n-1", "n+1", "n+2"])
    def test_size_mismatch_raises_on_both_routes(self, size):
        u = jordan_operator(T("1,2/3,4"))
        g = bilinear_form(u)
        images = range(size, 0, -1)
        for flag in (jordan_flag(Permutation(images)), Flag([unit_vector(size, i) for i in images])):
            for question in (cell_of, cell_prime_of, in_springer_fiber):
                assert outcome(question, flag, u) == (ValueError, "vector length does not match")
            assert outcome(perp_flag, flag, g) == (ValueError, "bilinear form size does not match the flag")


# oracle of the flag builders' integer form (Flag, jordan_flag, _triangular_flag, perp_flag)
def integer_form(vectors):
    """Each vector times the lcm of its denominators, as a tuple of ints."""
    out = []
    for v in vectors:
        s = lcm(*(x.denominator for x in v))
        out.append(tuple(int(x * s) for x in v))
    return tuple(out)


def counting(monkeypatch, name):
    """List that grows by one at each call of ``exactlin.<name>``."""
    calls = []
    original = getattr(exactlin_module, name)
    monkeypatch.setattr(exactlin_module, name, lambda *args: calls.append(1) or original(*args))
    return calls


@st.composite
def independent_bases(draw):
    """n independent vectors of n rationals, shared and unshared zeros among them."""
    n = draw(st.integers(min_value=0, max_value=5))
    return tuple(draw(triangle_bases(n, st.one_of(st.just(_ZERO), RATIONAL), SPARSE_PIVOT)))


@st.composite
def unit_triangles(draw):
    """(vectors, order): vector i is 1 at order[i], 0 at order[:i] and any rational, 0 included, after."""
    n = draw(st.integers(min_value=0, max_value=6))
    order = draw(st.permutations(range(n)))
    entry = st.one_of(st.just(_ZERO), RATIONAL)
    vectors = []
    for i in range(n):
        v = [_ZERO] * n
        v[order[i]] = Fraction(1)
        for c in order[i + 1 :]:
            v[c] = draw(entry)
        vectors.append(tuple(v))
    return tuple(vectors), order


class TestIntegerForm:
    """A flag is scaled to integers once, when it is built, and its questions read that form."""

    def test_lowest_terms_divides_by_the_gcd_with_the_denominator(self):
        # 2 divides the numerators (2, 4) but not the denominator 3
        assert _lowest_terms(((2, 4), 3)) == ((2, 4), 3)
        assert _lowest_terms(((6, -4), 10)) == ((3, -2), 5)

    @settings(max_examples=100, deadline=None)
    @given(independent_bases(), unit_triangles())
    def test_the_integer_form_gives_back_the_basis(self, vectors, triangle):
        # Flag stores each vector times the lcm of its denominators, and no
        # scale: zeros stay zeros; a triangle gives back its exact basis, each
        # stored row over its diagonal entry, the lcm of a unit triangle's row
        assert flag_rows(Flag(vectors)) == integer_form(vectors)
        vectors, order = triangle
        assert flag_vectors(_triangular_flag(_integer_rows(vectors), order)) == vectors
        assert flag_rows(Flag(vectors)) == integer_form(vectors)

    @settings(max_examples=100, deadline=None)
    @given(integer_path_cases())
    def test_every_builder_stores_the_integer_form(self, case):
        u, flag = case
        for f in (flag, perp_flag(flag, bilinear_form(u))):
            assert f._scaled == integer_form(flag_vectors(f))
            assert all(type(row) is tuple for row in f._scaled)

    @pytest.mark.parametrize("n", range(6))
    def test_a_coordinate_flag_is_its_unit_rows(self, n):
        # it holds the coordinates of its unit vectors and no rows; Flag of the
        # unit vectors, the reference, holds their integer form
        for images in permutations(range(1, n + 1)):
            units = tuple(unit_vector(n, i) for i in images)
            flag, reference = jordan_flag(Permutation(images)), Flag(units)
            assert flag._order == tuple(i - 1 for i in images)
            assert flag._scaled is None
            assert flag.n == reference.n == n
            assert flag_rows(flag) == reference._scaled == integer_form(units)
            assert flag_vectors(flag) == units

    @pytest.mark.parametrize("shape", [(3, 2, 2), (4, 3, 1), (3, 3, 2, 1)])
    def test_one_conversion_per_flag_of_a_coordinate_flag_op(self, monkeypatch, shape):
        # the op of the coordinate_flags benchmark: cell, dual cell, perp flag and its cell
        u = jordan_operator(column_superstandard(Partition(shape)))
        form = bilinear_form(u)
        perms = fiber_permutations(u)
        conversions = counting(monkeypatch, "_integer_rows")
        for perm in perms[:: len(perms) // 7]:
            conversions.clear()
            flag = jordan_flag(perm)
            cell_of(flag, u)
            cell_prime_of(flag, u)
            cell_of(perp_flag(flag, form), u)
            # the coordinate flag and its perp flag hold only their coordinates,
            # so nothing converts
            assert len(conversions) == 0

    @pytest.mark.parametrize("k, d", [(2, 3), (2, 4), (3, 4), (4, 6)])
    def test_one_conversion_per_flag_of_a_chart_check(self, monkeypatch, k, d):
        conversions = counting(monkeypatch, "_integer_rows")
        built = counting(monkeypatch, "_integer_flag")
        eliminations = counting(monkeypatch, "_eliminate")
        init = Flag.__init__
        monkeypatch.setattr(Flag, "__init__", lambda flag, vectors: built.append(1) or init(flag, vectors))
        assert verify_smooth_chart(k, d, [default_chart_parameters(k)[2]])["verdict"] == "pass"
        # the family at zero, the special flag, the family at the tuple and at the mixed tuple;
        # the special flag holds only its coordinates and the family is built over
        # the integers, so nothing converts
        assert len(built) == 4
        assert len(conversions) == 0
        # the cell of the tuple's family and the fiber check of the mixed one;
        # the zero family is compared with the coordinate flag (d), and every
        # family is its own echelon form on its chart
        assert len(eliminations) == 2

    def test_stored_rows_survive_every_question(self):
        # _eliminate returns a pivot row it never updated as the caller's own object, so
        # a question that eliminated the stored rows in place would show here
        u = special_operator(3)
        g = bilinear_form(u)
        dense = Flag([[Fraction(i + 1, j + 2) ** i for j in range(7)] for i in range(7)])
        flags = [
            special_flag(4, 3),
            phi_map(3, 4, (1, Fraction(1, 2), Fraction(-2, 3), 3, Fraction(5, 7))),
            phi_map(3, 5, (0, 1, 0, 1, 0)),
            dense,
        ]
        flags += [perp_flag(f, g) for f in flags]
        for flag in flags:
            rows, order = flag._scaled, flag._order
            for question in (cell_of, cell_prime_of, in_springer_fiber):
                outcome(question, flag, u)
            for other in flags:
                flag.same_flag(other)
                other.same_flag(flag)
            perp_flag(flag, g)
            for d in range(3, 6):
                outcome(chart_coords, flag, d)
            for subspace_type in (restricted_type, quotient_type):
                outcome(subspace_type, u, flag_vectors(flag)[:3])
            assert flag._scaled is rows and flag._order is order
            assert flag_rows(flag) == integer_form(flag_vectors(flag))
            if rows is not None:
                assert rows == integer_form(flag_vectors(flag))
                assert all(type(row) is tuple for row in rows)
            else:
                # a coordinate flag holds no rows, and no question builds them into it
                assert sorted(order) == list(range(flag.n))


class TestCells:
    def test_coordinate_flag_cell_322(self):
        u = jordan_operator(T("1,4,7/2,5/3,6"))
        flag = jordan_flag(Permutation(range(1, 8)))
        assert cell_of(flag, u) == T("1,4,7/2,5/3,6")

    def test_flag_not_in_fiber(self):
        u = jordan_operator(T("1,2"))
        bad = Flag([unit_vector(2, 2), unit_vector(2, 1)])
        assert not in_springer_fiber(bad, u)
        with pytest.raises(StabilityError):
            cell_of(bad, u)

    def test_jordan_flags_in_fiber_iff_shuffle(self):
        u = special_operator(2)
        allowed = set(fiber_permutations(u))
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
            m = oracle_operator(t)
            assert transpose(gram) == gram
            assert gram.rank() == u.n
            assert gram @ m == transpose(m) @ gram

    def test_form_rejects_an_operator_that_is_not_self_adjoint(self):
        # the chains of 1,2/3 pair e_1 with e_2, but this index map sends e_3 to e_1
        u = object.__new__(NilpotentOperator)
        u.tableau, u.n, u.right = T("1,2/3"), 3, (2, None, None)
        with pytest.raises(AssertionError, match="^operator is not self-adjoint for the form$"):
            bilinear_form(u)

    def test_self_adjointness_matches_the_dense_check(self):
        # every index map on n <= 4 basis vectors against B u = u^T B for the
        # tableau's Gram matrix B, where column r of u has a 1 in row i when
        # right[i] = r
        for n in range(1, 5):
            for shape in partitions_of(n):
                for t in enumerate_tableaux(shape):
                    gram = [[int(x) for x in row] for row in oracle_gram(t).rows]
                    for right in product([None, *range(n)], repeat=n):
                        m = [[int(right[i] == c) for c in range(n)] for i in range(n)]
                        bu = [[sum(gram[a][k] * m[k][b] for k in range(n)) for b in range(n)] for a in range(n)]
                        utb = [[sum(m[k][a] * gram[k][b] for k in range(n)) for b in range(n)] for a in range(n)]
                        u = object.__new__(NilpotentOperator)
                        u.tableau, u.n, u.right = t, n, right
                        try:
                            bilinear_form(u)
                        except AssertionError as exc:
                            assert str(exc) == "operator is not self-adjoint for the form"
                            assert bu != utb, (t, right)
                        else:
                            assert bu == utb, (t, right)

    def test_perp_flag_rejects_form_of_other_size(self):
        flag = jordan_flag(Permutation(range(1, 6)))
        with pytest.raises(ValueError):
            perp_flag(flag, bilinear_form(jordan_operator(T("1,4,7/2,5/3,6"))))

    def test_perp_involution(self):
        u = special_operator(2)
        g = bilinear_form(u)
        flag = jordan_flag(Permutation((2, 1, 4, 3, 5)))
        assert perp_flag(perp_flag(flag, g), g).same_flag(flag)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_perp_of_dense_rational_flags(self, data):
        # dense flags reduce through pivots that are not 1, unlike coordinate flags
        n = data.draw(st.integers(min_value=1, max_value=5))
        u = jordan_operator(column_superstandard(data.draw(st.sampled_from(list(partitions_of(n))))))
        g = bilinear_form(u)
        entry = st.fractions(min_value=-5, max_value=5, max_denominator=7)
        vectors = data.draw(triangle_bases(n, entry, NONZERO_FRACTION))
        flag = Flag(vectors)
        perp = perp_flag(flag, g)

        def pairing(x, y):
            return sum(x[c] * y[g(c + 1) - 1] for c in range(n))

        # perp vector k pairs to 0 with every drawn flag vector but n-1-k
        # (0-based), and to a positive value with that one: a flag keeps no
        # scale, so its vectors are positive multiples of the drawn ones
        for k, w in enumerate(flag_vectors(perp)):
            pairs = [pairing(w, v) for v in vectors]
            assert pairs[n - 1 - k] > 0
            assert [p if j == n - 1 - k else 0 for j, p in enumerate(pairs)] == pairs
        assert perp_flag(perp, g).same_flag(flag)

    def test_perp_swaps_cells_up_to_evacuation(self):
        u = special_operator(2)
        g = bilinear_form(u)
        for sigma in fiber_permutations(u):
            flag = jordan_flag(sigma)
            assert cell_of(perp_flag(flag, g), u) == schuetzenberger(
                cell_prime_of(flag, u)
            )

    # perp_flag back-substitutes over the integers; the reduced row echelon
    # form of [P_k | e_k], P_k the flag's integer row k permuted, by
    # Gauss-Jordan over Fraction (reduced_perp_flag, "the rref route"), which
    # shares no code with the library, is the oracle, compared on the stored
    # integer form itself, so the perp vectors are compared exactly

    @staticmethod
    def assert_perp_matches_the_fraction_route(flag, g):
        perp, want = perp_flag(flag, g), reduced_perp_flag(flag, g)
        assert flag_rows(perp) == want._scaled

    @settings(max_examples=100, deadline=None)
    @given(integer_path_cases())
    def test_perp_vectors_equal_the_rref_route(self, case):
        u, flag = case
        g = bilinear_form(u)
        self.assert_perp_matches_the_fraction_route(flag, g)

    def test_perp_vectors_of_coordinate_and_chart_flags(self):
        for shape in (Partition((3, 2)), Partition((2, 2, 1)), Partition((3, 2, 2))):
            u = jordan_operator(column_superstandard(shape))
            g = bilinear_form(u)
            for sigma in fiber_permutations(u):
                flag = jordan_flag(sigma)
                self.assert_perp_matches_the_fraction_route(flag, g)
        g = bilinear_form(special_operator(2))
        for d in (3, 4):
            flag = phi_map(2, d, (Fraction(1, 2), 0, Fraction(-3, 4), 5))
            self.assert_perp_matches_the_fraction_route(flag, g)

    def test_perp_of_a_dependent_basis_is_degenerate(self):
        # _integer_flag trusts its caller; this basis, v = (1/2, 1/3) and 3v, is dependent on purpose
        flag = exactlin_module._integer_flag(((3, 2), (3, 2)), None)
        assert flag_rows(flag) == integer_form(((Fraction(1, 2), Fraction(1, 3)), (Fraction(3, 2), Fraction(1))))
        g = bilinear_form(jordan_operator(T("1,2")))
        for route in (perp_flag, reduced_perp_flag):
            with pytest.raises(AssertionError, match="^form is degenerate on the flag$"):
                route(flag, g)


# oracle of fiber_permutations
def brute_force_fiber_permutations(u) -> tuple[Permutation, ...]:
    """The n! filter: permutations placing each basis vector after its chain predecessor, sorted."""
    pred = {cur: prev for row in u.tableau.rows for prev, cur in zip(row, row[1:])}
    out = []
    for images in permutations(range(1, u.n + 1)):
        position = {v: i for i, v in enumerate(images)}
        if all(position[prev] < position[cur] for cur, prev in pred.items()):
            out.append(Permutation(images))
    return tuple(sorted(out))


class TestFiberPermutations:
    def test_matches_brute_force(self):
        # element by element, so the order is pinned too: every basis
        # tableau up to n = 6, two per shape at n = 7
        for n in range(1, 8):
            for shape in partitions_of(n):
                tabs = enumerate_tableaux(shape)
                for basis in tabs if n < 7 else {column_superstandard(shape), tabs[0]}:
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


def position_of(sigma, value):
    """The index that ``sigma`` maps to ``value``."""
    return sigma.images.index(value) + 1


class TestShuffles:
    def test_count(self):
        from math import factorial

        for k in (1, 2, 3):
            assert len(fiber_permutations(special_operator(k))) == factorial(2 * k + 1) // (
                factorial(k) * factorial(k)
            )

    def test_k1_is_all_of_s3(self):
        assert len(fiber_permutations(special_operator(1))) == 6

    def test_matches_generic_fiber_test(self):
        # independent oracle: choose the position of n, then the positions of
        # the odd chain among the other slots; the even chain fills the rest
        for k in (1, 2, 3, 4):
            n = 2 * k + 1
            expected = []
            for at_n in range(n):
                slots = [p for p in range(n) if p != at_n]
                for odd_slots in combinations(slots, k):
                    even_slots = [p for p in slots if p not in odd_slots]
                    images = [n] * n
                    for p, v in zip(odd_slots, range(1, n - 1, 2)):
                        images[p] = v
                    for p, v in zip(even_slots, range(2, n, 2)):
                        images[p] = v
                    expected.append(Permutation(images))
            assert fiber_permutations(special_operator(k)) == tuple(sorted(expected))

    def test_interleaves_the_two_chains(self):
        # the odd chain 1,3,..,n-2 and the even chain 2,4,..,n-1 appear in
        # order; with test_count this is every shuffle, once, sorted
        for k in (1, 2, 3):
            n = 2 * k + 1
            out = fiber_permutations(special_operator(k))
            assert list(out) == sorted(set(out))
            for sigma in out:
                odds = [position_of(sigma, v) for v in range(1, n - 1, 2)]
                evens = [position_of(sigma, v) for v in range(2, n, 2)]
                assert odds == sorted(odds) and evens == sorted(evens)

    def test_bound_checked_before_work(self):
        # k = 6 has n = 13 > DEFAULT_ENUM_BOUND; 12,012 shuffles if unbounded
        def timed_out(signum, frame):
            raise AssertionError("k = 6 ran past the bound check")

        previous = signal.signal(signal.SIGALRM, timed_out)
        signal.alarm(5)
        try:
            with pytest.raises(ValueError, match="bound"):
                fiber_permutations(special_operator(6))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


def fractions(rows):
    return [tuple(Fraction(x) for x in row) for row in rows]


class TestTriangularFlag:
    """The triangle proof of independence, and the bases it must reject."""

    def test_accepts_a_unit_triangle_in_any_order(self):
        order = [2, 0, 1]
        vectors = fractions([(0, 5, 1), (1, 4, 0), (0, 1, 0)])
        # in the order 2, 0, 1 the rows read (1, 0, 5), (0, 1, 4), (0, 0, 1)
        flag = _triangular_flag(_integer_rows(vectors), order)
        assert flag_vectors(flag) == tuple(vectors)
        assert len(gauss_jordan(vectors)[1]) == 3
        assert _triangular_flag((), ()).n == 0

    def test_accepts_a_diagonal_other_than_1(self):
        # a triangle needs only a nonzero diagonal: row i over its diagonal
        # entry is a unit triangle's vector i, and the flag answers as Flag of
        # the same rows, which eliminates, on every chart and every operator
        k, n = 2, 5
        shapes = [t for shape in partitions_of(n) for t in enumerate_tableaux(shape)]
        for d in range(3, k + 3):
            order = [p - 1 for p in special_perm(d, n).images]
            rows = []
            for i, diagonal in enumerate((2, -3, 1, 4, -1)):
                row = [0] * n
                row[order[i]] = diagonal
                for j, c in enumerate(order[i + 1 :]):
                    row[c] = (i + j) % 3 - 1
                rows.append(tuple(row))
            flag, plain = _triangular_flag(tuple(rows), order), Flag(fractions(rows))
            assert flag._order == tuple(order) and plain._order is None
            assert flag_rows(flag) == flag_rows(plain) == tuple(rows)
            assert flag_vectors(flag) == tuple(
                tuple(Fraction(x, row[order[i]]) for x in row) for i, row in enumerate(rows)
            )
            for e in range(3, k + 3):
                # the chart rows of the flag are its rows, read with no
                # elimination on its own chart; plain eliminates on every chart
                assert chart_outcome(chart_coords, flag, e) == chart_outcome(chart_coords, plain, e)
                assert chart_outcome(chart_coords, flag, e) == chart_outcome(chart_coords_by_rows, flag, e)
            assert _chart_rows(flag, d) == [tuple(row[c] for c in order) for row in rows]
            for t in shapes:
                u = jordan_operator(t)
                for question in (cell_of, cell_prime_of, in_springer_fiber):
                    assert outcome(question, flag, u) == outcome(question, plain, u)

    @pytest.mark.parametrize(
        "rows, order",
        [
            # dependent: vector 3 = vector 1 + vector 2, and it is 0 at its diagonal
            ([(1, 0, 0), (1, 1, 0), (2, 1, 0)], [0, 1, 2]),
            # dependent, with every vector 1 at its diagonal
            ([(0, 1, 1), (0, 1, 1), (1, 0, 0)], [1, 2, 0]),
            # independent, but not a triangle in this order
            ([(1, 0, 0), (1, 0, 1), (0, 1, 0)], [0, 1, 2]),
            ([(1, 0, 0), (1, 1, 0), (0, 0, 1)], [0, 1, 2]),
            ([(0, 1), (1, 0)], [0, 1]),
            # dependent, zero at its diagonal and at the coordinates before it
            ([(1, 2, 3), (0, 0, 5), (0, 0, 1)], [0, 1, 2]),
            # two vectors of a triangle swapped
            ([(1, 3, 0), (0, 0, 1), (0, 1, 4)], [0, 1, 2]),
        ],
        ids=[
            "dependent",
            "dependent-unit-diagonal",
            "not-triangle",
            "lower-triangle",
            "anti-diagonal",
            "zero-diagonal",
            "swapped",
        ],
    )
    def test_rejects(self, rows, order):
        with pytest.raises(ValueError, match="breaks the triangle"):
            _triangular_flag(_integer_rows(fractions(rows)), order)

    @pytest.mark.parametrize(
        "rows", [[(1, 0), (0, 1, 0)], [(1, 0, 0), (0, 1, 0)], [(1, 0), (0, 1), (0, 0)]]
    )
    def test_rejects_wrong_length(self, rows):
        # Flag checks each length before its elimination, which would find n pivots in the first two
        for build in (lambda v: _triangular_flag(_integer_rows(v), range(len(rows))), Flag):
            with pytest.raises(ValueError, match="^flag needs n vectors of length n$"):
                build(fractions(rows))

    def test_flag_keeps_its_elimination(self, monkeypatch):
        calls = counting(monkeypatch, "_eliminate")
        Flag(fractions([(1, 0), (0, 1)]))
        assert calls == [1]
        with pytest.raises(ValueError, match="^flag basis is linearly dependent$"):
            Flag(fractions([(1, 0), (2, 0)]))
        calls.clear()
        _triangular_flag(((1, 0), (0, 1)), [0, 1])
        assert calls == []


class TestSharedZero:
    def test_zero_multiple_is_shared(self):
        a = (Fraction(1), _ZERO, Fraction(-2, 3))
        for c in (0, Fraction(0), Fraction(1) - Fraction(1)):
            assert all(x is _ZERO for x in vec_scale(c, a))
        assert vec_scale(Fraction(2), a)[1] is _ZERO


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
        phi = chart_coords(special_flag(4, 2), 4)
        assert phi and all(x == 0 for x in phi.values())

    def test_special_basis_tableau(self):
        assert special_basis_tableau(2) == T("1,3/2,4/5")
        assert special_basis_tableau(3) == T("1,3,5/2,4,6/7")


def chart_flag(d, n, phi):
    """The flag with chart coordinates ``phi`` around (d) in dimension n, the inverse of ``chart_coords``.

    Chart vector i is the i-th permuted unit vector plus phi(i, j) times
    the j-th one for every j > i.
    """
    perm = special_perm(d, n)
    vectors = []
    for i in range(1, n + 1):
        v = list(unit_vector(n, perm(i)))
        for j in range(i + 1, n + 1):
            coeff = phi.get((i, j), Fraction(0))
            if coeff:
                v[perm(j) - 1] += coeff
        vectors.append(tuple(v))
    return Flag(vectors)


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
                assert chart_coords(chart_flag(d, n, phi), d) == phi

    def test_coords_invariant_under_prefix_changes(self):
        # replacing each basis vector by a combination of earlier ones plus a
        # nonzero multiple of itself keeps the flag, hence the coordinates
        # the second chart point has zero coordinates, which the
        # elimination must carry past
        for zeros in ((), ((1, 2), (1, 5), (2, 4), (3, 4))):
            phi = {
                (i, j): Fraction(0) if (i, j) in zeros else Fraction(j - i, i + j)
                for i in range(1, 6)
                for j in range(i + 1, 6)
            }
            flag = chart_flag(3, 5, phi)
            mixed = []
            for i, v in enumerate(flag_vectors(flag)):
                w = vec_scale(Fraction(i + 2, 3), v)
                for p in range(i):
                    w = vec_add(w, vec_scale(Fraction(1, p + 5), flag_vectors(flag)[p]))
                mixed.append(w)
            assert chart_coords(Flag(mixed), 3) == phi

    def test_outside_chart(self):
        # V_1 spanned by e_3 has no pivot at position (d)(1) = e_1
        flag = jordan_flag(Permutation((3, 2, 5, 1, 4)))
        with pytest.raises(ChartError):
            chart_coords(flag, 3)

    def test_outside_chart_at_a_later_pivot(self):
        # (3)(1..5) is 1, 2, 5, 3, 4; both flags leave the chart at pivot 2
        # (position 3 of the permuted coordinates), not at the first
        d, perm = 3, special_perm(3, 5)
        # row 2 is zero in column 2 from the start, and row 3 takes column 2
        zero_entry = [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 0, 1, 0], [0, 0, 1, 0, 0], [0, 0, 0, 0, 1]]
        # row 2 is nonzero in column 2, but the leading 3 x 3 minor is 0
        # (row 2 = row 0 + row 1 there), so row 4 takes column 2
        cancelled = [[1, 0, 1, 0, 0], [0, 1, 1, 2, 0], [1, 1, 2, 0, 1], [0, 0, 0, 1, 0], [0, 0, 1, 0, 1]]
        for permuted, late_row in ((zero_entry, 3), (cancelled, 4)):
            flag = unpermuted_flag(permuted, perm)
            assert rank_profile(permuted_rows(flag, perm))[0][:3] == ((0, 0), (1, 1), (late_row, 2))
            with pytest.raises(ChartError):
                chart_coords(flag, d)
            with pytest.raises(ChartError):
                chart_coords_by_rows(flag, d)


def permuted_rows(flag, perm):
    return [[v[perm(j) - 1] for j in range(1, flag.n + 1)] for v in flag_vectors(flag)]


def unpermuted_flag(permuted, perm):
    """The flag whose rows in the coordinate order of ``perm`` are ``permuted``."""
    n = len(permuted)
    vectors = [[Fraction(0)] * n for _ in permuted]
    for v, row in zip(vectors, permuted):
        for j, x in enumerate(row):
            v[perm(j + 1) - 1] = Fraction(x)
    return Flag(vectors)


# oracle of _chart_rows and _chart_value on both routes
def chart_coords_by_rows(flag, d):
    """The chart coordinates row by row, an oracle for ``chart_coords``.

    Row i of the permuted flag, less its multiples of the earlier chart
    vectors eta_j (j < i), must be nonzero at i; divided by that entry it is
    eta_i, and its entries to the right are the coordinates.
    """
    n = flag.n
    rows = permuted_rows(flag, special_perm(d, n))
    etas = []
    for i in range(n):
        row = list(rows[i])
        for j, eta in enumerate(etas):
            if row[j] != 0:
                f = row[j]
                row = [a - f * b for a, b in zip(row, eta)]
        if row[i] == 0:
            raise ChartError(f"row {i} vanishes at its pivot")
        etas.append([x / row[i] for x in row])
    return {(i + 1, j + 1): etas[i][j] for i in range(n) for j in range(i + 1, n)}


def chart_outcome(chart, flag, d):
    try:
        return chart(flag, d)
    except ChartError:
        return ChartError


class TestChartMatchesRowOracle:
    """``chart_coords`` against the row-by-row reduction, on and off the chart."""

    def check(self, flag, d, expected=None):
        phi = chart_outcome(chart_coords, flag, d)
        assert phi == chart_outcome(chart_coords_by_rows, flag, d)
        if expected is not None:
            assert phi == expected

    def test_chart_flag_round_trips(self):
        import random

        rng = random.Random(11)
        for k in (1, 2, 3):
            n = 2 * k + 1
            for d in range(3, k + 3):
                for _ in range(4):
                    phi = {
                        (i, j): Fraction(rng.randint(-9, 9), rng.randint(1, 7)) if rng.random() < 0.7 else Fraction(0)
                        for i in range(1, n + 1)
                        for j in range(i + 1, n + 1)
                    }
                    self.check(chart_flag(d, n, phi), d, phi)

    def test_dense_phi_map_flags_on_every_chart(self):
        # phi_map(k, d, ps) lies on chart d; the other charts may or may not hold it
        for k in (2, 3, 4):
            for d in range(3, k + 3):
                for ps in ((2, 3, 5, 7, 11, 13)[: k + 2], (Fraction(1, 3), -2, Fraction(5, 7), 1, 4, 0)[: k + 2]):
                    flag = phi_map(k, d, ps)
                    for chart in range(3, k + 3):
                        self.check(flag, chart)

    def test_coordinate_flags_on_and_off_the_chart(self):
        # every shuffle flag of (2,2,1) and (3,3,1) on every chart: the
        # special one is on it, most others are not
        outcomes = set()
        for k in (2, 3):
            for sigma in fiber_permutations(special_operator(k)):
                for d in range(3, k + 3):
                    self.check(jordan_flag(sigma), d)
                    outcomes.add(chart_outcome(chart_coords, jordan_flag(sigma), d) is ChartError)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("k", [1, 2])
    def test_every_coordinate_flag_matches_its_reference(self, k):
        # every permutation of n = 3 and 5 on every chart, in it or off it:
        # chart_coords as of Flag of the same unit vectors
        n = 2 * k + 1
        for images in permutations(range(1, n + 1)):
            reference = Flag([unit_vector(n, i) for i in images])
            for d in range(3, k + 3):
                self.check(jordan_flag(Permutation(images)), d, chart_outcome(chart_coords, reference, d))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_sparse_flags(self, data):
        k = data.draw(st.integers(min_value=1, max_value=3))
        n = 2 * k + 1
        vectors = data.draw(triangle_bases(n, SPARSE_ENTRY, SPARSE_PIVOT))
        self.check(Flag(vectors), data.draw(st.integers(min_value=3, max_value=k + 2)))


class TestChartTriangleRoute:
    """A flag kept in the chart's triangle order gives its chart rows with no elimination, and the same coordinates."""

    @pytest.mark.parametrize("k", range(1, 7))
    def test_chart_families_match_the_elimination(self, monkeypatch, k):
        # the default tuples, the zero tuple and the mixed tuple of verify_smooth_chart
        tuples = (*default_chart_parameters(k), (0,) * (k + 2), tuple(i % 2 for i in range(k + 2)))
        calls = counting(monkeypatch, "_eliminate")
        for d in range(3, k + 3):
            for ps in tuples:
                flag = phi_map(k, d, ps)
                plain = Flag(flag_vectors(flag))
                assert plain._order is None
                del calls[:]
                phi = chart_coords(flag, d)
                assert calls == []
                assert phi == chart_coords(plain, d) == chart_coords_by_rows(flag, d)
                assert calls == [1]
                # the rows are the flag's own integer rows, permuted into the
                # chart's order; the Fraction route's vector i is 1 at column i,
                # so the row's entry there is the lcm of that vector's denominators
                rows = _chart_rows(flag, d)
                order = [p - 1 for p in special_perm(d, flag.n).images]
                assert [list(row) for row in rows] == [[v[c] for c in order] for v in flag._scaled]
                etas = chart_etas(k, d, ps)
                assert [row[i] for i, row in enumerate(rows)] == [lcm(*(x.denominator for x in v)) for v in etas]

    @pytest.mark.parametrize("t", [(1, 1, 1, 2, 1, 1), (Fraction(1, 2), 0, 3, -1, 2, 5), (2, -1, 1, 3, Fraction(1, 3), 1)])
    def test_a_triangle_in_another_order_still_eliminates(self, monkeypatch, t):
        # the (3,2,2) membership flags are unit triangles in plain order, which
        # is no chart order of n = 7
        t = tuple(map(Fraction, t))
        f = f_entries(t)
        columns = [[f.get((i, j), Fraction(i == j)) for i in range(1, 8)] for j in range(1, 8)]
        flag = _triangular_flag(_integer_rows(columns), range(7))
        assert flag._order == tuple(range(7))
        calls = counting(monkeypatch, "_eliminate")
        for d in range(3, 6):
            del calls[:]
            outcome = chart_outcome(chart_coords, flag, d)
            assert calls == [1]
            assert outcome == chart_outcome(chart_coords, Flag(columns), d) == chart_outcome(chart_coords_by_rows, flag, d)

    def test_coordinate_flags_take_the_route_only_at_their_own_chart(self, monkeypatch):
        # a coordinate flag's triangle order is its permutation: the special
        # flag (d) is on chart d, its rows the identity and its coordinates 0,
        # and every other flag is off it, raising ChartError as Flag of its
        # vectors does; no coordinate flag eliminates
        calls = counting(monkeypatch, "_eliminate")
        off = 0
        for k in (2, 3):
            n = 2 * k + 1
            for sigma in fiber_permutations(special_operator(k)):
                flag = jordan_flag(sigma)
                assert flag._scaled is None and flag._order == tuple(p - 1 for p in sigma.images)
                plain = Flag(flag_vectors(flag))
                for d in range(3, k + 3):
                    del calls[:]
                    outcome = chart_outcome(chart_coords, flag, d)
                    assert calls == []
                    if sigma == special_perm(d, n):
                        assert set(outcome.values()) == {0}
                        assert [list(row) for row in _chart_rows(flag, d)] == [[int(i == j) for j in range(n)] for i in range(n)]
                    else:
                        assert outcome is ChartError
                        with pytest.raises(ChartError, match=rf"^flag lies outside the chart around the special flag \({d}\)$"):
                            _chart_rows(flag, d)
                    assert calls == []
                    assert outcome == chart_outcome(chart_coords, plain, d)
                    off += outcome is ChartError
        assert off


def degenerate_to_special(sigma, k):
    """Drive a shuffle permutation to its terminal special form, in closed form.

    First, while the largest value sits before 1 or 2, swap it with that
    value (each swap moves it later).  Then bubble the values 1..n-1 into
    increasing position order; the largest value never moves again.  So the
    terminal permutation is 1..d-1, n, d..n-1, where d, the last position
    that n reaches, is the largest of the positions of 1, 2 and n.
    """
    n = 2 * k + 1
    if sigma.n != n:
        raise ValueError(f"permutation degree {sigma.n} does not match n={n}")
    odds = [position_of(sigma, v) for v in range(1, n - 1, 2)]
    evens = [position_of(sigma, v) for v in range(2, n, 2)]
    if odds != sorted(odds) or evens != sorted(evens):
        raise ValueError("permutation is not a shuffle of the two chains")
    d = max(position_of(sigma, v) for v in (1, 2, n))
    return Permutation(tuple(range(1, d)) + (n,) + tuple(range(d, n)))


def degenerate_by_swaps(sigma, k):
    """The degeneration as a swap simulation, an oracle for the closed form.

    While the largest value sits before 1 or 2 it is swapped with that
    value; then the values 1..n-1 are bubbled into increasing position order.
    """
    n = 2 * k + 1
    images = list(sigma.images)

    def swap_values(a, b):
        pa, pb = images.index(a), images.index(b)
        images[pa], images[pb] = images[pb], images[pa]

    changed = True
    while changed:
        changed = False
        for i in (1, 2):
            if images.index(n) < images.index(i):
                swap_values(i, n)
                changed = True
    changed = True
    while changed:
        changed = False
        for i in range(2, n):
            if images.index(i - 1) > images.index(i):
                swap_values(i - 1, i)
                changed = True
    return Permutation(images)


class TestDegeneration:
    def test_matches_swap_simulation(self):
        checked = 0
        for k in range(1, 6):
            for sigma in fiber_permutations(special_operator(k)):
                assert degenerate_to_special(sigma, k) == degenerate_by_swaps(sigma, k), sigma
                checked += 1
        assert checked == 3578

    def test_fixed_points(self):
        for k, d in ((2, 3), (2, 4), (3, 5)):
            sigma = special_perm(d, 2 * k + 1)
            assert degenerate_to_special(sigma, k) == sigma

    def test_k1_exhaustive(self):
        sigmas = fiber_permutations(special_operator(1))
        terminal = {degenerate_to_special(s, 1).images for s in sigmas}
        assert terminal == {(1, 2, 3)}

    def test_terminal_special_form(self):
        for k in (2, 3):
            n = 2 * k + 1
            for sigma in fiber_permutations(special_operator(k)):
                t = degenerate_to_special(sigma, k)
                d = position_of(t, n)
                assert d >= 3
                assert t.images == tuple(range(1, d)) + (n,) + tuple(range(d, n))

    def test_terminal_position_fixed_after_first_reduction(self):
        # the bubble phase never moves the largest value, so the terminal d is
        # the position of n once it has passed the positions of 1 and 2
        for k in (2, 3):
            n = 2 * k + 1
            for sigma in fiber_permutations(special_operator(k)):
                t = degenerate_to_special(sigma, k)
                expected = max(position_of(sigma, n), position_of(sigma, 1), position_of(sigma, 2))
                assert position_of(t, n) == expected

    def test_kernel_bound_consistency(self):
        # whenever the terminal form is (d) with d <= k+2, the first reduction
        # phase alone already placed the largest value at position d <= k+2
        for k in (2, 3, 4):
            n = 2 * k + 1
            for sigma in fiber_permutations(special_operator(k)):
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
                d = position_of(degenerate_to_special(sigma, k), n)
                assert after_a == d
                if d <= k + 2:
                    assert after_a <= k + 2

    def test_rejects_non_shuffle(self):
        with pytest.raises(ValueError):
            degenerate_to_special(Permutation((3, 1, 2, 5, 4)), 2)


class TestPermutation:
    @pytest.mark.parametrize(
        "images",
        [(1, 2.9), (1, 2.0), (1, Fraction(2)), (1, "2"), (True, 2), (1, False)],
        ids=["float", "integral-float", "fraction", "string", "true", "false"],
    )
    def test_images_must_be_ints(self, images):
        # a bool is rejected too: True would otherwise be read as the position 1
        with pytest.raises(TypeError, match="^permutation images must be ints: "):
            Permutation(images)

    def test_inverse_and_parse(self):
        p = Permutation.parse("1,2,5,3,4")
        inverse = [0] * p.n
        for i, v in enumerate(p.images, start=1):
            inverse[v - 1] = i
        assert tuple(inverse) == (1, 2, 4, 5, 3)
        assert str(p) == "1,2,5,3,4"
        with pytest.raises(ValueError):
            Permutation((1, 1, 2))

    @pytest.mark.parametrize("n", range(5))
    def test_parse_reads_back_its_own_text(self, n):
        # the empty permutation prints as "", which parses back, blanks around it too
        for images in permutations(range(1, n + 1)):
            p = Permutation(images)
            assert Permutation.parse(str(p)) == p
            assert Permutation.parse(f" {p} ") == p

    def test_order_with_a_foreign_type_is_a_type_error(self):
        # permutations order by their images, and anything else is left to Python
        p = Permutation((1, 2))
        assert p < Permutation((2, 1)) and not Permutation((2, 1)) < p
        for other in ((1, 2), [1, 2], "1,2", 1):
            with pytest.raises(TypeError, match="not supported between instances"):
                p < other
            with pytest.raises(TypeError, match="not supported between instances"):
                other > p

    @pytest.mark.parametrize("i", [0, -1, 4, 5])
    def test_call_outside_1_to_n(self, i):
        p = Permutation((2, 3, 1))
        assert [p(j) for j in (1, 2, 3)] == [2, 3, 1]
        with pytest.raises(ValueError, match=f"^{i} is outside 1..3$"):
            p(i)
