from itertools import chain, combinations, permutations as iter_permutations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from springerfiber.exactlin import Permutation
from springerfiber.partitions import Partition, SmoothnessVerdict, integer, partitions_of
from springerfiber.tableaux import parse_tableau


def transpose_oracle(parts):
    """Independent conjugation: count cells column by column from the cell set."""
    cells = {(i, j) for i, p in enumerate(parts) for j in range(p)}
    width = max(parts, default=0)
    return tuple(sum(1 for (i, j) in cells if j == col) for col in range(width))


def brute_force_tableau_count(parts):
    """Count standard fillings by brute force over permutations (n <= 7 only)."""
    n = sum(parts)
    cells = [(i, j) for i, p in enumerate(parts) for j in range(p)]
    count = 0
    for perm in iter_permutations(range(1, n + 1)):
        grid = {cell: value for cell, value in zip(cells, perm)}
        ok = all(
            grid[(i, j)] < grid[(i, j + 1)]
            for (i, j) in cells
            if (i, j + 1) in grid
        ) and all(
            grid[(i, j)] < grid[(i + 1, j)]
            for (i, j) in cells
            if (i + 1, j) in grid
        )
        count += ok
    return count


class TestConstruction:
    def test_parse_round_trip(self):
        assert str(Partition.parse("3,2,2")) == "3,2,2"
        assert Partition.parse("") == Partition(())
        assert Partition.parse("3,2,2").to_json() == [3, 2, 2]

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            Partition((2, 3))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Partition((3, 0))


class TestIntegerText:
    def test_sign_digits_and_whitespace(self):
        assert integer(" -12 ") == -12
        assert integer("+7") == 7
        assert integer("007") == 7

    @pytest.mark.parametrize("text", ["", " ", "1_0", "\uff12", "\u0663", "1.5", "--1", "0x1", "1 2"])
    def test_rejects_what_int_alone_would_take(self, text):
        with pytest.raises(ValueError):
            integer(text)

    def test_every_text_form_reads_ascii_integers(self):
        # int() reads each of these as the digits without the underscore
        for parse, text in (
            (Partition.parse, "3,2,0_2"),
            (Permutation.parse, "1,0_2,3"),
            (parse_tableau, "1_0,1_1/1_2"),
            (Partition.parse, "\uff12"),
        ):
            with pytest.raises(ValueError):
                parse(text)
        assert parse_tableau(" 1, 2 / 3 ").text() == "1,2/3"
        assert Permutation.parse(" 2, 1 ").images == (2, 1)


class TestConjugate:
    def test_examples(self):
        assert Partition((3, 2, 2)).conjugate() == Partition((3, 3, 1))
        assert Partition(()).conjugate() == Partition(())
        assert Partition((4, 4, 1)).conjugate() == Partition((3, 2, 2, 2))

    def test_matches_cell_transpose_oracle(self):
        for n in range(9):
            for p in partitions_of(n):
                assert p.conjugate().parts == transpose_oracle(p.parts)

    def test_involution(self):
        for n in range(11):
            for p in partitions_of(n):
                assert p.conjugate().conjugate() == p


class TestSpringerDim:
    def test_pinned_values(self):
        assert Partition((3, 2, 2)).springer_dim() == 6
        assert Partition((2, 2, 1, 1)).springer_dim() == 7
        assert Partition((5, 5, 1)).springer_dim() == 7

    def test_k_k_1_family(self):
        for k in range(1, 11):
            assert Partition((k, k, 1)).springer_dim() == k + 2

    def test_order_free_in_columns(self):
        # the dimension only depends on the multiset of column lengths
        for n in range(9):
            for p in partitions_of(n):
                conj = p.conjugate()
                assert p.springer_dim() == sum(c * (c - 1) // 2 for c in conj)

    def test_column_formula(self):
        # sum of C(c, 2) over the column lengths c, read off the cells
        for n in range(13):
            for p in partitions_of(n):
                columns = transpose_oracle(p.parts)
                assert p.springer_dim() == sum(comb(c, 2) for c in columns)


class TestClassify:
    def test_examples(self):
        assert Partition((5, 1, 1)).classify_smooth() is SmoothnessVerdict.HOOK
        assert Partition((2, 2, 1, 1)).classify_smooth() is SmoothnessVerdict.HAS_SINGULAR
        assert Partition((2, 2, 2)).classify_smooth() is SmoothnessVerdict.TWO_TWO_TWO

    def test_priority_edges(self):
        assert Partition(()).classify_smooth() is SmoothnessVerdict.HOOK
        assert Partition((1,)).classify_smooth() is SmoothnessVerdict.HOOK
        assert Partition((4, 1)).classify_smooth() is SmoothnessVerdict.HOOK
        assert Partition((4, 1, 1)).classify_smooth() is SmoothnessVerdict.HOOK
        assert Partition((4, 2)).classify_smooth() is SmoothnessVerdict.TWO_ROW
        assert Partition((4, 2, 1)).classify_smooth() is SmoothnessVerdict.TWO_ROW_PLUS_BOX

    def test_smooth_flag(self):
        assert Partition((2, 2)).classify_smooth().smooth
        assert not Partition((3, 2, 2)).classify_smooth().smooth

    def test_sufficient_singularity_condition(self):
        # lambda_2 >= 2 together with (k >= 4, or k = 3 with lambda_1 >= 3 and
        # lambda_3 >= 2) forces a singular component, and smooth shapes never
        # satisfy it
        for n in range(13):
            for p in partitions_of(n):
                parts = p.parts
                sufficient = (
                    len(parts) >= 2
                    and parts[1] >= 2
                    and (
                        len(parts) >= 4
                        or (len(parts) == 3 and parts[0] >= 3 and parts[2] >= 2)
                    )
                )
                verdict = p.classify_smooth()
                if sufficient:
                    assert verdict is SmoothnessVerdict.HAS_SINGULAR, p
                if verdict is not SmoothnessVerdict.HAS_SINGULAR:
                    assert not sufficient, p


class TestRs1:
    def test_agrees_with_classifier_and_dist_domain(self):
        # every partition with n <= 12: the classifier reports TwoRowPlusBox
        # exactly for the (r,s,1) shapes that are no hook (r,1,1), and dist
        # is defined exactly on the (r,s,1) shapes
        from springerfiber.tableaux import column_superstandard, dist

        for n in range(13):
            for p in partitions_of(n):
                expected = len(p) == 3 and p[2] == 1
                assert p.is_rs1 is expected, p
                verdict = p.classify_smooth()
                assert (verdict is SmoothnessVerdict.TWO_ROW_PLUS_BOX) == (
                    expected and p[1] > 1
                ), p
                t = column_superstandard(p)
                if expected:
                    assert dist(t) >= 1, p
                else:
                    with pytest.raises(ValueError, match=r"needs shape \(r,s,1\)"):
                        dist(t)


class TestCountTableaux:
    def test_single_row(self):
        for n in range(9):
            if n:
                assert Partition((n,)).count_tableaux() == 1

    def test_brute_force_oracle(self):
        # frozen values computed by the permutation oracle
        assert brute_force_tableau_count((2, 2, 1, 1)) == 9
        assert Partition((2, 2, 1, 1)).count_tableaux() == 9
        assert brute_force_tableau_count((3, 3)) == 5
        assert Partition((3, 3)).count_tableaux() == 5

    def test_oracle_small_shapes(self):
        for n in range(7):
            for p in partitions_of(n):
                assert p.count_tableaux() == brute_force_tableau_count(p.parts), p


@given(st.lists(st.integers(min_value=1, max_value=8), min_size=0, max_size=6))
def test_conjugate_involution_property(parts):
    p = Partition(sorted(parts, reverse=True))
    assert p.conjugate().conjugate() == p
    assert p.conjugate().n == p.n


def test_partitions_of_counts():
    # partition numbers p(0)..p(12)
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]
    for n, want in enumerate(expected):
        assert sum(1 for _ in partitions_of(n)) == want


def compositions(n):
    """Every tuple of positive integers summing to ``n`` >= 1, one per set of cut points in 1..n-1."""
    for cuts in chain.from_iterable(combinations(range(1, n), k) for k in range(n)):
        bounds = (0, *cuts, n)
        yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


def test_partitions_of_order():
    # the non-increasing compositions, largest first part first
    assert [p.parts for p in partitions_of(0)] == [()]
    for n in range(1, 13):
        expected = sorted((c for c in compositions(n) if list(c) == sorted(c, reverse=True)), reverse=True)
        assert [p.parts for p in partitions_of(n)] == expected


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=5), st.data())
def test_a_float_or_bool_part_raises_and_the_equal_int_builds_the_value(parts, data):
    # Partition((2.5, 1)) used to truncate to (2, 1), and (True, 1) to (1, 1)
    parts = sorted(parts, reverse=True)
    i = data.draw(st.integers(min_value=0, max_value=len(parts) - 1))
    x = parts[i]
    for bad in (float(x), x + 0.5, True, False):
        with pytest.raises(TypeError, match="^partition parts must be ints: "):
            Partition(parts[:i] + [bad] + parts[i + 1 :])
    built = Partition(parts[:i] + [int(float(x))] + parts[i + 1 :])
    assert built.parts == tuple(parts) and all(type(p) is int for p in built.parts)


def test_order_with_a_foreign_type_is_a_type_error():
    # partitions order by their parts, and anything else is left to Python; equality keeps its tuple case
    p = Partition((1,))
    assert p < Partition((2,)) and not Partition((2,)) < p
    assert p == (1,)
    for other in ((1,), [1], "1", 1):
        with pytest.raises(TypeError, match="not supported between instances"):
            p < other
        with pytest.raises(TypeError, match="not supported between instances"):
            other > p
