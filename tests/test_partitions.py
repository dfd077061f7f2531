from itertools import permutations as iter_permutations
from math import comb

import pytest
from hypothesis import given, strategies as st

from springerfiber.partitions import Partition, SmoothnessVerdict, partitions_of


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


class TestColumnBlock:
    def block_oracle(self, parts, i, j):
        # transpose by hand: slice the column lengths, transpose back via cells
        cols = transpose_oracle(parts)[i - 1 : j]
        return transpose_oracle(cols)

    def test_single_column(self):
        assert Partition((3, 2, 2)).column_block(1, 1) == Partition((1, 1, 1))

    def test_inner_block(self):
        # oracle: conjugate of (3,1) is (2,1,1)
        assert self.block_oracle((3, 2, 2), 2, 3) == (2, 1, 1)
        assert Partition((3, 2, 2)).column_block(2, 3) == Partition((2, 1, 1))

    def test_two_row_block(self):
        assert self.block_oracle((4, 2), 1, 2) == (2, 2)
        assert Partition((4, 2)).column_block(1, 2) == Partition((2, 2))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            Partition((3, 2, 2)).column_block(1, 4)


class TestPrefixSum:
    def test_examples(self):
        assert Partition((3, 2, 2)).prefix_sum(1) == 3
        assert Partition((3, 2, 2)).prefix_sum(3) == 7
        assert Partition((2, 2, 1, 1)).prefix_sum(1) == 4

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            Partition((3, 2, 2)).prefix_sum(0)
        with pytest.raises(ValueError):
            Partition((3, 2, 2)).prefix_sum(4)


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
