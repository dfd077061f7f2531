import pytest

from springerfiber.eqsmoves import (
    MoveError,
    MoveLabel,
    block_move,
    c_inverse,
    c_move,
    cut_points,
    dist_class_invariant,
    eqs_class,
    eqs_partition,
    legal_moves,
    partition_report,
)
from springerfiber.partitions import Partition, partitions_of
from springerfiber.tableaux import (
    concat,
    dist,
    enumerate_tableaux,
    make_P,
    make_P_shift,
    make_Q,
    parse_tableau,
    schuetzenberger,
)

T = parse_tableau


def union_find_classes(shape):
    """Classes of a shape by merging every ``legal_moves`` edge in a union-find.

    Returns (members sorted by row word, representative) per class, classes
    ordered by representative row word.
    """
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tabs = enumerate_tableaux(shape)
    for t in tabs:
        parent[t] = t
    for t in tabs:
        for _, v in legal_moves(t):
            parent[find(v)] = find(t)
    groups = {}
    for t in tabs:
        groups.setdefault(find(t), []).append(t)
    classes = [tuple(sorted(g, key=lambda x: x.row_word())) for g in groups.values()]
    classes.sort(key=lambda members: members[0].row_word())
    return [(members, members[0]) for members in classes]


class TestCyclicMove:
    def test_worked_example(self):
        assert (
            c_move(T("1,2,4/3,6,8/5,7,10/9,11")).text() == "1,3,7/2,5,9/4,6,11/8,10"
        )

    def test_three_cycle(self):
        t = T("1,2,5/3,4,6")
        s = c_move(t)
        assert s.text() == "1,3,4/2,5,6"
        u = c_move(s)
        assert u.text() == "1,2,3/4,5,6"
        assert c_move(u) == t

    def test_inapplicable(self):
        with pytest.raises(MoveError):
            c_move(T("1,3,4/2"))

    def test_single_column_fixed_point(self):
        t = T("1/2/3")
        assert c_move(t) == t
        assert c_inverse(t) == t


class TestCyclicInverse:
    def test_worked_examples(self):
        assert c_inverse(T("1,2,3/4,5,6")).text() == "1,3,4/2,5,6"
        assert (
            c_inverse(T("1,3,7/2,5,9/4,6,11/8,10")).text() == "1,2,4/3,6,8/5,7,10/9,11"
        )

    def test_inapplicable(self):
        # largest entry must close the leading block of maximal-length rows
        with pytest.raises(MoveError):
            c_inverse(T("1,2,3/4,5/6"))

    def test_round_trips_exhaustive(self):
        for n in range(1, 9):
            for shape in partitions_of(n):
                for t in enumerate_tableaux(shape):
                    try:
                        s = c_move(t)
                    except MoveError:
                        continue
                    assert c_inverse(s) == t
                    assert c_move(c_inverse(s)) == s


class TestCutPoints:
    def test_examples(self):
        assert cut_points(T("1,2,5/3,4,6")) == (0, 2, 3)
        # every prefix-closed column run counts: the first column of 1,3/2,4
        # holds exactly {1,2}
        assert cut_points(T("1,3/2,4")) == (0, 1, 2)
        assert cut_points(T("1/2/3")) == (0, 1)

    def test_definition(self):
        for shape in (Partition((3, 2, 1)), Partition((2, 2, 2))):
            for t in enumerate_tableaux(shape):
                pts = cut_points(t)
                m = shape.num_columns
                assert pts[0] == 0 and pts[-1] == m
                for i in range(1, m):
                    # boxes in the first i columns
                    boxes = sum(min(part, i) for part in shape.parts)
                    expected = t.entry(1, i + 1) == boxes + 1
                    assert (i in pts) == expected


class TestBlockMove:
    def test_worked_example(self):
        t = T("1,2,5/3,4,6")
        assert block_move(t, MoveLabel("C", (1, 2))).text() == "1,3,5/2,4,6"

    def test_whole_tableau_block_is_plain_move(self):
        for shape in (Partition((3, 2)), Partition((2, 2, 1))):
            m = shape.num_columns
            for t in enumerate_tableaux(shape):
                label = MoveLabel("SchBlock", (1, m))
                assert block_move(t, label) == schuetzenberger(t)
                try:
                    moved = c_move(t)
                except MoveError:
                    moved = None
                if moved is not None:
                    assert block_move(t, MoveLabel("C", (1, m))) == moved

    def test_not_a_block(self):
        t = T("1,2,5/3,4,6")
        with pytest.raises(MoveError):
            block_move(t, MoveLabel("SchBlock", (2, 3)))

    def test_label_validation(self):
        with pytest.raises(ValueError):
            MoveLabel("Evac", (1, 2))
        with pytest.raises(ValueError):
            MoveLabel("C", (2, 2))


class TestEqsClass:
    def test_contains_cycle_and_block_neighbours(self):
        cls = eqs_class(T("1,2,5/3,4,6"))
        texts = {m.text() for m in cls.members}
        assert "1,3,5/2,4,6" in texts
        assert "1,2,3/4,5,6" in texts

    def test_two_row_single_class(self):
        for r in range(1, 6):
            for s in range(1, r + 1):
                if r + s > 7:
                    continue
                classes = eqs_partition(Partition((r, s)))
                assert len(classes) == 1
                assert make_P(r, s) in classes[0].members

    def test_single_column_trivial_class(self):
        cls = eqs_class(T("1/2"))
        assert cls.size == 1

    def test_membership_is_symmetric(self):
        # closing from any member reproduces the same class
        for n in range(1, 8):
            for shape in partitions_of(n):
                for t in enumerate_tableaux(shape):
                    cls = eqs_class(t)
                    for member in cls.members:
                        assert set(eqs_class(member).members) == set(cls.members)

    def test_representative_minimal_by_row_word(self):
        cls = eqs_class(T("1,2,5/3,4,6"))
        assert cls.representative.row_word() == min(
            m.row_word() for m in cls.members
        )

    def test_bound(self):
        with pytest.raises(ValueError):
            eqs_class(T("1,2,5/3,4,6"), max_n=5)


class TestEqsPartition:
    def test_r_r_1_class_counts(self):
        for r in (1, 2, 3):
            classes = eqs_partition(Partition((r, r, 1)))
            assert len(classes) == r
            for k in range(1, r + 1):
                target = concat(make_Q(k), make_P_shift(r - k, 2 * k + 1))
                hits = [c for c in classes if target in c.members]
                assert len(hits) == 1
                assert hits[0].dist == k

    def test_matches_union_find_oracle(self):
        for n in range(1, 9):
            for shape in partitions_of(n):
                classes = [(c.members, c.representative) for c in eqs_partition(shape)]
                assert classes == union_find_classes(shape)

    def test_pinned_class_counts(self):
        # the library's counts when the benchmark was introduced
        for parts, count in (((3, 2, 2), 8), ((4, 3, 1), 11)):
            shape = Partition(parts)
            assert len(eqs_partition(shape)) == count
            assert len(union_find_classes(shape)) == count

    def test_partition_covers_all_tableaux(self):
        shape = Partition((2, 2, 1))
        classes = eqs_partition(shape)
        members = [m for cls in classes for m in cls.members]
        assert sorted(members) == sorted(enumerate_tableaux(shape))

    def test_report_format(self):
        rep = partition_report(Partition((2, 2, 1)))
        assert rep["shape"] == "2,2,1"
        assert rep["class_count"] == 2
        assert {c["dist"] for c in rep["classes"]} == {1, 2}
        assert all(set(c) <= {"representative", "size", "dist"} for c in rep["classes"])


class TestDistInvariant:
    def test_small_shapes_pass(self):
        for text in ("2,2,1", "3,2,1"):
            report = dist_class_invariant(Partition.parse(text))
            assert report["ok"]
            assert report["violations"] == []

    def test_r_classes(self):
        for r in (1, 2, 3):
            report = dist_class_invariant(Partition((r, r, 1)))
            assert report["ok"]
            assert report["class_count"] == r

    def test_requires_one_box_third_row(self):
        with pytest.raises(ValueError):
            dist_class_invariant(Partition((3, 2)))


class TestDistPreservation:
    def test_second_statistic_drops_under_cyclic_move(self):
        # when the move applies on shape (r,s,1) with r > 1, the third-row
        # entry and the preceding descent both drop by one
        from springerfiber.tableaux import j_stat

        for r in range(2, 5):
            for s in range(1, r + 1):
                if r + s + 1 > 8:
                    continue
                for t in enumerate_tableaux(Partition((r, s, 1))):
                    try:
                        moved = c_move(t)
                    except MoveError:
                        continue
                    assert moved.entry(3, 1) == t.entry(3, 1) - 1
                    assert j_stat(moved) == j_stat(t) - 1
                    assert dist(moved) == dist(t)
