import pytest

import springerfiber.tableaux as tableaux_module
from springerfiber.eqsmoves import (
    MOVE_KINDS,
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
    StandardTableau,
    Tableau,
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


# ---- oracle: the tableau-level moves, validating every intermediate tableau


def oracle_slide(t):
    """Slide the entry at (1,1) out; returns the slid Tableau and the vacated box."""
    rows = [list(row) for row in t.rows]
    r, c = 0, 0
    while True:
        right = rows[r][c + 1] if c + 1 < len(rows[r]) else None
        below = rows[r + 1][c] if r + 1 < len(rows) and c < len(rows[r + 1]) else None
        if right is None and below is None:
            break
        if below is None or (right is not None and right < below):
            rows[r][c] = right
            c += 1
        else:
            rows[r][c] = below
            r += 1
    del rows[r][c]
    return Tableau(row for row in rows if row), (r, c)


def oracle_evacuation(t):
    evacuated = [[0] * len(row) for row in t.rows]
    u = t
    for e in range(t.n, 0, -1):
        u, (r, c) = oracle_slide(u)
        evacuated[r][c] = e
    return StandardTableau(evacuated)


def oracle_c_move(t):
    if t.n == 0:
        raise MoveError("cyclic move undefined on the empty tableau")
    j = sum(len(row) == len(t.rows[0]) for row in t.rows)
    slid, hole = oracle_slide(t)
    if hole[0] != j - 1:
        raise MoveError(
            f"slide hole ended in row {hole[0] + 1}, not at the leading block row {j}"
        )
    rows = [[e - 1 for e in row] for row in slid.rows]
    if j - 1 == len(rows):
        rows.append([t.n])
    else:
        rows[j - 1].append(t.n)
    return StandardTableau(rows)


def oracle_c_inverse(t):
    if t.n == 0:
        raise MoveError("inverse cyclic move undefined on the empty tableau")
    n = t.n
    jr, jc = t.position_of(n)
    if len(t.rows[jr - 1]) != len(t.rows[0]):
        raise MoveError(f"entry {n} does not close the leading block of equal rows")
    rows = [[e + 1 for e in row] for row in t.rows]
    del rows[jr - 1][jc - 1]
    if not rows[jr - 1]:
        rows.pop(jr - 1)
    while len(rows) < jr:
        rows.append([])
    rows[jr - 1].append(None)
    r, c = jr - 1, jc - 1
    while (r, c) != (0, 0):
        left = rows[r][c - 1] if c > 0 else None
        above = rows[r - 1][c] if r > 0 else None
        if above is None or (left is not None and left > above):
            rows[r][c] = left
            c -= 1
        else:
            rows[r][c] = above
            r -= 1
    rows[0][0] = 1
    return StandardTableau(row for row in rows if row)


def oracle_cut_points(t):
    if not t.rows:
        return (0,)
    top = t.rows[0]
    points = [0]
    boxes = 0
    for i in range(1, len(top)):
        boxes += sum(1 for row in t.rows if len(row) >= i)
        if top[i] == boxes + 1:
            points.append(i)
    points.append(len(top))
    return tuple(points)


def oracle_block_move(t, label):
    a, b = label.columns
    m = len(t.rows[0]) if t.rows else 0
    if not 1 <= a < b <= m:
        raise MoveError(f"column range [{a},{b}] out of bounds for {m} columns")
    cps = oracle_cut_points(t)
    if a - 1 not in cps or b not in cps:
        raise MoveError(f"columns [{a},{b}] do not split off as a block")
    shift = t.rows[0][a - 1] - 1
    block = StandardTableau(
        tuple(e - shift for e in row[a - 1 : b]) for row in t.rows if len(row) >= a
    )
    move = {"C": oracle_c_move, "Cinv": oracle_c_inverse, "SchBlock": oracle_evacuation}
    moved = move[label.kind](block)
    lifted = [tuple(e + shift for e in row) for row in moved.rows]
    rows = []
    for q, row in enumerate(t.rows):
        middle = lifted[q] if q < len(lifted) else ()
        rows.append(row[: a - 1] + middle + row[b:])
    return StandardTableau(rows)


def oracle_legal_moves(t):
    cps = oracle_cut_points(t)
    out = []
    for x, left in enumerate(cps):
        for b in cps[x + 1 :]:
            if b == left + 1:
                continue
            for kind in MOVE_KINDS:
                label = MoveLabel(kind, (left + 1, b))
                try:
                    out.append((label, oracle_block_move(t, label)))
                except MoveError:
                    continue
    return tuple(out)


def outcome(move, *args):
    """The move's result, or the type and message of the ValueError it raises."""
    try:
        return move(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def count_validations(monkeypatch):
    """List that grows by one entry per ``_validate_rows`` call from now on."""
    calls = []
    validate = tableaux_module._validate_rows

    def counting(rows):
        calls.append(rows)
        validate(rows)

    monkeypatch.setattr(tableaux_module, "_validate_rows", counting)
    return calls


class TestRowLevelMovesMatchOracle:
    def test_every_tableau_up_to_eight_boxes(self):
        for n in range(9):
            for shape in partitions_of(n):
                m = shape.num_columns
                for t in enumerate_tableaux(shape):
                    assert legal_moves(t) == oracle_legal_moves(t)
                    for a in range(1, m):
                        for b in range(a + 1, m + 1):
                            for kind in MOVE_KINDS:
                                label = MoveLabel(kind, (a, b))
                                assert outcome(block_move, t, label) == outcome(
                                    oracle_block_move, t, label
                                )
                    assert outcome(c_move, t) == outcome(oracle_c_move, t)
                    assert outcome(c_inverse, t) == outcome(oracle_c_inverse, t)
                    assert schuetzenberger(t) == oracle_evacuation(t)

    def test_out_of_range_columns(self):
        t = T("1,2,5/3,4,6")
        for columns in ((1, 4), (3, 5)):
            label = MoveLabel("C", columns)
            assert outcome(block_move, t, label) == outcome(oracle_block_move, t, label)

    def test_each_move_validates_only_its_result(self, monkeypatch):
        t = T("1,2,4/3,6,8/5,7,10/9,11")
        calls = count_validations(monkeypatch)
        c_inverse(c_move(t))
        schuetzenberger(t)
        assert len(calls) == 3
        # failed moves raise before building anything
        assert len(legal_moves(t)) == len(calls) - 3 > 0


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
