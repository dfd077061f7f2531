from itertools import chain

import pytest

import springerfiber.eqsmoves as eqsmoves_module
import springerfiber.tableaux as tableaux_module
from springerfiber.eqsmoves import (
    _BLOCK_MOVES,
    _REVERSE,
    MOVE_KINDS,
    MoveError,
    MoveLabel,
    block_move,
    c_inverse,
    c_move,
    dist_class_invariant,
    eqs_class,
    eqs_partition,
    legal_moves,
    partition_report,
    _cuts,
    _moves,
)
from springerfiber.partitions import Partition, partitions_of
from springerfiber.tableaux import (
    StandardTableau,
    Tableau,
    _from_word,
    _word,
    concat,
    dist,
    enumerate_tableaux,
    make_P,
    make_P_shift,
    make_Q,
    parse_tableau,
    schuetzenberger,
    tableau,
)

from tableau_helpers import j_stat

T = parse_tableau


def reading_word(t):
    """Row reading word: the rows concatenated top to bottom."""
    return tuple(chain.from_iterable(t.rows))


def rows_by_entry(t):
    """Row word: the 0-based row of each entry 1..n of a standard tableau, in entry order."""
    row_of = {e: r for r, row in enumerate(t.rows) for e in row}
    return tuple(row_of[e] for e in range(1, t.n + 1))


def union_find_classes(shape):
    """Classes of a shape by merging every ``oracle_legal_moves`` edge in a union-find.

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
        for _, v in oracle_legal_moves(t):
            parent[find(v)] = find(t)
    groups = {}
    for t in tabs:
        groups.setdefault(find(t), []).append(t)
    classes = [tuple(sorted(g, key=reading_word)) for g in groups.values()]
    classes.sort(key=lambda members: reading_word(members[0]))
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
    # (row, column) of n, 1-based
    jr, jc = next((i, row.index(n) + 1) for i, row in enumerate(t.rows, start=1) if n in row)
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


def count_calls(monkeypatch, module, name):
    """List that grows by one entry, the arguments, per call of ``module.name`` from now on."""
    calls = []
    call = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return call(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def count_validations(monkeypatch):
    """List that grows by one entry per ``_validate_rows`` call from now on."""
    return count_calls(monkeypatch, tableaux_module, "_validate_rows")


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

    def test_block_routines_match_oracle(self):
        # each routine gives the row word of the oracle's moved block, and
        # None exactly where the oracle raises
        for n in range(9):
            for shape in partitions_of(n):
                for t in enumerate_tableaux(shape):
                    x = rows_by_entry(t)
                    cps = oracle_cut_points(t)
                    for p, left in enumerate(cps):
                        for b in cps[p + 1 :]:
                            if b == left + 1:
                                continue
                            lo = sum(min(part, left) for part in shape.parts)
                            hi = sum(min(part, b) for part in shape.parts)
                            j = sum(part >= b for part in shape.parts)
                            block = [row[left:b] for row in t.rows if len(row) > left]
                            for kind in MOVE_KINDS:
                                moved = _BLOCK_MOVES[kind](x[lo:hi], block, lo + 1, j)
                                label = MoveLabel(kind, (left + 1, b))
                                try:
                                    expected = rows_by_entry(oracle_block_move(t, label))[lo:hi]
                                except MoveError:
                                    expected = None
                                assert moved == expected, (t, label)

    def test_every_move_is_undone_by_its_reverse(self):
        # the closure skips the reverse of each move it has found, which
        # needs the block to stay a block and the reverse to lead back
        for n in range(9):
            for shape in partitions_of(n):
                for t in enumerate_tableaux(shape):
                    x = _word(t.rows)
                    assert x == rows_by_entry(t)
                    for kind, a, b, y in _moves(x, t.rows, ()):
                        rows = _from_word(y, shape.parts).rows
                        cps = [i for i, _, _ in _cuts(rows)]
                        assert a - 1 in cps and b in cps
                        back = {(k, c, d): z for k, c, d, z in _moves(y, rows, ())}
                        assert back[_REVERSE[kind], a, b] == x

    def test_out_of_range_columns(self):
        t = T("1,2,5/3,4,6")
        for columns in ((1, 4), (3, 5)):
            label = MoveLabel("C", columns)
            assert outcome(block_move, t, label) == outcome(oracle_block_move, t, label)

    def test_each_move_validates_only_its_result(self, monkeypatch):
        t = T("1,2,4/3,6,8/5,7,10/9,11")
        calls = count_calls(monkeypatch, eqsmoves_module, "_from_word")
        validations = count_validations(monkeypatch)
        c_inverse(c_move(t))
        # evacuation builds a standard tableau by row insertion, unvalidated
        schuetzenberger(t)
        assert len(calls) == 2
        # failed moves raise before building anything
        assert len(legal_moves(t)) == len(calls) - 2 > 0
        # none of the public moves, evacuation included, runs a full validation
        assert validations == []
        # the closure checks each member's row word once, the given tableau
        # never, and runs no full validation
        calls.clear()
        validations.clear()
        size = eqs_class(t).size
        assert len(calls) == size - 1 > 0
        assert validations == []


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


def cut_columns(t):
    return tuple(i for i, _, _ in _cuts(t.rows))


class TestCutPoints:
    def test_examples(self):
        assert cut_columns(T("1,2,5/3,4,6")) == (0, 2, 3)
        # every prefix-closed column run counts: the first column of 1,3/2,4
        # holds exactly {1,2}
        assert cut_columns(T("1,3/2,4")) == (0, 1, 2)
        assert cut_columns(T("1/2/3")) == (0, 1)
        assert _cuts(()) == [(0, 0, 0)]

    def test_definition(self):
        # (3,1,1), (4,1,1,1) and (3,3,1,1) drop by more than one row from
        # one column to the next
        for parts in ((3, 2, 1), (2, 2, 2), (3, 1, 1), (4, 1, 1, 1), (3, 3, 1, 1)):
            shape = Partition(parts)
            for t in enumerate_tableaux(shape):
                cuts = _cuts(t.rows)
                pts = tuple(i for i, _, _ in cuts)
                m = shape.num_columns
                assert pts[0] == 0 and pts[-1] == m
                for i in range(1, m):
                    # boxes in the first i columns
                    boxes = sum(min(part, i) for part in shape.parts)
                    expected = t.rows[0][i] == boxes + 1
                    assert (i in pts) == expected
                for i, boxes, height in cuts:
                    assert boxes == sum(min(part, i) for part in shape.parts)
                    assert height == (sum(part >= i for part in shape.parts) if i else 0)


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


class TestNonStandardInput:
    """A plain ``Tableau`` whose entries are not 1..n is rejected by name, before any row word is read."""

    @pytest.mark.parametrize(
        "move",
        [
            c_move,
            c_inverse,
            lambda t: block_move(t, MoveLabel("SchBlock", (1, 2))),
            legal_moves,
            eqs_class,
            schuetzenberger,
        ],
        ids=["c_move", "c_inverse", "block_move", "legal_moves", "eqs_class", "schuetzenberger"],
    )
    @pytest.mark.parametrize("rows", [[[2, 3], [4, 5]], [[1, 3], [2, 5]]], ids=["shifted", "gap"])
    def test_public_moves_raise_value_error(self, move, rows):
        t = tableau(rows)
        assert type(t) is Tableau
        entries = ", ".join(map(str, sorted(chain.from_iterable(rows))))
        with pytest.raises(ValueError, match=rf"^entries must be exactly 1\.\.4, got \({entries}\)$") as info:
            move(t)
        assert type(info.value) is ValueError


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
        assert reading_word(cls.representative) == min(map(reading_word, cls.members))

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

    def test_validates_only_the_enumeration(self, monkeypatch):
        # members are the enumerated tableaux, which the enumeration builds
        # standard by construction, so nothing is validated at all
        calls = count_validations(monkeypatch)
        for parts in ((4, 3, 2, 1), (5, 5, 1)):
            calls.clear()
            assert eqs_partition(Partition(parts))
            assert len(calls) == 0

    def test_computes_each_move_pair_once(self, monkeypatch):
        # a move x -> y and its reverse y -> x run once between them, and a
        # move that fixes its tableau runs once: (M + F) / 2 successes, each
        # a block routine returning a moved block word once
        successes = []

        def counting(move):
            def counted(word, block, lo, j):
                moved = move(word, block, lo, j)
                if moved is not None:
                    successes.append(moved)
                return moved

            return counted

        for kind, move in tuple(_BLOCK_MOVES.items()):
            monkeypatch.setitem(_BLOCK_MOVES, kind, counting(move))
        for parts in ((4, 3, 2, 1), (5, 5, 1)):
            shape = Partition(parts)
            labelled = fixed = 0
            for t in enumerate_tableaux(shape):
                for _, moved in oracle_legal_moves(t):
                    labelled += 1
                    fixed += moved == t
            assert (labelled + fixed) % 2 == 0
            successes.clear()
            eqs_partition(shape)
            assert len(successes) == (labelled + fixed) // 2

    def test_a_member_of_another_shape_raises(self, monkeypatch):
        # (0,0,0,1,0) is the row word of 1,2,3,5/4, a standard tableau of
        # shape (4,1) with as many rows as the query's shape (3,2)
        def reshaping_moves(x, rows, skip):
            yield "C", 1, 2, (0, 0, 0, 1, 0)

        monkeypatch.setattr(eqsmoves_module, "_moves", reshaping_moves)
        with pytest.raises(ValueError, match=r"row lengths \(4, 1\), not \(3, 2\)"):
            eqs_class(T("1,2,3/4,5"))

    def test_closure_escaping_the_enumeration_is_caught(self, monkeypatch):
        def escaping_moves(x, rows, skip):
            # the row word of 1,2,3, which has shape (3)
            yield "C", 1, 2, (0, 0, 0)

        monkeypatch.setattr(eqsmoves_module, "_moves", escaping_moves)
        with pytest.raises(AssertionError, match="escaped the remaining tableaux"):
            eqs_partition(Partition((2, 1)))

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
        for r in range(2, 5):
            for s in range(1, r + 1):
                if r + s + 1 > 8:
                    continue
                for t in enumerate_tableaux(Partition((r, s, 1))):
                    try:
                        moved = c_move(t)
                    except MoveError:
                        continue
                    assert moved.rows[2][0] == t.rows[2][0] - 1
                    assert j_stat(moved) == j_stat(t) - 1
                    assert dist(moved) == dist(t)
