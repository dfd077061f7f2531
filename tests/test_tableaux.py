from itertools import permutations as iter_permutations

import pytest
from hypothesis import given, settings, strategies as st

import springerfiber.tableaux as tableaux_module
from springerfiber.partitions import Partition, partitions_of
from springerfiber.tableaux import (
    StandardTableau,
    Tableau,
    _validate_rows,
    column_superstandard,
    concat,
    dist,
    enumerate_tableaux,
    from_shape_chain,
    j_stat,
    jdt_remove_min,
    make_P,
    make_P_shift,
    make_Q,
    parse_tableau,
    restrict,
    schuetzenberger,
    shape_chain,
    standardize,
    tableau,
    tau,
    truncate,
)

T = parse_tableau


def oracle_evacuation(t):
    """Evacuation from the shapes left by repeated ``jdt_remove_min`` slides."""
    n = t.n
    shapes = [Partition(())] * (n + 1)
    u = t
    shapes[n] = u.shape
    for m in range(n - 1, 0, -1):
        u, _ = jdt_remove_min(u)
        shapes[m] = u.shape
    return from_shape_chain(shapes)


def oracle_restrict(t, i, j):
    """Truncate to ``1..j``, then slide out the minimum while it is below ``i``."""
    u = truncate(t, j)
    while u.rows[0][0] < i:
        u, _ = jdt_remove_min(u)
    return u


def oracle_plain(rows):
    """``Tableau`` as it was built before standardness was read off row ends."""
    rows = tuple(tuple(int(e) for e in row) for row in rows)
    _validate_rows(rows)
    return ("Tableau", rows)


def oracle_standard(rows):
    _, rows = oracle_plain(rows)
    entries = sorted(e for row in rows for e in row)
    if entries != list(range(1, len(entries) + 1)):
        raise ValueError("not standard")
    return ("StandardTableau", rows)


def oracle_tableau(rows):
    """``tableau()`` as a plain validation followed by a standard one."""
    _, rows = oracle_plain(rows)
    try:
        return oracle_standard(rows)
    except ValueError:
        return ("Tableau", rows)


def construction(build, rows):
    """(class name, rows) of what ``build`` returns, or the type it raises."""
    try:
        out = build([list(row) for row in rows])
    except (TypeError, ValueError) as exc:
        return type(exc)
    if isinstance(out, tuple):
        return out
    return (type(out).__name__, out.rows)


SMALL_SHAPES = [shape for n in range(6) for shape in partitions_of(n)]
ENTRY = st.one_of(
    st.integers(min_value=-1, max_value=8),
    st.integers(min_value=0, max_value=8).map(str),
    st.sampled_from(["", "x", "2.5"]),
)


@st.composite
def row_lists(draw):
    """Standard rows, valid rows with a gap in the entries, or arbitrary rows."""
    kind = draw(st.sampled_from(["standard", "gapped", "arbitrary"]))
    if kind == "arbitrary":
        return draw(st.lists(st.lists(ENTRY, max_size=4), max_size=4))
    t = draw(st.sampled_from(enumerate_tableaux(draw(st.sampled_from(SMALL_SHAPES)))))
    rows = [list(row) for row in t.rows]
    if kind == "gapped" and t.n:
        cut = draw(st.integers(min_value=1, max_value=t.n))
        rows = [[e + (e >= cut) for e in row] for row in rows]
    if draw(st.booleans()):
        rows = [[str(e) for e in row] for row in rows]
    return rows


def brute_force_tableaux(shape):
    """Independent enumeration by filtering permutations (n <= 7 only)."""
    parts = shape.parts
    n = sum(parts)
    cells = [(i, j) for i, p in enumerate(parts) for j in range(p)]
    found = set()
    for perm in iter_permutations(range(1, n + 1)):
        grid = dict(zip(cells, perm))
        if all(
            grid[(i, j)] < grid[(i, j + 1)] for (i, j) in cells if (i, j + 1) in grid
        ) and all(
            grid[(i, j)] < grid[(i + 1, j)] for (i, j) in cells if (i + 1, j) in grid
        ):
            rows = tuple(
                tuple(grid[(i, j)] for j in range(p)) for i, p in enumerate(parts)
            )
            found.add(rows)
    return found


class TestValidation:
    def test_accepts_standard(self):
        assert StandardTableau([[1, 2], [3]]).shape == Partition((2, 1))
        assert StandardTableau([[1, 3], [2]]).rows == ((1, 3), (2,))

    def test_rejects_row_not_increasing(self):
        with pytest.raises(ValueError):
            Tableau([[2, 1], [3]])

    def test_rejects_column_not_increasing(self):
        with pytest.raises(ValueError):
            Tableau([[2, 3], [1]])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Tableau([[1, 2], [2]])

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            Tableau([[1], [2, 3]])

    def test_standard_needs_full_entry_set(self):
        with pytest.raises(ValueError):
            StandardTableau([[1, 2], [4]])
        # same rows are fine as a plain tableau
        assert Tableau([[1, 2], [4]]).n == 3

    @settings(max_examples=300, deadline=None)
    @given(row_lists())
    def test_constructors_match_two_pass_oracle(self, rows):
        for build, oracle in (
            (tableau, oracle_tableau),
            (Tableau, oracle_plain),
            (StandardTableau, oracle_standard),
        ):
            assert construction(build, rows) == construction(oracle, rows)

    def test_one_validation_per_tableau(self, monkeypatch):
        calls = []
        validate = tableaux_module._validate_rows
        monkeypatch.setattr(
            tableaux_module, "_validate_rows", lambda rows: calls.append(validate(rows))
        )
        t = parse_tableau("1,3,5/2,4,6")
        assert len(calls) == 1
        assert isinstance(restrict(t, 1, 4), StandardTableau)
        assert type(restrict(t, 2, 4)) is Tableau
        assert len(calls) == 3

    def test_text_round_trip(self):
        t = T("1,2,5/3,4/6,7")
        assert t.text() == "1,2,5/3,4/6,7"
        assert parse_tableau("") == StandardTableau(())
        assert t.to_json() == [[1, 2, 5], [3, 4], [6, 7]]


class TestEnumerate:
    def test_two_one(self):
        tabs = enumerate_tableaux(Partition((2, 1)))
        assert {t.text() for t in tabs} == {"1,2/3", "1,3/2"}

    def test_single_row(self):
        assert len(enumerate_tableaux(Partition((5,)))) == 1

    def test_matches_brute_force(self):
        for n in range(7):
            for shape in partitions_of(n):
                got = {t.rows for t in enumerate_tableaux(shape)}
                assert got == brute_force_tableaux(shape), shape

    def test_hook_length_count(self):
        shape = Partition((2, 2, 1, 1))
        assert len(enumerate_tableaux(shape)) == shape.count_tableaux() == 9

    def test_bound(self):
        with pytest.raises(ValueError):
            enumerate_tableaux(Partition((13,)))
        assert len(enumerate_tableaux(Partition((13,)), max_n=13)) == 1


class TestRowStatistics:
    def test_row_of(self):
        assert T("1,3/2").row_of(2) == 2
        t = T("1,2,3/4,5/6")
        assert t.row_of(5) == 2
        assert t.row_of(6) == 3

    def test_tau_by_scan(self):
        t = T("1,2,3/4,5/6")
        # oracle: scan rows of consecutive entries
        scan = {e for e in range(1, 6) if t.row_of(e + 1) > t.row_of(e)}
        assert scan == {3, 5}
        assert tau(t) == frozenset({3, 5})
        assert tau(T("1,3,6/2,5/4")) == frozenset({1, 3})
        assert tau(T("1,2,3,4")) == frozenset()

    def test_j_stat_shape_errors(self):
        with pytest.raises(ValueError):
            j_stat(T("1,3/2,5/4/6"))
        with pytest.raises(ValueError):
            j_stat(T("1,2,5/3,4/6,7"))

    def test_dist_of_named_representatives(self):
        rep = concat(make_Q(1), make_P_shift(1, 3))
        assert rep.text() == "1,4/2,5/3"
        assert dist(rep) == 1
        for k in range(1, 5):
            assert dist(make_Q(k)) == k

    def test_dist_allows_second_row_longer_than_one(self):
        t = T("1,3/2,4/5")
        assert j_stat(t) == 3
        assert dist(t) == 1


class TestTruncateRestrict:
    def test_truncate_examples(self):
        t = T("1,2,5/3,4/6,7")
        assert truncate(t, 6).text() == "1,2,5/3,4/6"
        assert truncate(t, 0) == StandardTableau(())
        assert truncate(t, 7) == t
        with pytest.raises(ValueError):
            truncate(t, 8)

    def test_restrict_worked_examples(self):
        assert (
            restrict(T("1,2,4/3,6,8/5,7,10/9,11"), 2, 11).text()
            == "2,4,8/3,6,10/5,7/9,11"
        )
        assert restrict(T("1,3/2,5/4/6"), 2, 6).text() == "2,3/4,5/6"
        t = T("1,2,5/3,4/6,7")
        assert restrict(t, 1, 7) == t

    def test_restrict_range_errors(self):
        with pytest.raises(ValueError):
            restrict(T("1,2/3"), 0, 2)
        with pytest.raises(ValueError):
            restrict(T("1,2/3"), 2, 4)

    def test_restrict_matches_slide_oracle(self):
        for n in range(1, 8):
            for shape in partitions_of(n):
                for t in enumerate_tableaux(shape):
                    for i in range(1, n + 1):
                        for j in range(i, n + 1):
                            assert restrict(t, i, j) == oracle_restrict(t, i, j)

    def test_restrict_composition(self):
        # keeping a..b of the restriction to c..d equals keeping a..b directly
        for shape in (Partition((3, 2, 1)), Partition((2, 2, 2)), Partition((4, 2))):
            n = shape.n
            for t in enumerate_tableaux(shape):
                for c in range(1, n + 1):
                    for d in range(c, n + 1):
                        mid = restrict(t, c, d)
                        for a in range(c, d + 1):
                            for b in range(a, d + 1):
                                assert restrict(mid, a, b) == restrict(t, a, b)

    def test_descents_restrict(self):
        for t in enumerate_tableaux(Partition((3, 2, 1))):
            full = tau(t)
            for k in range(1, 7):
                for l in range(k, 7):
                    sub = restrict(t, k, l)
                    assert tau(sub) == full & frozenset(range(k, l))


class TestStandardize:
    def test_worked_example(self):
        assert (
            standardize(T("2,4,8/3,6,10/5,7/9,11")).text() == "1,3,7/2,5,9/4,6/8,10"
        )

    def test_identity_on_standard(self):
        t = T("1,3/2,5/4")
        assert standardize(t) == t

    def test_shift(self):
        assert standardize(T("3,4/5")).text() == "1,2/3"

    def test_rejects_gaps(self):
        with pytest.raises(ValueError):
            standardize(T("1,2/4"))


class TestShapeChain:
    def test_example(self):
        chain = shape_chain(T("1,2/3"))
        assert [c.parts for c in chain] == [(), (1,), (2,), (2, 1)]

    def test_empty(self):
        assert shape_chain(StandardTableau(())) == (Partition(()),)

    def test_round_trip_small(self):
        for n in range(9):
            for shape in partitions_of(n):
                for t in enumerate_tableaux(shape):
                    assert from_shape_chain(shape_chain(t)) == t

    def test_from_chain_rejects_jump(self):
        with pytest.raises(ValueError):
            from_shape_chain([Partition(()), Partition((2,))])


class TestSlide:
    def test_hole_position_reported(self):
        slid, hole = jdt_remove_min(T("1,2,4/3,6,8/5,7,10/9,11"))
        assert slid.text() == "2,4,8/3,6,10/5,7/9,11"
        assert hole == (2, 2)


class TestSchuetzenberger:
    def test_worked_example(self):
        assert schuetzenberger(T("1,2,3/4,5/6")).text() == "1,3,6/2,5/4"

    def test_single_row(self):
        t = T("1,2,3,4")
        assert schuetzenberger(t) == t

    def test_involution_example(self):
        t = T("1,3/2,5/4/6")
        assert schuetzenberger(schuetzenberger(t)) == t

    def test_matches_shape_chain_oracle(self):
        for n in range(9):
            for shape in partitions_of(n):
                for t in enumerate_tableaux(shape):
                    assert schuetzenberger(t) == oracle_evacuation(t)

    def test_involution_small(self):
        for n in range(7):
            for shape in partitions_of(n):
                for t in enumerate_tableaux(shape):
                    assert schuetzenberger(schuetzenberger(t)) == t

    def test_descent_reversal(self):
        for shape in (Partition((3, 2, 1)), Partition((2, 2, 2)), Partition((4, 1))):
            n = shape.n
            for t in enumerate_tableaux(shape):
                s = schuetzenberger(t)
                assert tau(s) == frozenset(n - i for i in tau(t))

    def test_restriction_shape_duality(self):
        # the shape of keeping i..j equals the dual restriction of evacuation
        for t in enumerate_tableaux(Partition((3, 2, 1))):
            s = schuetzenberger(t)
            n = t.n
            for i in range(1, n + 1):
                for j in range(i, n + 1):
                    assert (
                        restrict(t, i, j).shape
                        == restrict(s, n + 1 - j, n + 1 - i).shape
                    )


class TestThirdRowStatUnderEvacuation:
    def test_evacuation_counterpart(self):
        # for shape (r,s,1): the third-row entry of the evacuation is
        # n - j(T) + 1, and dist is preserved
        for r in range(1, 8):
            for s in range(1, r + 1):
                if r + s + 1 > 9:
                    continue
                for t in enumerate_tableaux(Partition((r, s, 1))):
                    s_t = schuetzenberger(t)
                    assert s_t.entry(3, 1) == t.n - j_stat(t) + 1
                    assert dist(s_t) == dist(t)


class TestConcatAndFamilies:
    def test_make_P_examples(self):
        assert make_P(4, 2).text() == "1,3,5,6/2,4"
        assert make_P(0, 0) == StandardTableau(())
        assert make_P(3, 0).text() == "1,2,3"

    def test_make_P_rejects(self):
        with pytest.raises(ValueError):
            make_P(1, 2)

    def test_make_Q_examples(self):
        assert make_Q(2).text() == "1,3/2,5/4"
        assert make_Q(1).text() == "1/2/3"
        assert make_Q(3).text() == "1,3,4/2,6,7/5"
        with pytest.raises(ValueError):
            make_Q(0)

    def test_make_P_shift(self):
        assert make_P_shift(1, 3).text() == "4/5"
        assert make_P_shift(2, 0) == make_P(2, 2)

    def test_concat_examples(self):
        glued = concat(make_Q(1), make_P_shift(1, 3))
        assert glued.text() == "1,4/2,5/3"
        assert glued.shape == Partition((2, 2, 1))
        t = T("1,2/3,4")
        assert concat(t, StandardTableau(())) == t

    def test_concat_mismatch(self):
        # right block taller than the left: glued column heights would increase
        with pytest.raises(ValueError):
            concat(T("1/2"), T("3/4/5"))
        with pytest.raises(ValueError):
            concat(T("1,2"), T("3/4"))

    def test_representative_is_standard(self):
        for r in range(1, 5):
            for k in range(1, r + 1):
                glued = concat(make_Q(k), make_P_shift(r - k, 2 * k + 1))
                assert isinstance(glued, StandardTableau)
                assert glued.shape == Partition((r, r, 1))
                assert dist(glued) == k


def test_column_superstandard():
    t = column_superstandard(Partition((3, 2)))
    assert t.text() == "1,3,5/2,4"
    assert column_superstandard(Partition(())) == StandardTableau(())
