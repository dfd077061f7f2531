"""Tests of ``springerfiber.tableaux``: each fast path against one oracle that does not call it.

- ``_validate_rows``: ``oracle_validate_rows``, the walk written out, on 500
  drawn fault sets, first message included.
- ``_from_word``: ``oracle_from_word``, on every word of up to 6 letters over
  rows 0..3 against every shape of its length.
- ``_tableau_from_columns``: the columns read back from 400 drawn words.
- ``_fill``: ``brute_force_tableaux`` (n <= 6); the hook count with valid rows (n <= 9).
- ``_evacuate``: ``oracle_evacuation``, slides read off as a shape chain (n <= 10).
- ``_slide_path`` and ``_slide_out``: ``oracle_restrict``, truncation then
  whole-tableau slides (every range, n <= 7); the slide itself against
  ``oracle_slide`` of ``test_eqsmoves.py``.
- ``_entry_range``: one message from ``restrict``, ``standardize`` and ``tau``.
- ``_third_row_descent``: ``oracle_j_stat`` from the descent set ((r,s,1), n <= 11).
"""

from itertools import permutations as iter_permutations, product

import pytest
from hypothesis import given, settings, strategies as st

import springerfiber.tableaux as tableaux_module
from springerfiber.partitions import Partition, partitions_of
from springerfiber.tableaux import (
    StandardTableau,
    Tableau,
    _from_word,
    _tableau_from_columns,
    _validate_rows,
    column_superstandard,
    concat,
    dist,
    enumerate_tableaux,
    from_shape_chain,
    jdt_remove_min,
    make_P,
    make_P_shift,
    make_Q,
    parse_tableau,
    restrict,
    schuetzenberger,
    standardize,
    tableau,
    tau,
)

from tableau_helpers import j_stat, shape_chain

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


def truncate(t, i):
    """Delete the boxes of entries ``i+1..n``; their boxes are removable corners."""
    if not 0 <= i <= t.n:
        raise ValueError(f"truncation index {i} out of range 0..{t.n}")
    rows = [tuple(e for e in row if e <= i) for row in t.rows]
    return StandardTableau(row for row in rows if row)


def oracle_restrict(t, i, j):
    """Truncate to ``1..j``, then slide out the minimum while it is below ``i``."""
    u = truncate(t, j)
    while u.rows[0][0] < i:
        u, _ = jdt_remove_min(u)
    return u


def oracle_j_stat(t):
    """``j_stat`` read off the shape, the descent set and the third-row entry."""
    if not t.shape.is_rs1:
        raise ValueError(f"statistic needs shape (r,s,1), got {t.shape}")
    bottom = t.rows[2][0]
    return max(i for i in tau(t) if i < bottom - 1)


def oracle_dist(t):
    j = oracle_j_stat(t)
    return t.rows[2][0] - 1 - j


def outcome(stat, t):
    """``stat(t)``, or the message of the ValueError it raises."""
    try:
        return stat(t)
    except ValueError as exc:
        return str(exc)


def oracle_validate_rows(rows):
    """``_validate_rows`` as one walk over every entry and column pair, in order."""
    lengths = [len(r) for r in rows]
    if any(length == 0 for length in lengths):
        raise ValueError("tableau rows must be nonempty")
    if any(b > a for a, b in zip(lengths, lengths[1:])):
        raise ValueError(f"row lengths must be non-increasing, got {lengths}")
    seen = set()
    for row in rows:
        for e in row:
            if e < 1:
                raise ValueError(f"entries must be positive, got {e}")
            if e in seen:
                raise ValueError(f"duplicate entry {e}")
            seen.add(e)
        if any(b <= a for a, b in zip(row, row[1:])):
            raise ValueError(f"row {row} is not increasing")
    for upper, lower in zip(rows, rows[1:]):
        for a, b in zip(upper, lower):
            if b <= a:
                raise ValueError(f"column not increasing at {a} over {b}")


def validation_message(validate, rows):
    """The message ``validate`` raises on ``rows``, or None when it accepts them."""
    try:
        validate(rows)
    except ValueError as exc:
        return str(exc)
    return None


def oracle_plain(rows):
    """``Tableau`` as it was built before standardness was read off row ends; an entry must be an int already."""
    rows = tuple(tuple(row) for row in rows)
    for row in rows:
        for e in row:
            if not isinstance(e, int) or isinstance(e, bool):
                raise TypeError(f"entry {e!r} is not an int")
    _validate_rows(rows)
    return ("Tableau", rows)


def oracle_standard(rows):
    _, rows = oracle_plain(rows)
    entries = sorted(e for row in rows for e in row)
    if entries != list(range(1, len(entries) + 1)):
        raise ValueError("not standard")
    return ("StandardTableau", rows)


def oracle_tableau(rows):
    """``tableau()`` as a plain validation, ints only, followed by a standard one.

    Declared contract change: ``tableau()`` no longer converts its entries
    with ``int``.  A str, float or bool entry raises TypeError, as in
    ``Tableau``, and ``parse_tableau`` converts its text pieces itself.
    """
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


@st.composite
def faulty_rows(draw):
    """Int rows of a shape with up to four entries replaced, or arbitrary int rows.

    Replacements draw from -1..n+1, so one set of rows can hold a
    nonpositive entry, a duplicate, a row and a column fault at once.
    """
    if draw(st.booleans()):
        entries = st.integers(min_value=-1, max_value=8)
        return tuple(map(tuple, draw(st.lists(st.lists(entries, max_size=4), max_size=4))))
    t = draw(st.sampled_from(enumerate_tableaux(draw(st.sampled_from(SMALL_SHAPES[1:])))))
    rows = [list(row) for row in t.rows]
    boxes = [(i, j) for i, row in enumerate(rows) for j in range(len(row))]
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        i, j = draw(st.sampled_from(boxes))
        rows[i][j] = draw(st.integers(min_value=-1, max_value=t.n + 1))
    return tuple(map(tuple, rows))


@st.composite
def column_words(draw):
    """(word, True) for the column word of a standard tableau grown box by box,
    or (word, False) for an arbitrary word of small columns."""
    if draw(st.booleans()):
        return draw(st.lists(st.integers(min_value=-1, max_value=4), max_size=10)), False
    lengths, word = [], []
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        below = lengths + [0]
        r = draw(st.sampled_from([r for r in range(len(below)) if r == 0 or below[r - 1] > below[r]]))
        if r == len(lengths):
            lengths.append(0)
        lengths[r] += 1
        word.append(lengths[r])
    return word, True


def oracle_from_word(word, shape):
    """``StandardTableau`` on the rows that collect each row index's entries, then the shape compared.

    An entry whose row index lies outside the shape is left out, so either
    the entries are not 1..n and ``StandardTableau`` raises, or the shape,
    which counts every entry of the word, differs; any fault raises
    ValueError.
    """
    rows = [[e for e, r in enumerate(word, start=1) if r == i] for i in range(len(shape))]
    t = StandardTableau(rows)
    if t.shape.parts != tuple(shape):
        raise ValueError(f"shape {t.shape} is not {shape}")
    return t


def built_from_word(build, word, shape):
    """The rows that ``build`` returns for the word, or ValueError when it raises one."""
    try:
        t = build(word, shape)
    except ValueError:
        return ValueError
    assert type(t) is StandardTableau
    return t.rows


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

    def test_order_with_a_foreign_type_is_a_type_error(self):
        # tableaux order by their rows, and anything else is left to Python
        t = StandardTableau([[1, 2], [3]])
        assert Tableau([[1, 2]]) < t < StandardTableau([[1, 3], [2]])
        for other in (((1, 2), (3,)), [[1, 2], [3]], "1,2/3", 3):
            with pytest.raises(TypeError, match="not supported between instances"):
                t < other
            with pytest.raises(TypeError, match="not supported between instances"):
                other > t

    @settings(max_examples=300, deadline=None)
    @given(row_lists())
    def test_constructors_match_two_pass_oracle(self, rows):
        for build, oracle in (
            (tableau, oracle_tableau),
            (Tableau, oracle_plain),
            (StandardTableau, oracle_standard),
        ):
            assert construction(build, rows) == construction(oracle, rows)

    @settings(max_examples=50, deadline=None)
    @given(st.sampled_from([shape for shape in SMALL_SHAPES if shape.n]), st.data())
    def test_a_float_or_bool_entry_raises_and_the_equal_int_builds_the_value(self, shape, data):
        # StandardTableau([[1, 2.7], [3]]) used to truncate to 1,2/3
        t = data.draw(st.sampled_from(enumerate_tableaux(shape)))
        rows = [list(row) for row in t.rows]
        r = data.draw(st.integers(min_value=0, max_value=len(rows) - 1))
        c = data.draw(st.integers(min_value=0, max_value=len(rows[r]) - 1))
        e = rows[r][c]
        for bad in (float(e), e + 0.5, e == 1):
            changed = [row[:] for row in rows]
            changed[r][c] = bad
            for build in (Tableau, StandardTableau):
                with pytest.raises(TypeError, match="^tableau entries must be ints: "):
                    build(changed)
        for build in (Tableau, StandardTableau):
            built = build(rows)
            assert built.rows == t.rows and all(type(x) is int for row in built.rows for x in row)

    def test_tableau_rejects_the_inexact_entries_it_used_to_truncate(self):
        for rows in ([[1, 2.7], [3]], [[True, 2], [3]], [["1", "2"], ["3"]]):
            with pytest.raises(TypeError, match="^tableau entries must be ints: "):
                tableau(rows)
        assert tableau([[1, 2], [3]]) == parse_tableau("1,2/3")

    @settings(max_examples=50, deadline=None)
    @given(st.sampled_from([shape for shape in SMALL_SHAPES if shape.n]), st.data())
    def test_tableau_raises_on_a_float_or_bool_and_the_equal_int_builds_the_value(self, shape, data):
        # tableau([[1, 2.7], [3]]) used to truncate to 1,2/3; a gapped tableau is plain
        t = data.draw(st.sampled_from(enumerate_tableaux(shape)))
        shift = data.draw(st.integers(min_value=0, max_value=1))
        rows = [[e + shift for e in row] for row in t.rows]
        r = data.draw(st.integers(min_value=0, max_value=len(rows) - 1))
        c = data.draw(st.integers(min_value=0, max_value=len(rows[r]) - 1))
        e = rows[r][c]
        for bad in (float(e), e + 0.5, e == 1):
            changed = [row[:] for row in rows]
            changed[r][c] = bad
            with pytest.raises(TypeError, match="^tableau entries must be ints: "):
                tableau(changed)
        built = tableau(rows)
        assert type(built) is (Tableau if shift else StandardTableau)
        assert built.rows == tuple(map(tuple, rows))
        assert all(type(x) is int for row in built.rows for x in row)
        text = "/".join(",".join(map(str, row)) for row in rows)
        assert parse_tableau(text) == built and type(parse_tableau(text)) is type(built)

    @settings(max_examples=500, deadline=None)
    @given(faulty_rows())
    def test_validation_matches_entry_walk(self, rows):
        # the same verdict and, on rows with several faults, the same first message
        assert validation_message(_validate_rows, rows) == validation_message(
            oracle_validate_rows, rows
        )

    @pytest.mark.parametrize(
        "rows, message",
        [
            (((0, 2), (1,)), "entries must be positive, got 0"),
            (((2, 1), (2,)), "row (2, 1) is not increasing"),
            (((1, 3), (3, 2)), "duplicate entry 3"),
            (((1, 3, 2), (0,)), "row (1, 3, 2) is not increasing"),
            (((2, 3), (1, 0)), "entries must be positive, got 0"),
            (((2, 5), (1, 4), (3,)), "column not increasing at 2 over 1"),
            (((3, 4), (5, 1)), "row (5, 1) is not increasing"),
        ],
    )
    def test_first_fault_named(self, rows, message):
        assert validation_message(_validate_rows, rows) == message
        assert validation_message(oracle_validate_rows, rows) == message

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

    def test_one_bound_message_for_every_bounded_search(self):
        # enumeration, the class closure and the fiber permutations share one
        # bound check, so n = 13 is refused in the same words by all three
        from springerfiber.eqsmoves import eqs_class
        from springerfiber.exactlin import fiber_permutations, special_operator

        searches = {
            "enumerate_tableaux": lambda: enumerate_tableaux(Partition((6, 6, 1))),
            "eqs_class": lambda: eqs_class(make_Q(6)),
            "fiber_permutations": lambda: fiber_permutations(special_operator(6)),
        }
        for name, search in searches.items():
            with pytest.raises(ValueError) as exc:
                search()
            assert str(exc.value) == "enumeration bound exceeded: n=13 > 12", name
        for search, arg in ((enumerate_tableaux, Partition((6, 6, 1))), (eqs_class, make_Q(6))):
            with pytest.raises(ValueError) as exc:
                search(arg, max_n=5)
            assert str(exc.value) == "enumeration bound exceeded: n=13 > 5"


class TestTrustedBuilds:
    def test_every_enumerated_tableau_up_to_nine_boxes(self):
        # the enumeration builds its tableaux without validating them
        for n in range(10):
            for shape in partitions_of(n):
                tabs = enumerate_tableaux(shape)
                assert len(tabs) == len(set(tabs)) == shape.count_tableaux(), shape
                for t in tabs:
                    _validate_rows(t.rows)
                    assert type(t) is StandardTableau and t == StandardTableau(t.rows)
                    assert t.shape == shape and t.entries() == tuple(range(1, n + 1))

    @settings(max_examples=400, deadline=None)
    @given(column_words())
    def test_read_off_builds_valid_tableaux(self, drawn):
        # the read-off builds its tableau without validating it
        word, valid = drawn
        try:
            t = _tableau_from_columns(word)
        except ValueError:
            assert not valid
            return
        _validate_rows(t.rows)
        assert type(t) is StandardTableau and t == StandardTableau(t.rows)
        columns = {e: j for row in t.rows for j, e in enumerate(row, start=1)}
        assert [columns[i] for i in range(1, t.n + 1)] == word

    def test_row_words_match_the_validating_route(self):
        # a row word is a standard tableau's exactly when it is a lattice
        # word of the shape; every word of up to 6 letters over rows 0..3,
        # against every shape of its length
        for size in range(7):
            shapes = [shape.parts for shape in partitions_of(size)]
            for word in product(range(4), repeat=size):
                for shape in shapes:
                    assert built_from_word(_from_word, word, shape) == built_from_word(
                        oracle_from_word, word, shape
                    ), (word, shape)

    def test_row_indices_outside_the_shape_raise(self):
        # row -1 must not wrap round to the last row, nor row h fall off it
        for n in range(1, 7):
            for shape in partitions_of(n):
                parts = shape.parts
                for t in enumerate_tableaux(shape):
                    word = [r for _, r in sorted((e, r) for r, row in enumerate(t.rows) for e in row)]
                    assert _from_word(word, parts) == t
                    for i in range(n):
                        for bad in (-1, len(parts)):
                            moved = (*word[:i], bad, *word[i + 1 :])
                            assert built_from_word(oracle_from_word, moved, parts) is ValueError
                            with pytest.raises(ValueError, match="outside rows"):
                                _from_word(moved, parts)

    def test_a_standard_tableau_of_another_shape_raises(self):
        # (0,0,0,1,0) is the row word of 1,2,3,5/4, of shape (4,1); from a
        # tableau of shape (3,2) it is no move's result
        word = (0, 0, 0, 1, 0)
        assert _from_word(word, (4, 1)) == T("1,2,3,5/4")
        assert built_from_word(oracle_from_word, word, (3, 2)) is ValueError
        with pytest.raises(ValueError) as exc:
            _from_word(word, (3, 2))
        assert str(exc.value) == "row word has row lengths (4, 1), not (3, 2)"

    @pytest.mark.parametrize(
        "word, shape, message",
        [
            ((0, 2), (1, 1), "row word puts entry 2 in row 3, outside rows 1..2"),
            ((0, -1), (1, 1), "row word puts entry 2 in row 0, outside rows 1..2"),
            ((1, 0), (1, 1), "row word puts entry 1 in row 2 with no entry above it"),
            ((0, 1, 1, 0), (2, 2), "row word puts entry 3 in row 2 with no entry above it"),
            ((0, 0), (1, 1), "row word has row lengths (2, 0), not (1, 1)"),
        ],
    )
    def test_row_word_messages(self, word, shape, message):
        with pytest.raises(ValueError) as exc:
            _from_word(word, shape)
        assert str(exc.value) == message

    @pytest.mark.parametrize("text", ["2", "1,4/2", "2,3/4", "1,2/4"])
    def test_evacuation_rejects_entries_other_than_1_to_n(self, text):
        t = T(text)
        with pytest.raises(ValueError, match=r"entries must be exactly 1\.\."):
            schuetzenberger(t)


class TestRowStatistics:
    def test_tau_by_scan(self):
        t = T("1,2,3/4,5/6")
        # oracle: scan rows of consecutive entries
        row_of = {e: r for r, row in enumerate(t.rows) for e in row}
        scan = {e for e in range(1, 6) if row_of[e + 1] > row_of[e]}
        assert scan == {3, 5}
        assert tau(t) == frozenset({3, 5})
        assert tau(T("1,3,6/2,5/4")) == frozenset({1, 3})
        assert tau(T("1,2,3,4")) == frozenset()

    def test_non_consecutive_entries_rejected_alike(self):
        # restrict, standardize and tau read the entry range from one helper
        for rows in (((1, 2), (4,)), ((2, 3, 7), (5,)), ((1,), (3,), (4,))):
            t = tableau(rows)
            assert not isinstance(t, StandardTableau)
            expected = f"entries {t.entries()} are not consecutive"
            lo = t.entries()[0]
            for op in (lambda: restrict(t, lo, lo), lambda: standardize(t), lambda: tau(t)):
                with pytest.raises(ValueError) as exc:
                    op()
                assert str(exc.value) == expected

    def test_consecutive_entries_accepted_from_any_start(self):
        t = tableau(((3, 4, 6), (5,)))
        assert tau(t) == frozenset({4})
        assert standardize(t).text() == "1,2,4/3"
        assert restrict(t, 4, 5).text() == "4/5"
        assert tau(StandardTableau(())) == frozenset()
        assert standardize(StandardTableau(())) == StandardTableau(())

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

    def test_dist_matches_descent_set_oracle(self):
        for r in range(1, 10):
            for s in range(1, min(r, 10 - r) + 1):
                for t in enumerate_tableaux(Partition((r, s, 1))):
                    assert (j_stat(t), dist(t)) == (oracle_j_stat(t), oracle_dist(t)), t

    def test_dist_errors_match_descent_set_oracle(self):
        # other shapes, and (r,s,1) tableaux whose entries start above 1 or
        # have a gap
        cases = [
            t
            for n in range(8)
            for shape in partitions_of(n)
            for t in enumerate_tableaux(shape)
        ]
        for t in enumerate_tableaux(Partition((3, 2, 1))):
            cases.append(tableau(tuple(e + 2 for e in row) for row in t.rows))
            cases.append(tableau(tuple(e + (e > 3) for e in row) for row in t.rows))
        for t in cases:
            for stat, oracle in ((j_stat, oracle_j_stat), (dist, oracle_dist)):
                assert outcome(stat, t) == outcome(oracle, t), t

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

    @pytest.mark.parametrize(
        "chain, message",
        [
            ([], "chain must start with the empty diagram"),
            ([(1,)], "chain must start with the empty diagram"),
            ([(1,), (2,)], "chain must start with the empty diagram"),
            ([(), (1,), ()], "step 2 of chain does not add a single box"),
            ([(), (1, 1)], "step 1 of chain does not add a single box"),
            ([(), (1,), (3,)], "step 2 of chain does not add a single box"),
            ([(), (1,), (2,), (1, 1)], "step 3 of chain does not add a single box"),
        ],
        ids=[
            "empty-list",
            "first-not-empty",
            "first-not-empty-then-grows",
            "box-taken-away",
            "two-boxes-in-one-column",
            "row-jumps",
            "box-moves",
        ],
    )
    def test_from_chain_rejects_malformed_chains(self, chain, message):
        with pytest.raises(ValueError) as exc:
            from_shape_chain([Partition(p) for p in chain])
        assert str(exc.value) == message


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
        # insertion against slides: Schuetzenberger's theorem on every case;
        # evacuation builds its tableau by row insertion without validating it
        for n in range(11):
            for shape in partitions_of(n):
                for t in enumerate_tableaux(shape):
                    s = schuetzenberger(t)
                    _validate_rows(s.rows)
                    assert type(s) is StandardTableau and s == oracle_evacuation(t)

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
                    assert s_t.rows[2][0] == t.n - j_stat(t) + 1
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
