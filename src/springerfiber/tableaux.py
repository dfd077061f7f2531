"""Young tableaux and the jeu-de-taquin slide calculus on them.

A tableau here is a ragged array of *distinct* positive integers that
increase along rows and down columns; it is standard when its entries are
exactly 1..n.  Standard tableaux of shape lambda index the irreducible
components of the Springer fiber whose nilpotent has Jordan type lambda.

The workhorse is one jeu-de-taquin walk, ``_slide_path``: it reads the
rows and returns the boxes the hole visits when the entry at (1,1) slides
out.  The in-place slide on a list of rows follows that path, removes the
entry at (1,1) and reports the box it vacates, so operations work on plain
rows and validate only the tableau they return; the cyclic move of
:mod:`springerfiber.eqsmoves` reads the same path without writing.  Rows that
are valid by construction skip validation through one private
constructor, ``_trusted``: the enumeration, the column read-off and
evacuation build standard tableaux with it, and ``tableau()`` uses it once
it has checked its rows.  The moves of :mod:`springerfiber.eqsmoves` work
on row words (entry e in row ``word[e-1]``): ``_word`` reads the row word
of standard rows, and ``_from_word`` builds a result back from one.
``_from_word`` checks in one O(n) pass that the word is a lattice
(Yamanouchi) word of the given shape, the condition for it to be the row
word of a standard tableau of that shape, and then uses ``_trusted``.
``restrict(T, i, j)`` deletes the entries above ``j`` (removable corners)
and slides out those below ``i``; it keeps the original entries, and
``standardize`` shifts them back to 1..n.  Both, and ``tau``, take the
entry range lo..hi of a tableau from one helper that rejects gaps.
Evacuation (Schuetzenberger) is defined by successive slides but computed
by row insertion, on the original entries of any block of consecutive
entries; on the entries 1..n insertion builds a standard tableau.  A
standard tableau is read off the columns of its entries 1..n, the one
read-off that ``from_shape_chain`` (the column that grows at each step),
``column_superstandard`` (each column filled top to bottom) and the cell
labels of :mod:`springerfiber.exactlin` (the column of each flag vector's
pivot coordinate) share.

Also provided: enumeration of all standard tableaux of a shape, behind
the one bound check that the move classes and fiber permutations share,
the row statistics driving the move calculus in
:mod:`springerfiber.eqsmoves` (descent set ``tau``, and the ``dist``
statistic of the shapes (r,s,1), which tests the shape from the row
lengths and finds its descent in the second row, with no descent set),
concatenation of column blocks, and the named tableau families ``P(r,s)``
and ``Q(k,k,1)`` that serve as canonical class representatives.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain
from operator import lt
from typing import Iterable, Sequence

from .partitions import Partition, integer

DEFAULT_ENUM_BOUND = 12


def _check_bound(n: int, max_n: int | None = None) -> None:
    """Reject ``n`` above the enumeration and search bound, by default 12 boxes."""
    bound = DEFAULT_ENUM_BOUND if max_n is None else max_n
    if n > bound:
        raise ValueError(f"enumeration bound exceeded: n={n} > {bound}")


def _validate_rows(rows: tuple[tuple[int, ...], ...]) -> None:
    """ValueError unless the rows form a tableau, naming the first fault.

    One walk: each entry of a row must be positive and new, then the row
    must increase; then each column pair must increase.
    """
    lengths = [len(r) for r in rows]
    if any(length == 0 for length in lengths):
        raise ValueError("tableau rows must be nonempty")
    if any(b > a for a, b in zip(lengths, lengths[1:])):
        raise ValueError(f"row lengths must be non-increasing, got {lengths}")
    seen: set[int] = set()
    for row in rows:
        for e in row:
            if e < 1:
                raise ValueError(f"entries must be positive, got {e}")
            if e in seen:
                raise ValueError(f"duplicate entry {e}")
            seen.add(e)
        if not all(map(lt, row, row[1:])):
            raise ValueError(f"row {row} is not increasing")
    for upper, lower in zip(rows, rows[1:]):
        for a, b in zip(upper, lower):
            if b <= a:
                raise ValueError(f"column not increasing at {a} over {b}")


def _is_standard(rows: Sequence[Sequence[int]]) -> bool:
    # distinct positive integers are exactly 1..n when the largest is n
    return max((row[-1] for row in rows if row), default=0) == sum(map(len, rows))


def _check_standard(t: Tableau) -> None:
    """ValueError unless the entries of the tableau ``t`` are exactly 1..n."""
    if not _is_standard(t.rows):
        raise ValueError(f"entries must be exactly 1..{t.n}, got {t.entries()}")


class Tableau:
    """Ragged array of distinct positive ``int``s (TypeError on a float or a bool), increasing in rows and columns."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[int]] = ()):
        rows = tuple(map(tuple, rows))
        if any(type(e) is not int for row in rows for e in row):
            raise TypeError(f"tableau entries must be ints: {rows}")
        _validate_rows(rows)
        self.rows = rows

    @property
    def shape(self) -> Partition:
        return Partition(len(r) for r in self.rows)

    @property
    def n(self) -> int:
        return sum(len(r) for r in self.rows)

    def entries(self) -> tuple[int, ...]:
        return tuple(sorted(chain.from_iterable(self.rows)))

    def text(self) -> str:
        """Line-safe text form: rows joined by "/", entries by ",". Empty is ""."""
        return "/".join(",".join(str(e) for e in row) for row in self.rows)

    def to_json(self) -> list[list[int]]:
        return [list(row) for row in self.rows]

    def __eq__(self, other) -> bool:
        if isinstance(other, Tableau):
            return self.rows == other.rows
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.rows)

    def __lt__(self, other: "Tableau") -> bool:
        if isinstance(other, Tableau):
            return self.rows < other.rows
        return NotImplemented

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.text()!r})"


class StandardTableau(Tableau):
    """A tableau whose entry set is exactly 1..n."""

    __slots__ = ()

    def __init__(self, rows: Iterable[Iterable[int]] = ()):
        super().__init__(rows)
        _check_standard(self)


def _trusted(rows: tuple[tuple[int, ...], ...]) -> StandardTableau:
    """The standard tableau of ``rows`` without the validation that ``Tableau`` runs.

    Only for callers that know ``rows`` to be a tuple of int tuples forming a
    standard tableau; each says why at its call.
    """
    t = object.__new__(StandardTableau)
    t.rows = rows
    return t


def _from_word(word: Sequence[int], shape: Sequence[int]) -> StandardTableau:
    """The standard tableau of row lengths ``shape`` whose entry e sits in row ``word[e-1]`` (0-based).

    A word is the row word of a standard tableau of shape lambda exactly
    when it is a lattice word of content lambda, so one pass checks it:
    entry e goes to the end of its row, which must lie in the shape and be
    shorter than the row above it, and the rows must end with the lengths
    ``shape``.  Anything else raises ValueError.
    """
    height = len(shape)
    rows: list[list[int]] = [[] for _ in shape]
    for e, r in enumerate(word, start=1):
        if not 0 <= r < height:
            raise ValueError(f"row word puts entry {e} in row {r + 1}, outside rows 1..{height}")
        row = rows[r]
        if r and len(row) >= len(rows[r - 1]):
            raise ValueError(f"row word puts entry {e} in row {r + 1} with no entry above it")
        row.append(e)
    lengths = tuple(map(len, rows))
    if lengths != tuple(shape):
        raise ValueError(f"row word has row lengths {lengths}, not {tuple(shape)}")
    # each e went to the end of a row shorter than the one above it, so the
    # rows and columns increase, the entries are 1..n and the shape is right
    return _trusted(tuple(map(tuple, rows)))


def _word(rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Row word of standard rows: entry e sits in row ``word[e-1]`` (0-based).

    Not the row reading word, which concatenates the rows.
    """
    word = [0] * sum(map(len, rows))
    for r, row in enumerate(rows):
        for e in row:
            word[e - 1] = r
    return tuple(word)


def tableau(rows: Iterable[Iterable[int]]) -> Tableau:
    """Validate rows as ``Tableau`` does (TypeError unless every entry is an ``int``, a bool is not), returning a StandardTableau when the entries are 1..n."""
    t = Tableau(rows)
    # valid rows are standard when their entries are 1..n
    return _trusted(t.rows) if _is_standard(t.rows) else t


def parse_tableau(text: str) -> Tableau:
    """Parse the "1,2,5/3,4/6,7" text form; "" is the empty tableau."""
    text = text.strip()
    if not text:
        return StandardTableau(())
    return tableau([list(map(integer, piece.split(","))) for piece in text.split("/")])


def _slide_path(rows: Sequence[Sequence[int]]) -> list[tuple[int, int]]:
    """The boxes the hole visits when the entry at (1,1) slides out of nonempty ``rows``.

    The hole swaps with the smaller of its right/below neighbours (ties
    cannot occur) until it reaches a corner.  The boxes are 0-based
    (row, column), (0, 0) first and that corner last; ``rows`` is only read.
    """
    r, c = 0, 0
    path = [(0, 0)]
    while True:
        right = rows[r][c + 1] if c + 1 < len(rows[r]) else None
        below = (
            rows[r + 1][c] if r + 1 < len(rows) and c < len(rows[r + 1]) else None
        )
        if right is None and below is None:
            return path
        if below is None or (right is not None and right < below):
            c += 1
        else:
            r += 1
        path.append((r, c))


def _slide_out(rows: list[list[int]]) -> tuple[int, int]:
    """Slide the entry at (1,1) out of nonempty ``rows`` in place, along ``_slide_path``.

    Each box of the path takes the entry of the next one, and the last box
    is deleted; returns that box as a 0-based (row, column).
    """
    path = _slide_path(rows)
    for (r, c), (r1, c1) in zip(path, path[1:]):
        rows[r][c] = rows[r1][c1]
    r, c = path[-1]
    del rows[r][c]
    if not rows[r]:
        rows.pop(r)
    return r, c


def _evacuate(rows: Sequence[Sequence[int]], lo: int, hi: int) -> list[list[int]]:
    """Evacuation of the rows of a tableau holding exactly the entries lo..hi.

    Schuetzenberger's theorem: evac P(w) = P(w#), where w# reverses and
    complements the row reading word w.  So the rows, taken top to bottom
    and each right to left, are row-inserted as ``lo + hi - x``.
    """
    out: list[list[int]] = []
    for row in rows:
        for x in reversed(row):
            y = lo + hi - x
            for p in out:
                i = bisect_right(p, y)
                if i == len(p):
                    p.append(y)
                    break
                p[i], y = y, p[i]
            else:
                out.append([y])
    return out


def jdt_remove_min(t: Tableau) -> tuple[Tableau, tuple[int, int]]:
    """Remove the minimal entry, at (1,1), by an inward jeu-de-taquin slide.

    Returns the slid tableau, entries untouched, and the 0-based
    (row, column) of the box it vacated.
    """
    if t.n == 0:
        raise ValueError("cannot slide in an empty tableau")
    rows = [list(row) for row in t.rows]
    hole = _slide_out(rows)
    return tableau(rows), hole


def _entry_range(t: Tableau) -> tuple[int, int]:
    """(lo, hi) when ``t`` holds exactly the entries lo..hi; (1, 0) when it is empty."""
    if not t.rows:
        return 1, 0
    lo, hi = t.rows[0][0], max(row[-1] for row in t.rows)
    if hi - lo + 1 != t.n:
        raise ValueError(f"entries {t.entries()} are not consecutive")
    return lo, hi


def restrict(t: Tableau, i: int, j: int) -> Tableau:
    """Keep entries ``i..j``: drop the larger entries, then slide out the smaller.

    Accepts any tableau with consecutive entries (restrictions keep their
    original entries, so they can be restricted again); the kept range must
    lie inside the entry range.
    """
    if t.n == 0:
        raise ValueError("cannot restrict the empty tableau")
    lo, hi = _entry_range(t)
    if not lo <= i <= j <= hi:
        raise ValueError(f"restriction range [{i},{j}] out of range {lo}..{hi}")
    rows = [[e for e in row if e <= j] for row in t.rows if row[0] <= j]
    while rows[0][0] < i:
        _slide_out(rows)
    return tableau(rows)


def standardize(t: Tableau) -> StandardTableau:
    """Shift a block of consecutive entries down to 1..n."""
    lo, _ = _entry_range(t)
    return StandardTableau(tuple(e - lo + 1 for e in row) for row in t.rows)


def _tableau_from_columns(columns: Sequence[int]) -> StandardTableau:
    """The standard tableau whose entry i sits in column ``columns[i-1]`` (1-based).

    Entry i goes below the entries already in its column j, and that row
    must then hold j - 1 entries, so the entries up to i always fill a
    diagram; any other column raises ValueError.
    """
    heights: dict[int, int] = {}
    rows: list[list[int]] = []
    for i, j in enumerate(columns, start=1):
        r = heights.get(j, 0)
        if r == len(rows):
            rows.append([])
        if len(rows[r]) != j - 1:
            raise ValueError(f"step {i} of chain does not add a single box")
        rows[r].append(i)
        heights[j] = r + 1
    # each entry i went to the end of a row below a longer one, so rows and
    # columns increase and the entries are 1..n
    return _trusted(tuple(map(tuple, rows)))


def from_shape_chain(diagrams: Sequence[Partition]) -> StandardTableau:
    """Rebuild the standard tableau from a chain of diagrams growing one box at a time.

    Each step must lengthen exactly one row by one box; the new length is
    the column that grows, and ``_tableau_from_columns`` places the entry.
    """
    if not diagrams or diagrams[0].parts:
        raise ValueError("chain must start with the empty diagram")
    columns = []
    for i, (old, new) in enumerate(zip(diagrams, diagrams[1:]), start=1):
        a, b = old.parts, new.parts
        a += (0,) * (len(b) - len(a))
        grown = [r for r, (x, y) in enumerate(zip(a, b)) if x != y]
        if len(a) != len(b) or len(grown) != 1 or b[grown[0]] != a[grown[0]] + 1:
            raise ValueError(f"step {i} of chain does not add a single box")
        columns.append(b[grown[0]])
    return _tableau_from_columns(columns)


def schuetzenberger(t: StandardTableau) -> StandardTableau:
    """Evacuation, an involution of the standard tableaux of each shape.

    By definition the k-th of ``n`` successive slides vacates the box that
    the shape of the remaining ``n-k`` entries lacks, and evacuation writes
    ``n-k+1`` there.  It is computed by row insertion of the reversed and
    complemented row reading word instead (Schuetzenberger's theorem).
    """
    _check_standard(t)
    # row insertion of the distinct entries 1..n builds a standard tableau
    return _trusted(tuple(map(tuple, _evacuate(t.rows, 1, t.n))))


def tau(t: Tableau) -> frozenset[int]:
    """Descent set: entries ``e`` whose successor ``e+1`` sits in a lower row.

    Defined for any tableau whose entries are consecutive; restrictions keep
    their original entries, so their descents live in the same range.
    """
    lo, hi = _entry_range(t)
    row_of = {e: r for r, row in enumerate(t.rows) for e in row}
    return frozenset(e for e in range(lo, hi) if row_of[e + 1] > row_of[e])


def _third_row_descent(t: Tableau) -> tuple[int, int]:
    """(third-row entry b, largest descent below b - 1) of a tableau of shape (r,s,1).

    The entries below b sit in the first two rows, so such a descent is an
    entry of the first row followed by the start of a run of consecutive
    entries in the second; the last run that starts below b gives it.
    """
    rows = t.rows
    if len(rows) != 3 or len(rows[2]) != 1:
        raise ValueError(f"statistic needs shape (r,s,1), got {t.shape}")
    _entry_range(t)  # descents are defined on consecutive entries only
    bottom = rows[2][0]
    middle = rows[1]
    # middle[0] lies above the third-row entry, so k >= 0
    k = bisect_left(middle, bottom) - 1
    while k and middle[k - 1] == middle[k] - 1:
        k -= 1
    return bottom, middle[k] - 1


def dist(t: StandardTableau) -> int:
    """Gap between the third-row entry and the previous descent, for shapes (r,s,1)."""
    bottom, j = _third_row_descent(t)
    return bottom - 1 - j


def concat(*tabs: Tableau) -> Tableau:
    """Concatenate column blocks side by side (rows are joined left to right).

    A block may only contribute to a row that is already full width, so the
    glued column heights stay non-increasing; anything else is an error.
    """
    blocks = [t for t in tabs if t.n]
    height = max((len(t.rows) for t in blocks), default=0)
    rows: list[tuple[int, ...]] = [()] * height
    width = 0
    for t in blocks:
        for q in range(len(t.rows)):
            if len(rows[q]) != width:
                raise ValueError("mismatched column heights between glued blocks")
            rows[q] = rows[q] + t.rows[q]
        width += t.shape.num_columns
    return tableau(row for row in rows if row)


def make_P(r: int, s: int) -> StandardTableau:
    """Two-row tableau with odd entries 1,3,..,2s-1 then 2s+1..r+s on top, evens below."""
    if not (r >= s >= 0):
        raise ValueError(f"need r >= s >= 0, got ({r},{s})")
    if r == 0:
        return StandardTableau(())
    top = tuple(range(1, 2 * s, 2)) + tuple(range(2 * s + 1, r + s + 1))
    bottom = tuple(range(2, 2 * s + 1, 2))
    rows = (top, bottom) if bottom else (top,)
    return StandardTableau(rows)


def make_P_shift(s: int, t: int) -> Tableau:
    """``make_P(s, s)`` with every entry shifted up by ``t``."""
    if t < 0:
        raise ValueError("shift must be nonnegative")
    base = make_P(s, s)
    return tableau(tuple(e + t for e in row) for row in base.rows)


def make_Q(k: int) -> StandardTableau:
    """Three-row tableau of shape (k,k,1) with 1,3,..,k+1 / 2,k+3,..,2k+1 / k+2."""
    if k < 1:
        raise ValueError("k must be at least 1")
    top = (1,) + tuple(range(3, k + 2))
    middle = (2,) + tuple(range(k + 3, 2 * k + 2))
    return StandardTableau((top, middle, (k + 2,)))


def column_superstandard(shape: Partition) -> StandardTableau:
    """Standard tableau filling the columns top to bottom, left to right."""
    heights = shape.conjugate().parts
    return _tableau_from_columns([j for j, height in enumerate(heights, start=1) for _ in range(height)])


def enumerate_tableaux(
    shape: Partition, max_n: int | None = None
) -> tuple[StandardTableau, ...]:
    """All standard tableaux of the shape, sorted by row reading word.

    Entries 1..n are placed depth-first into the available corner cells; a
    guard rejects shapes above the enumeration bound (default 12 boxes).
    """
    _check_bound(shape.n, max_n)
    fillings: list[tuple[tuple[int, ...], ...]] = []
    _fill(1, shape.n, shape.parts, [[] for _ in shape.parts], fillings)
    # each v went to the end of a row shorter than the one above it
    return tuple(map(_trusted, sorted(fillings)))


def _fill(v: int, n: int, parts: Sequence[int], rows: list[list[int]], out: list) -> None:
    """Place the entries v..n depth-first into the corners of ``rows`` that the shape ``parts`` allows.

    Appends the rows of each full filling to ``out`` and leaves ``rows`` as
    it found them.
    """
    if v > n:
        out.append(tuple(map(tuple, rows)))
        return
    for r, target in enumerate(parts):
        filled = len(rows[r])
        if filled < target and (r == 0 or len(rows[r - 1]) > filled):
            rows[r].append(v)
            _fill(v + 1, n, parts, rows, out)
            rows[r].pop()
