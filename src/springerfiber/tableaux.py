"""Young tableaux and the jeu-de-taquin slide calculus on them.

A tableau here is a ragged array of *distinct* positive integers that
increase along rows and down columns; it is standard when its entries are
exactly 1..n.  Standard tableaux of shape lambda index the irreducible
components of the Springer fiber whose nilpotent has Jordan type lambda.

The workhorse is one in-place jeu-de-taquin slide on a list of rows: it
removes the entry at (1,1) and reports the box it vacates, so operations
work on plain rows and validate only the tableau they return.
``restrict(T, i, j)`` deletes the entries above ``j`` (removable corners)
and slides out those below ``i``; it keeps the original entries, and
``standardize`` shifts them back to 1..n.  Evacuation (Schuetzenberger)
numbers the boxes vacated by successive slides from ``n`` down to 1.

Also provided: enumeration of all standard tableaux of a shape, the row
statistics driving the move calculus in :mod:`springerfiber.eqsmoves`
(row reader ``row_of``, descent set ``tau``, and the ``dist`` statistic of
shapes (r,s,1)), concatenation of column blocks, and the named tableau
families ``P(r,s)`` and ``Q(k,k,1)`` that serve as canonical class
representatives.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Sequence

from .partitions import Partition

DEFAULT_ENUM_BOUND = 12


def _validate_rows(rows: tuple[tuple[int, ...], ...]) -> None:
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
        if any(b <= a for a, b in zip(row, row[1:])):
            raise ValueError(f"row {row} is not increasing")
    for upper, lower in zip(rows, rows[1:]):
        for a, b in zip(upper, lower):
            if b <= a:
                raise ValueError(f"column not increasing at {a} over {b}")


class Tableau:
    """Ragged array of distinct positive integers, increasing in rows and columns."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[int]] = ()):
        rows = tuple(tuple(int(e) for e in row) for row in rows)
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

    def entry(self, i: int, j: int) -> int:
        """Entry in row ``i``, column ``j`` (both 1-based)."""
        try:
            return self.rows[i - 1][j - 1]
        except IndexError:
            raise ValueError(f"no box at ({i},{j})") from None

    def position_of(self, e: int) -> tuple[int, int]:
        """(row, column), 1-based, of entry ``e``."""
        for i, row in enumerate(self.rows):
            for j, x in enumerate(row):
                if x == e:
                    return i + 1, j + 1
        raise ValueError(f"entry {e} not in tableau")

    def row_of(self, e: int) -> int:
        """1-based row index of entry ``e``."""
        return self.position_of(e)[0]

    def is_standard(self) -> bool:
        # distinct positive integers are exactly 1..n when the largest is n
        return max((row[-1] for row in self.rows), default=0) == self.n

    def row_word(self) -> tuple[int, ...]:
        """Row reading word: rows concatenated top to bottom."""
        return tuple(chain.from_iterable(self.rows))

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
        return self.rows < other.rows

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.text()!r})"


class StandardTableau(Tableau):
    """A tableau whose entry set is exactly 1..n."""

    __slots__ = ()

    def __init__(self, rows: Iterable[Iterable[int]] = ()):
        super().__init__(rows)
        if not self.is_standard():
            raise ValueError(f"entries must be exactly 1..{self.n}, got {self.entries()}")


def tableau(rows: Iterable[Iterable[int]]) -> Tableau:
    """Validate rows, returning a StandardTableau when the entries are 1..n."""
    rows = tuple(tuple(int(e) for e in row) for row in rows)
    largest = max((row[-1] for row in rows if row), default=0)
    standard = largest == sum(len(row) for row in rows)
    return (StandardTableau if standard else Tableau)(rows)


def parse_tableau(text: str) -> Tableau:
    """Parse the "1,2,5/3,4/6,7" text form; "" is the empty tableau."""
    text = text.strip()
    if not text:
        return StandardTableau(())
    return tableau([piece.split(",") for piece in text.split("/")])


def truncate(t: StandardTableau, i: int) -> StandardTableau:
    """Delete the boxes of entries ``i+1..n``; their boxes are removable corners."""
    if not 0 <= i <= t.n:
        raise ValueError(f"truncation index {i} out of range 0..{t.n}")
    rows = [tuple(e for e in row if e <= i) for row in t.rows]
    return StandardTableau(row for row in rows if row)


def _slide_out(rows: list[list[int]]) -> tuple[int, int]:
    """Slide the entry at (1,1) out of nonempty ``rows`` in place.

    The hole swaps with the smaller of its right/below neighbours (ties
    cannot occur) until it reaches a corner, whose box is deleted; returns
    that box as a 0-based (row, column).
    """
    r, c = 0, 0
    while True:
        right = rows[r][c + 1] if c + 1 < len(rows[r]) else None
        below = (
            rows[r + 1][c] if r + 1 < len(rows) and c < len(rows[r + 1]) else None
        )
        if right is None and below is None:
            break
        if below is None or (right is not None and right < below):
            rows[r][c] = right
            c += 1
        else:
            rows[r][c] = below
            r += 1
    del rows[r][c]
    if not rows[r]:
        rows.pop(r)
    return r, c


def _evacuate(rows: list[list[int]]) -> list[list[int]]:
    """Evacuation of the rows of a standard tableau, consumed by the slides."""
    evacuated = [[0] * len(row) for row in rows]
    for e in range(sum(len(row) for row in rows), 0, -1):
        r, c = _slide_out(rows)
        evacuated[r][c] = e
    return evacuated


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


def restrict(t: Tableau, i: int, j: int) -> Tableau:
    """Keep entries ``i..j``: drop the larger entries, then slide out the smaller.

    Accepts any tableau with consecutive entries (restrictions keep their
    original entries, so they can be restricted again); the kept range must
    lie inside the entry range.
    """
    if t.n == 0:
        raise ValueError("cannot restrict the empty tableau")
    entries = t.entries()
    lo, hi = entries[0], entries[-1]
    if entries != tuple(range(lo, hi + 1)):
        raise ValueError("restriction needs consecutive entries")
    if not lo <= i <= j <= hi:
        raise ValueError(f"restriction range [{i},{j}] out of range {lo}..{hi}")
    rows = [[e for e in row if e <= j] for row in t.rows if row[0] <= j]
    while rows[0][0] < i:
        _slide_out(rows)
    return tableau(rows)


def standardize(t: Tableau) -> StandardTableau:
    """Shift a block of consecutive entries down to 1..n."""
    if t.n == 0:
        return StandardTableau(())
    entries = t.entries()
    lo = entries[0]
    if entries != tuple(range(lo, lo + t.n)):
        raise ValueError(f"entries {entries} are not consecutive")
    return StandardTableau(tuple(e - lo + 1 for e in row) for row in t.rows)


def shape_chain(t: StandardTableau) -> tuple[Partition, ...]:
    """Shapes of the truncations to 0..n entries; determines the tableau."""
    counters = [0] * len(t.rows)
    out = [Partition(())]
    for e in range(1, t.n + 1):
        counters[t.row_of(e) - 1] += 1
        out.append(Partition(c for c in counters if c))
    return tuple(out)


def from_shape_chain(diagrams: Sequence[Partition]) -> StandardTableau:
    """Rebuild the standard tableau from a chain of diagrams growing one box at a time."""
    if not diagrams or diagrams[0].n != 0:
        raise ValueError("chain must start with the empty diagram")
    rows: list[list[int]] = []
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


def schuetzenberger(t: StandardTableau) -> StandardTableau:
    """Evacuation: slide out the entries one by one, numbering the vacated boxes.

    The k-th slide vacates the box that the shape of the remaining ``n-k``
    entries lacks; writing ``n-k+1`` there yields an involution of the
    standard tableaux of each shape.
    """
    return StandardTableau(_evacuate([list(row) for row in t.rows]))


def tau(t: Tableau) -> frozenset[int]:
    """Descent set: entries ``e`` whose successor ``e+1`` sits in a lower row.

    Defined for any tableau whose entries are consecutive; restrictions keep
    their original entries, so their descents live in the same range.
    """
    if t.n == 0:
        return frozenset()
    entries = t.entries()
    if entries != tuple(range(entries[0], entries[0] + t.n)):
        raise ValueError("descents need consecutive entries")
    return frozenset(
        e for e in entries[:-1] if t.row_of(e + 1) > t.row_of(e)
    )


def _require_rs1(t: Tableau) -> None:
    p = t.shape.parts
    if len(p) != 3 or p[2] != 1:
        raise ValueError(f"statistic needs shape (r,s,1), got {t.shape}")


def j_stat(t: StandardTableau) -> int:
    """Largest descent below the third-row entry, for shapes (r,s,1)."""
    _require_rs1(t)
    bottom = t.entry(3, 1)
    return max(i for i in tau(t) if i < bottom - 1)


def dist(t: StandardTableau) -> int:
    """Gap between the third-row entry and the previous descent, for shapes (r,s,1)."""
    _require_rs1(t)
    return t.entry(3, 1) - 1 - j_stat(t)


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
    conj = shape.conjugate().parts
    rows: list[list[int]] = [[] for _ in shape.parts]
    e = 1
    for height in conj:
        for r in range(height):
            rows[r].append(e)
            e += 1
    return StandardTableau(rows)


def enumerate_tableaux(
    shape: Partition, max_n: int | None = None
) -> tuple[StandardTableau, ...]:
    """All standard tableaux of the shape, sorted by row reading word.

    Entries 1..n are placed depth-first into the available corner cells; a
    guard rejects shapes above the enumeration bound (default 12 boxes).
    """
    bound = DEFAULT_ENUM_BOUND if max_n is None else max_n
    if shape.n > bound:
        raise ValueError(f"enumeration bound exceeded: n={shape.n} > {bound}")
    parts = shape.parts
    results: list[StandardTableau] = []
    rows: list[list[int]] = [[] for _ in parts]

    def place(v: int) -> None:
        if v > shape.n:
            results.append(StandardTableau([tuple(r) for r in rows]))
            return
        for r, target in enumerate(parts):
            filled = len(rows[r])
            if filled < target and (r == 0 or len(rows[r - 1]) > filled):
                rows[r].append(v)
                place(v + 1)
                rows[r].pop()

    place(1)
    return tuple(sorted(results, key=lambda t: t.rows))
