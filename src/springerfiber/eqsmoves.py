"""Equinonsingularity moves on standard tableaux and their class closure.

Two components of the same Springer fiber are equinonsingular when both
are singular or both are nonsingular.  Three tableau moves are known to
relate labels of equinonsingular components:

* the cyclic move ``C``: slide out the entry 1; when the hole lands at the
  end of the leading block of maximal-length rows, shift down by 1 and
  append ``n`` there.  ``c_inverse`` undoes it with a reverse slide.
* evacuation ``Sch`` (an involution, always applicable);
* the block forms of both, acting on a run of columns that splits off as
  a standard subtableau (both endpoints are cut points).

The closure works on row words: the row word of a standard tableau is
the tuple whose entry e-1 is the 0-based row of the entry e.  Only
``_cuts`` decides where a tableau splits.  With lo and hi the boxes in the
first a-1 and the first b columns, the block of columns a..b between two
cut points holds exactly the entries lo+1..hi in a straight shape, so its
row word is the slice ``word[lo:hi]`` and a moved block goes back as
``word[:lo] + moved + word[hi:]``.  Each move is one block routine on that
slice, the block's rows (sliced from the tableau's own rows, which the
routine only reads), its least entry and j, the number of its full-width
rows; ``MOVE_KINDS`` is read off the table of these routines.  A routine
returns the moved block word, or None when the move does not apply, and
decides that before it builds anything: C walks the read-only slide path
``_slide_path`` of :mod:`springerfiber.tableaux`, C⁻¹ makes one
comparison.  C and C⁻¹ change only the entries on the slide path;
evacuation runs ``_evacuate`` on the block's rows.  ``_moves`` slices each
block once for all the kinds it tries and serves the closure and
``legal_moves``.  One step, ``_apply``, runs a single routine on one block:
``block_move`` on the columns of its label, ``c_move`` and ``c_inverse`` on
the whole tableau, the block of columns 1..m.  It builds only the tableau
it returns, and a failed C re-reads the slide end to name why it failed.
Row words are read by ``_word`` of :mod:`springerfiber.tableaux`, and every
tableau a move returns is built from its row word by ``_from_word`` there,
which checks in one pass that the word is a lattice word of the shape the
move started from, that is, the row word of a standard tableau of that
shape.  One worklist keyed by row words, ``_closure``, serves both class
callers: ``eqs_class`` builds each new member that way once, the only
runtime check on what the moves produce, and ``eqs_partition`` partitions
all tableaux of a shape into classes whose members it looks up by row
word among the enumeration, which builds them standard by construction
and validates none.  The closure computes each move pair once: C and C⁻¹
on the same block undo each other and evacuation is an involution, so a
tableau reached by a move never tries the reverse move, whose result is
already found.  For shapes (r,s,1) the ``dist`` statistic is constant on
every class, which ``dist_class_invariant`` verifies exhaustively.

A caution on scope: one could define a more general cyclic step that
appends ``n`` in the vacated box wherever the slide hole lands, not only
at the end of the leading block.  That step does not preserve the
singularity of the labelled components (the shape (2,2,1,1) tableau
1,3/2,5/4/6 labels a singular component while its generalized image
1,2/3,4/5/6 labels a nonsingular one), so it is deliberately not a move
here and never participates in the class closure.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Sequence

from .partitions import Partition
from .tableaux import (
    StandardTableau,
    _check_bound,
    _check_standard,
    _evacuate,
    _from_word,
    _slide_path,
    _word,
    dist,
    enumerate_tableaux,
    jdt_remove_min,  # unused; perfbench/check_bench.py checks the tracer wraps it here
)


class MoveError(ValueError):
    """A move's applicability condition failed."""


@dataclass(frozen=True, order=True)
class MoveLabel:
    """A block move: a kind in ``MOVE_KINDS`` acting on columns i..j."""

    kind: str
    columns: tuple[int, int]

    def __post_init__(self):
        if self.kind not in MOVE_KINDS:
            raise ValueError(f"unknown move kind {self.kind!r}")
        i, j = self.columns
        if not 1 <= i < j:
            raise ValueError(f"need column pair i < j, got ({i},{j})")

    def __str__(self) -> str:
        return f"{self.kind}[{self.columns[0]},{self.columns[1]}]"


# The block routines.  Each takes the row word of a block holding the entries
# lo..hi in a straight shape, the block's rows, lo, and j, the number of its
# full-width rows; it returns the row word of the moved block, whose entry
# e sits at index e - lo, or None when the move does not apply.


def _cyclic_word(
    word: Sequence[int], block: Sequence[Sequence[int]], lo: int, j: int
) -> tuple[int, ...] | None:
    """C: applies when the slide hole of lo ends in row j, at the end of the leading block.

    Every entry shifts down by one and hi fills the vacated box, so only an
    entry that the slide moves up changes its row.
    """
    path = _slide_path(block)
    if path[-1][0] != j - 1:
        return None
    moved = [*word[1:], j - 1]
    for (r, _), (r1, c1) in zip(path, path[1:]):
        if r1 != r:
            moved[block[r1][c1] - lo - 1] = r
    return tuple(moved)


def _cyclic_inverse_word(
    word: Sequence[int], block: Sequence[Sequence[int]], lo: int, j: int
) -> tuple[int, ...] | None:
    """C⁻¹: applies when hi sits in row j, at the foot of the last column.

    Every entry shifts up by one and the hole left by hi slides back to
    (1,1), taking the larger of its left/above neighbours, where lo goes;
    only an entry that moves down changes its row.
    """
    if word[-1] != j - 1:
        return None
    moved = [0, *word[:-1]]
    r, c = j - 1, len(block[0]) - 1
    while r or c:
        left = block[r][c - 1] if c else None
        above = block[r - 1][c] if r else None
        if above is None or (left is not None and left > above):
            c -= 1
        else:
            moved[above - lo + 1] = r
            r -= 1
    return tuple(moved)


def _evacuate_word(
    word: Sequence[int], block: Sequence[Sequence[int]], lo: int, j: int
) -> tuple[int, ...]:
    """Evacuation, by ``_evacuate`` on the block's rows; it always applies."""
    moved = [0] * len(word)
    for r, row in enumerate(_evacuate(block, lo, lo + len(word) - 1)):
        for e in row:
            moved[e - lo] = r
    return tuple(moved)


def _cuts(rows: Sequence[Sequence[int]]) -> list[tuple[int, int, int]]:
    """(i, boxes in the first i columns, height of column i) for each cut point i.

    The boundaries 0 and m are cut points; column 0 has height 0.
    """
    if not rows:
        return [(0, 0, 0)]
    top = rows[0]
    cuts, boxes, height = [(0, 0, 0)], 0, len(rows)
    for i in range(1, len(top) + 1):
        while len(rows[height - 1]) < i:
            height -= 1
        boxes += height
        if i == len(top) or top[i] == boxes + 1:
            cuts.append((i, boxes, height))
    return cuts


_BLOCK_MOVES = {"C": _cyclic_word, "Cinv": _cyclic_inverse_word, "SchBlock": _evacuate_word}
MOVE_KINDS = tuple(_BLOCK_MOVES)
# The move on the same block that undoes each kind; evacuation is an involution.
_REVERSE = {"C": "Cinv", "Cinv": "C", "SchBlock": "SchBlock"}


def _moves(x: tuple[int, ...], rows: tuple[tuple[int, ...], ...], skip):
    """(kind, a, b, word) for every applicable move on a block of two or more columns.

    ``x`` is the row word of the tableau with rows ``rows``.  The block of
    columns a..b, a-1 and b cut points, holds the entries lo+1..hi, where lo
    and hi count the boxes in the first a-1 and b columns: its row word is
    ``x[lo:hi]`` and its rows are sliced from ``rows``, once for all kinds.
    A move that applies gives ``x[:lo] + moved + x[hi:]``; one that does not
    builds nothing.  Moves whose label (kind, a, b) is in ``skip`` are not
    tried.
    """
    cuts = _cuts(rows)
    for p, (left, lo, _) in enumerate(cuts):
        a = left + 1
        for b, hi, j in cuts[p + 1 :]:
            if b == a:
                continue
            word = x[lo:hi]
            block = [row[left:b] for row in rows if len(row) > left]
            for kind, move in _BLOCK_MOVES.items():
                if (kind, a, b) in skip:
                    continue
                moved = move(word, block, lo + 1, j)
                if moved is not None:
                    yield kind, a, b, x[:lo] + moved + x[hi:]


def _apply(t: StandardTableau, kind: str, a: int, b: int) -> StandardTableau:
    """Move ``kind`` on the block of columns a..b, put back in place; a-1 and b must be cut points.

    ``_cuts`` gives lo and hi, the boxes in the first a-1 and b columns, and
    j, the height of column b.  The block's row word is ``x[lo:hi]`` and its
    rows are sliced from the tableau's; only the result is built.  A move
    that does not apply raises MoveError, naming entries as in the block
    shifted to 1..size.  ValueError unless ``t`` is standard.
    """
    _check_standard(t)
    rows = t.rows
    cuts = {i: (boxes, height) for i, boxes, height in _cuts(rows)}
    if a - 1 not in cuts or b not in cuts:
        raise MoveError(f"columns [{a},{b}] do not split off as a block")
    lo, _ = cuts[a - 1]
    hi, j = cuts[b]
    x = _word(rows)
    block = [row[a - 1 : b] for row in rows if len(row) >= a]
    moved = _BLOCK_MOVES[kind](x[lo:hi], block, lo + 1, j)
    if moved is None:
        if kind == "C":
            r = _slide_path(block)[-1][0]
            raise MoveError(f"slide hole ended in row {r + 1}, not at the leading block row {j}")
        raise MoveError(f"entry {hi - lo} does not close the leading block of equal rows")
    return _from_word(x[:lo] + moved + x[hi:], tuple(map(len, rows)))


def c_move(t: StandardTableau) -> StandardTableau:
    """Cyclic move: slide out 1, shift down by 1, append ``n`` in the vacated corner.

    Applicable only when the hole lands at the end of row ``j``, the last
    row of the leading block of maximal-length rows; the result has the
    same shape.  The whole tableau is its own block of columns 1..m.
    """
    if not t.rows:
        raise MoveError("cyclic move undefined on the empty tableau")
    return _apply(t, "C", 1, len(t.rows[0]))


def c_inverse(t: StandardTableau) -> StandardTableau:
    """Inverse cyclic move: remove ``n``, shift up, slide the hole back to (1,1).

    Applicable only when ``n`` closes the leading block of maximal-length
    rows.  The reverse slide moves the larger of the left/above neighbours
    into the hole, retracing the forward slide path.
    """
    if not t.rows:
        raise MoveError("inverse cyclic move undefined on the empty tableau")
    return _apply(t, "Cinv", 1, len(t.rows[0]))


def block_move(t: StandardTableau, label: MoveLabel) -> StandardTableau:
    """Apply a move to the block of columns a..b and put the moved block back in place.

    Both ``a-1`` and ``b`` must be cut points; only the result is built.
    """
    a, b = label.columns
    m = len(t.rows[0]) if t.rows else 0
    if not 1 <= a < b <= m:
        raise MoveError(f"column range [{a},{b}] out of bounds for {m} columns")
    return _apply(t, label.kind, a, b)


def legal_moves(t: StandardTableau) -> tuple[tuple[MoveLabel, StandardTableau], ...]:
    """All applicable block moves on at least two columns, with their results; ValueError unless ``t`` is standard."""
    _check_standard(t)
    shape = tuple(map(len, t.rows))
    return tuple(
        (MoveLabel(k, (a, b)), _from_word(word, shape))
        for k, a, b, word in _moves(_word(t.rows), t.rows, ())
    )


@dataclass(frozen=True)
class EqsClass:
    """A class of tableaux labelling pairwise equinonsingular components."""

    shape: Partition
    members: tuple[StandardTableau, ...]
    representative: StandardTableau
    dist: int | None

    @property
    def size(self) -> int:
        return len(self.members)

    def to_json(self) -> dict:
        out = {
            "representative": self.representative.text(),
            "size": self.size,
        }
        if self.dist is not None:
            out["dist"] = self.dist
        return out


def _closure(t: StandardTableau, shape: Partition, member) -> EqsClass:
    """Class of ``t`` by a worklist over row words, each move pair computed once.

    ``member`` turns the row word of each newly reached tableau into that
    tableau, once per member; ``t`` itself is taken as given.  A block move
    keeps the block's entries and shape, so when x reaches y by (kind, a, b),
    a-1 and b are cut points of y and the reverse move on y gives x back.
    Each tableau found but not yet expanded therefore keeps the labels of
    its moves whose result is already found, and its expansion skips them.
    Members are sorted by rows and the representative is the smallest.
    ``shape`` is the shape of ``t``, which the caller builds once.
    """
    start = _word(t.rows)
    found = {start: t}
    known = {start: set()}
    todo = [start]
    while todo:
        x = todo.pop()
        for kind, a, b, y in _moves(x, found[x].rows, known.pop(x)):
            if y not in found:
                found[y] = member(y)
                known[y] = {(_REVERSE[kind], a, b)}
                todo.append(y)
            elif y in known:
                known[y].add((_REVERSE[kind], a, b))
    members = tuple(sorted(found.values(), key=attrgetter("rows")))
    return EqsClass(shape, members, members[0], dist(members[0]) if shape.is_rs1 else None)


def eqs_class(t: StandardTableau, max_n: int | None = None) -> EqsClass:
    """Closure of a tableau under all applicable block moves, by a worklist.

    Each new member is built once from its row word, which is checked to
    be a lattice word of the shape of ``t``.  Deterministic regardless of
    visiting order: the member set is canonical, members are sorted in
    ``Tableau`` order (row reading word order within one shape), and the
    representative is the smallest member.  ValueError unless ``t`` is
    standard.
    """
    _check_standard(t)
    _check_bound(t.n, max_n)
    shape = tuple(map(len, t.rows))
    return _closure(t, t.shape, lambda word: _from_word(word, shape))


def eqs_partition(shape: Partition, max_n: int | None = None) -> tuple[EqsClass, ...]:
    """Partition all standard tableaux of the shape into move classes.

    Each class is seeded by the first tableau in enumeration (row reading word)
    order that no earlier class holds, which is its representative.  Its
    members are the enumerated tableaux themselves, taken by row word.
    """
    remaining = {_word(t.rows): t for t in enumerate_tableaux(shape, max_n=max_n)}

    def take(word):
        if word not in remaining:
            raise AssertionError("move closure escaped the remaining tableaux")
        return remaining.pop(word)

    classes = []
    while remaining:
        classes.append(_closure(take(next(iter(remaining))), shape, take))
    return tuple(classes)


def _report(shape: Partition, classes: tuple[EqsClass, ...]) -> dict:
    return {
        "shape": str(shape),
        "class_count": len(classes),
        "classes": [cls.to_json() for cls in classes],
    }


def partition_report(shape: Partition, max_n: int | None = None) -> dict:
    """JSON-ready report of the class partition of a shape."""
    return _report(shape, eqs_partition(shape, max_n=max_n))


def dist_class_invariant(shape: Partition) -> dict:
    """Check that ``dist`` is constant on every class of a shape (r,s,1).

    Never raises on a violation; the report carries the findings.
    """
    if not shape.is_rs1:
        raise ValueError(f"invariant needs shape (r,s,1), got {shape}")
    classes = eqs_partition(shape)
    violations = []
    for cls in classes:
        values = sorted({dist(member) for member in cls.members})
        if len(values) != 1:
            violations.append(
                {"representative": cls.representative.text(), "dists": values}
            )
    return {**_report(shape, classes), "violations": violations, "ok": not violations}
