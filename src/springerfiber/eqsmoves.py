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

Each move is one routine on the rows of a tableau holding a run of
entries lo..hi (C and C⁻¹ here, evacuation in
:mod:`springerfiber.tableaux`), which it reads without modifying, so it
acts on a block's own entries; ``MOVE_KINDS`` is read off the table of
these routines.  C⁻¹ fails before it copies anything unless hi sits at the
foot of the last column.  Only ``cut_points`` decides where a tableau
splits.  The block between two cut points holds exactly the next run of
entries in a straight shape; ``_cut`` takes it and its lo..hi out of the
rows and ``_paste`` puts a moved block back.  ``_moves`` cuts each block
once for all the kinds it tries, and ``_move``, behind ``block_move``,
runs one kind through the same two helpers.  ``block_move``,
``legal_moves``, ``c_move`` and ``c_inverse`` validate only the tableaux
they return.  One worklist over row tuples, ``_closure``, serves both
class callers: ``eqs_class`` validates each new member once, the only
runtime check on what the moves produce, and ``eqs_partition``
partitions all tableaux of a shape into classes whose members it takes
from the enumeration, which builds them standard by construction and
validates none.  The closure computes each move pair once: C and C⁻¹ on
the same block undo each other and evacuation is an involution, so a
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
from typing import Sequence

from .partitions import Partition
from .tableaux import (
    StandardTableau,
    _check_bound,
    _evacuate,
    _slide_out,
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


def _cyclic(rows: Sequence[Sequence[int]], lo: int, hi: int) -> list[list[int]]:
    """C on the nonempty rows of a tableau holding exactly lo..hi."""
    rows = [list(row) for row in rows]
    j = sum(len(row) == len(rows[0]) for row in rows)
    r, _ = _slide_out(rows)
    if r != j - 1:
        raise MoveError(
            f"slide hole ended in row {r + 1}, not at the leading block row {j}"
        )
    rows = [[e - 1 for e in row] for row in rows]
    if j - 1 == len(rows):
        rows.append([hi])
    else:
        rows[j - 1].append(hi)
    return rows


def _cyclic_inverse(rows: Sequence[Sequence[int]], lo: int, hi: int) -> list[list[int]]:
    """C⁻¹ on the nonempty rows of a tableau holding exactly lo..hi.

    Applicable when hi, the largest entry, sits at the foot of the last
    column; that is decided before anything is copied.  Errors name
    entries as in the block shifted to 1..size.
    """
    width = len(rows[0])
    jr = sum(len(row) == width for row in rows) - 1
    if rows[jr][-1] != hi:
        raise MoveError(
            f"entry {hi - lo + 1} does not close the leading block of equal rows"
        )
    rows = [[e + 1 for e in row] for row in rows]
    r, c = jr, width - 1
    while (r, c) != (0, 0):
        left = rows[r][c - 1] if c > 0 else None
        above = rows[r - 1][c] if r > 0 else None
        if above is None or (left is not None and left > above):
            rows[r][c] = left
            c -= 1
        else:
            rows[r][c] = above
            r -= 1
    rows[0][0] = lo
    return rows


def c_move(t: StandardTableau) -> StandardTableau:
    """Cyclic move: slide out 1, shift down by 1, append ``n`` in the vacated corner.

    Applicable only when the hole lands at the end of row ``j``, the last
    row of the leading block of maximal-length rows; the result has the
    same shape.
    """
    if t.n == 0:
        raise MoveError("cyclic move undefined on the empty tableau")
    return StandardTableau(_cyclic(t.rows, 1, t.n))


def c_inverse(t: StandardTableau) -> StandardTableau:
    """Inverse cyclic move: remove ``n``, shift up, slide the hole back to (1,1).

    Applicable only when ``n`` closes the leading block of maximal-length
    rows.  The reverse slide moves the larger of the left/above neighbours
    into the hole, retracing the forward slide path.
    """
    if t.n == 0:
        raise MoveError("inverse cyclic move undefined on the empty tableau")
    return StandardTableau(_cyclic_inverse(t.rows, 1, t.n))


def cut_points(t: StandardTableau) -> tuple[int, ...]:
    """Column indices where the tableau splits, with the boundaries 0 and m.

    Column ``i`` is a cut point when the first ``i`` columns hold exactly
    the entries 1..(boxes in those columns), i.e. the entry atop column
    ``i+1`` is that count plus one.
    """
    return _cut_points(t.rows)


def _cut_points(rows: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    if not rows:
        return (0,)
    top = rows[0]
    points, boxes, height = [0], 0, len(rows)
    for i in range(1, len(top)):
        while len(rows[height - 1]) < i:
            height -= 1
        boxes += height
        if top[i] == boxes + 1:
            points.append(i)
    points.append(len(top))
    return tuple(points)


_BLOCK_MOVES = {"C": _cyclic, "Cinv": _cyclic_inverse, "SchBlock": _evacuate}
MOVE_KINDS = tuple(_BLOCK_MOVES)
# The move on the same block that undoes each kind; evacuation is an involution.
_REVERSE = {"C": "Cinv", "Cinv": "C", "SchBlock": "SchBlock"}


def _cut(
    rows: tuple[tuple[int, ...], ...], a: int, b: int
) -> tuple[list[tuple[int, ...]], int, int]:
    """The block of columns a..b, a-1 and b cut points, with its entries lo..hi.

    The block holds the next run of entries in a straight shape; no move
    routine modifies it, so every kind runs on the one cut.
    """
    block = [row[a - 1 : b] for row in rows if len(row) >= a]
    lo = block[0][0]
    return block, lo, lo + sum(map(len, block)) - 1


def _paste(
    rows: tuple[tuple[int, ...], ...], a: int, b: int, moved: list[list[int]]
) -> tuple[tuple[int, ...], ...]:
    """``rows`` with the block of columns a..b replaced by the ``moved`` block.

    A move keeps the block's shape, so the rows below it stay as they are.
    """
    return tuple(
        row[: a - 1] + tuple(middle) + row[b:] for row, middle in zip(rows, moved)
    ) + rows[len(moved) :]


def _move(
    rows: tuple[tuple[int, ...], ...], kind: str, a: int, b: int
) -> tuple[tuple[int, ...], ...]:
    """``rows`` after a move on columns a..b; a-1 and b must be cut points."""
    block, lo, hi = _cut(rows, a, b)
    return _paste(rows, a, b, _BLOCK_MOVES[kind](block, lo, hi))


def _moves(rows: tuple[tuple[int, ...], ...], skip):
    """(kind, a, b, rows) for every applicable move on a block of two or more columns.

    Each block is cut once for all kinds.  Moves whose label (kind, a, b)
    is in ``skip`` are not tried.
    """
    cps = _cut_points(rows)
    for x, left in enumerate(cps):
        a = left + 1
        for b in cps[x + 1 :]:
            if b == a:
                continue
            block, lo, hi = _cut(rows, a, b)
            for kind, move in _BLOCK_MOVES.items():
                if (kind, a, b) in skip:
                    continue
                try:
                    moved = move(block, lo, hi)
                except MoveError:
                    continue
                yield kind, a, b, _paste(rows, a, b, moved)


def block_move(t: StandardTableau, label: MoveLabel) -> StandardTableau:
    """Apply a move to the standardized block of columns a..b, then reassemble.

    Both ``a-1`` and ``b`` must be cut points; only the result is validated.
    """
    a, b = label.columns
    m = len(t.rows[0]) if t.rows else 0
    if not 1 <= a < b <= m:
        raise MoveError(f"column range [{a},{b}] out of bounds for {m} columns")
    cps = cut_points(t)
    if a - 1 not in cps or b not in cps:
        raise MoveError(f"columns [{a},{b}] do not split off as a block")
    return StandardTableau(_move(t.rows, label.kind, a, b))


def legal_moves(t: StandardTableau) -> tuple[tuple[MoveLabel, StandardTableau], ...]:
    """All applicable block moves on at least two columns, with their results."""
    return tuple(
        (MoveLabel(k, (a, b)), StandardTableau(rows)) for k, a, b, rows in _moves(t.rows, ())
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


def _closure(t: StandardTableau, member) -> EqsClass:
    """Class of ``t`` by a worklist over row tuples, each move pair computed once.

    ``member`` turns the rows of each newly reached tableau into that
    tableau, once per member; ``t`` itself is taken as given.  A block move
    keeps the block's entries and shape, so when x reaches y by (kind, a, b),
    a-1 and b are cut points of y and the reverse move on y gives x back.
    Each tableau found but not yet expanded therefore keeps the labels of
    its moves whose result is already found, and its expansion skips them.
    Members are sorted by rows and the representative is the smallest.
    """
    found = {t.rows: t}
    known = {t.rows: set()}
    todo = [t.rows]
    while todo:
        x = todo.pop()
        for kind, a, b, rows in _moves(x, known.pop(x)):
            if rows not in found:
                found[rows] = member(rows)
                known[rows] = {(_REVERSE[kind], a, b)}
                todo.append(rows)
            elif rows in known:
                known[rows].add((_REVERSE[kind], a, b))
    members = tuple(found[rows] for rows in sorted(found))
    shape = t.shape
    return EqsClass(shape, members, members[0], dist(members[0]) if shape.is_rs1 else None)


def eqs_class(t: StandardTableau, max_n: int | None = None) -> EqsClass:
    """Closure of a tableau under all applicable block moves, by a worklist.

    Each new member is validated once.  Deterministic regardless of
    visiting order: the member set is canonical, members are sorted in
    ``Tableau`` order (row reading word order within one shape), and the
    representative is the smallest member.
    """
    _check_bound(t.n, max_n)
    return _closure(t, StandardTableau)


def eqs_partition(shape: Partition, max_n: int | None = None) -> tuple[EqsClass, ...]:
    """Partition all standard tableaux of the shape into move classes.

    Each class is seeded by the first tableau in enumeration (row word)
    order that no earlier class holds, which is its representative.  Its
    members are the enumerated tableaux themselves, taken by rows.
    """
    remaining = {t.rows: t for t in enumerate_tableaux(shape, max_n=max_n)}

    def take(rows):
        if rows not in remaining:
            raise AssertionError("move closure escaped the remaining tableaux")
        return remaining.pop(rows)

    classes = []
    while remaining:
        classes.append(_closure(take(next(iter(remaining))), take))
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
