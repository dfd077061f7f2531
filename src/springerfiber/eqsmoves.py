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

Each move is one routine on plain row lists (C and C⁻¹ here, evacuation
in :mod:`springerfiber.tableaux`).  ``c_move``, ``c_inverse`` and
``block_move`` validate only the tableau they return: the block between
two cut points of a standard tableau holds exactly the next run of
entries in a straight shape, so it is shifted, moved and put back as rows.

``eqs_class`` closes a tableau under all block moves on at least two
columns; ``eqs_partition`` partitions all tableaux of a shape into those
classes.  For shapes (r,s,1) the ``dist`` statistic is constant on every
class, which ``dist_class_invariant`` verifies exhaustively.

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

from .partitions import Partition
from .tableaux import (
    DEFAULT_ENUM_BOUND,
    StandardTableau,
    _evacuate,
    _slide_out,
    dist,
    enumerate_tableaux,
    jdt_remove_min,  # unused; perfbench/check_bench.py checks the tracer wraps it here
)

MOVE_KINDS = ("C", "Cinv", "SchBlock")


class MoveError(ValueError):
    """A move's applicability condition failed."""


@dataclass(frozen=True, order=True)
class MoveLabel:
    """A block move: kind in {"C", "Cinv", "SchBlock"} acting on columns i..j."""

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


def _cyclic(rows: list[list[int]], n: int) -> list[list[int]]:
    """C on the nonempty rows of a standard tableau of size ``n``, consumed."""
    j = sum(len(row) == len(rows[0]) for row in rows)
    r, _ = _slide_out(rows)
    if r != j - 1:
        raise MoveError(
            f"slide hole ended in row {r + 1}, not at the leading block row {j}"
        )
    rows = [[e - 1 for e in row] for row in rows]
    if j - 1 == len(rows):
        rows.append([n])
    else:
        rows[j - 1].append(n)
    return rows


def _cyclic_inverse(rows: list[list[int]], n: int) -> list[list[int]]:
    """C⁻¹ on the nonempty rows of a standard tableau of size ``n``."""
    jr = next(r for r, row in enumerate(rows) if row[-1] == n)
    if len(rows[jr]) != len(rows[0]):
        raise MoveError(f"entry {n} does not close the leading block of equal rows")
    rows = [[e + 1 for e in row] for row in rows]
    r, c = jr, len(rows[jr]) - 1
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
    return rows


def c_move(t: StandardTableau) -> StandardTableau:
    """Cyclic move: slide out 1, shift down by 1, append ``n`` in the vacated corner.

    Applicable only when the hole lands at the end of row ``j``, the last
    row of the leading block of maximal-length rows; the result has the
    same shape.
    """
    if t.n == 0:
        raise MoveError("cyclic move undefined on the empty tableau")
    return StandardTableau(_cyclic([list(row) for row in t.rows], t.n))


def c_inverse(t: StandardTableau) -> StandardTableau:
    """Inverse cyclic move: remove ``n``, shift up, slide the hole back to (1,1).

    Applicable only when ``n`` closes the leading block of maximal-length
    rows.  The reverse slide moves the larger of the left/above neighbours
    into the hole, retracing the forward slide path.
    """
    if t.n == 0:
        raise MoveError("inverse cyclic move undefined on the empty tableau")
    return StandardTableau(_cyclic_inverse([list(row) for row in t.rows], t.n))


def _boxes_left_of(rows: tuple[tuple[int, ...], ...], i: int) -> int:
    """Number of boxes in the first ``i`` columns."""
    return sum(min(len(row), i) for row in rows)


def cut_points(t: StandardTableau) -> tuple[int, ...]:
    """Column indices where the tableau splits, with the boundaries 0 and m.

    Column ``i`` is a cut point when the first ``i`` columns hold exactly
    the entries 1..(boxes in those columns), i.e. the entry atop column
    ``i+1`` is that count plus one.
    """
    if not t.rows:
        return (0,)
    top = t.rows[0]
    inner = (i for i in range(1, len(top)) if top[i] == _boxes_left_of(t.rows, i) + 1)
    return (0, *inner, len(top))


def block_move(t: StandardTableau, label: MoveLabel) -> StandardTableau:
    """Apply a move to the standardized block of columns a..b, then reassemble.

    Both ``a-1`` and ``b`` must be cut points, so the columns left of the
    block hold exactly the entries 1..shift and the block holds the next
    ``size`` entries; it is shifted down to 1..size as plain rows, moved,
    shifted back and put in place, and only the result is validated.
    """
    a, b = label.columns
    m = len(t.rows[0]) if t.rows else 0
    if not 1 <= a < b <= m:
        raise MoveError(f"column range [{a},{b}] out of bounds for {m} columns")
    top = t.rows[0]
    shift = _boxes_left_of(t.rows, a - 1)
    if top[a - 1] != shift + 1 or (b < m and top[b] != _boxes_left_of(t.rows, b) + 1):
        raise MoveError(f"columns [{a},{b}] do not split off as a block")
    block = [[e - shift for e in row[a - 1 : b]] for row in t.rows if len(row) >= a]
    size = sum(map(len, block))
    if label.kind == "C":
        moved = _cyclic(block, size)
    elif label.kind == "Cinv":
        moved = _cyclic_inverse(block, size)
    else:
        moved = _evacuate(block)
    rows = []
    for q, row in enumerate(t.rows):
        middle = tuple(e + shift for e in moved[q]) if q < len(moved) else ()
        rows.append(row[: a - 1] + middle + row[b:])
    return StandardTableau(rows)


def legal_moves(
    t: StandardTableau,
) -> tuple[tuple[MoveLabel, StandardTableau], ...]:
    """All applicable block moves on at least two columns, with their results."""
    cps = cut_points(t)
    out = []
    for x, left in enumerate(cps):
        for b in cps[x + 1 :]:
            if b == left + 1:
                continue
            for kind in MOVE_KINDS:
                label = MoveLabel(kind, (left + 1, b))
                try:
                    out.append((label, block_move(t, label)))
                except MoveError:
                    continue
    return tuple(out)


def _dist_or_none(t: StandardTableau) -> int | None:
    p = t.shape.parts
    if len(p) == 3 and p[2] == 1:
        return dist(t)
    return None


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


def eqs_class(t: StandardTableau, max_n: int | None = None) -> EqsClass:
    """Closure of a tableau under all applicable block moves, by a worklist.

    Deterministic regardless of visiting order: the member set is canonical,
    members are sorted by row reading word, and the representative is the
    member with the smallest one.
    """
    bound = DEFAULT_ENUM_BOUND if max_n is None else max_n
    if t.n > bound:
        raise ValueError(f"search bound exceeded: n={t.n} > {bound}")
    visited = {t}
    todo = [t]
    while todo:
        for _, v in legal_moves(todo.pop()):
            if v not in visited:
                visited.add(v)
                todo.append(v)
    members = tuple(sorted(visited, key=lambda x: x.row_word()))
    rep = members[0]
    return EqsClass(
        shape=t.shape,
        members=members,
        representative=rep,
        dist=_dist_or_none(rep),
    )


def eqs_partition(shape: Partition, max_n: int | None = None) -> tuple[EqsClass, ...]:
    """Partition all standard tableaux of the shape into move classes.

    Each class is seeded by the first tableau in enumeration (row word)
    order that no earlier class holds, which is its representative.
    """
    tabs = enumerate_tableaux(shape, max_n=max_n)
    remaining = set(tabs)
    classes = []
    for seed in tabs:
        if seed not in remaining:
            continue
        cls = eqs_class(seed, max_n=max_n)
        if not remaining.issuperset(cls.members):
            raise AssertionError("move closure escaped the remaining tableaux")
        remaining.difference_update(cls.members)
        classes.append(cls)
    return tuple(classes)


def partition_report(shape: Partition, max_n: int | None = None) -> dict:
    """JSON-ready report of the class partition of a shape."""
    classes = eqs_partition(shape, max_n=max_n)
    return {
        "shape": str(shape),
        "class_count": len(classes),
        "classes": [cls.to_json() for cls in classes],
    }


def dist_class_invariant(shape: Partition, max_n: int | None = None) -> dict:
    """Check that ``dist`` is constant on every class of a shape (r,s,1).

    Never raises on a violation; the report carries the findings.
    """
    p = shape.parts
    if len(p) != 3 or p[2] != 1:
        raise ValueError(f"invariant needs shape (r,s,1), got {shape}")
    classes = eqs_partition(shape, max_n=max_n)
    violations = []
    for cls in classes:
        values = sorted({dist(member) for member in cls.members})
        if len(values) != 1:
            violations.append(
                {"representative": cls.representative.text(), "dists": values}
            )
    return {
        "shape": str(shape),
        "class_count": len(classes),
        "classes": [cls.to_json() for cls in classes],
        "violations": violations,
        "ok": not violations,
    }
