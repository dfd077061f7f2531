"""Equinonsingularity moves on standard tableaux and their class closure.

Two components of the same Springer fiber are equinonsingular when both
are singular or both are nonsingular.  Three tableau moves are known to
relate labels of equinonsingular components:

* the cyclic move ``C``: slide out the entry 1; when the hole lands at the
  end of the leading block of maximal-length rows, standardize and append
  ``n`` there.  ``c_inverse`` undoes it with a reverse slide.
* evacuation ``Sch`` (an involution, always applicable);
* the block forms of both, acting on a run of columns that splits off as
  a standard subtableau (both endpoints are cut points).

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
    dist,
    enumerate_tableaux,
    jdt_remove_min,
    schuetzenberger,
    standardize,
    tableau,
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


def _leading_block(shape: Partition) -> int:
    """Number of leading rows of maximal length."""
    parts = shape.parts
    j = 1
    while j < len(parts) and parts[j] == parts[0]:
        j += 1
    return j


def c_move(t: StandardTableau) -> StandardTableau:
    """Cyclic move: slide out 1, standardize, append ``n`` in the vacated corner.

    Applicable only when the hole lands at the end of row ``j``, the last
    row of the leading block of maximal-length rows; the result has the
    same shape.
    """
    if t.n == 0:
        raise MoveError("cyclic move undefined on the empty tableau")
    j = _leading_block(t.shape)
    slid, hole = jdt_remove_min(t)
    if hole[0] != j - 1:
        raise MoveError(
            f"slide hole ended in row {hole[0] + 1}, not at the leading block row {j}"
        )
    rows = [list(row) for row in standardize(slid).rows]
    if j - 1 == len(rows):
        rows.append([t.n])
    else:
        rows[j - 1].append(t.n)
    return StandardTableau(rows)


def c_inverse(t: StandardTableau) -> StandardTableau:
    """Inverse cyclic move: remove ``n``, shift up, slide the hole back to (1,1).

    Applicable only when ``n`` closes the leading block of maximal-length
    rows.  The reverse slide moves the larger of the left/above neighbours
    into the hole, retracing the forward slide path.
    """
    if t.n == 0:
        raise MoveError("inverse cyclic move undefined on the empty tableau")
    n = t.n
    jr, jc = t.position_of(n)
    parts = t.shape.parts
    if parts[jr - 1] != parts[0]:
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


def cut_points(t: StandardTableau) -> tuple[int, ...]:
    """Column indices where the tableau splits, with the boundaries 0 and m.

    Column ``i`` is a cut point when the first ``i`` columns hold exactly
    the entries 1..(boxes in those columns), i.e. the entry atop column
    ``i+1`` is that count plus one.
    """
    shape = t.shape
    m = shape.num_columns
    if m == 0:
        return (0,)
    points = [0]
    for i in range(1, m):
        if t.entry(1, i + 1) == shape.prefix_sum(i) + 1:
            points.append(i)
    points.append(m)
    return tuple(points)


def block_move(t: StandardTableau, label: MoveLabel) -> StandardTableau:
    """Apply a move to the standardized block of columns i..j, then reassemble.

    Both ``i-1`` and ``j`` must be cut points; the transformed block is
    shifted back by the number of boxes to its left and spliced between the
    untouched outer columns.
    """
    a, b = label.columns
    shape = t.shape
    m = shape.num_columns
    if not 1 <= a < b <= m:
        raise MoveError(f"column range [{a},{b}] out of bounds for {m} columns")
    cps = cut_points(t)
    if a - 1 not in cps or b not in cps:
        raise MoveError(f"columns [{a},{b}] do not split off as a block")
    shift = shape.prefix_sum(a - 1) if a > 1 else 0
    block = standardize(tableau(row[a - 1 : b] for row in t.rows if len(row) >= a))
    if label.kind == "C":
        moved = c_move(block)
    elif label.kind == "Cinv":
        moved = c_inverse(block)
    else:
        moved = schuetzenberger(block)
    lifted = [tuple(e + shift for e in row) for row in moved.rows]
    rows = []
    for q, row in enumerate(t.rows):
        middle = lifted[q] if q < len(lifted) else ()
        rows.append(row[: a - 1] + middle + row[b:])
    return StandardTableau(rows)


def legal_moves(
    t: StandardTableau,
) -> tuple[tuple[MoveLabel, StandardTableau], ...]:
    """All applicable block moves on at least two columns, with their results."""
    m = t.shape.num_columns
    cps = set(cut_points(t))
    out = []
    for a in range(1, m):
        if a - 1 not in cps:
            continue
        for b in range(a + 1, m + 1):
            if b not in cps:
                continue
            for kind in MOVE_KINDS:
                label = MoveLabel(kind, (a, b))
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
    """Breadth-first closure of a tableau under all applicable block moves.

    Deterministic regardless of traversal interleaving: the member set is
    canonical and the representative is the member with the smallest row
    reading word.
    """
    bound = DEFAULT_ENUM_BOUND if max_n is None else max_n
    if t.n > bound:
        raise ValueError(f"search bound exceeded: n={t.n} > {bound}")
    visited = {t}
    frontier = [t]
    while frontier:
        fresh = []
        for u in sorted(frontier):
            for _, v in legal_moves(u):
                if v not in visited:
                    visited.add(v)
                    fresh.append(v)
        frontier = fresh
    members = tuple(sorted(visited, key=lambda x: x.row_word()))
    rep = members[0]
    return EqsClass(
        shape=t.shape,
        members=members,
        representative=rep,
        dist=_dist_or_none(rep),
    )


def eqs_partition(shape: Partition, max_n: int | None = None) -> tuple[EqsClass, ...]:
    """Partition all standard tableaux of the shape into move classes."""
    remaining = set(enumerate_tableaux(shape, max_n=max_n))
    classes = []
    while remaining:
        seed = min(remaining, key=lambda x: x.row_word())
        cls = eqs_class(seed, max_n=max_n)
        if not set(cls.members) <= remaining:
            raise AssertionError("move closure escaped the remaining tableaux")
        remaining -= set(cls.members)
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
