"""Exact rational linear algebra for flags in a Springer fiber.

Entries are ``fractions.Fraction``, and every pivot question runs on
integers scaled from them; nothing is floating point, so rank, kernel and
membership answers are exact.  Vectors are plain tuples, columns for
operators and rows for spans, and every zero the module writes is one
shared ``Fraction`` zero.  One elimination core, ``_eliminate``, serves
every question: fraction-free elimination of integer rows that does no
arithmetic on zeros, keeps the remaining rows grouped by their first
nonzero column so that a column reads only the rows nonzero in it, and
divides each updated row by its content, so no entry outgrows the minors
that Bareiss elimination holds; it returns the (row, column) pivot pairs
and an integer echelon form.  ``_integer_rows`` is the one boundary from
``Fraction`` to integers: it scales each row by the lcm of its
denominators, which keeps the rank profile.  ``Matrix`` and ``in_span``
call the two in turn; a flag or subspace basis is scaled once and its
questions eliminate the integer rows directly.

A flag is a chain of subspaces, and no flag question depends on the scale
of a basis vector.  So a flag holds two slots: its rows, the integer form
of its basis (each vector times the lcm of its denominators), and an
order.  A coordinate flag holds no rows, and its permutation as the order;
a flag built as a triangle holds its rows and the triangle's coordinate
order; any other flag its rows and no order.  Every flag question reads
these and converts nothing.  ``Flag(vectors)`` converts once and
eliminates to check independence.  Every other flag comes from one private
allocator that runs no elimination, for bases independent by construction:
the coordinate flag of a permutation, which stores no rows; the complement
flag; and the chart families and the (3,2,2) family of
:mod:`springerfiber.certificates`, triangles (nonzero on a diagonal, 0
before it, in the special permutation's coordinate order or in plain
order) checked on their integer rows: such a triangle has a nonzero
determinant, and any other basis raises ValueError.  None of these
converts: each is computed as integers.  The operator is an index map, so
the image of s v is s u(v), read off the integers.  One routine,
``_prefix_pivots``, asks the one question behind cells, fiber membership
and the equality of two flags that hold rows: with the coordinates in a
given order as rows and v1, w1, v2, w2, .. as columns, one elimination
shows whether each w_i lies in span(v_1..v_i), exactly when no w column
takes a pivot, and gives each v_i's pivot coordinate.  Fiber membership
takes w_i = u(v_i) and flag equality the other flag's basis, both in plain
order.  A cell takes the images with the coordinates in an order that the
operator computes once, ``kernel_order`` (``image_order`` for the dual
cell), in which every power of the operator cuts a leading block of them:
a Jordan type counts the pivots by tableau column, and ``tableaux`` reads
the cell label off those columns; a subspace basis followed by its images,
as rows, is eliminated the same way.  Chart coordinates are ratios of
echelon entries, with the coordinates in the special permutation's order:
a flag that keeps that order as its triangle, as every chart family does,
is its own echelon form and runs no elimination, and any other flag that
holds rows eliminates them, as the complement flag does.  One
fraction-free back substitution, ``_back_substituted``, serves
``perp_flag`` and ``Matrix.rref``, which divides each row by its pivot
over ``Fraction``.

A coordinate flag, built by ``jordan_flag`` or as the complement of one,
holds only its permutation and answers every question from it with no
elimination and no unit row: its prefixes are stable exactly when each
basis vector comes after its chain predecessor, a unit vector's pivot
coordinate is its own in every order, its complement flag is again a
coordinate flag, as the form is a permutation of the basis, another flag
equals it exactly when that flag's vector i is zero at the coordinates
after the first i + 1, and it lies in a chart exactly when its
permutation is the chart's order, whose rows, the identity, are the only
unit rows built for it.  ``Flag`` of the same unit vectors takes the
elimination route and gives the same answers.

The geometric vocabulary: a nilpotent operator is built from a standard
tableau labelling a Jordan basis (each row is a chain, the operator maps
every basis vector to its left neighbour).  It is held as index maps on
that basis, never as a dense matrix: the kernels and images of its powers
are coordinate subspaces read off the tableau columns.  A flag is an
ordered basis; the cell of a flag records the Jordan types of the operator
restricted to the flag prefixes, which recovers the unique standard
tableau labelling the Spaltenstein cell containing the flag.  The dual
cell uses quotient types instead.  A canonical symmetric bilinear form
making the operator self-adjoint pairs each chain with itself reversed; it
is an involution of the basis indices and gives the orthogonal-complement
flag map, which exchanges the two kinds of cells up to evacuation.

For the one-box-third-row shapes (k,k,1) the module also provides the
special operator, whose fiber permutations are the shuffles of its two
chains, the special permutations (d) and flags with one check of the range
of d, and coordinates on the open chart around each special flag.
"""

from __future__ import annotations

from bisect import insort
from collections import Counter
from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from numbers import Rational
from operator import itemgetter
from typing import Iterable, Sequence

from .partitions import Partition, integer
from .tableaux import StandardTableau, _check_bound, _tableau_from_columns, schuetzenberger

Vector = tuple[Fraction, ...]

# shared entries of coordinate vectors; a Fraction is immutable
_ZERO = Fraction(0)
_ONE = Fraction(1)


class ChartError(ValueError):
    """A flag lies outside the requested coordinate chart."""


class StabilityError(ValueError):
    """A subspace or flag is not stable under the operator."""


def as_fraction(x) -> Fraction:
    """``x`` as a ``Fraction``; TypeError unless it is rational, as an int is and a float or a bool is not."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool) or not isinstance(x, Rational):
        raise TypeError(f"entries must be exact rationals (int or Fraction), got {type(x).__name__}")
    return Fraction(x)


def vector(entries: Iterable) -> Vector:
    """A tuple of ``Fraction`` entries; such a tuple is returned as it is."""
    if isinstance(entries, tuple) and all(isinstance(e, Fraction) for e in entries):
        return entries
    return tuple(as_fraction(e) for e in entries)


class Matrix:
    """Dense exact-rational matrix with row tuples."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable]):
        rows = tuple(vector(r) for r in rows)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("rows must have equal length")
        self.rows = rows

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("matrix dimensions do not match")
        cols = list(zip(*other.rows))
        return Matrix(
            tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
            for row in self.rows
        )

    def apply(self, v: Vector) -> Vector:
        """Apply to ``v`` as a column vector."""
        if len(v) != self.ncols:
            raise ValueError("vector length does not match")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.rows)

    def rref(self) -> tuple[tuple[Vector, ...], tuple[int, ...]]:
        """Reduced row echelon form: (nonzero rows, pivot column indices), each ``_back_substituted`` row over its pivot."""
        pairs, tops = _eliminate(_integer_rows(self.rows))
        pivots = tuple(c for _, c in pairs)
        rows = _back_substituted(pairs, tops)
        reduced = tuple(tuple(Fraction(x, row[c]) if x else _ZERO for x in row) for row, c in zip(rows, pivots))
        return reduced, pivots

    def rank(self) -> int:
        """Exact rank: the number of pivots of the reduced row echelon form."""
        return len(_eliminate(_integer_rows(self.rows))[0])

    def nullspace(self) -> tuple[Vector, ...]:
        """Basis of the right kernel, one vector per free column."""
        reduced, pivots = self.rref()
        ncols = self.ncols
        pivot_set = set(pivots)
        basis = []
        for free in range(ncols):
            if free in pivot_set:
                continue
            v = [_ZERO] * ncols
            v[free] = _ONE
            for r, p in enumerate(pivots):
                v[p] = -reduced[r][free]
            basis.append(tuple(v))
        return tuple(basis)

    def __eq__(self, other) -> bool:
        if isinstance(other, Matrix):
            return self.rows == other.rows
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"Matrix({[list(map(str, r)) for r in self.rows]})"


def _integer_rows(rows: Iterable[Sequence[Fraction]]) -> tuple[tuple[int, ...], ...]:
    """Each row times the lcm of its denominators, as an int tuple: the ``Fraction`` to integer boundary.

    The shared zero is read without a call, and a row whose lcm is 1 is
    taken as its numerators.  Scaling a row by a nonzero number keeps its
    zero pattern and every column dependency; scaling a column keeps every
    row dependency.  Either way the rank profile is unchanged.
    """
    out = []
    for row in rows:
        ratios = [(0, 1) if x is _ZERO else x.as_integer_ratio() for x in row]
        scale = lcm(*[d for _, d in ratios])
        if scale == 1:
            out.append(tuple([a for a, _ in ratios]))
        else:
            out.append(tuple([a * (scale // d) for a, d in ratios]))
    return tuple(out)


def _eliminate(
    rows: Sequence[Sequence[int]],
) -> tuple[tuple[tuple[int, int], ...], list[Sequence[int]]]:
    """Fraction-free elimination of integer rows: the (row, column) pivots in column order, and the pivot rows.

    Columns are taken in order: a column where some remaining row is
    nonzero is a pivot, and the topmost such row leaves as the pivot row.
    Each remaining row nonzero in the pivot column becomes
    pivot * row - entry * pivot row, divided by the gcd of its entries (its
    content); a row that is zero there is left as it is.  No ``Fraction`` is
    built, and the input rows are never changed: a pivot row that was never
    updated is the caller's own row.

    The remaining rows wait in buckets, ``waiting[c]`` holding those whose
    first nonzero entry is in column c, in row order; an all-zero row,
    given or made by an update, waits nowhere, as it can never be a pivot.
    Every remaining row is zero left of the current column c, by induction
    on the columns: at each earlier column the rows nonzero there were
    exactly that column's bucket, and each of them other than the pivot row
    was updated to pivot * row - entry * pivot row, which is zero at that
    column and, like both rows, left of it.  So ``waiting[c]`` holds exactly the remaining
    rows nonzero at c, and a column reads only those: an empty bucket is no
    pivot, its first row is the pivot row, and each updated row moves to
    the bucket of its new first nonzero entry, right of c.  For the same
    reason an update computes, and divides by their gcd, only the entries
    right of c; the ones up to c are zero.

    Every remaining row is a nonzero rational multiple of the row that
    Bareiss elimination (Bareiss 1968) holds at the same step, because both
    only scale rows and add the same multiples of pivot rows.  So the zero
    patterns and the pivot pairs are Bareiss's, and each pivot row differs
    from Bareiss's by a nonzero scalar.  An updated row is primitive, so the
    integer row that Bareiss holds for it then or later is an integer
    multiple of it; a row not yet updated is the input row, which Bareiss
    holds times its last pivot.  So no entry is larger than Bareiss's, a
    minor of the matrix.

    Each step only scales rows and adds multiples of a row to rows below
    it, so the span of every leading block of rows is kept, and each pivot
    row is zero left of its pivot.  Hence the pairs are the rank profile:
    rank(rows[:r], columns[:c]) is the number of pivots (i, j) with i < r
    and j < c (Dumas, Pernet & Sultan, J. Symbolic Comput. 83, 2017).  The
    pivot rows, as they stand when chosen, are an integer echelon form of
    ``rows``: the s-th is zero left of the s-th pivot column, nonzero at it,
    and a combination of the rows up to its own index.
    """
    columns = range(len(rows[0]) if rows else 0)
    # waiting[c]: the remaining rows led by column c, as (index in ``rows``, entries)
    waiting: list[list[tuple[int, Sequence[int]]]] = [[] for _ in columns]
    for i, row in enumerate(rows):
        c = next(compress(columns, row), None)
        if c is not None:
            waiting[c].append((i, row))
    zeros = [0] * len(columns)
    pivots: list[tuple[int, int]] = []
    tops: list[Sequence[int]] = []
    for c, bucket in enumerate(waiting):
        if not bucket:
            continue
        i, top = bucket[0]
        if len(bucket) > 1:
            # both rows are zero left of c and the update is zero at c, so
            # only the entries right of c are computed
            pivot, right, later = top[c], top[c + 1 :], columns[c + 1 :]
            # popped, so that each row is freed as soon as its update is built
            while len(bucket) > 1:
                j, row = bucket.pop()
                f = row[c]
                tail = [pivot * a - f * b for a, b in zip(row[c + 1 :], right)]
                g = gcd(*tail)
                if g:
                    if g > 1:
                        tail = [x // g for x in tail]
                    insort(waiting[next(compress(later, tail))], (j, zeros[: c + 1] + tail))
        pivots.append((i, c))
        tops.append(top)
    return tuple(pivots), tops


def _back_substituted(
    pairs: Sequence[tuple[int, int]], tops: Sequence[Sequence[int]]
) -> list[Sequence[int]]:
    """Fraction-free back substitution of ``_eliminate`` output: each row some D_r at its pivot column, 0 at the others.

    From the last pivot up, echelon row E is updated by each finished row R
    below it, with pivot column d, where E is nonzero at d: E becomes
    R[d] * E - E[d] * R, divided by its content.  R is 0 at the other
    finished pivot columns, so each update clears column d and keeps them.
    Shared by ``perp_flag`` and ``Matrix.rref``.
    """
    # finished rows from the last pivot up, with their pivot columns
    done: list[tuple[Sequence[int], int]] = []
    for row, (_, c) in zip(reversed(tops), reversed(pairs)):
        for below, d in done:
            f = row[d]
            if f:
                p = below[d]
                row = [p * a - f * b for a, b in zip(row, below)]
                g = gcd(*row)
                if g > 1:
                    row = [x // g for x in row]
        done.append((row, c))
    return [row for row, _ in reversed(done)]


def _prefix_pivots(
    vs: Sequence[Sequence[int]], ws: Sequence[Sequence[int]], order: Sequence[int]
) -> list[int] | None:
    """The pivot coordinate, in ``order``, of each v_i when every w_i lies in span(v_1..v_i); None otherwise.

    One elimination has the coordinates in ``order`` as rows and v1, w1, v2,
    w2, .. as columns.  The vectors are integer; scaling a column keeps the
    rank profile, so each may be any nonzero multiple of a ``Fraction``
    vector.  By induction on i the first w_i outside span(v_1..v_i) is the
    first w column to take a pivot, so an odd pivot column gives None;
    otherwise the w columns take no pivot and each independent v_i takes
    one, so span(v_1..v_i) meets the coordinates zero on order[:r] in
    dimension i less the v_1..v_i pivoted in order[:r].
    """
    columns = [x for pair in zip(vs, ws, strict=True) for x in pair]
    rows = list(zip(*columns))
    pairs = _eliminate([rows[c] for c in order])[0]
    if any(c % 2 for _, c in pairs):
        return None
    return [order[i] for i, _ in pairs]


def span_rank(vectors: Sequence[Vector]) -> int:
    return Matrix(vectors).rank()


def in_span(vectors: Sequence[Vector], v: Vector) -> bool:
    """True when ``v``, eliminated after ``vectors``, takes no pivot."""
    m = len(vectors)
    pairs, _ = _eliminate(_integer_rows(Matrix((*vectors, v)).rows))
    return all(i != m for i, _ in pairs)


def intersection_dim(a: Sequence[Vector], b: Sequence[Vector]) -> int:
    return span_rank(a) + span_rank(b) - span_rank(tuple(a) + tuple(b))


class Permutation:
    """Bijection of 1..n stored as the tuple of images; TypeError unless each is an ``int`` (not a bool)."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        if any(type(x) is not int for x in images):
            raise TypeError(f"permutation images must be ints: {images}")
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(images)}: {images}")
        self.images = images

    @classmethod
    def parse(cls, text: str) -> "Permutation":
        """Parse the comma-separated text form, e.g. ``"2,1,3"``; "" is the empty permutation."""
        text = text.strip()
        if not text:
            return cls(())
        return cls(map(integer, text.split(",")))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        if not 1 <= i <= len(self.images):
            raise ValueError(f"{i} is outside 1..{len(self.images)}")
        return self.images[i - 1]

    def __eq__(self, other) -> bool:
        if isinstance(other, Permutation):
            return self.images == other.images
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.images)

    def __lt__(self, other: "Permutation") -> bool:
        if isinstance(other, Permutation):
            return self.images < other.images
        return NotImplemented

    def __repr__(self) -> str:
        return f"Permutation({self.images!r})"

    def __str__(self) -> str:
        return ",".join(str(v) for v in self.images)


class Flag:
    """Full flag given by an ordered basis; prefix ``i`` spans the ``i``-dim space."""

    # a flag holds one of two forms, and every flag question reads it: a
    # coordinate flag holds None as its rows and the 0-based coordinate of
    # each unit vector as its order; every other flag holds each basis
    # vector times the lcm of its denominators, as ints, and the coordinate
    # order in which those rows form a triangle, or None if it was built
    # as no triangle
    __slots__ = ("_scaled", "_order")

    def __init__(self, vectors: Sequence[Vector]):
        vectors = tuple(vector(v) for v in vectors)
        n = len(vectors)
        if any(len(v) != n for v in vectors):
            raise ValueError("flag needs n vectors of length n")
        self._scaled = _integer_rows(vectors)
        self._order = None
        if n and len(_eliminate(self._scaled)[0]) != n:
            raise ValueError("flag basis is linearly dependent")

    @property
    def n(self) -> int:
        return len(self._order if self._scaled is None else self._scaled)

    def same_flag(self, other: "Flag") -> bool:
        """Equality of the subspace chains, not of the chosen bases.

        Prefixes of equal dimension are equal when one contains the other.
        So a flag equals the coordinate flag of coordinates c exactly when
        its vector i is zero at c[i+1:], and two coordinate flags are equal
        when their coordinates are; neither runs an elimination.
        """
        if self.n != other.n:
            return False
        if self._scaled is not None and other._scaled is not None:
            return _prefix_pivots(self._scaled, other._scaled, range(self.n)) is not None
        if self._scaled is None and other._scaled is None:
            return self._order == other._order
        coordinate, rows = (self, other) if self._scaled is None else (other, self)
        coords = coordinate._order
        return not any(any(map(v.__getitem__, coords[i + 1 :])) for i, v in enumerate(rows._scaled))

    def __repr__(self) -> str:
        return f"Flag(n={self.n})"


def _lowest_terms(x: tuple[Sequence[int], int]) -> tuple[tuple[int, ...], int]:
    """The vector N / D, D > 0, as ``_integer_rows`` scales it: N and D over gcd(D, *N), the lcm of the D / gcd(D, N_i)."""
    nums, den = x
    g = gcd(den, *nums)
    return (tuple([s // g for s in nums]) if g > 1 else tuple(nums)), den // g


def _integer_flag(scaled: tuple[tuple[int, ...], ...] | None, order: Sequence[int] | None) -> Flag:
    """The flag of n independent integer rows and their triangle order, with no elimination; callers say why.

    The one allocator around ``Flag.__init__``.  A coordinate flag passes
    None as its rows and its coordinates as the order: distinct unit
    vectors are independent, and every question reads the coordinates, so
    no unit row is built.  A flag whose rows form no triangle passes None
    as the order.
    """
    flag = object.__new__(Flag)
    flag._scaled = scaled
    flag._order = None if order is None else tuple(order)
    return flag


def _triangular_flag(scaled: tuple[tuple[int, ...], ...], order: Sequence[int]) -> Flag:
    """The flag of n integer rows that form a triangle in the coordinate ``order``.

    Row i must have length n, be nonzero at coordinate order[i] and be 0
    at the earlier coordinates of the order (a permutation of range(n));
    ValueError otherwise.  Then the rows, read in the order, are upper
    triangular with a nonzero diagonal, so independent with no
    elimination.  The flag keeps the order: in it the rows already are an
    echelon form with pivots on the diagonal, which ``_chart_rows`` reads
    with no elimination when the order is the chart's.
    """
    n = len(scaled)
    if any(len(row) != n for row in scaled):
        raise ValueError("flag needs n vectors of length n")
    for i, row in enumerate(scaled):
        if not row[order[i]] or any(map(row.__getitem__, order[:i])):
            raise ValueError(f"flag vector {i + 1} breaks the triangle")
    return _integer_flag(scaled, order)


class NilpotentOperator:
    """Nilpotent operator with a tableau-labelled Jordan basis, held as index maps.

    Row ``i`` of the tableau lists a Jordan chain left to right; the
    operator maps each basis vector to its left neighbour and kills the
    first column.  Per 0-based basis index ``i`` it stores ``right[i]``, the
    index of the right neighbour (``None`` at the end of a row), so
    ``(u v)[i] = v[right[i]]``; ``column[i]``, the 1-based column, so
    ker u^j is spanned by the e_i with column at most j; and
    ``boxes_right[i]``, so im u^j is spanned by the e_i with at least j
    boxes to their right.  Two coordinate orders make every power cut a
    leading block: ``kernel_order``, by column descending, on a leading
    block of which ker u^j is zero, and ``image_order``, by boxes to the
    right ascending, on a leading block of which im u^j is zero.
    Instances are immutable.
    """

    __slots__ = ("tableau", "jordan_type", "n", "right", "column", "boxes_right", "kernel_order", "image_order")

    def __init__(self, tableau: StandardTableau):
        n = tableau.n
        right: list[int | None] = [None] * n
        column = [0] * n
        boxes_right = [0] * n
        for row in tableau.rows:
            m = len(row)
            for j, e in enumerate(row):
                right[e - 1] = row[j + 1] - 1 if j + 1 < m else None
                column[e - 1] = j + 1
                boxes_right[e - 1] = m - 1 - j
        self.tableau = tableau
        self.jordan_type = tableau.shape
        self.n = n
        self.right = tuple(right)
        self.column = tuple(column)
        self.boxes_right = tuple(boxes_right)
        self.kernel_order = tuple(sorted(range(n), key=lambda i: -column[i]))
        self.image_order = tuple(sorted(range(n), key=boxes_right.__getitem__))

    def __repr__(self) -> str:
        return f"NilpotentOperator(type={self.jordan_type}, basis={self.tableau.text()!r})"


def jordan_operator(t: StandardTableau) -> NilpotentOperator:
    """Operator sending basis vector ``e`` to its left neighbour in the tableau row."""
    return NilpotentOperator(t)


def _images(u: NilpotentOperator, scaled: Sequence[Sequence[int]], n: int) -> list[list[int]]:
    """u(s v) = s u(v) for each integer vector s v, read off the index map with no arithmetic.

    ValueError unless u and every vector have size ``n`` (a flag's size, so
    that an empty flag is checked too).
    """
    if n != u.n or any(len(v) != n for v in scaled):
        raise ValueError("vector length does not match")
    return [[0 if r is None else v[r] for r in u.right] for v in scaled]


def _coordinates_stable(u: NilpotentOperator, coords: Sequence[int]) -> bool:
    """True when every prefix of the coordinate flag of ``coords`` is u-stable.

    u(e_c) is e_q for the q with right[q] = c, and 0 at a row start, so
    the prefixes are stable exactly when each e_c comes after its chain
    predecessor: pos[q] < pos[right[q]] for every q with a right
    neighbour, and the first link out of order answers False.  ValueError
    unless u has the flag's size, as for ``_images``.
    """
    n = len(coords)
    if n != u.n:
        raise ValueError("vector length does not match")
    pos = [0] * n
    for i, c in enumerate(coords):
        pos[c] = i
    for q, r in enumerate(u.right):
        if r is not None and pos[q] > pos[r]:
            return False
    return True


def _flag_pivots(u: NilpotentOperator, flag: Flag, order: Sequence[int]) -> list[int]:
    """The pivot coordinate of each vector of a flag basis whose prefixes are u-stable.

    ``_prefix_pivots`` of the flag's integer rows and their images, with the
    coordinates in ``order``, each pair scaled to integers by one factor,
    which keeps the rank profile; StabilityError when some u(v_i) leaves
    span(v_1..v_i).  A coordinate flag runs no elimination and ignores the
    order: a unit vector's pivot coordinate is its own in every order, so
    the pivots are its coordinates once ``_coordinates_stable`` holds.
    """
    if flag._scaled is None:
        pivots = list(flag._order) if _coordinates_stable(u, flag._order) else None
    else:
        pivots = _prefix_pivots(flag._scaled, _images(u, flag._scaled, flag.n), order)
    if pivots is None:
        raise StabilityError("flag is not stable under the operator")
    return pivots


def _subspace_pivots(
    u: NilpotentOperator, subspace: Sequence[Vector], order: Sequence[int]
) -> list[int]:
    """The pivot coordinates of the u-stable W spanned by ``subspace``, in ``order``.

    One elimination has the m basis vectors, then their images u(w), as
    rows and the coordinates in ``order`` as columns; each w is scaled to
    integers once and u(w) read off it, as for a flag.  ValueError unless
    every w has u's size, then unless m pivots lie in the first m rows (the
    basis is independent); StabilityError if an image row takes a pivot (W
    is not u-stable).  Then every pivot lies in a basis row, so W meets the
    coordinates zero on order[:r] in dimension m less the pivots there.
    """
    scaled = _integer_rows(vector(w) for w in subspace)
    m = len(scaled)
    pairs, _ = _eliminate([[w[c] for c in order] for w in (*scaled, *_images(u, scaled, u.n))])
    if sum(i < m for i, _ in pairs) < m:
        raise ValueError("subspace basis is linearly dependent")
    if len(pairs) > m:
        raise StabilityError("subspace is not stable under the operator")
    return [order[c] for _, c in pairs]


def restricted_type(u: NilpotentOperator, subspace: Sequence[Vector]) -> Partition:
    """Jordan type of the operator on a stable subspace.

    In the kernel order dim(W meet ker u^j) counts the pivots at coordinates
    in tableau columns 1..j, so column j has one box per pivot at a column-j
    coordinate.  The prefixes of the given basis need not be stable.
    """
    heights = Counter(u.column[c] for c in _subspace_pivots(u, subspace, u.kernel_order))
    return Partition(heights[j] for j in range(1, len(heights) + 1)).conjugate()


def quotient_type(u: NilpotentOperator, subspace: Sequence[Vector]) -> Partition:
    """Jordan type induced on the quotient by a stable subspace.

    The kernel of the ``j``-th induced power has dimension dim (u^j)^-1(W) - dim W
    = dim ker u^j + dim(W meet im u^j) - dim W: in the image order, the
    coordinates with fewer than j boxes to their right less the pivots at
    them.  So column j has the coordinates with j - 1 boxes to their right,
    less the pivots there.
    """
    heights = Counter(u.boxes_right)
    heights.subtract(u.boxes_right[c] for c in _subspace_pivots(u, subspace, u.image_order))
    return Partition(h for _, h in sorted(heights.items()) if h).conjugate()


def cell_of(flag: Flag, u: NilpotentOperator) -> StandardTableau:
    """The standard tableau whose shape chain is the Jordan types on the flag prefixes.

    One elimination, none for a coordinate flag, checks that the flag is in
    the fiber (StabilityError if not) and gives each vector's pivot
    coordinate in the kernel order; as in ``restricted_type``, v_i adds a
    box to the column of its pivot coordinate, and entry i goes there.
    """
    return _tableau_from_columns([u.column[c] for c in _flag_pivots(u, flag, u.kernel_order)])


def cell_prime_of(flag: Flag, u: NilpotentOperator) -> StandardTableau:
    """The tableau whose suffix restriction shapes match the quotient types.

    The quotient types along the flag, read from the top down, grow one box
    at a time; the tableau built from that chain is the evacuation of the
    dual-cell label, so one more evacuation recovers it.  As in ``cell_of``,
    one elimination (none for a coordinate flag) checks the fiber and gives
    the pivot coordinates, in the image order; as in ``quotient_type``,
    dropping v_i from the subspace adds a box to column b + 1, b the boxes
    right of v_i's pivot coordinate.
    """
    pivots = _flag_pivots(u, flag, u.image_order)
    return schuetzenberger(_tableau_from_columns([u.boxes_right[c] + 1 for c in reversed(pivots)]))


def bilinear_form(u: NilpotentOperator) -> Permutation:
    """Canonical symmetric nondegenerate form making the operator self-adjoint.

    Within each Jordan chain of length m the j-th and (m+1-j)-th vectors
    pair to 1; everything else pairs to 0.  The form is returned as the
    involution ``g`` of the basis indices with e_i paired to e_g(i), so its
    Gram matrix is the permutation matrix of ``g``.  The defining
    properties are verified, not assumed.
    """
    n = u.n
    images = [0] * n
    for row in u.tableau.rows:
        m = len(row)
        for j in range(m):
            images[row[j] - 1] = row[m - 1 - j]
    try:
        g = Permutation(images)
    except ValueError as exc:
        raise AssertionError("form is degenerate") from exc
    if any(g(g(i)) != i for i in range(1, n + 1)):
        raise AssertionError("form is not symmetric")
    # u e_a = e_b for each right neighbour a of b and kills the other basis
    # vectors; B(e_a, e_c) = 1 iff g(a) = c, so B(u e_i, e_j) = 1 iff (i, j)
    # is a pair below, and B(e_i, u e_j) = 1 iff (j, i) is, as g is an involution
    pairs = {(r + 1, g(i + 1)) for i, r in enumerate(u.right) if r is not None}
    if any((j, i) not in pairs for i, j in pairs):
        raise AssertionError("operator is not self-adjoint for the form")
    return g


def perp_flag(flag: Flag, form: Permutation) -> Flag:
    """Flag of orthogonal complements, reversing the subspace chain.

    ``form`` is the involution ``g`` returned by ``bilinear_form``.  The
    flag's integer rows are a basis of it, each a positive multiple of its
    vector, and row k of P is integer row k permuted by g (entry c is
    w[g(c)]).  Reducing [P | I] gives [I | P^-1], whose column k pairs to 1
    with row k and to 0 with the others, so its last j columns span the
    complement of the (n-j)-prefix.  ``_back_substituted`` leaves row r
    with some D_r at column r and 0 at the other pivot columns.  For a
    coordinate flag P is a permutation matrix, P^-1 = P^T, and the
    complement is a coordinate flag built with no elimination.
    """
    n = flag.n
    if form.n != n:
        raise ValueError("bilinear form size does not match the flag")
    if flag._scaled is None:
        # column k of P^-1 = P^T is e_g(c) for flag vector k = e_c, last first
        return _integer_flag(None, [form.images[c] - 1 for c in reversed(flag._order)])
    zeros = [0] * n
    augmented = [
        [v[g - 1] for g in form.images] + zeros[:k] + [1] + zeros[k + 1 :] for k, v in enumerate(flag._scaled)
    ]
    pairs, rows = _eliminate(augmented)
    if tuple(c for _, c in pairs) != tuple(range(n)):
        raise AssertionError("form is degenerate on the flag")
    # pivots 0..n-1 make P invertible, and echelon row r has its pivot at column r
    rows = _back_substituted(pairs, rows)
    # entry r of column k of P^-1 is rows[r][n + k] / D_r; the columns, last first, are independent
    dens = [row[r] for r, row in enumerate(rows)]
    columns = list(zip(*rows))[n:][::-1]
    den = lcm(*dens)
    lowest = [_lowest_terms(([a * den // d for a, d in zip(c, dens)], den)) for c in columns]
    return _integer_flag(tuple(v for v, _ in lowest), None)


def in_springer_fiber(flag: Flag, u: NilpotentOperator) -> bool:
    """True when every flag prefix is stable: each u(v_i) lies in span(v_1..v_i), which ``_flag_pivots`` checks."""
    try:
        _flag_pivots(u, flag, range(flag.n))
    except StabilityError:
        return False
    return True


def special_basis_tableau(k: int) -> StandardTableau:
    """Jordan basis labels for shape (k,k,1): odds on top, evens below, n last."""
    if k < 1:
        raise ValueError("k must be at least 1")
    n = 2 * k + 1
    return StandardTableau(
        (tuple(range(1, n - 1, 2)), tuple(range(2, n, 2)), (n,))
    )


def special_operator(k: int) -> NilpotentOperator:
    """The shape-(k,k,1) operator with u(e_i) = e_{i-2}, killing e_1, e_2, e_n."""
    return jordan_operator(special_basis_tableau(k))


def jordan_flag(perm: Permutation) -> Flag:
    """Coordinate flag ordering the Jordan basis by a permutation."""
    return _integer_flag(None, [i - 1 for i in perm.images])


def fiber_permutations(u: NilpotentOperator) -> tuple[Permutation, ...]:
    """Permutations whose coordinate flag lies in the fiber of ``u``, lexicographically.

    A coordinate flag is stable exactly when every basis vector appears
    after its chain predecessor, so these are the linear extensions of the
    chain order, placed depth-first smallest value first after a guard on
    the enumeration bound.
    """
    n = u.n
    _check_bound(n)
    # pred[v] is the chain predecessor of v, or 0 (always placed) for a row start
    pred = [0] * (n + 1)
    for row in u.tableau.rows:
        for prev, cur in zip(row, row[1:]):
            pred[cur] = prev
    out: list[Permutation] = []
    _extend(n, pred, [True] + [False] * n, [], out)
    return tuple(out)


def _extend(n: int, pred: list[int], placed: list[bool], images: list[int], out: list[Permutation]) -> None:
    """Append to ``out`` each way to finish ``images`` with the values not yet ``placed``, smallest first.

    A value may come next once its chain predecessor ``pred[v]`` is placed;
    ``placed`` and ``images`` are left as they were found.
    """
    if len(images) == n:
        out.append(Permutation(images))
        return
    for v in range(1, n + 1):
        if not placed[v] and placed[pred[v]]:
            placed[v] = True
            images.append(v)
            _extend(n, pred, placed, images, out)
            images.pop()
            placed[v] = False


def _check_special(k: int, d: int) -> None:
    """Reject ``d`` unless (d) is a special flag of shape (k,k,1): 3 <= d <= k+2."""
    if not 3 <= d <= k + 2:
        raise ValueError(f"d must lie in 3..{k + 2}, got {d}")


def special_perm(d: int, n: int) -> Permutation:
    """The permutation fixing 1..d-1, sending d to n, and shifting the rest down."""
    if n < 3 or n % 2 == 0:
        raise ValueError(f"n must be odd and at least 3, got {n}")
    _check_special((n - 1) // 2, d)
    return Permutation(tuple(range(1, d)) + (n,) + tuple(range(d, n)))


def special_flag(d: int, k: int) -> Flag:
    """Coordinate flag of the special permutation for shape (k,k,1)."""
    return jordan_flag(special_perm(d, 2 * k + 1))


def _chart_rows(flag: Flag, d: int) -> list[Sequence[int]]:
    """Integer echelon rows eta_1..eta_n of a flag in the chart around the special flag (d), entries in that flag's order.

    In the permuted coordinate order the flag is in the chart when its rank
    profile is the diagonal, i.e. every leading minor is nonzero; then
    eta_i, a combination of the first i flag vectors, is zero left of
    column i and nonzero at it (ChartError otherwise).  The rows are the
    flag's integer rows permuted, as a row's lcm ignores the entry order.
    A flag that keeps this order as its triangle, as every chart family
    does, is that echelon form already, eta_i nonzero at column i: it runs
    no elimination and is in the chart.  A coordinate flag is a
    permutation matrix in the permuted order, whose leading minors are all
    nonzero only for the identity: it is in the chart exactly when its
    coordinates are the order, and its rows, built only then, are the
    identity.
    """
    n = flag.n
    order = tuple(p - 1 for p in special_perm(d, n).images)
    if flag._scaled is None:
        if flag._order != order:
            raise ChartError(f"flag lies outside the chart around the special flag ({d})")
        zeros = (0,) * n
        return [zeros[:i] + (1,) + zeros[i + 1 :] for i in range(n)]
    permuted = itemgetter(*order)
    rows = [permuted(v) for v in flag._scaled]
    if flag._order == order:
        return rows
    pairs, etas = _eliminate(rows)
    if pairs != tuple((i, i) for i in range(n)):
        raise ChartError(f"flag lies outside the chart around the special flag ({d})")
    return etas


def chart_coords(flag: Flag, d: int) -> dict[tuple[int, int], Fraction]:
    """The unique chart coordinates phi of a flag near the special flag (d).

    ``phi[(i, j)]`` for i < j is the coefficient of the j-th permuted
    coordinate in the unique chart basis vector pivoted at the i-th: the
    echelon row eta_i of ``_chart_rows`` divided by its pivot is the unique
    chart basis vector with a unit pivot at i and zeros to its left, and
    its entries to the right are the coordinates (ChartError off the chart).
    """
    rows = _chart_rows(flag, d)
    n = len(rows)
    return {(r, c): _chart_value(rows, r, c) for r in range(1, n + 1) for c in range(r + 1, n + 1)}


def _chart_value(rows: Sequence[Sequence[int]], r: int, c: int) -> Fraction:
    """The chart coordinate phi(r, c), r < c, of the echelon rows of ``_chart_rows``: entry c of row r over its pivot, entry r."""
    eta = rows[r - 1]
    return Fraction(eta[c - 1], eta[r - 1]) if eta[c - 1] else _ZERO
