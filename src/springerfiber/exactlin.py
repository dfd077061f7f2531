"""Exact rational linear algebra for flags in a Springer fiber.

Everything runs over ``fractions.Fraction``; there is no floating point
anywhere, so rank, kernel, and membership answers are exact.  Vectors are
plain tuples used as columns by operators and as rows by spans.
``Matrix.rref`` is the one elimination routine (``chart_coords`` aside):
ranks, span membership and the complement flag's inverse all come from it.

The geometric vocabulary: a nilpotent operator is built from a standard
tableau labelling a Jordan basis (each row is a chain, the operator maps
every basis vector to its left neighbour).  It is held as index maps on
that basis, never as a dense matrix: the kernels and images of its powers
are coordinate subspaces read off the tableau columns, so their meet with
a subspace W has dimension dim W minus the rank of W on the remaining
coordinates.  A flag is an ordered basis; the cell of a flag records the
Jordan types of the operator restricted to the flag prefixes, which
recovers the unique standard tableau labelling the Spaltenstein cell
containing the flag.  The dual cell uses quotient types instead.  A
canonical symmetric bilinear form making the operator self-adjoint pairs
each chain with itself reversed; it is an involution of the basis indices
and gives the orthogonal-complement flag map, which exchanges the two
kinds of cells up to evacuation.

For the one-box-third-row shapes (k,k,1) the module also provides the
shuffle description of the Jordan flags inside the fiber, the special
permutations (d) and flags, coordinates on the open chart around each
special flag, and the combinatorial degeneration taking any shuffle flag
to a special one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .partitions import Partition
from .tableaux import DEFAULT_ENUM_BOUND, StandardTableau, from_shape_chain, schuetzenberger

Vector = tuple[Fraction, ...]


class ChartError(ValueError):
    """A flag lies outside the requested coordinate chart."""


class StabilityError(ValueError):
    """A subspace or flag is not stable under the operator."""


def as_fraction(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def vector(entries: Iterable) -> Vector:
    return tuple(as_fraction(e) for e in entries)


def unit_vector(n: int, i: int) -> Vector:
    """The ``i``-th coordinate vector (1-based) in dimension ``n``."""
    if not 1 <= i <= n:
        raise ValueError(f"coordinate {i} out of range 1..{n}")
    return tuple(Fraction(int(j == i - 1)) for j in range(n))


def vec_add(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vec_scale(c, a: Vector) -> Vector:
    c = as_fraction(c)
    return tuple(c * x for x in a)


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

    def column(self, j: int) -> Vector:
        """Column ``j`` (1-based)."""
        return tuple(row[j - 1] for row in self.rows)

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
        """Reduced row echelon form: (nonzero rows, pivot column indices)."""
        rows = [list(r) for r in self.rows]
        nrows, ncols = len(rows), self.ncols
        pivots = []
        pr = 0
        for c in range(ncols):
            pivot_row = next((r for r in range(pr, nrows) if rows[r][c] != 0), None)
            if pivot_row is None:
                continue
            rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
            inv = Fraction(1) / rows[pr][c]
            rows[pr] = [x * inv for x in rows[pr]]
            for r in range(nrows):
                if r != pr and rows[r][c] != 0:
                    f = rows[r][c]
                    rows[r] = [a - f * b for a, b in zip(rows[r], rows[pr])]
            pivots.append(c)
            pr += 1
            if pr == nrows:
                break
        return tuple(tuple(r) for r in rows[:pr]), tuple(pivots)

    def rank(self) -> int:
        """Exact rank: the number of pivots of the reduced row echelon form."""
        return len(self.rref()[1])

    def nullspace(self) -> tuple[Vector, ...]:
        """Basis of the right kernel, one vector per free column."""
        reduced, pivots = self.rref()
        ncols = self.ncols
        pivot_set = set(pivots)
        basis = []
        for free in range(ncols):
            if free in pivot_set:
                continue
            v = [Fraction(0)] * ncols
            v[free] = Fraction(1)
            for r, p in enumerate(pivots):
                v[p] = -reduced[r][free]
            basis.append(tuple(v))
        return tuple(basis)

    def to_json(self) -> list[list[str]]:
        return [[str(x) for x in row] for row in self.rows]

    def __eq__(self, other) -> bool:
        if isinstance(other, Matrix):
            return self.rows == other.rows
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"Matrix({[list(map(str, r)) for r in self.rows]})"


def _reduce(reduced: Sequence[Vector], pivots: Sequence[int], v: Vector) -> list[Fraction]:
    """``v`` minus its combination of the RREF rows: zero iff ``v`` is in their span."""
    w = list(v)
    for row, p in zip(reduced, pivots):
        c = w[p]
        if c:
            w = [a - c * b for a, b in zip(w, row)]
    return w


def span_rank(vectors: Sequence[Vector]) -> int:
    return Matrix(vectors).rank()


def in_span(vectors: Sequence[Vector], v: Vector) -> bool:
    reduced, pivots = Matrix(vectors).rref()
    return not any(_reduce(reduced, pivots, vector(v)))


def intersection_dim(a: Sequence[Vector], b: Sequence[Vector]) -> int:
    return span_rank(a) + span_rank(b) - span_rank(tuple(a) + tuple(b))


class Permutation:
    """Bijection of 1..n stored as the tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        images = tuple(int(x) for x in images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(images)}: {images}")
        self.images = images

    @classmethod
    def parse(cls, text: str) -> "Permutation":
        return cls(int(piece) for piece in text.strip().split(","))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def position_of(self, value: int) -> int:
        """The index mapped to ``value``; inverse permutation evaluated there."""
        return self.images.index(value) + 1

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, v in enumerate(self.images, start=1):
            inv[v - 1] = i
        return Permutation(inv)

    def __eq__(self, other) -> bool:
        if isinstance(other, Permutation):
            return self.images == other.images
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.images)

    def __lt__(self, other: "Permutation") -> bool:
        return self.images < other.images

    def __repr__(self) -> str:
        return f"Permutation({self.images!r})"

    def __str__(self) -> str:
        return ",".join(str(v) for v in self.images)


class Flag:
    """Full flag given by an ordered basis; prefix ``i`` spans the ``i``-dim space."""

    __slots__ = ("vectors",)

    def __init__(self, vectors: Sequence[Vector]):
        vectors = tuple(vector(v) for v in vectors)
        n = len(vectors)
        if any(len(v) != n for v in vectors):
            raise ValueError("flag needs n vectors of length n")
        if n and Matrix(vectors).rank() != n:
            raise ValueError("flag basis is linearly dependent")
        self.vectors = vectors

    @classmethod
    def coordinate(cls, perm: Permutation) -> "Flag":
        n = perm.n
        return cls(tuple(unit_vector(n, perm(i)) for i in range(1, n + 1)))

    @property
    def n(self) -> int:
        return len(self.vectors)

    def prefix(self, i: int) -> tuple[Vector, ...]:
        return self.vectors[:i]

    def same_flag(self, other: "Flag") -> bool:
        """Equality of the subspace chains, not of the chosen bases."""
        if self.n != other.n:
            return False
        for i in range(1, self.n + 1):
            if Matrix(self.prefix(i) + other.prefix(i)).rank() != i:
                return False
        return True

    def to_json(self) -> list[list[str]]:
        return [[str(x) for x in v] for v in self.vectors]

    def __repr__(self) -> str:
        return f"Flag(n={self.n})"


class NilpotentOperator:
    """Nilpotent operator with a tableau-labelled Jordan basis, held as index maps.

    Row ``i`` of the tableau lists a Jordan chain left to right; the
    operator maps each basis vector to its left neighbour and kills the
    first column.  Per 0-based basis index ``i`` it stores ``right[i]``, the
    index of the right neighbour (``None`` at the end of a row), so
    ``(u v)[i] = v[right[i]]``; ``column[i]``, the 1-based column, so
    ker u^j is spanned by the e_i with column at most j; and
    ``boxes_right[i]``, so im u^j is spanned by the e_i with at least j
    boxes to their right.  Instances are immutable.
    """

    __slots__ = ("tableau", "jordan_type", "n", "right", "column", "boxes_right")

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

    @property
    def degree(self) -> int:
        return self.jordan_type.num_columns

    def apply(self, v: Vector) -> Vector:
        if len(v) != self.n:
            raise ValueError("vector length does not match")
        zero = Fraction(0)
        return tuple(zero if r is None else v[r] for r in self.right)

    def __repr__(self) -> str:
        return f"NilpotentOperator(type={self.jordan_type}, basis={self.tableau.text()!r})"


def jordan_operator(t: StandardTableau) -> NilpotentOperator:
    """Operator sending basis vector ``e`` to its left neighbour in the tableau row."""
    return NilpotentOperator(t)


def _stable_basis(u: NilpotentOperator, subspace: Sequence[Vector]) -> tuple[Vector, ...]:
    """RREF basis of the span: ValueError if dependent, StabilityError if not u-stable."""
    reduced, pivots = Matrix(subspace).rref()
    if len(reduced) != len(subspace):
        raise ValueError("subspace basis is linearly dependent")
    if any(any(_reduce(reduced, pivots, u.apply(w))) for w in reduced):
        raise StabilityError("subspace is not stable under the operator")
    return reduced


def _meet_dim(basis: Sequence[Vector], outside: Sequence[int]) -> int:
    """dim of span(basis) meet the coordinate subspace with zeros at ``outside``."""
    return len(basis) - Matrix([w[i] for i in outside] for w in basis).rank()


def restricted_type(u: NilpotentOperator, subspace: Sequence[Vector]) -> Partition:
    """Jordan type of the operator on a stable subspace.

    Column ``j`` of the type is the kernel-dimension jump of the ``j``-th
    power, computed as dimensions of intersections with the ambient power
    kernels (restriction does not change the vectors a power kills).  The
    kernel of u^j is the coordinate span of the basis vectors in the first
    ``j`` columns of the tableau.
    """
    vecs = _stable_basis(u, subspace)
    d = len(vecs)
    dims = [0]
    j = 1
    while dims[-1] < d:
        dims.append(_meet_dim(vecs, [i for i, c in enumerate(u.column) if c > j]))
        j += 1
        if j > u.degree + 1:
            raise AssertionError("kernel filtration failed to exhaust the subspace")
    cols = [dims[t] - dims[t - 1] for t in range(1, len(dims))]
    return Partition(cols).conjugate()


def quotient_type(u: NilpotentOperator, subspace: Sequence[Vector]) -> Partition:
    """Jordan type induced on the quotient by a stable subspace.

    Works basis-free via the preimage chain: the kernel of the ``j``-th
    induced power has dimension dim(preimage of W under u^j) - dim W, and
    that preimage has dimension dim ker u^j + dim(W meet im u^j).  Both
    ker u^j and im u^j are coordinate subspaces of the Jordan basis.
    """
    vecs = _stable_basis(u, subspace)
    n = u.n
    dims = [len(vecs)]
    parts = []
    j = 1
    while dims[-1] < n:
        kernel_dim = sum(1 for c in u.column if c <= j)
        outside = [i for i, b in enumerate(u.boxes_right) if b < j]
        dims.append(kernel_dim + _meet_dim(vecs, outside))
        parts.append(dims[-1] - dims[-2])
        j += 1
        if j > u.degree + 1:
            raise AssertionError("preimage chain failed to exhaust the space")
    return Partition(parts).conjugate()


def cell_of(flag: Flag, u: NilpotentOperator) -> StandardTableau:
    """The standard tableau whose shape chain matches the prefix restriction types."""
    chain = [Partition(())]
    for i in range(1, flag.n + 1):
        chain.append(restricted_type(u, flag.prefix(i)))
    return from_shape_chain(chain)


def in_cell(flag: Flag, u: NilpotentOperator, t: StandardTableau) -> bool:
    """True when the flag lies in the cell labelled by ``t``."""
    return cell_of(flag, u) == t


def cell_prime_of(flag: Flag, u: NilpotentOperator) -> StandardTableau:
    """The tableau whose suffix restriction shapes match the quotient types.

    The quotient types along the flag, read from the top down, grow one box
    at a time; the tableau built from that chain is the evacuation of the
    dual-cell label, so one more evacuation recovers it.
    """
    n = flag.n
    chain = [quotient_type(u, flag.prefix(n - j)) for j in range(n + 1)]
    return schuetzenberger(from_shape_chain(chain))


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
    indices = range(1, n + 1)
    if any(g(g(i)) != i for i in indices):
        raise AssertionError("form is not symmetric")
    # u e_i = e_left[i]; u kills the basis vectors whose index is not a key
    left = {r + 1: i + 1 for i, r in enumerate(u.right) if r is not None}
    for i in indices:
        for j in indices:
            # B(u e_i, e_j) = B(e_i, u e_j), where B(e_a, e_b) = 1 iff g(a) = b
            if (i in left and g(left[i]) == j) != (j in left and g(i) == left[j]):
                raise AssertionError("operator is not self-adjoint for the form")
    return g


def perp_flag(flag: Flag, form: Permutation) -> Flag:
    """Flag of orthogonal complements, reversing the subspace chain.

    ``form`` is the involution ``g`` returned by ``bilinear_form``; row k of
    P is flag vector k permuted by it (entry c is w[g(c)]).  Reducing
    [P | I] gives [I | P^-1], whose column k pairs to 1 with flag vector k
    and to 0 with the others, so its last j columns span the complement of
    the (n-j)-prefix.
    """
    n = flag.n
    if form.n != n:
        raise ValueError("bilinear form size does not match the flag")
    augmented = Matrix(
        tuple(w[form(c) - 1] for c in range(1, n + 1)) + unit_vector(n, k)
        for k, w in enumerate(flag.vectors, start=1)
    )
    reduced, pivots = augmented.rref()
    if pivots != tuple(range(n)):
        raise AssertionError("form is degenerate on the flag")
    return Flag(tuple(row[n + k] for row in reduced) for k in reversed(range(n)))


def in_springer_fiber(flag: Flag, u: NilpotentOperator) -> bool:
    """True when every flag prefix is stable under the operator."""
    try:
        for i in range(1, flag.n + 1):
            _stable_basis(u, flag.prefix(i))
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
    return Flag.coordinate(perm)


def fiber_permutations(u: NilpotentOperator) -> tuple[Permutation, ...]:
    """Permutations whose coordinate flag lies in the fiber of ``u``, lexicographically.

    A coordinate flag is stable exactly when every basis vector appears
    after its chain predecessor, so these are the linear extensions of the
    chain order, placed depth-first smallest value first after a guard on
    the enumeration bound.
    """
    n = u.n
    if n > DEFAULT_ENUM_BOUND:
        raise ValueError(f"enumeration bound exceeded: n={n} > {DEFAULT_ENUM_BOUND}")
    # pred[v] is the chain predecessor of v, or 0 (always placed) for a row start
    pred = [0] * (n + 1)
    for row in u.tableau.rows:
        for prev, cur in zip(row, row[1:]):
            pred[cur] = prev
    placed = [True] + [False] * n
    images: list[int] = []
    out: list[Permutation] = []

    def place() -> None:
        if len(images) == n:
            out.append(Permutation(images))
            return
        for v in range(1, n + 1):
            if not placed[v] and placed[pred[v]]:
                placed[v] = True
                images.append(v)
                place()
                images.pop()
                placed[v] = False

    place()
    return tuple(out)


def shuffles(k: int) -> tuple[Permutation, ...]:
    """Permutations interleaving the chains 1,3,..,n-2 and 2,4,..,n-1 with n free.

    These are exactly the permutations whose coordinate flag is stable
    under the shape-(k,k,1) operator of ``special_operator``.
    """
    n = 2 * k + 1
    odds = tuple(range(1, n - 1, 2))
    evens = tuple(range(2, n, 2))
    out = []
    for odd_positions in combinations(range(n), k):
        rest = [p for p in range(n) if p not in odd_positions]
        for even_choice in combinations(range(n - k), k):
            even_positions = [rest[c] for c in even_choice]
            images = [0] * n
            for pos, value in zip(odd_positions, odds):
                images[pos] = value
            for pos, value in zip(even_positions, evens):
                images[pos] = value
            images[next(p for p in rest if p not in set(even_positions))] = n
            out.append(Permutation(images))
    return tuple(sorted(out))


def special_perm(d: int, n: int) -> Permutation:
    """The permutation fixing 1..d-1, sending d to n, and shifting the rest down."""
    if n < 3 or n % 2 == 0:
        raise ValueError(f"n must be odd and at least 3, got {n}")
    k = (n - 1) // 2
    if not 3 <= d <= k + 2:
        raise ValueError(f"d must lie in 3..{k + 2}, got {d}")
    return Permutation(tuple(range(1, d)) + (n,) + tuple(range(d, n)))


def special_flag(d: int, k: int) -> Flag:
    """Coordinate flag of the special permutation for shape (k,k,1)."""
    return Flag.coordinate(special_perm(d, 2 * k + 1))


@dataclass(frozen=True)
class ChartCoordinates:
    """Coordinates of a flag in the open chart around a special flag.

    ``phi[(i, j)]`` for i < j is the coefficient of the j-th permuted
    coordinate in the unique chart basis vector pivoted at the i-th.
    """

    d: int
    n: int
    phi: dict[tuple[int, int], Fraction]

    def at(self, i: int, j: int) -> Fraction:
        return self.phi[(i, j)]

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.phi.values())

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "n": self.n,
            "phi": {f"{i},{j}": str(x) for (i, j), x in sorted(self.phi.items())},
        }


def chart_coords(flag: Flag, d: int) -> ChartCoordinates:
    """Extract the unique chart coordinates of a flag near the special flag (d).

    In the permuted coordinate order the flag must reduce to a basis with
    unit pivots on the diagonal and zeros to the left; the entries to the
    right of the pivots are the coordinates.  Raises ChartError when a
    pivot vanishes, i.e. the flag is outside the chart.
    """
    n = flag.n
    perm = special_perm(d, n)
    rows = [[v[perm(j) - 1] for j in range(1, n + 1)] for v in flag.vectors]
    etas: list[list[Fraction]] = []
    for i in range(n):
        row = list(rows[i])
        for j, eta in enumerate(etas):
            if row[j] != 0:
                f = row[j]
                row = [a - f * b for a, b in zip(row, eta)]
        if row[i] == 0:
            raise ChartError(f"flag lies outside the chart around the special flag ({d})")
        inv = Fraction(1) / row[i]
        etas.append([x * inv for x in row])
    phi = {
        (i + 1, j + 1): etas[i][j]
        for i in range(n)
        for j in range(i + 1, n)
    }
    return ChartCoordinates(d=d, n=n, phi=phi)


def chart_flag(coords: ChartCoordinates) -> Flag:
    """Rebuild the flag with the given chart coordinates; inverts ``chart_coords``."""
    n = coords.n
    perm = special_perm(coords.d, n)
    vectors = []
    for i in range(1, n + 1):
        v = list(unit_vector(n, perm(i)))
        for j in range(i + 1, n + 1):
            coeff = coords.phi.get((i, j), Fraction(0))
            if coeff:
                v[perm(j) - 1] += coeff
        vectors.append(tuple(v))
    return Flag(vectors)


def degenerate_to_special(sigma: Permutation, k: int) -> Permutation:
    """Drive a shuffle permutation to its terminal special form.

    First, while the largest value sits before 1 or 2, swap it with that
    value (each swap moves it later).  Then bubble the values 1..n-1 into
    increasing position order; the largest value never moves again.  The
    terminal permutation fixes 1..d-1 and sends d to n for d its position.
    """
    n = 2 * k + 1
    if sigma.n != n:
        raise ValueError(f"permutation degree {sigma.n} does not match n={n}")
    odds = [sigma.position_of(v) for v in range(1, n - 1, 2)]
    evens = [sigma.position_of(v) for v in range(2, n, 2)]
    if odds != sorted(odds) or evens != sorted(evens):
        raise ValueError("permutation is not a shuffle of the two chains")
    images = list(sigma.images)

    def swap_values(a: int, b: int) -> None:
        pa, pb = images.index(a), images.index(b)
        images[pa], images[pb] = images[pb], images[pa]

    changed = True
    while changed:
        changed = False
        for i in (1, 2):
            if images.index(n) < images.index(i):
                swap_values(i, n)
                changed = True
    changed = True
    while changed:
        changed = False
        for i in range(2, n):
            if images.index(i - 1) > images.index(i):
                swap_values(i - 1, i)
                changed = True
    return Permutation(images)
