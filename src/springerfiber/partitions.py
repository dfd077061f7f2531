"""Integer partitions and Young diagrams.

A partition is stored as its non-increasing tuple of positive parts and
doubles as the Young diagram whose row ``i`` has ``parts[i]`` boxes.  On
top of plain diagram combinatorics (conjugation, column blocks, column
prefix sums) the module knows the dimension of the irreducible components
of a Springer fiber whose nilpotent has this Jordan type, the
classification of shapes all of whose components are nonsingular, and the
hook-length count of standard tableaux, used as an oracle for the
explicit enumerator in :mod:`springerfiber.tableaux`.
"""

from __future__ import annotations

import enum
from math import factorial
from typing import Iterator


class SmoothnessVerdict(enum.Enum):
    """Classification tag of a Jordan shape by the geometry of its components.

    Every component of the Springer fiber is nonsingular exactly for the
    first four families; every other shape admits a singular component.
    Overlapping families are resolved in the declaration order below, which
    is cosmetic: the smooth/singular answer is unambiguous.
    """

    HOOK = "Hook"
    TWO_ROW = "TwoRow"
    TWO_ROW_PLUS_BOX = "TwoRowPlusBox"
    TWO_TWO_TWO = "TwoTwoTwo"
    HAS_SINGULAR = "HasSingular"

    @property
    def smooth(self) -> bool:
        """True when every component of the fiber is nonsingular."""
        return self is not SmoothnessVerdict.HAS_SINGULAR


class Partition:
    """Non-increasing positive parts; the empty partition is allowed.

    Immutable and hashable; all operations return new values, so instances
    are safe to share between threads.
    """

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(int(p) for p in parts)
        for a, b in zip(parts, parts[1:]):
            if b > a:
                raise ValueError(f"parts must be non-increasing, got {parts}")
        if parts and parts[-1] < 1:
            raise ValueError(f"parts must be positive, got {parts}")
        self.parts = parts

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Parse the comma-separated text form, e.g. ``"3,2,2"``; "" is empty."""
        text = text.strip()
        if not text:
            return cls(())
        return cls(int(piece) for piece in text.split(","))

    @property
    def n(self) -> int:
        """Total number of boxes."""
        return sum(self.parts)

    @property
    def num_rows(self) -> int:
        return len(self.parts)

    @property
    def num_columns(self) -> int:
        return self.parts[0] if self.parts else 0

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __eq__(self, other) -> bool:
        if isinstance(other, Partition):
            return self.parts == other.parts
        if isinstance(other, tuple):
            return self.parts == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.parts)

    def __lt__(self, other: "Partition") -> bool:
        return self.parts < other.parts

    def __repr__(self) -> str:
        return f"Partition({self.parts!r})"

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts)

    def to_json(self) -> list[int]:
        return list(self.parts)

    def conjugate(self) -> "Partition":
        """Transpose the diagram: part ``j`` of the result counts rows of length >= j."""
        if not self.parts:
            return Partition(())
        return Partition(
            sum(1 for p in self.parts if p >= j) for j in range(1, self.parts[0] + 1)
        )

    def column_block(self, i: int, j: int) -> "Partition":
        """The shape cut out by columns ``i..j``: conjugate of the conjugate-part slice."""
        m = self.num_columns
        if not 1 <= i <= j <= m:
            raise ValueError(f"column range [{i},{j}] out of bounds for {m} columns")
        conj = self.conjugate().parts
        return Partition(conj[i - 1 : j]).conjugate()

    def prefix_sum(self, i: int) -> int:
        """Number of boxes in the first ``i`` columns."""
        m = self.num_columns
        if not 1 <= i <= m:
            raise ValueError(f"column index {i} out of bounds for {m} columns")
        conj = self.conjugate().parts
        return sum(conj[:i])

    def springer_dim(self) -> int:
        """Common dimension of the irreducible components of the Springer fiber.

        Equals n(lambda), the sum of (i-1)*lambda_i over the rows, which is
        the sum of c*(c-1)/2 over the column lengths c of the diagram.
        """
        return sum(i * p for i, p in enumerate(self.parts))

    def classify_smooth(self) -> SmoothnessVerdict:
        """Place the shape in the smoothness classification.

        Hook shapes (including n <= 1 and single rows/columns), two-row
        shapes, two-row-plus-one-box shapes, and (2,2,2) have all components
        nonsingular; anything else has a singular component.  Overlaps are
        resolved by that priority order, so (r,1) and (r,1,1) report Hook.
        """
        p = self.parts
        if len(p) <= 1 or all(x == 1 for x in p[1:]):
            return SmoothnessVerdict.HOOK
        if len(p) == 2:
            return SmoothnessVerdict.TWO_ROW
        if len(p) == 3 and p[2] == 1:
            return SmoothnessVerdict.TWO_ROW_PLUS_BOX
        if p == (2, 2, 2):
            return SmoothnessVerdict.TWO_TWO_TWO
        return SmoothnessVerdict.HAS_SINGULAR

    def count_tableaux(self) -> int:
        """Number of standard tableaux of this shape, by the hook length formula."""
        conj = self.conjugate().parts
        denom = 1
        for i, row in enumerate(self.parts):
            for j in range(row):
                denom *= (row - j) + (conj[j] - i) - 1
        return factorial(self.n) // denom


def partitions_of(n: int) -> Iterator[Partition]:
    """All partitions of ``n`` in descending lexicographic order of parts."""
    if n < 0:
        raise ValueError("n must be nonnegative")

    def gen(remaining: int, cap: int, prefix: tuple[int, ...]):
        if remaining == 0:
            yield Partition(prefix)
            return
        for part in range(min(cap, remaining), 0, -1):
            yield from gen(remaining - part, part, prefix + (part,))

    yield from gen(n, n if n else 1, ())
