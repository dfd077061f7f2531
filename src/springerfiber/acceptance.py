"""Acceptance suite: the checks that gate a release, one function per criterion.

Every check is exact (zero tolerance); each criterion also carries a
wall-clock budget.  ``run_all`` executes them in order and reports one
pass/fail record per criterion; the pytest wrapper and the CLI ``selftest``
subcommand both drive this module.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from .certificates import certify_322, operator_322, verify_smooth_chart
from .eqsmoves import MoveError, MoveLabel, block_move, c_move, dist_class_invariant, eqs_partition
from .exactlin import (
    bilinear_form,
    cell_of,
    cell_prime_of,
    fiber_permutations,
    jordan_flag,
    perp_flag,
    special_operator,
)
from .partitions import Partition, SmoothnessVerdict, partitions_of
from .tableaux import (
    concat,
    dist,
    enumerate_tableaux,
    make_P,
    make_P_shift,
    make_Q,
    parse_tableau,
    restrict,
    schuetzenberger,
    standardize,
    tau,
)


@dataclass(frozen=True)
class CriterionSpec:
    number: int
    name: str
    budget_s: float
    fn: Callable[[], str]


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    elapsed_s: float
    budget_s: float
    detail: str

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return (
            f"{tag} criterion {self.number}: {self.name} "
            f"({self.elapsed_s:.2f}s / budget {self.budget_s:.0f}s) - {self.detail}"
        )

    def to_json(self) -> dict:
        return {
            "criterion": self.number,
            "name": self.name,
            "passed": self.passed,
            "elapsed_s": round(self.elapsed_s, 3),
            "budget_s": self.budget_s,
            "detail": self.detail,
        }


def _expect(got, want, case: str, *args) -> None:
    """AssertionError naming the failing case unless ``got == want``.

    ``case`` is formatted with ``args`` only on a failure.  ``python -O``
    strips ``assert`` statements, so the criteria check with this instead.
    """
    if got != want:
        raise AssertionError(f"{case.format(*args)}: got {got!r}, expected {want!r}")


def _criterion_1() -> str:
    """Component dimension formula at the pinned shapes."""
    _expect(Partition.parse("2,2,1,1").springer_dim(), 7, "dimension of (2,2,1,1)")
    _expect(Partition.parse("3,2,2").springer_dim(), 6, "dimension of (3,2,2)")
    for k in range(1, 11):
        _expect(Partition((k, k, 1)).springer_dim(), k + 2, "dimension of ({0},{0},1)", k)
    return "dimensions 7, 6, and k+2 for k=1..10"


def _four_families(p: Partition) -> bool:
    parts = p.parts
    if len(parts) <= 1 or all(x == 1 for x in parts[1:]):
        return True
    if len(parts) == 2:
        return True
    if len(parts) == 3 and parts[2] == 1:
        return True
    return parts == (2, 2, 2)


def _singularity_sufficient(p: Partition) -> bool:
    parts = p.parts
    if len(parts) < 2 or parts[1] < 2:
        return False
    if len(parts) >= 4:
        return True
    return len(parts) == 3 and parts[0] >= 3 and parts[2] >= 2


def _criterion_2() -> str:
    """Smoothness classifier agrees with the four families and the sufficient condition."""
    checked = 0
    for n in range(13):
        for p in partitions_of(n):
            verdict = p.classify_smooth()
            smooth = verdict is not SmoothnessVerdict.HAS_SINGULAR
            _expect(smooth, _four_families(p), "{} smooth exactly in the four families", p)
            if _singularity_sufficient(p):
                _expect(smooth, False, "{} meets the sufficient condition for a singular component", p)
            checked += 1
    return f"{checked} partitions of n <= 12 classified consistently"


def _criterion_3() -> str:
    """Bit-exact reproduction of the worked slide and move examples."""
    t = parse_tableau("1,2,4/3,6,8/5,7,10/9,11")
    mid = restrict(t, 2, 11)
    _expect(mid.text(), "2,4,8/3,6,10/5,7/9,11", "restrict of {} to 2..11", t)
    _expect(standardize(mid).text(), "1,3,7/2,5,9/4,6/8,10", "standardize of {}", mid)
    _expect(c_move(t).text(), "1,3,7/2,5,9/4,6,11/8,10", "C of {}", t)

    _expect(schuetzenberger(parse_tableau("1,2,3/4,5/6")).text(), "1,3,6/2,5/4", "evacuation of 1,2,3/4,5/6")

    t = parse_tableau("1,2,5/3,4,6")
    s = c_move(t)
    _expect(s.text(), "1,3,4/2,5,6", "C of {}", t)
    u = c_move(s)
    _expect(u.text(), "1,2,3/4,5,6", "C of {}", s)
    _expect(c_move(u), t, "C of {}", u)
    _expect(block_move(t, MoveLabel("C", (1, 2))).text(), "1,3,5/2,4,6", "C[1,2] of {}", t)

    _expect(restrict(parse_tableau("1,3/2,5/4/6"), 2, 6).text(), "2,3/4,5/6", "restrict of 1,3/2,5/4/6 to 2..6")
    return "cyclic move, evacuation, three-cycle, block move, and slide pair reproduced"


def _criterion_4() -> str:
    """Evacuation is an involution and reverses descents, exhaustively for n <= 8."""
    checked = 0
    for n in range(9):
        for shape in partitions_of(n):
            for t in enumerate_tableaux(shape):
                s = schuetzenberger(t)
                _expect(schuetzenberger(s), t, "evacuation twice of {}", t)
                _expect(tau(s), frozenset(n - i for i in tau(t)), "descents of the evacuation of {}", t)
                checked += 1
    return f"{checked} tableaux with n <= 8"


def _criterion_5() -> str:
    """Enumeration size matches the hook length count for all shapes with n <= 8."""
    checked = 0
    for n in range(9):
        for shape in partitions_of(n):
            _expect(len(enumerate_tableaux(shape)), shape.count_tableaux(), "tableaux of shape {}", shape)
            checked += 1
    return f"{checked} shapes with n <= 8"


def _criterion_6() -> str:
    """dist is preserved by evacuation and the cyclic move, and constant on classes."""
    shapes = [
        Partition((r, s, 1))
        for r in range(1, 8)
        for s in range(1, r + 1)
        if r + s + 1 <= 9
    ]
    tableaux_checked = 0
    for shape in shapes:
        for t in enumerate_tableaux(shape):
            d = dist(t)
            _expect(dist(schuetzenberger(t)), d, "dist of the evacuation of {}", t)
            try:
                moved = c_move(t)
            except MoveError:
                pass
            else:
                _expect(dist(moved), d, "dist of C of {}", t)
            tableaux_checked += 1
        report = dist_class_invariant(shape)
        _expect(report["ok"], True, "dist constant on the classes of {}: {}", shape, report)
    return f"{tableaux_checked} tableaux over {len(shapes)} shapes (r,s,1), r+s+1 <= 9"


def _criterion_7() -> str:
    """Class partitions: r classes for (r,r,1) with the pinned representatives; one class per two-row shape."""
    for r in range(1, 5):
        classes = eqs_partition(Partition((r, r, 1)))
        _expect(len(classes), r, "classes of ({0},{0},1)", r)
        for k in range(1, r + 1):
            target = concat(make_Q(k), make_P_shift(r - k, 2 * k + 1))
            hits = [c for c in classes if target in c.members]
            _expect([c.dist for c in hits], [k], "dist of the class of {} in ({},{},1)", target, r, r)
    two_row = 0
    for r in range(1, 9):
        for s in range(1, r + 1):
            if r + s > 9:
                continue
            classes = eqs_partition(Partition((r, s)))
            _expect(len(classes), 1, "classes of ({},{})", r, s)
            _expect(make_P(r, s) in classes[0].members, True, "P({},{}) in its class", r, s)
            two_row += 1
    return f"(r,r,1) partitions for r <= 4 and {two_row} two-row shapes"


def _criterion_8() -> str:
    """Singularity certificate for shape (3,2,2)."""
    cert = certify_322()
    _expect(cert.tangent_dim_lower_bound, 7, "tangent rank of (3,2,2)")
    _expect(cert.component_dim, 6, "component dimension of (3,2,2)")
    _expect(cert.singular, True, "(3,2,2) certified singular")
    _expect(cert.membership_points >= 5, True, "{} membership confirmations, at least 5", cert.membership_points)
    return (
        f"tangent rank {cert.tangent_dim_lower_bound} > dimension {cert.component_dim}; "
        f"{cert.membership_points} membership confirmations"
    )


def _criterion_9() -> str:
    """Smooth chart families through every special flag, k = 2..5."""
    cases = 0
    for k in range(2, 6):
        for d in range(3, k + 3):
            report = verify_smooth_chart(k, d)
            _expect(report["verdict"], "pass", "chart case k={}, d={}: {}", k, d, report)
            cases += 1
    return f"{cases} chart cases (k,d) verified"


def _criterion_10() -> str:
    """Orthogonal-complement duality exchanges cells and dual cells up to evacuation."""
    operators = [special_operator(k) for k in (1, 2, 3)]
    operators.append(operator_322())
    flags_checked = 0
    for u in operators:
        form = bilinear_form(u)
        for sigma in fiber_permutations(u):
            flag = jordan_flag(sigma)
            left = cell_of(perp_flag(flag, form), u)
            right = schuetzenberger(cell_prime_of(flag, u))
            _expect(left, right, "cell of the perp of {} for {}", sigma, u.jordan_type)
            flags_checked += 1
    return f"{flags_checked} coordinate flags over (1,1,1), (2,2,1), (3,3,1), (3,2,2)"


CRITERIA: tuple[CriterionSpec, ...] = (
    CriterionSpec(1, "component dimension formula", 1.0, _criterion_1),
    CriterionSpec(2, "smoothness classifier, n <= 12", 1.0, _criterion_2),
    CriterionSpec(3, "worked move examples, bit exact", 1.0, _criterion_3),
    CriterionSpec(4, "evacuation involution and descent reversal, n <= 8", 30.0, _criterion_4),
    CriterionSpec(5, "enumeration vs hook length count, n <= 8", 30.0, _criterion_5),
    CriterionSpec(6, "dist invariance on (r,s,1), r+s+1 <= 9", 120.0, _criterion_6),
    CriterionSpec(7, "class partitions of (r,r,1) and two-row shapes", 300.0, _criterion_7),
    CriterionSpec(8, "singularity certificate for (3,2,2)", 10.0, _criterion_8),
    CriterionSpec(9, "smooth charts for Q(k,k,1), k = 2..5", 60.0, _criterion_9),
    CriterionSpec(10, "perp duality of cells, n <= 7", 120.0, _criterion_10),
)


def run_criterion(spec: CriterionSpec) -> CriterionResult:
    start = time.perf_counter()
    try:
        detail = spec.fn()
        passed = True
    except AssertionError as exc:
        detail = f"assertion failed: {exc}"
        passed = False
    except Exception as exc:  # a crash is a failure, not an error state
        detail = f"{type(exc).__name__}: {exc}"
        passed = False
    elapsed = time.perf_counter() - start
    if passed and elapsed > spec.budget_s:
        passed = False
        detail = f"over budget: {elapsed:.2f}s > {spec.budget_s:.0f}s; {detail}"
    return CriterionResult(
        number=spec.number,
        name=spec.name,
        passed=passed,
        elapsed_s=elapsed,
        budget_s=spec.budget_s,
        detail=detail,
    )


def run_all() -> list[CriterionResult]:
    return [run_criterion(spec) for spec in CRITERIA]
