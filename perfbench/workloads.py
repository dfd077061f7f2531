"""The benchmark's workloads: seeded op lists, the library calls of each op,
and the exact checks on every answer.

An op list is plain data (shapes, tableau rows, permutation images,
fractions) generated from the seed; the library only ever sees those
inputs.  Expected answers come from small oracles in this file that share
no code with the library: a standard-tableau enumerator, the hook-length
count, the chain-segment description of coordinate flags, the descent set
and the ``dist`` statistic.  Answers no oracle covers are cross-checked
between two library paths (a class query against the partition) or pinned
to the class counts the library gave at the commit that introduced this
benchmark.

``setup(workload, seed)`` returns a ``Workload``; ``run_op`` does the
timed library work of one op and ``check_op`` raises ``CheckFailed`` when
an answer is wrong.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, prod

import springerfiber as sf

WORKLOADS = ("move_classes", "coordinate_flags", "chart_certificates")

# move_classes: (shape, eqs_class queries per stratum per pass).  The
# first shape's partition is op 0, the cold op.  A query costs about the
# size of the queried class, and class sizes within a shape differ up to
# a hundredfold, so queries are drawn where that cost does not depend on
# the seed: in (r,r,1) shapes the strata are the r values of dist, which
# label the r classes, so every pass queries every class; a two-row shape
# is one class; the shapes with many classes have only small ones.  The
# (r,s,1) shapes with r > s get no queries, since their dist values do not
# separate classes.
MOVE_PASS = (
    ((5, 5, 1), 1),
    ((4, 4, 1), 1),
    ((3, 3, 1), 1),
    ((4, 3, 1), 0),
    ((5, 3, 1), 0),
    ((6, 2, 1), 0),
    ((6, 4), 3),
    ((7, 3), 2),
    ((5, 5), 12),
    ((4, 3, 2, 1), 3),
    ((3, 3, 2, 2), 3),
    ((3, 2, 2), 3),
)

# Class counts the library gave when this benchmark was introduced, for the
# shapes theory does not pin ((r,r,1) has r classes, two-row shapes one).
PINNED_CLASS_COUNTS = {
    (4, 3, 1): 11,
    (5, 3, 1): 26,
    (6, 2, 1): 16,
    (4, 3, 2, 1): 238,
    (3, 3, 2, 2): 84,
    (3, 2, 2): 8,
}

# coordinate_flags: shapes n = 7..9 and coordinate flags per shape per pass.
FLAG_SHAPES = (
    (3, 3, 1),
    (3, 2, 2),
    (2, 2, 2, 1),
    (4, 3, 1),
    (3, 3, 2),
    (3, 3, 1, 1),
    (4, 4, 1),
    (3, 3, 3),
)
FLAGS_PER_SHAPE = 6

# chart_certificates: every special flag (d) of Q(k,k,1), k = 2..6, one
# seeded tuple each, plus curve-membership points of the (3,2,2) family.
# k = 6 comes twice: p90 then falls among twelve k = 6 cases, whose cost
# depends on the drawn parameters, instead of on one of six.
CHART_KS = (2, 3, 4, 5, 6, 6)
MEMBERSHIP_POINTS = 30
# Parameters are quotients of two distinct primes from this range, so every
# seed feeds the elimination numbers of the same size; small values such as
# 1/2 would make some seeds' ops cheaper than others'.
PRIMES = (31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


class CheckFailed(Exception):
    """An op returned an answer that disagrees with its expected value."""


@dataclass(frozen=True)
class Op:
    """One request: ``kind`` names the library path, ``args`` its inputs.

    ``expect`` holds the answer known before the op runs (an oracle value);
    it is ``None`` when the answer is checked against an earlier op.
    """

    kind: str
    args: tuple
    expect: object = None


@dataclass
class Workload:
    """An op list and what its ops and checks share: operators, class maps."""

    ops: list[Op]
    ctx: dict = field(default_factory=dict)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------- oracles


def syt_rows(shape: tuple[int, ...]) -> list[tuple[tuple[int, ...], ...]]:
    """Every standard tableau of the shape as row tuples, in a fixed order."""
    out = []
    rows: list[list[int]] = [[] for _ in shape]
    n = sum(shape)

    def place(v: int) -> None:
        if v > n:
            out.append(tuple(tuple(r) for r in rows))
            return
        for r, target in enumerate(shape):
            filled = len(rows[r])
            if filled < target and (r == 0 or len(rows[r - 1]) > filled):
                rows[r].append(v)
                place(v + 1)
                rows[r].pop()

    place(1)
    return out


def hook_count(shape: tuple[int, ...]) -> int:
    conj = [sum(1 for p in shape if p > j) for j in range(shape[0])] if shape else []
    hooks = prod(
        (shape[i] - j - 1) + (conj[j] - i - 1) + 1
        for i in range(len(shape))
        for j in range(shape[i])
    )
    return factorial(sum(shape)) // hooks


def _row_of(rows) -> dict[int, int]:
    return {e: r for r, row in enumerate(rows) for e in row}


def descents(rows) -> frozenset[int]:
    where = _row_of(rows)
    n = len(where)
    return frozenset(e for e in range(1, n) if where[e + 1] > where[e])


def dist_of(rows) -> int:
    """``dist`` of an (r,s,1) tableau: third-row entry minus one minus the
    largest descent below it."""
    bottom = rows[2][0]
    return bottom - 1 - max(i for i in descents(rows) if i < bottom - 1)


def class_target(r: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Rows of concat(Q(k,k,1), P(r-k,r-k) shifted by 2k+1), built by hand."""
    top = (1,) + tuple(range(3, k + 2))
    middle = (2,) + tuple(range(k + 3, 2 * k + 2))
    s, t = r - k, 2 * k + 1
    top += tuple(e + t for e in range(1, 2 * s, 2))
    middle += tuple(e + t for e in range(2, 2 * s + 1, 2))
    return (top, middle, (k + 2,))


def expected_class_count(shape: tuple[int, ...]) -> int:
    if len(shape) == 2:
        return 1
    if len(shape) == 3 and shape[2] == 1 and shape[0] == shape[1]:
        return shape[0]
    return PINNED_CLASS_COUNTS[shape]


def _chain_tableau(diagrams: list[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    """Place ``i`` in the row where diagram ``i`` outgrows diagram ``i-1``."""
    rows: list[list[int]] = []
    for e in range(1, len(diagrams)):
        prev, cur = diagrams[e - 1], diagrams[e]
        prev = prev + (0,) * (len(cur) - len(prev))
        (r,) = [i for i in range(len(cur)) if cur[i] != prev[i]]
        if r == len(rows):
            rows.append([])
        rows[r].append(e)
    return tuple(tuple(row) for row in rows)


def coordinate_flag_oracle(basis_rows, images) -> tuple[tuple, tuple]:
    """Cell label of a coordinate flag and the chain tableau of its dual cell.

    A prefix of a fiber permutation holds an initial segment of every
    Jordan chain; its restricted type is the sorted segment lengths and its
    quotient type the sorted lengths of the complementary final segments.
    The second value is the tableau of the quotient-type chain, which is the
    evacuation of ``cell_prime_of``.
    """
    where = _row_of(basis_rows)
    lengths = [len(row) for row in basis_rows]
    counts = [0] * len(basis_rows)
    sub = [()]
    quo = [tuple(sorted(lengths, reverse=True))]
    for v in images:
        counts[where[v]] += 1
        sub.append(tuple(sorted((c for c in counts if c), reverse=True)))
        quo.append(
            tuple(sorted((m - c for m, c in zip(lengths, counts) if m > c), reverse=True))
        )
    return _chain_tableau(sub), _chain_tableau(quo[::-1])


def _rational(rng: random.Random, signed: bool) -> Fraction:
    num, den = rng.sample(PRIMES, 2)
    if signed and rng.random() < 0.5:
        num = -num
    return Fraction(num, den)


def _distinct_rationals(rng: random.Random, count: int, signed: bool) -> tuple[Fraction, ...]:
    out: list[Fraction] = []
    while len(out) < count:
        x = _rational(rng, signed)
        if x not in out:
            out.append(x)
    return tuple(out)


# ------------------------------------------------------------- generation


def setup(
    name: str,
    seed: int,
    *,
    move_pass=MOVE_PASS,
    flag_shapes=FLAG_SHAPES,
    flags_per_shape=FLAGS_PER_SHAPE,
    chart_ks=CHART_KS,
    membership_points=MEMBERSHIP_POINTS,
) -> Workload:
    """Generate the op list of one workload from its seed.

    Keyword arguments shrink the workload for the benchmark's own tests.
    """
    rng = random.Random(f"{name}:{seed}")
    if name == "move_classes":
        return _setup_move_classes(rng, move_pass)
    if name == "coordinate_flags":
        return _setup_coordinate_flags(rng, flag_shapes, flags_per_shape)
    if name == "chart_certificates":
        return _setup_charts(rng, chart_ks, membership_points)
    raise ValueError(f"unknown workload {name!r}")


def _setup_move_classes(rng, move_pass) -> Workload:
    ops: list[Op] = []
    all_rows = {}
    for shape, per_stratum in move_pass:
        rows = syt_rows(shape)
        if len(rows) != hook_count(shape):
            raise AssertionError(f"oracle enumeration of {shape} disagrees with hook count")
        all_rows[shape] = frozenset(rows)
        ops.append(Op("partition", (shape,), expected_class_count(shape)))
        rs1 = len(shape) == 3 and shape[2] == 1
        if rs1:
            ops.append(Op("invariant", (shape,), expected_class_count(shape)))
        strata: dict[int, list] = {}
        for t in rows:
            strata.setdefault(dist_of(t) if rs1 else 0, []).append(t)
        for _, members in sorted(strata.items()):
            for t in rng.sample(members, per_stratum):
                ops.append(Op("query", (shape, t)))
    return Workload(ops, {"all_rows": all_rows, "classes": {}})


def _setup_coordinate_flags(rng, flag_shapes, flags_per_shape) -> Workload:
    operators = {}
    samples = {}
    for shape in flag_shapes:
        basis = rng.choice(syt_rows(shape))
        u = sf.jordan_operator(sf.StandardTableau(basis))
        form = sf.bilinear_form(u)
        perms = sorted(p.images for p in sf.exactlin.fiber_permutations(u))
        want = factorial(sum(shape)) // prod(factorial(m) for m in shape)
        if len(perms) != want:
            raise AssertionError(f"{len(perms)} fiber permutations for {shape}, want {want}")
        operators[shape] = (basis, u, form)
        samples[shape] = rng.sample(perms, flags_per_shape)
    ops = []
    for i in range(flags_per_shape):
        for shape in flag_shapes:
            images = samples[shape][i]
            expect = coordinate_flag_oracle(operators[shape][0], images)
            ops.append(Op("flag", (shape, images), expect))
    return Workload(ops, {"operators": operators})


def _setup_charts(rng, chart_ks, membership_points) -> Workload:
    ops = [Op("certify_322", ())]
    for k in chart_ks:
        for d in range(3, k + 3):
            ops.append(Op("chart", (k, d, _distinct_rationals(rng, k + 2, signed=False))))
    for _ in range(membership_points):
        ops.append(Op("membership", (_distinct_rationals(rng, 6, signed=True),), True))
    return Workload(ops)


# -------------------------------------------------------------- execution


def run_op(w: Workload, op: Op):
    """The library work of one op; this is what the benchmark times."""
    if op.kind == "partition":
        return sf.eqs_partition(sf.Partition(op.args[0]))
    if op.kind == "invariant":
        return sf.dist_class_invariant(sf.Partition(op.args[0]))
    if op.kind == "query":
        t = sf.StandardTableau(op.args[1])
        evac = sf.schuetzenberger(t)
        return sf.eqs_class(t), evac, sf.schuetzenberger(evac)
    if op.kind == "flag":
        _, u, form = w.ctx["operators"][op.args[0]]
        flag = sf.jordan_flag(sf.Permutation(op.args[1]))
        cell = sf.cell_of(flag, u)
        dual = sf.schuetzenberger(sf.cell_prime_of(flag, u))
        perp_cell = sf.cell_of(sf.perp_flag(flag, form), u)
        return cell, dual, perp_cell
    if op.kind == "chart":
        k, d, params = op.args
        return sf.verify_smooth_chart(k, d, [params])
    if op.kind == "certify_322":
        return sf.certify_322()
    if op.kind == "membership":
        return sf.verify_curve_membership(op.args[0])
    raise ValueError(f"unknown op kind {op.kind!r}")


def check_op(w: Workload, op: Op, result) -> None:
    """Raise ``CheckFailed`` unless ``result`` is the exact right answer."""
    kind = op.kind
    if kind == "partition":
        _check_partition(w, op, result)
    elif kind == "invariant":
        report = result
        _require(report["ok"] and not report["violations"], f"dist varies: {report['violations']}")
        _require(report["class_count"] == op.expect, f"{report['class_count']} classes, want {op.expect}")
    elif kind == "query":
        _check_query(w, op, result)
    elif kind == "flag":
        shape = op.args[0]
        cell, dual, perp_cell = result
        want_cell, want_dual = op.expect
        _require(cell.rows == want_cell, f"cell_of {cell.rows}, want {want_cell}")
        _require(dual.rows == want_dual, f"dual cell chain {dual.rows}, want {want_dual}")
        _require(perp_cell == dual, "perp duality fails")
        _require(
            cell.shape.parts == shape and dual.shape.parts == shape,
            "cell label shape differs from the operator's",
        )
    elif kind == "chart":
        k, d, _ = op.args
        statuses = [c["status"] for c in result["checks"]]
        _require(result["case"] == {"k": k, "d": d}, f"report for {result['case']}")
        _require(result["verdict"] == "pass" and statuses == ["pass"] * 4, f"chart checks {statuses}")
    elif kind == "certify_322":
        cert = result
        _require(
            cert.tangent_dim_lower_bound == 7 and cert.component_dim == 6 and cert.singular,
            f"tangent rank {cert.tangent_dim_lower_bound} vs dimension {cert.component_dim}",
        )
        _require(cert.membership_points >= 5, f"{cert.membership_points} membership points")
    elif kind == "membership":
        _require(result is op.expect, f"membership {result}, want {op.expect}")
    else:
        raise ValueError(f"unknown op kind {kind!r}")


def _check_partition(w: Workload, op: Op, classes) -> None:
    shape = op.args[0]
    w.ctx["classes"].pop(shape, None)
    members = [tuple(m.rows for m in c.members) for c in classes]
    flat = [rows for group in members for rows in group]
    _require(len(classes) == op.expect, f"{shape}: {len(classes)} classes, want {op.expect}")
    _require(
        len(flat) == len(set(flat)) and set(flat) == w.ctx["all_rows"][shape],
        f"{shape}: classes do not partition the tableaux",
    )
    if len(shape) == 3 and shape[2] == 1:
        for c, group in zip(classes, members):
            values = {dist_of(rows) for rows in group}
            _require(values == {c.dist}, f"{shape}: class dist {c.dist}, members {sorted(values)}")
        if shape[0] == shape[1]:
            for k in range(1, shape[0] + 1):
                target = class_target(shape[0], k)
                hits = [c for c, group in zip(classes, members) if target in group]
                _require(
                    len(hits) == 1 and hits[0].dist == k,
                    f"{shape}: representative for k={k} misplaced",
                )
    w.ctx["classes"][shape] = {
        rows: (frozenset(group), c.representative.rows)
        for c, group in zip(classes, members)
        for rows in group
    }


def _check_query(w: Workload, op: Op, result) -> None:
    shape, rows = op.args
    cls, evac, back = result
    known = w.ctx["classes"].get(shape)
    _require(known is not None, f"{shape}: no partition to compare the query with")
    want_members, want_rep = known[rows]
    got = frozenset(m.rows for m in cls.members)
    _require(got == want_members, f"{shape}: query class differs from the partition's")
    _require(cls.representative.rows == want_rep, f"{shape}: query representative differs")
    _require(back.rows == rows, "evacuation is not an involution")
    _require(evac.rows in got, "evacuation left the class")
    n = sum(shape)
    _require(
        descents(evac.rows) == frozenset(n - i for i in descents(rows)),
        "evacuation does not reverse descents",
    )
