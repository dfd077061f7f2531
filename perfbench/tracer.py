"""Outside-in layer tracing for the benchmark's traced run.

``Tracer.install`` wraps each target function of ``LAYER_TARGETS`` in every
``springerfiber`` module namespace that binds it (``eqsmoves`` binds
``jdt_remove_min`` from ``tableaux``, the package binds most public names),
and wraps each target method in its class, so internal calls are caught
without editing the library.  Each call while tracing is on becomes a span
(id, name, parent span, op id, start, end), kept in memory in one flat
array and written out when the run ends.  Self time is a span's duration
minus the durations of its child spans; calls in one thread nest, so the
children lie inside the parent.
"""

from __future__ import annotations

import array
import functools
import json
import sys
import time
from pathlib import Path

LAYER_TARGETS = (
    "eqsmoves.legal_moves",
    "eqsmoves.block_move",
    "eqsmoves.eqs_class",
    "eqsmoves.eqs_partition",
    "eqsmoves.c_move",
    "eqsmoves.c_inverse",
    "tableaux.jdt_remove_min",
    "tableaux.standardize",
    "tableaux.schuetzenberger",
    "tableaux.from_shape_chain",
    "tableaux.enumerate_tableaux",
    "tableaux.Tableau.__init__",
    "partitions.Partition.__init__",
    "exactlin.Matrix.__matmul__",
    "exactlin.Matrix.apply",
    "exactlin.Matrix.rank",
    "exactlin.Matrix.rref",
    "exactlin.Matrix.nullspace",
    "exactlin.restricted_type",
    "exactlin.quotient_type",
    "exactlin.cell_of",
    "exactlin.cell_prime_of",
    "exactlin.perp_flag",
    "exactlin.span_rank",
    "exactlin.in_span",
    "exactlin.intersection_dim",
    "exactlin.jordan_operator",
    "exactlin.bilinear_form",
    "exactlin.fiber_permutations",
    "exactlin.Flag.__init__",
    "exactlin.chart_coords",
    "exactlin.in_springer_fiber",
    "certificates.phi_map",
    "certificates.verify_smooth_chart",
    "certificates.certify_322",
    "certificates.verify_curve_membership",
    "certificates.curve_tangent",
)

# Ratios reported next to the per-function numbers.
RATIO_METRICS = (
    "eqsmoves.legal_moves.per_tableau",
    "eqsmoves.block_move.success_ratio",
    "exactlin.Matrix.rank.per_flag",
)

SETUP_OP = -1
SPAN_FIELDS = ("id", "name", "parent", "op", "start", "end")


class Tracer:
    """Spans of the target calls, and the per-layer numbers derived from them.

    Calls are recorded only while ``op`` is not ``None``: set it to the op
    id around each op and to ``SETUP_OP`` during set-up, so the benchmark's
    own checks between ops stay out of the numbers.  A span is six numbers
    (id, target index, parent id or -1, op id, start, end) appended to one
    flat array when the call returns; the target index is stored as
    ``~index`` when the call raised.
    """

    __slots__ = ("op", "names", "spans", "legal_moves_args", "_next", "_current", "_undo")

    def __init__(self) -> None:
        self.op: int | None = None
        self.names = list(LAYER_TARGETS)
        self.spans = array.array("d")
        self.legal_moves_args: set = set()
        self._next = 0
        self._current = -1
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "springerfiber"]
        for idx, target in enumerate(self.names):
            module_name, *path = target.split(".")
            owner = sys.modules[f"springerfiber.{module_name}"]
            for part in path[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, path[-1])
            wrapper = self._wrap(idx, original, track_arg=target == "eqsmoves.legal_moves")
            if len(path) > 1:
                self._rebind(owner, path[-1], original, wrapper)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, attr, original, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _rebind(self, owner, attr, original, wrapper) -> None:
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, idx: int, fn, track_arg: bool):
        clock = time.perf_counter
        record = self.spans.extend
        seen = self.legal_moves_args
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = tracer.op
            if op is None:
                return fn(*args, **kwargs)
            if track_arg:
                seen.add(args[0])
            span = tracer._next
            tracer._next = span + 1
            parent = tracer._current
            tracer._current = span
            name = ~idx
            start = clock()
            try:
                result = fn(*args, **kwargs)
                name = idx
                return result
            finally:
                end = clock()
                tracer._current = parent
                record((span, name, parent, op, start, end))

        return wrapper

    def layer_metrics(self) -> dict:
        """Per-layer numbers of everything recorded: set-up and the first pass.

        Every pass runs the same ops, so these counts are the same in every
        run of one seed however many passes fit.
        """
        spans = self.spans
        width = len(SPAN_FIELDS)
        child = array.array("d", bytes(8 * self.span_count()))
        for i in range(0, len(spans), width):
            parent = int(spans[i + 2])
            if parent >= 0:
                child[parent] += spans[i + 5] - spans[i + 4]
        calls = [0] * len(self.names)
        raised = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(0, len(spans), width):
            idx = int(spans[i + 1])
            if idx < 0:
                idx = ~idx
                raised[idx] += 1
            calls[idx] += 1
            self_s[idx] += spans[i + 5] - spans[i + 4] - child[int(spans[i])]

        out = {}
        count = dict(zip(self.names, calls))
        for name, c, s in zip(self.names, calls, self_s):
            out[f"{name}.calls"] = {"value": c, "unit": "count"}
            out[f"{name}.self_s"] = {"value": s, "unit": "s"}
        block = self.names.index("eqsmoves.block_move")
        ratios = (
            _ratio(count["eqsmoves.legal_moves"], len(self.legal_moves_args)),
            _ratio(calls[block] - raised[block], calls[block]),
            _ratio(count["exactlin.Matrix.rank"], count["exactlin.Flag.__init__"]),
        )
        for name, value in zip(RATIO_METRICS, ratios):
            out[name] = {"value": value, "unit": "ratio"}
        return out

    def span_count(self) -> int:
        return len(self.spans) // len(SPAN_FIELDS)

    def write_spans(self, path: Path) -> None:
        """Write a JSON header line, then the spans as raw float64 rows."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "fields": SPAN_FIELDS,
            "count": self.span_count(),
            "setup_op": SETUP_OP,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            self.spans.tofile(fh)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
