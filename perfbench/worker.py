"""One benchmark process: import the library, set up a workload, run ops.

Run by ``run.py`` in a fresh interpreter, never imported.  ``--mode cold``
sets up and issues only the first op, which is what a one-shot CLI call
pays.  ``--mode loop`` sets up and then issues the op list as a closed loop
with one client, pass after pass, until ``--seconds`` have elapsed and at
least ``MIN_OPS`` ops were issued; it stops only between passes.  The
result is one JSON line on stdout.
"""

import time

SETUP_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import springerfiber  # noqa: E402

import reference  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

MIN_OPS = 100
# Reference samples taken after a cold op to scale its time and set-up.
COLD_REFERENCE_SAMPLES = 2 * reference.WINDOW + 1
# A run this long stops mid-pass, so a badly slowed library still finishes
# inside the benchmark's time limit.
HARD_STOP_S = 60.0
MAX_FAILURE_NOTES = 5


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("cold", "loop"))
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()

    source = Path(springerfiber.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise SystemExit(f"imported springerfiber from {source}, not from this checkout")

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        tracer.op = tracing.SETUP_OP
    w = workloads.setup(args.workload, args.seed)
    setup_s = time.perf_counter() - SETUP_START
    if tracer:
        tracer.op = None

    if args.mode == "cold":
        latency, note = issue(w, w.ops[0], None, 0)
        refs = [reference.reference_time() for _ in range(COLD_REFERENCE_SAMPLES)]
        out = {
            "setup_s": reference.to_reference(setup_s, refs),
            "first_op_s": None if latency is None else reference.to_reference(latency, refs),
            "raw_setup_s": setup_s,
            "raw_first_op_s": latency,
            "attempted": 1,
            "failed": int(note is not None),
            "failures": [note] if note else [],
        }
    else:
        out = loop(w, args.seconds, tracer)
        out["raw_setup_s"] = setup_s
        out["setup_s"] = reference.scaled([setup_s], out["reference_s"])[0]
        if tracer:
            tracer.uninstall()
            out["layers"] = tracer.layer_metrics()
            out["spans"] = tracer.span_count()
            if args.spans:
                tracer.write_spans(args.spans)
    print(json.dumps(out))


def issue(w, op, tracer, op_id):
    """Run and check one op; return (latency in s or None, failure note or None).

    The caller takes any reference sample before this, so that ``op`` runs
    exactly as a caller would issue it.
    """
    if tracer:
        tracer.op = op_id
    start = time.perf_counter()
    try:
        result = workloads.run_op(w, op)
    except Exception:  # a raising op is a failed op; keep the traceback
        latency = None
        note = f"op {op_id} {op.kind} {op.args!r} raised:\n{traceback.format_exc()}"
    else:
        latency = time.perf_counter() - start
        note = None
    finally:
        if tracer:
            tracer.op = None
    if note is None:
        try:
            workloads.check_op(w, op, result)
        except workloads.CheckFailed as exc:
            latency, note = None, f"op {op_id} {op.kind} {op.args!r}: {exc}"
    return latency, note


def loop(w, seconds: float, tracer, min_ops: int = MIN_OPS) -> dict:
    """Issue whole passes of the op list; each op is preceded by a reference sample.

    ``tracer``, if given, records the first pass only; later passes run
    through its wrappers without recording.  ``latencies_s`` holds, per
    pass, each op's time scaled to reference speed (``None`` where the op
    failed); ``raw_latencies_s`` the wall times; ``pass_wall_s`` the wall
    time of each pass; ``reference_s`` the reference samples in issue order.
    """
    passes = []
    walls = []
    refs = []
    notes = []
    attempted = failed = 0
    start = time.perf_counter()
    stopped_early = False
    while not stopped_early:
        latencies = []
        pass_start = time.perf_counter()
        for op in w.ops:
            refs.append(reference.reference_time())
            latency, note = issue(w, op, None if passes else tracer, attempted)
            attempted += 1
            latencies.append(latency)
            if note is not None:
                failed += 1
                if len(notes) < MAX_FAILURE_NOTES:
                    notes.append(note)
            if time.perf_counter() - start > HARD_STOP_S:
                stopped_early = True
                break
        passes.append(latencies)
        walls.append(time.perf_counter() - pass_start)
        if time.perf_counter() - start >= seconds and attempted >= min_ops:
            break
    flat = reference.scaled([x for p in passes for x in p], refs)
    scaled, offset = [], 0
    for p in passes:
        scaled.append(flat[offset : offset + len(p)])
        offset += len(p)
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": notes,
        "passes": len(passes),
        "stopped_early": stopped_early,
        "ops_per_pass": len(w.ops),
        "pass_wall_s": walls,
        "latencies_s": scaled,
        "raw_latencies_s": passes,
        "reference_s": refs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


if __name__ == "__main__":
    main()
