"""springerfiber benchmark: one workload, one seed, every metric by name.

    python3 perfbench/run.py --workload move_classes --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  Each measurement runs in a fresh
single-threaded interpreter (``worker.py``), one after another:

* ``--trace 0``: one process that issues the op list as a closed loop for
  ``--seconds``, and ``COLD_RUNS`` processes, split before and after it,
  that only set up and issue the first op.  Prints the end-to-end metrics.
* ``--trace 1``: one untraced loop process, then one traced loop process.
  Prints the per-layer metrics; the tracing overhead (traced against
  untraced wall time per pass) goes into the provenance line.

The last stdout line is the result object; the line before it holds the
provenance and the failure notes.  The full record is also written to
``perfbench/out/``.  Exit code 0 when every op passed its check, 1 when
an op failed or a process crashed, 2 when the library source is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src" / "springerfiber"
OUT = HERE / "out"
WORKLOADS = ("move_classes", "coordinate_flags", "chart_certificates")
COLD_RUNS = 11
CHILD_TIMEOUT_S = 150


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SOURCE / "__init__.py").is_file():
        print(f"no library source at {SOURCE}; run from a springerfiber checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2

    started = time.perf_counter()
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    loop_args = base + ["--mode", "loop", "--seconds", str(args.seconds)]
    try:
        if args.trace:
            plain = child(loop_args)
            spans_path = OUT / f"spans-{args.workload}.bin"
            traced = child(loop_args + ["--trace", "1", "--spans", str(spans_path)])
            runs = [plain, traced]
            metrics = traced["layers"]
            plain_pass_s, traced_pass_s = first_pass_s(plain), first_pass_s(traced)
            extra = {
                "untraced_first_pass_s": plain_pass_s,
                "traced_first_pass_s": traced_pass_s,
                "trace_overhead": traced_pass_s / plain_pass_s - 1,
                "spans": traced["spans"],
                "spans_file": str(spans_path.relative_to(ROOT)),
            }
            main_run = traced
        else:
            before = COLD_RUNS // 2
            colds = [child(base + ["--mode", "cold"]) for _ in range(before)]
            main_run = child(loop_args)
            colds += [child(base + ["--mode", "cold"]) for _ in range(COLD_RUNS - before)]
            runs = colds + [main_run]
            metrics = end_to_end(colds, main_run)
            extra = {
                "setup_s_samples": [r["setup_s"] for r in runs],
                "first_op_s_samples": [r["first_op_s"] for r in colds],
                "raw": raw_figures(colds, main_run),
            }
    except ChildFailed as exc:
        print(f"benchmark process failed: {exc}", file=sys.stderr)
        return 1
    except statistics.StatisticsError:
        for note in [note for r in runs for note in r["failures"]]:
            print(note, file=sys.stderr)
        print("too few ops passed their checks to measure", file=sys.stderr)
        return 1

    notes = [note for r in runs for note in r["failures"]]
    failed = sum(r["failed"] for r in runs)
    attempted = sum(r["attempted"] for r in runs)
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "op_list_size": main_run["ops_per_pass"],
        "passes": main_run["passes"],
        "stopped_early": main_run["stopped_early"],
        "latency_samples": sum(x is not None for p in main_run["latencies_s"] for x in p),
        "failed_ratio": failed / attempted,
        "benchmark_wall_s": time.perf_counter() - started,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "host": platform.node(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        **extra,
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(
        json.dumps(
            {
                "provenance": provenance,
                "failures": notes,
                "result": result,
                "latencies_s_by_pass": main_run["latencies_s"],
                "raw_latencies_s_by_pass": main_run["raw_latencies_s"],
                "reference_s": main_run["reference_s"],
            }
        )
    )
    for note in notes:
        print(note, file=sys.stderr)
    print(json.dumps({"provenance": provenance, "failures": notes}))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


class ChildFailed(Exception):
    """A benchmark process crashed, timed out or printed no result."""


def child(args: list[str]) -> dict:
    """Run ``worker.py`` in a fresh interpreter and return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    env.pop("PYTHONPATH", None)
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{' '.join(args)} ran over {CHILD_TIMEOUT_S}s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def end_to_end(colds: list[dict], loop: dict) -> dict:
    """The end-to-end metrics of one run, in reference-speed times.

    Throughput is the median over the complete passes; set-up and first-op
    times are medians over the processes, which run on both sides of the
    loop.  Latency quantiles cover every op the loop issued.
    """
    return {
        "ops_per_s": {"value": pass_rate(loop["latencies_s"], loop["ops_per_pass"]), "unit": "1/s"},
        "op_p50_ms": {"value": quantile_ms(loop["latencies_s"], 4), "unit": "ms"},
        "op_p90_ms": {"value": quantile_ms(loop["latencies_s"], 8), "unit": "ms"},
        "first_op_ms": {"value": median_of(colds, "first_op_s") * 1000, "unit": "ms"},
        "setup_s": {"value": median_of(colds + [loop], "setup_s"), "unit": "s"},
        "peak_rss_mb": {"value": loop["peak_rss_mb"], "unit": "MB"},
        "ok_ratio": {"value": (loop["attempted"] - loop["failed"]) / loop["attempted"], "unit": "ratio"},
    }


def first_pass_s(loop: dict) -> float:
    """Wall time of the first pass, scaled to reference speed."""
    return reference.to_reference(loop["pass_wall_s"][0], loop["reference_s"][: loop["ops_per_pass"]])


def raw_figures(colds: list[dict], loop: dict) -> dict:
    """The same figures from unscaled wall-clock times, for the provenance."""
    return {
        "ops_per_s": pass_rate(loop["raw_latencies_s"], loop["ops_per_pass"]),
        "op_p50_ms": quantile_ms(loop["raw_latencies_s"], 4),
        "op_p90_ms": quantile_ms(loop["raw_latencies_s"], 8),
        "first_op_ms": median_of(colds, "raw_first_op_s") * 1000,
        "setup_s": median_of(colds + [loop], "raw_setup_s"),
        "reference_ms_median": statistics.median(loop["reference_s"]) * 1000,
    }


def pass_rate(passes: list[list], ops_per_pass: int) -> float:
    """Median over complete passes of ops passed per second of op time."""
    complete = [p for p in passes if len(p) == ops_per_pass] or passes
    rates = []
    for p in complete:
        ok = [x for x in p if x is not None]
        rates.append(len(ok) / sum(ok) if ok else 0.0)
    return statistics.median(rates)


def quantile_ms(passes: list[list], decile: int) -> float:
    samples = [x * 1000 for p in passes for x in p if x is not None]
    return statistics.quantiles(samples, n=10, method="inclusive")[decile]


def median_of(runs: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in runs if r[key] is not None)


def git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SOURCE.rglob("*.py")):
        digest.update(path.relative_to(SOURCE).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


if __name__ == "__main__":
    sys.exit(main())
