"""Command line front end: thin JSON adapters over the library operations.

Machine-readable JSON goes to stdout, a one-line human summary to stderr.
Exit codes: 0 on success, 1 when an operation or verification check fails
or stdout is closed before the JSON is written (a one-line note on stderr,
no traceback; ``--help`` keeps exit 0, as argparse ignores a closed
stdout), 2 on unparsable input.  The environment variable SPRINGERFIBER_MAX_N
overrides the default bound on n of the enumeration-backed subcommands and
of ``verify-q``; like ``--max-n``, it must be a nonnegative integer, else
the input is unparsable.  Every integer of the input, in a shape, a
permutation, a tableau, an argument or that variable, is ASCII digits with
an optional sign (``partitions.integer``): digit-group underscores and
non-ASCII digits are unparsable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import cache

from . import acceptance
from .certificates import certify_322, verify_smooth_chart
from .eqsmoves import c_inverse, c_move, eqs_class, partition_report
from .exactlin import Permutation, StabilityError, cell_of, jordan_flag, jordan_operator
from .partitions import Partition, integer
from .tableaux import (
    StandardTableau,
    column_superstandard,
    dist,
    enumerate_tableaux,
    parse_tableau,
    restrict,
    schuetzenberger,
)

ENV_MAX_N = "SPRINGERFIBER_MAX_N"
# Default bound on n = 2k+1 for verify-q: k <= 15, a few seconds per run.
VERIFY_Q_MAX_N = 31


class InputError(ValueError):
    """Unparsable command input; maps to exit code 2."""


def _parse(parser, text: str, what: str):
    try:
        return parser(text)
    except ValueError as exc:
        raise InputError(f"cannot parse {what} {text!r}: {exc}") from exc


def _parse_standard(text: str) -> StandardTableau:
    t = _parse(parse_tableau, text, "tableau")
    if not isinstance(t, StandardTableau):
        raise InputError(f"tableau {text!r} is not standard")
    return t


def _max_n(args, default: int | None = None) -> int | None:
    bound = getattr(args, "max_n", None)
    if bound is None:
        env = os.environ.get(ENV_MAX_N)
        if not env:
            return default
        bound = _parse(integer, env, ENV_MAX_N)
    if bound < 0:
        raise InputError(f"search bound must be nonnegative, got {bound}")
    return bound


def _cmd_classify(args):
    p = _parse(Partition.parse, args.partition, "partition")
    verdict = p.classify_smooth()
    return {"smooth": verdict.smooth, "verdict": verdict.value}, 0


def _cmd_dim(args):
    p = _parse(Partition.parse, args.partition, "partition")
    return p.springer_dim(), 0


def _cmd_enumerate(args):
    p = _parse(Partition.parse, args.partition, "partition")
    tabs = enumerate_tableaux(p, max_n=_max_n(args))
    if args.count_only:
        return len(tabs), 0
    return [t.text() for t in tabs], 0


def _cmd_sch(args):
    t = _parse_standard(args.tableau)
    return schuetzenberger(t).text(), 0


def _cmd_cmove(args):
    t = _parse_standard(args.tableau)
    moved = c_inverse(t) if args.inverse else c_move(t)
    return moved.text(), 0


def _cmd_restrict(args):
    t = _parse_standard(args.tableau)
    return restrict(t, args.i, args.j).text(), 0


def _cmd_eqs_class(args):
    t = _parse_standard(args.tableau)
    cls = eqs_class(t, max_n=_max_n(args))
    members = [m.text() for m in cls.members]
    return {"shape": str(cls.shape), **cls.to_json(), "members": members}, 0


def _cmd_eqs_partition(args):
    p = _parse(Partition.parse, args.partition, "partition")
    return partition_report(p, max_n=_max_n(args)), 0


def _cmd_dist(args):
    t = _parse_standard(args.tableau)
    return dist(t), 0


def _cmd_flag_cell(args):
    p = _parse(Partition.parse, args.partition, "partition")
    sigma = _parse(Permutation.parse, args.sigma, "permutation")
    if sigma.n != p.n:
        raise InputError(f"permutation degree {sigma.n} does not match |shape| = {p.n}")
    basis = column_superstandard(p) if args.basis is None else _parse_standard(args.basis)
    if basis.shape != p:
        # the empty shape prints as nothing, so it is named "()"
        got, want = (str(shape) or "()" for shape in (basis.shape, p))
        raise InputError(f"basis tableau shape {got} does not match {want}")
    try:
        return cell_of(jordan_flag(sigma), jordan_operator(basis)).text(), 0
    except StabilityError as exc:
        raise InputError(
            f"the coordinate flag of {sigma} is not in the fiber of {basis.text()}"
        ) from exc


def _cmd_certify_322(args):
    cert = certify_322()
    return cert.to_json(), 0 if cert.singular else 1


def _cmd_verify_q(args):
    k = args.k
    if k < 1:
        raise InputError("k must be at least 1")
    n, bound = 2 * k + 1, _max_n(args, VERIFY_Q_MAX_N)
    if n > bound:
        raise ValueError(f"verify-q bound exceeded: n={n} > {bound}")
    cases = [verify_smooth_chart(k, d) for d in range(3, k + 3)]
    ok = all(c["verdict"] == "pass" for c in cases)
    return {"k": k, "cases": cases, "verdict": "pass" if ok else "fail"}, 0 if ok else 1


def _cmd_selftest(args):
    results = acceptance.run_all()
    for r in results:
        print(r.line(), file=sys.stderr)
    ok = all(r.passed for r in results)
    payload = {"criteria": [r.to_json() for r in results], "passed": ok}
    return payload, 0 if ok else 1


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: an ``argparse`` parser holds reference cycles, so each new one would leave garbage for the cyclic collector."""
    parser = argparse.ArgumentParser(
        prog="springerfiber",
        description="Combinatorics of Springer fiber components: JSON on stdout, summary on stderr.",
    )
    parser.add_argument(
        "--report",
        action="store_true",
        help="wrap the output in a {command, inputs, outputs, status, elapsed_ms} envelope",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="smoothness classification of a shape")
    p.add_argument("partition")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("dim", help="component dimension of a shape")
    p.add_argument("partition")
    p.set_defaults(fn=_cmd_dim)

    p = sub.add_parser("enumerate", help="all standard tableaux of a shape")
    p.add_argument("partition")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--max-n", type=integer, default=None)
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("sch", help="evacuation of a standard tableau")
    p.add_argument("tableau")
    p.set_defaults(fn=_cmd_sch)

    p = sub.add_parser("cmove", help="cyclic move (or its inverse) of a standard tableau")
    p.add_argument("tableau")
    p.add_argument("--inverse", action="store_true")
    p.set_defaults(fn=_cmd_cmove)

    p = sub.add_parser("restrict", help="jeu-de-taquin restriction to entries i..j")
    p.add_argument("i", type=integer)
    p.add_argument("j", type=integer)
    p.add_argument("tableau")
    p.set_defaults(fn=_cmd_restrict)

    p = sub.add_parser("eqs-class", help="move class of a standard tableau")
    p.add_argument("tableau")
    p.add_argument("--max-n", type=integer, default=None)
    p.set_defaults(fn=_cmd_eqs_class)

    p = sub.add_parser("eqs-partition", help="partition of a shape into move classes")
    p.add_argument("partition")
    p.add_argument("--max-n", type=integer, default=None)
    p.set_defaults(fn=_cmd_eqs_partition)

    p = sub.add_parser("dist", help="dist statistic of a shape (r,s,1) tableau")
    p.add_argument("tableau")
    p.set_defaults(fn=_cmd_dist)

    p = sub.add_parser(
        "flag-cell",
        help="cell of the coordinate flag of a permutation "
        "(Jordan basis labelled column by column unless --basis is given)",
    )
    p.add_argument("partition")
    p.add_argument("sigma")
    p.add_argument("--basis", default=None, help="standard tableau labelling the Jordan basis")
    p.set_defaults(fn=_cmd_flag_cell)

    p = sub.add_parser("certify-322", help="singularity certificate for shape (3,2,2)")
    p.set_defaults(fn=_cmd_certify_322)

    p = sub.add_parser("verify-q", help="smooth chart verification for shape (k,k,1)")
    p.add_argument("k", type=integer)
    p.add_argument("--max-n", type=integer, default=None)
    p.set_defaults(fn=_cmd_verify_q)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.set_defaults(fn=_cmd_selftest)

    return parser


def _release_stdout() -> None:
    """Point a stdout whose reader has gone at os.devnull, so the flush at exit cannot fail again."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        try:
            sys.stdout.flush()
        except BrokenPipeError:  # argparse ignores a closed stdout when it prints help
            _release_stdout()
        return int(exc.code or 0)
    try:
        return _run(args)
    except BrokenPipeError:
        _release_stdout()
        print(f"{args.command}: stdout closed before the output was written", file=sys.stderr)
        return 1


def _run(args) -> int:
    """Run the parsed command; print its JSON, flushed, then the summary line."""
    start = time.perf_counter()
    try:
        payload, code = args.fn(args)
        status = "ok" if code == 0 else "check-failed"
    except InputError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except Exception as exc:
        payload, code, status = {"error": str(exc)}, 1, type(exc).__name__
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    if args.report:
        inputs = {
            name: value
            for name, value in sorted(vars(args).items())
            if name not in ("fn", "command", "report") and value is not None
        }
        payload = {
            "command": args.command,
            "inputs": inputs,
            "outputs": payload,
            "status": status,
            "elapsed_ms": elapsed_ms,
        }
    print(json.dumps(payload))
    sys.stdout.flush()
    print(f"{args.command}: {status} in {elapsed_ms} ms", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
