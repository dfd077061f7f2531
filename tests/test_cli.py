import importlib
import inspect
import io
import json
import os
import pkgutil
import re
import shlex
import signal
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import springerfiber
import springerfiber.cli as cli
from springerfiber.cli import main
from springerfiber.exactlin import Permutation
from springerfiber.partitions import Partition, partitions_of
from springerfiber.tableaux import enumerate_tableaux, parse_tableau

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(__file__).resolve().parents[1] / "src"


def readme_command_lines():
    """The ``springerfiber ...`` lines of the README's ``Command line`` code block."""
    text = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = text.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("springerfiber ")]


def readme_layout_identifiers():
    """The backticked identifiers of the README's ``Library layout`` table, ``()`` stripped."""
    text = README.read_text(encoding="utf-8").split("## Library layout", 1)[1]
    table = [line for line in text.split("\n\n", 2)[1].splitlines() if line.startswith("|")]
    names = (token.replace("()", "") for line in table for token in re.findall(r"`([^`]*)`", line))
    return sorted({name for name in names if len(name) >= 2 and re.fullmatch(r"[A-Za-z_][\w.]*", name)})


def package_modules():
    # ``__main__`` runs the command line when imported
    return {
        f"springerfiber.{info.name}": importlib.import_module(f"springerfiber.{info.name}")
        for info in pkgutil.iter_modules(springerfiber.__path__)
        if info.name != "__main__"
    }


def resolves(name: str) -> bool:
    """True when ``name`` is a package module, a name bound in one, or a package class attribute.

    A dotted name is a module path or a chain of attributes from a bound
    name (``Matrix.rref``); a bare method name (``same_flag``) is looked up
    on every class defined in the package.
    """
    modules = package_modules()
    if name in modules:
        return True
    head, *rest = name.split(".")
    for module in modules.values():
        owner = getattr(module, head, None)
        for part in rest:
            owner = getattr(owner, part, None)
        if owner is not None:
            return True
    if rest:
        return False
    classes = {
        cls
        for module in modules.values()
        for _, cls in inspect.getmembers(module, inspect.isclass)
        if cls.__module__.startswith("springerfiber.")
    }
    return any(name in vars(cls) for cls in classes)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload, captured.err


class TestBasicCommands:
    def test_classify(self, capsys):
        code, payload, _ = run(capsys, "classify", "3,2,2")
        assert code == 0
        assert payload == {"smooth": False, "verdict": "HasSingular"}

    def test_classify_smooth(self, capsys):
        code, payload, _ = run(capsys, "classify", "2,2,2")
        assert code == 0
        assert payload == {"smooth": True, "verdict": "TwoTwoTwo"}

    def test_dim(self, capsys):
        code, payload, _ = run(capsys, "dim", "2,2,1,1")
        assert code == 0 and payload == 7

    def test_dim_of_long_row_is_immediate(self, capsys):
        # a single row of 10^8 boxes has dimension 0; a column-by-column
        # computation would hang here, so a 5 s alarm turns that into a failure
        def timed_out(signum, frame):
            raise AssertionError("dim walked the columns of a 10^8-box row")

        previous = signal.signal(signal.SIGALRM, timed_out)
        signal.alarm(5)
        try:
            code, payload, _ = run(capsys, "dim", "100000000")
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert code == 0 and payload == 0

    def test_sch(self, capsys):
        code, payload, _ = run(capsys, "sch", "1,2,3/4,5/6")
        assert code == 0 and payload == "1,3,6/2,5/4"

    def test_cmove_and_inverse(self, capsys):
        code, payload, _ = run(capsys, "cmove", "1,2,5/3,4,6")
        assert code == 0 and payload == "1,3,4/2,5,6"
        code, payload, _ = run(capsys, "cmove", "--inverse", "1,3,4/2,5,6")
        assert code == 0 and payload == "1,2,5/3,4,6"

    def test_restrict(self, capsys):
        code, payload, _ = run(capsys, "restrict", "2", "6", "1,3/2,5/4/6")
        assert code == 0 and payload == "2,3/4,5/6"

    def test_dist(self, capsys):
        code, payload, _ = run(capsys, "dist", "1,3/2,5/4")
        assert code == 0 and payload == 2

    def test_enumerate(self, capsys):
        code, payload, _ = run(capsys, "enumerate", "2,1")
        assert code == 0 and payload == ["1,2/3", "1,3/2"]
        code, payload, _ = run(capsys, "enumerate", "2,2", "--count-only")
        assert code == 0 and payload == 2

    def test_flag_cell(self, capsys):
        # identity flag over the column-filled basis 1,4/2,5/3: restriction
        # types grow (1),(1,1),(1,1,1),(2,1,1),(2,2,1)
        code, payload, _ = run(capsys, "flag-cell", "2,2,1", "1,2,3,4,5")
        assert code == 0
        assert payload == "1,4/2,5/3"

    def test_flag_cell_custom_basis(self, capsys):
        # over the interleaved basis 1,3/2,4/5 the flag e1,e2,e5,e3,e4 has the
        # same chain: e1, e2, e5 are killed, then e3 maps onto e1
        code, payload, _ = run(
            capsys, "flag-cell", "2,2,1", "1,2,5,3,4", "--basis", "1,3/2,4/5"
        )
        assert code == 0
        assert payload == "1,4/2,5/3"

    def test_flag_cell_of_the_empty_flag(self, capsys):
        # the empty shape and permutation print as "", which both parse back;
        # the empty flag's cell is the empty tableau, printed as ""
        code, payload, _ = run(capsys, "flag-cell", "", "")
        assert code == 0
        assert payload == ""


class TestClassCommands:
    def test_eqs_class(self, capsys):
        code, payload, _ = run(capsys, "eqs-class", "1,2,5/3,4,6")
        assert code == 0
        assert payload["shape"] == "3,3"
        assert "1,3,5/2,4,6" in payload["members"]
        assert payload["representative"] == payload["members"][0]

    def test_class_forms_share_key_order(self, capsys):
        # eqs-class prints one class of the partition that eqs-partition prints
        _, single, _ = run(capsys, "eqs-class", "1,2,3/4,5,6/7")
        _, report, _ = run(capsys, "eqs-partition", "3,3,1")
        listed = next(c for c in report["classes"] if c["representative"] == single["representative"])
        shared = [key for key in single if key in listed]
        assert shared == list(listed) == ["representative", "size", "dist"]
        assert list(single) == ["shape", *shared, "members"]
        assert {key: single[key] for key in shared} == listed

    def test_eqs_partition(self, capsys):
        code, payload, _ = run(capsys, "eqs-partition", "2,2,1")
        assert code == 0
        assert payload["class_count"] == 2
        assert {c["dist"] for c in payload["classes"]} == {1, 2}

    def test_max_n_flag(self, capsys):
        code, _, err = run(capsys, "eqs-partition", "2,2,1", "--max-n", "3")
        assert code == 1

    @pytest.mark.parametrize(
        "env, argv",
        [
            ("abc", ()),
            ("-1", ()),
            (None, ("--max-n", "-1")),
        ],
        ids=["env-not-integer", "env-negative", "flag-negative"],
    )
    def test_bad_bound_is_input_error(self, capsys, monkeypatch, env, argv):
        if env is None:
            monkeypatch.delenv("SPRINGERFIBER_MAX_N", raising=False)
        else:
            monkeypatch.setenv("SPRINGERFIBER_MAX_N", env)
        code, _, _ = run(capsys, "eqs-partition", "2,2,1", *argv)
        assert code == 2

    def test_env_bound(self, capsys, monkeypatch):
        monkeypatch.setenv("SPRINGERFIBER_MAX_N", "3")
        code, _, _ = run(capsys, "eqs-partition", "2,2,1")
        assert code == 1
        monkeypatch.setenv("SPRINGERFIBER_MAX_N", "6")
        code, payload, _ = run(capsys, "eqs-partition", "2,2,1")
        assert code == 0 and payload["class_count"] == 2


class TestVerifierCommands:
    def test_certify_322(self, capsys):
        code, payload, _ = run(capsys, "certify-322")
        assert code == 0
        assert payload["verdict"] == "singular"

    def test_verify_q(self, capsys):
        code, payload, _ = run(capsys, "verify-q", "2")
        assert code == 0
        assert payload["verdict"] == "pass"
        assert len(payload["cases"]) == 2

    def test_verify_q_within_default_bound(self, capsys, monkeypatch):
        monkeypatch.delenv("SPRINGERFIBER_MAX_N", raising=False)
        code, payload, _ = run(capsys, "verify-q", "7")
        assert code == 0 and payload["verdict"] == "pass"

    def test_verify_q_bound_checked_before_work(self, capsys, monkeypatch):
        # k = 1000 is n = 2001 > 31; an unbounded run would in effect hang.
        # main turns any exception into exit 1, so the message tells the
        # bound check from the alarm
        monkeypatch.delenv("SPRINGERFIBER_MAX_N", raising=False)

        def timed_out(signum, frame):
            raise AssertionError("verify-q 1000 ran for 5 s")

        previous = signal.signal(signal.SIGALRM, timed_out)
        signal.alarm(5)
        try:
            code, payload, _ = run(capsys, "verify-q", "1000")
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert code == 1 and payload["error"] == "verify-q bound exceeded: n=2001 > 31"

    def test_verify_q_bound_from_env_and_flag(self, capsys, monkeypatch):
        monkeypatch.setenv("SPRINGERFIBER_MAX_N", "5")
        code, payload, _ = run(capsys, "verify-q", "3")
        assert code == 1 and payload["error"] == "verify-q bound exceeded: n=7 > 5"
        code, payload, _ = run(capsys, "verify-q", "3", "--max-n", "7")
        assert code == 0 and payload["verdict"] == "pass"
        monkeypatch.delenv("SPRINGERFIBER_MAX_N")
        code, payload, _ = run(capsys, "verify-q", "3", "--max-n", "5")
        assert code == 1 and payload["error"] == "verify-q bound exceeded: n=7 > 5"


class TestErrorPaths:
    def test_parse_error_exit_2(self, capsys):
        code, payload, err = run(capsys, "classify", "3,4,2")
        assert code == 2 and payload is None
        assert "cannot parse" in err

    def test_bad_tableau_exit_2(self, capsys):
        code, _, err = run(capsys, "sch", "2,1/3")
        assert code == 2

    def test_nonstandard_tableau_exit_2(self, capsys):
        code, _, err = run(capsys, "sch", "1,2/4")
        assert code == 2

    def test_failed_move_exit_1(self, capsys):
        code, payload, _ = run(capsys, "cmove", "1,3,4/2")
        assert code == 1
        assert "error" in payload

    @pytest.mark.parametrize(
        "argv",
        [
            ("dim", "3,2,0_2"),
            ("flag-cell", "2,1", "1,0_2,3"),
            ("verify-q", "\uff12"),
            ("sch", "1_0,1_1/1_2"),
        ],
    )
    def test_integers_are_ascii_digits_exit_2(self, capsys, argv):
        # int() reads 0_2 as 2 and a full-width digit as that digit
        assert main(list(argv)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cannot parse" in captured.err or "invalid integer value" in captured.err

    def test_max_n_variable_is_ascii_digits(self, capsys, monkeypatch):
        for env in ("1_0", "\u0663"):
            monkeypatch.setenv("SPRINGERFIBER_MAX_N", env)
            code, payload, err = run(capsys, "eqs-partition", "2,1")
            assert code == 2 and payload is None
            assert "cannot parse" in err

    def test_unknown_command_exit_2(self, capsys):
        assert main(["does-not-exist"]) == 2

    @pytest.mark.parametrize("basis", ["", " "])
    def test_flag_cell_empty_basis_exit_2(self, capsys, basis):
        # an explicit empty basis is the empty tableau, not the default basis
        code, payload, err = run(capsys, "flag-cell", "2,1", "1,2,3", "--basis", basis)
        assert code == 2 and payload is None
        assert "basis tableau shape () does not match 2,1" in err

    def test_flag_cell_outside_fiber_exit_2(self, capsys):
        # over the basis 1,4/2,5/3 the line e4 is not stable: u e4 = e1
        code, payload, err = run(capsys, "flag-cell", "2,2,1", "4,1,2,3,5")
        assert code == 2 and payload is None
        assert "not in the fiber" in err

    def test_dist_wrong_shape_exit_1(self, capsys):
        code, payload, _ = run(capsys, "dist", "1,2/3,4")
        assert code == 1 and "error" in payload
        assert "needs shape (r,s,1)" in payload["error"]

    def test_restrict_reversed_range_exit_1(self, capsys):
        # the input parses; the restriction is undefined on it
        code, payload, _ = run(capsys, "restrict", "5", "2", "1,2/3")
        assert code == 1 and "error" in payload
        assert "out of range" in payload["error"]


class ClosedStdout:
    """A stdout whose reader has gone: every write and flush raises BrokenPipeError.

    It owns a real descriptor, on a file, so that ``main`` can point it at
    os.devnull the way it does for the process's own stdout.
    """

    def __init__(self, path):
        self.fd = os.open(path, os.O_WRONLY | os.O_CREAT)
        self.writes = 0

    def write(self, text):
        self.writes += 1
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


def is_devnull(fd):
    here, null = os.fstat(fd), os.stat(os.devnull)
    return (here.st_dev, here.st_ino) == (null.st_dev, null.st_ino)


CLOSED_NOTE = ": stdout closed before the output was written\n"


class TestClosedStdout:
    """A closed stdout exits 1 with a note and no traceback; help keeps argparse's exit 0."""

    @pytest.mark.parametrize(
        "argv", [("dim", "3,2"), ("verify-q", "2"), ("--report", "enumerate", "3,2"), ("--help",)]
    )
    def test_exit_code_without_traceback(self, argv, tmp_path, monkeypatch, capsys):
        stdout = ClosedStdout(tmp_path / "out")
        monkeypatch.setattr(sys, "stdout", stdout)
        try:
            code = main(list(argv))
            assert stdout.writes > 0
            # what is still buffered can be flushed at exit without an error
            assert is_devnull(stdout.fd)
        finally:
            os.close(stdout.fd)
        err = capsys.readouterr().err
        if argv == ("--help",):
            assert (code, err) == (0, "")
        else:
            command = next(a for a in argv if not a.startswith("-"))
            assert (code, err) == (1, command + CLOSED_NOTE)

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("dim", "3,2"),
            ("enumerate", "4,3,2,1"),  # 19 KB, more than one buffer
            ("--help",),
        ],
    )
    def test_process_with_a_closed_pipe(self, argv, buffered):
        # the read end is closed before the process starts, so every run meets it
        read, write = os.pipe()
        os.close(read)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(SRC)
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        try:
            done = subprocess.run(
                [sys.executable, "-m", "springerfiber", *argv],
                stdout=write,
                stderr=subprocess.PIPE,
                env=env,
                timeout=60,
            )
        finally:
            os.close(write)
        err = done.stderr.decode()
        if argv == ("--help",):
            assert (done.returncode, err) == (0, "")
        else:
            assert (done.returncode, err) == (1, argv[0] + CLOSED_NOTE)


class TestReportEnvelope:
    KEYS = ["command", "inputs", "outputs", "status", "elapsed_ms"]

    def test_ok_envelope(self, capsys):
        code, payload, _ = run(capsys, "--report", "eqs-partition", "2,2,1", "--max-n", "6")
        assert code == 0
        assert list(payload) == self.KEYS
        assert payload["command"] == "eqs-partition"
        assert list(payload["inputs"].items()) == [("max_n", 6), ("partition", "2,2,1")]
        assert payload["outputs"]["class_count"] == 2
        assert payload["status"] == "ok"
        assert isinstance(payload["elapsed_ms"], int) and payload["elapsed_ms"] >= 0

    def test_failed_check_envelope(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "verify_smooth_chart", lambda k, d: {"verdict": "fail"})
        code, payload, _ = run(capsys, "--report", "verify-q", "1")
        assert code == 1
        assert list(payload) == self.KEYS
        assert payload["status"] == "check-failed"
        assert payload["outputs"]["verdict"] == "fail"

    def test_error_envelope_names_the_exception(self, capsys):
        code, payload, _ = run(capsys, "--report", "cmove", "1,3,4/2")
        assert code == 1
        assert list(payload) == self.KEYS
        assert payload["status"] == "MoveError"
        assert "error" in payload["outputs"]

    def test_input_error_prints_no_envelope(self, capsys):
        code, payload, err = run(capsys, "--report", "classify", "3,4,2")
        assert code == 2 and payload is None
        assert "cannot parse" in err


def small_or_invalid(parse):
    """Keep a token unless it parses to an object with more than 8 boxes or points."""

    def keep(token):
        try:
            return parse(token).n <= 8
        except ValueError:
            return True

    return keep


JUNK_TOKENS = st.sampled_from(
    ["", " ", ",", "/", "-", "--", "x", "0,0", "1,,1", "1.5", "1e9", "1_0", "٣",
     "9" * 5000, "-" + "9" * 30, "99999999999999999999"]
) | st.text(alphabet="0123456789,/-. x_", max_size=10)
SHAPES = st.integers(0, 8).flatmap(lambda n: st.sampled_from(tuple(partitions_of(n))))
SHAPE_TOKENS = SHAPES.map(str) | JUNK_TOKENS.filter(small_or_invalid(Partition.parse))
TABLEAU_TOKENS = SHAPES.flatmap(
    lambda p: st.sampled_from(enumerate_tableaux(p)).map(lambda t: t.text())
) | JUNK_TOKENS.filter(small_or_invalid(parse_tableau))
PERMUTATION_TOKENS = st.integers(1, 8).flatmap(
    lambda n: st.permutations(range(1, n + 1)).map(lambda p: ",".join(map(str, p)))
) | JUNK_TOKENS.filter(small_or_invalid(Permutation.parse))
INT_TOKENS = st.integers(-(10**20), 10**20).map(str) | st.integers(-2, 12).map(str) | JUNK_TOKENS
# verify-q does k-dependent work, so its k is small, out of range or unparsable
K_TOKENS = st.sampled_from(["-99999999999999999999", "-1", "0", "1", "2", "3", "x", "", "1.5"])
ENV_VALUES = st.none() | st.sampled_from(
    ["", " ", "x", "-1", "0", "3", "8", "1_0", "99999999999999999999", "9" * 5000]
)
# subcommand -> (positional token strategies, (option, value strategy or None))
FUZZ_ARGS = {
    "classify": ([SHAPE_TOKENS], ()),
    "dim": ([SHAPE_TOKENS], ()),
    "enumerate": ([SHAPE_TOKENS], (("--count-only", None), ("--max-n", INT_TOKENS))),
    "sch": ([TABLEAU_TOKENS], ()),
    "cmove": ([TABLEAU_TOKENS], (("--inverse", None),)),
    "restrict": ([INT_TOKENS, INT_TOKENS, TABLEAU_TOKENS], ()),
    "eqs-class": ([TABLEAU_TOKENS], (("--max-n", INT_TOKENS),)),
    "eqs-partition": ([SHAPE_TOKENS], (("--max-n", INT_TOKENS),)),
    "dist": ([TABLEAU_TOKENS], ()),
    "flag-cell": ([SHAPE_TOKENS, PERMUTATION_TOKENS], (("--basis", TABLEAU_TOKENS),)),
    "certify-322": ([], ()),
    "verify-q": ([K_TOKENS], (("--max-n", INT_TOKENS),)),
}


@st.composite
def cli_inputs(draw):
    """(argv, SPRINGERFIBER_MAX_N value or None) for one in-process CLI run."""
    command = draw(st.sampled_from(sorted(FUZZ_ARGS)))
    positional, options = FUZZ_ARGS[command]
    argv = [command] + [draw(tokens) for tokens in positional]
    for flag, value in options:
        if draw(st.booleans()):
            argv += [flag] if value is None else [flag, draw(value)]
    # a missing or a stray last token, never both: a stray token never fills a gap
    tail = draw(st.integers(0, 4))
    if tail == 0:
        argv.pop()
    elif tail == 1:
        argv.append(draw(JUNK_TOKENS))
    if draw(st.booleans()):
        argv.insert(0, "--report")
    return argv, draw(ENV_VALUES)


class TestFuzz:
    BUDGET_S = 10

    @settings(max_examples=150, deadline=None)
    @given(cli_inputs())
    def test_exit_codes_and_stdout(self, inputs):
        argv, env = inputs
        expired = []

        def out_of_time(signum, frame):
            expired.append(argv)
            raise TimeoutError(f"{argv} ran for {self.BUDGET_S} s")

        saved = os.environ.pop(cli.ENV_MAX_N, None)
        if env is not None:
            os.environ[cli.ENV_MAX_N] = env
        out, err = io.StringIO(), io.StringIO()
        previous = signal.signal(signal.SIGALRM, out_of_time)
        signal.alarm(self.BUDGET_S)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
            os.environ.pop(cli.ENV_MAX_N, None)
            if saved is not None:
                os.environ[cli.ENV_MAX_N] = saved
        assert not expired
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert out.getvalue().strip() == ""
        else:
            json.loads(out.getvalue())


class TestReadmeCommands:
    """Every README command runs in-process; a ``# <output>`` comment is its exact JSON."""

    @pytest.mark.parametrize(
        "line", readme_command_lines(), ids=lambda line: line.partition("#")[0].strip()
    )
    def test_command_runs_and_prints_documented_output(self, capsys, line):
        command, _, documented = line.partition("#")
        code, payload, _ = run(capsys, *shlex.split(command)[1:])
        assert code == 0
        if documented.strip():
            assert payload == json.loads(documented)

    def test_six_lines_document_their_output(self):
        commented = [line for line in readme_command_lines() if "#" in line]
        assert len(commented) == 6


class TestReadmeLayout:
    """The README's ``Library layout`` table names only what the package defines."""

    def test_table_has_identifiers(self):
        names = readme_layout_identifiers()
        assert {"springerfiber.exactlin", "Matrix.rref", "same_flag", "phi_map"} <= set(names)
        assert len(names) >= 50

    @pytest.mark.parametrize("name", readme_layout_identifiers())
    def test_identifier_resolves(self, name):
        assert resolves(name), f"README layout names {name!r}, which the package does not define"

    @pytest.mark.parametrize(
        "name",
        [
            "chart_flag",
            "truncate",
            "_stable_basis",
            "_phi_flag",
            "Matrix.transpose",
            "_nested_meet_dims",
            "_subspace_meet_dims",
            "_kernel_dims",
            "_preimage_dims",
            "_jordan_type",
            "_tableau_from_dims",
            "_bareiss",
            "degenerate_to_special",
            "j_stat",
            "Flag.vectors",
            "_independent_flag",
            "unit_vector",
            "vec_add",
            "vec_scale",
            "v_vectors",
            "_v_full",
            "_w_power",
            "_cut",
            "_paste",
            "_move",
            "_cyclic",
            "_cyclic_inverse",
            "_whole",
            "_failure",
            "cut_points",
            "_interleaved_pivots",
            "_within_prefixes",
            "_reduced",
            "_matrix_7x7",
            "_strictly_lower_coords",
            "_kernel_order",
            "_image_order",
            "in_cell",
            "_rank_profile",
        ],
    )
    def test_stale_names_do_not_resolve(self, name):
        assert not resolves(name)
