import json
import signal

import pytest

from springerfiber.cli import main


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


class TestClassCommands:
    def test_eqs_class(self, capsys):
        code, payload, _ = run(capsys, "eqs-class", "1,2,5/3,4,6")
        assert code == 0
        assert payload["shape"] == "3,3"
        assert "1,3,5/2,4,6" in payload["members"]
        assert payload["representative"] == payload["members"][0]

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

    def test_unknown_command_exit_2(self, capsys):
        assert main(["does-not-exist"]) == 2

    def test_flag_cell_outside_fiber_exit_2(self, capsys):
        # over the basis 1,4/2,5/3 the line e4 is not stable: u e4 = e1
        code, payload, err = run(capsys, "flag-cell", "2,2,1", "4,1,2,3,5")
        assert code == 2 and payload is None
        assert "not in the fiber" in err

    def test_dist_wrong_shape_exit_1(self, capsys):
        code, payload, _ = run(capsys, "dist", "1,2/3,4")
        assert code == 1 and "error" in payload
