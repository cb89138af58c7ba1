"""Command-line interface: verbs, formats, exit codes."""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singclass import classes, cli, local_models
from singclass.cli import main
from singclass.local_models import BranchCoordinates, HurwitzCoordinates
from singclass.notation import format_function


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


HERE = Path(__file__).resolve().parent
ARGPARSE_TEXTS = json.loads((HERE / "cli_argparse_texts.json").read_text())


@pytest.mark.skipif(
    list(sys.version_info[:2]) != ARGPARSE_TEXTS["python"],
    reason="argparse words its help and errors differently in other Python versions",
)
class TestArgparseTexts:
    """The calls that only argparse reads: help of the top parser and of every
    verb, usage errors, and two abbreviated or --opt=value calls that succeed,
    each with the stdout, stderr and exit code argparse gives it at COLUMNS=80."""

    @pytest.mark.parametrize(
        "case", ARGPARSE_TEXTS["calls"], ids=[" ".join(c["argv"]) for c in ARGPARSE_TEXTS["calls"]]
    )
    def test_stdout_stderr_and_exit_are_unchanged(self, monkeypatch, capsys, case):
        monkeypatch.setenv("COLUMNS", str(ARGPARSE_TEXTS["columns"]))
        monkeypatch.delenv("LINES", raising=False)
        code = main(list(case["argv"]))
        captured = capsys.readouterr()
        assert (captured.out, captured.err, code) == (case["stdout"], case["stderr"], case["exit"])

    def test_no_golden_call_is_read_without_argparse(self):
        assert [c["argv"] for c in ARGPARSE_TEXTS["calls"] if cli._read_fast(c["argv"])] == []


class TestClassCommands:
    def test_psi_text(self, capsys):
        code, out, _ = run(capsys, "psi", "2")
        assert code == 0
        assert out.strip() == "1/2*a_2 + 1/4*i[1,1] + 3/2*xi*a_1 + xi^2"

    def test_product(self, capsys):
        code, out, _ = run(capsys, "product", "2")
        assert code == 0
        assert out.strip() == "a_2 + 1/2*i[1,1]"

    def test_psi_json(self, capsys):
        code, out, _ = run(capsys, "psi", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["codim"] == 2
        assert payload["basis"] == "singularity"
        code2, out2, _ = run(capsys, "psi", "2", "--format", "json")
        assert out2 == out

    def test_psi_latex(self, capsys):
        code, out, _ = run(capsys, "psi", "1", "--format", "latex")
        assert code == 0
        assert out.strip() == "a_{1} + \\xi"

    def test_to_sing(self, capsys):
        code, out, _ = run(capsys, "to-sing", "d[0,1]")
        assert code == 0
        assert out.strip() == "i[1,2] + xi*i[1,1]"

    def test_to_basic(self, capsys):
        code, out, _ = run(capsys, "to-basic", "i[1,3]")
        assert code == 0
        assert out.strip() == "2*d[0,2] - 1/2*psi*d[0,0,0] - 3*xi*d[0,1] + xi^2*d[0,0]"

    def test_to_sing_is_idempotent_on_sing_input(self, capsys):
        code, out, _ = run(capsys, "to-sing", "i[1,2] + xi*i[1,1]")
        assert code == 0
        assert out.strip() == "i[1,2] + xi*i[1,1]"


class TestCycleCommands:
    def test_completed_cycle(self, capsys):
        code, out, _ = run(capsys, "completed-cycle", "2")
        assert code == 0
        assert out.strip() == "1/2*C[3] + 1/4*C[1,1] + 1/24*C[1]"

    def test_genus0_flag(self, capsys):
        code, out, _ = run(capsys, "completed-cycle", "2", "--genus0")
        assert code == 0
        assert out.strip() == "1/2*C[3] + 1/4*C[1,1]"

    def test_x_poly(self, capsys):
        code, out, _ = run(capsys, "x-poly", "2")
        assert out.strip() == "1/2*x3 + 1/4*x1^2"
        code, out, _ = run(capsys, "x-poly", "2", "--raw")
        assert out.strip() == "x3 + 1/2*x1^2"

    def test_multiply_cycles(self, capsys):
        code, out, _ = run(capsys, "multiply-cycles", "{2}", "{2}", "--verify-at", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "C[2,2] + 3*C[3] + 1/2*C[1,1]"
        assert lines[1] == "group-algebra check at N=4: PASS"


class TestScalarCommands:
    def test_char(self, capsys):
        code, out, _ = run(capsys, "char", "[2,1]", "[3]")
        assert code == 0
        assert out.strip() == "-1"

    def test_coeff_psi(self, capsys):
        code, out, _ = run(capsys, "coeff", "psi", "4", "{1,1,1}")
        assert code == 0
        assert out.strip() == "1/36"

    def test_coeff_psi_raw(self, capsys):
        code, out, _ = run(capsys, "coeff", "psi", "4", "{1,1,1}", "--raw")
        assert out.strip() == "2/3"

    def test_coeff_delta(self, capsys):
        code, out, _ = run(capsys, "coeff", "delta", "[0,2]", "{1,3}")
        assert out.strip() == "1/2"

    def test_coeff_delta_refuses_raw(self, capsys):
        # --raw scales the psi coefficient by m!; delta has no such variant
        code, out, err = run(capsys, "coeff", "delta", "[0,2]", "{1,3}", "--raw")
        assert (code, out) == (3, "")
        assert "--raw applies to coeff psi only" in err

    def test_local_model(self, capsys):
        code, out, _ = run(capsys, "local-model", "{1,1}", "0", "1,-1")
        assert code == 0
        assert "K = 1, r = (1, 1), d = 1" in out
        assert "pole 1: k = 1, u = 1/2" in out
        assert "constant = 1" in out

    def test_local_model_json(self, capsys):
        code, out, _ = run(capsys, "local-model", "{2}", "0", "1", "--format", "json")
        payload = json.loads(out)
        assert payload["branches"][0]["u"] == "1"
        assert payload["branches"][0]["a"] == ["2"]

    def test_local_model_pairs_each_pole_with_the_order_typed_beside_it(self, capsys):
        typed = run(capsys, "local-model", "{2,1}", "0", "1,-3")
        sorted_first = run(capsys, "local-model", "{1,2}", "0", "--", "-3,1")
        assert typed[0] == sorted_first[0] == 0
        assert typed[1] == sorted_first[1]
        assert "pole 1: k = 2" in typed[1]


class TestVerify:
    def test_appendix_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "appendix")
        assert code == 0
        assert "FAIL" not in out
        assert out.strip().splitlines()[-1].endswith("checks passed")

    def test_cycles_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "cycles")
        assert code == 0

    def test_equality_suite_caps_at_max_m(self, capsys):
        code, out, _ = run(capsys, "verify", "equality", "--max-m", "3")
        assert code == 0
        assert len([l for l in out.splitlines() if l.startswith("PASS")]) == 3


class TestExitCodes:
    def test_parse_error_is_exit_2(self, capsys):
        code, _, err = run(capsys, "to-sing", "i[1,")
        assert code == 2
        assert "parse error" in err

    def test_mixed_bases_is_exit_2(self, capsys):
        code, _, err = run(capsys, "to-sing", "i[1,1] + d[0,0]")
        assert code == 2

    def test_constraint_violation_is_exit_3(self, capsys):
        code, _, err = run(capsys, "coeff", "psi", "3", "{1,1}")
        assert code == 3
        assert "constraint violation" in err

    def test_bad_integer_argument_is_exit_2(self, capsys):
        code, _, err = run(capsys, "coeff", "psi", "x", "{1,1}")
        assert code == 2
        assert "parse error" in err

    def test_unknown_flag_is_exit_2(self, capsys):
        code, _, _ = run(capsys, "psi", "2", "--bogus")
        assert code == 2

    def test_codim_cap_from_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("SINGCLASS_MAX_CODIM", "3")
        code, _, err = run(capsys, "psi", "5")
        assert code == 3
        assert "SINGCLASS_MAX_CODIM" in err
        monkeypatch.setenv("SINGCLASS_MAX_CODIM", "5")
        code, out, _ = run(capsys, "psi", "5")
        assert code == 0

    def test_verify_max_m_obeys_the_codim_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("SINGCLASS_MAX_CODIM", "2")
        code, out, err = run(capsys, "verify", "roundtrip", "--max-m", "3")
        assert code == 3
        assert out == ""
        assert "SINGCLASS_MAX_CODIM" in err

    def test_product_over_the_tuple_budget_is_exit_3(self, capsys):
        code, out, err = run(
            capsys, "multiply-cycles", "{1,1,1,1,1,1,1,1}", "{1,1,1,1,1,1,1,1}"
        )
        assert code == 3
        assert out == ""
        assert "budget" in err

    def test_local_model_over_the_order_budget_is_exit_3(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "local-model", "{200}", "0", "1")
        assert time.perf_counter() - start < 2.0  # refused before any polynomial work
        assert (code, out) == (3, "")
        assert "budget" in err

    def test_deeply_nested_tree_literal_is_exit_2(self, capsys):
        literal = "1"
        for _ in range(3000):
            literal = f"(0;{literal},1)"
        code, _, err = run(capsys, "to-sing", f"T{{{literal}}}@sing")
        assert code == 2
        assert "nested deeper" in err

    def test_bad_tree_literal_reports_one_position_in_the_expression(self, capsys):
        code, out, err = run(capsys, "to-sing", "T{(0;0,(0;0;0))}@sing")
        assert (code, out) == (2, "")
        assert err == "parse error: bad tree literal: expected ')' (at position 11)\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("product", "-1"), "m must be >= 1"),
            (("product", "0"), "m must be >= 1"),
            (("psi", "-1"), "m must be nonnegative"),
            (("completed-cycle", "-1"), "m must be nonnegative"),
            (("x-poly", "-1"), "m must be nonnegative"),
        ],
    )
    def test_out_of_range_m_is_exit_3(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == f"constraint violation: {message}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("multiply-cycles", "{1,,2}", "{2}"),
            ("char", "[2,,1]", "[3]"),
            ("coeff", "delta", "[1,,2]", "{1,3}"),
        ],
    )
    def test_bad_list_literal_reports_its_position(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.endswith(": expected an integer (at position 3)\n")

    @pytest.mark.parametrize(
        "suite, max_m, message",
        [
            ("roundtrip", "-1", "verify roundtrip needs --max-m >= 0"),
            ("ko", "-1", "verify ko needs --max-m >= 0"),
            ("equality", "0", "verify equality needs --max-m >= 1"),
            ("appendix", "3", "verify appendix takes no --max-m"),
            ("cycles", "3", "verify cycles takes no --max-m"),
        ],
    )
    def test_a_suite_that_would_compare_nothing_is_exit_3(self, capsys, suite, max_m, message):
        code, out, err = run(capsys, "verify", suite, "--max-m", max_m)
        assert (code, out) == (3, "")
        assert message in err

    @pytest.mark.parametrize("suite, max_m, budget", [("roundtrip", "13", 12), ("equality", "27", 26)])
    def test_a_suite_over_its_ceiling_is_exit_3(self, capsys, monkeypatch, suite, max_m, budget):
        # the depth cap (8 unless the environment raises it) refuses these first
        monkeypatch.setenv("SINGCLASS_MAX_CODIM", "30")
        code, out, err = run(capsys, "verify", suite, "--max-m", max_m)
        assert (code, out) == (3, "")
        assert f"verify {suite} --max-m = {max_m} is over the budget of {budget}" in err

    @pytest.mark.parametrize(
        "argv",
        [
            # characters: over CHARACTER_SIZE_BUDGET boxes (the staircases of
            # 66 and 78 boxes took 9.5 s and 37.6 s; [1200] overflowed the stack)
            ("char", "[" + ",".join(map(str, range(11, 0, -1))) + "]", "[" + ",".join(["1"] * 66) + "]"),
            ("char", "[" + ",".join(map(str, range(12, 0, -1))) + "]", "[" + ",".join(["1"] * 78) + "]"),
            ("char", "[1200]", "[" + ",".join(["1"] * 1200) + "]"),
            # coeff: over SINGCLASS_MAX_CODIM (a 4300-digit ValueError, 4.5 s, over 30 s)
            ("coeff", "psi", "2000", "{2001}"),
            ("coeff", "delta", "[60]", "{1,59}"),
            ("coeff", "delta", "[80]", "{1,79}"),
            ("coeff", "delta", "[" + ",".join(["8"] * 10) + "]", "{99}"),
            # products: over the step budget (each ran for over 30 s)
            ("multiply-cycles", "{20000}", "{1}"),
            ("multiply-cycles", "{1000000}", "{1}"),
            ("multiply-cycles", "{2}", "{2}", "--verify-at", "1000000"),
        ],
        ids=lambda argv: " ".join(a if len(a) < 12 else a[:10] + "..." for a in argv),
    )
    def test_over_a_cost_budget_is_exit_3_at_once(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert "budget" in err or "SINGCLASS_MAX_CODIM" in err

    def test_coeff_delta_depth_is_the_point_class_codimension(self, capsys, monkeypatch):
        # psi^(s-2) d[1,1,2] has codimension 2*3 + 4 - 2 = 8
        monkeypatch.setenv("SINGCLASS_MAX_CODIM", "8")
        assert run(capsys, "coeff", "delta", "[1,1,2]", "{1,1,2,2}")[:2] == (0, "1/4\n")
        monkeypatch.setenv("SINGCLASS_MAX_CODIM", "7")
        code, out, err = run(capsys, "coeff", "delta", "[1,1,2]", "{1,1,2,2}")
        assert (code, out) == (3, "")
        assert "expansion depth 8 exceeds the cap 7" in err

    def test_a_long_first_factor_is_no_recursion_error(self, capsys):
        ones = "{" + ",".join(["1"] * 2000) + "}"
        code, out, _ = run(capsys, "multiply-cycles", ones, "{}")
        assert (code, out) == (0, "C[" + ",".join(["1"] * 2000) + "]\n")

    def test_group_algebra_check_over_the_budget_is_exit_3(self, capsys):
        code, out, err = run(capsys, "multiply-cycles", "{2,2}", "{2}", "--verify-at", "14")
        assert (code, out) == (3, "")
        assert "546546 compositions, over the budget" in err

    def test_verification_failure_is_exit_1(self, capsys):
        code, out, _ = run(
            capsys, "multiply-cycles", "{2}", "{2}", "--verify-at", "3"
        )
        # N=3 cannot host both factors: constraint violation, not a FAIL
        assert code == 3


class TestLocalModelLiterals:
    @pytest.mark.parametrize("poles", ["1/2,3", "-3,1"])
    def test_signed_integers_and_fractions_are_accepted(self, capsys, poles):
        code, out, _ = run(capsys, "local-model", "{1,1}", "0", "--", poles)
        assert code == 0
        assert out.startswith("profile: {1,1}\n")

    def test_a_fractional_point_is_accepted(self, capsys):
        code, out, _ = run(capsys, "local-model", "{2}", "3/4", "1")
        assert code == 0
        assert "pole 1: k = 2" in out

    def test_a_fractional_pole_is_accepted(self, capsys):
        code, out, _ = run(capsys, "local-model", "{1}", "0", "3/4")
        assert code == 0
        assert "pole 3/4: k = 1, u = 3/4" in out

    @pytest.mark.parametrize(
        "poles, message",
        [
            ("1.5", "bad pole list: unexpected character '.' (at position 1)"),
            ("1e3", "bad pole list: expected ',' or end of input (at position 1)"),
            ("1/0", "bad pole list: zero denominator (at position 2)"),
        ],
    )
    def test_decimals_and_zero_denominators_are_parse_errors(self, capsys, poles, message):
        code, out, err = run(capsys, "local-model", "{2}", "0", poles)
        assert (code, out) == (2, "")
        assert message in err

    @pytest.mark.parametrize(
        "x, message",
        [
            ("1.5", "bad x value: unexpected character '.' (at position 1)"),
            ("1e3", "bad x value: trailing input after the value (at position 1)"),
            ("1/0", "bad x value: zero denominator (at position 2)"),
        ],
    )
    def test_a_decimal_point_is_a_parse_error(self, capsys, x, message):
        code, out, err = run(capsys, "local-model", "{2}", x, "1")
        assert (code, out) == (2, "")
        assert message in err

    def test_an_overlong_integer_is_a_parse_error(self, capsys):
        code, out, err = run(capsys, "char", "[" + "1" * 5000 + "]", "[1]")
        assert (code, out) == (2, "")
        assert "integer literal too long (at position 1)" in err

    @pytest.mark.parametrize(
        "expression, position",
        [("a_" + "9" * 5000, 2), ("xi*a_" + "9" * 5000, 5)],
        ids=["a_m", "xi*a_m"],
    )
    def test_an_overlong_a_literal_is_a_parse_error(self, capsys, expression, position):
        code, out, err = run(capsys, "to-basic", expression)
        assert (code, out) == (2, "")
        assert f"integer literal too long (at position {position})" in err


_RATIONALS = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12))


class TestLocalModelJson:
    @settings(deadline=None, max_examples=80)
    @given(data=st.data())
    def test_stdout_is_the_layout_of_json_dumps(self, data):
        """local-model --format json writes what json.dumps(payload, indent=2)
        writes.  The profile, point and poles go through the CLI as typed;
        hurwitz_coordinates is replaced by drawn coordinates for the poles it
        is given, since most drawn functions have no rational roots: an
        order-1 branch (empty tail) always, and negative and fractional
        poles, points, u, tails and constants."""
        orders = [1, *data.draw(st.lists(st.integers(1, 4), max_size=3), label="orders")]
        points = data.draw(
            st.lists(_RATIONALS, min_size=len(orders) + 1, max_size=len(orders) + 1, unique=True),
            label="x and poles",
        )
        x, poles = points[0], points[1:]
        tails = {k: data.draw(st.lists(_RATIONALS, min_size=k - 1, max_size=k - 1)) for k in orders}
        u = data.draw(_RATIONALS.filter(bool), label="u")
        constant = data.draw(_RATIONALS, label="constant")
        calls = []

        def coordinates(f, profile, points):
            branches = [BranchCoordinates(z, k, u, tuple(tails[k])) for z, k in zip(points, profile)]
            coords = HurwitzCoordinates(tuple(branches), constant)
            calls.append((f, profile, coords))
            return coords

        argv = ["local-model", "{" + ",".join(map(str, orders)) + "}", str(x),
                ",".join(map(str, poles)), "--format", "json"]
        sink = io.StringIO()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(local_models, "hurwitz_coordinates", coordinates)
            with contextlib.redirect_stdout(sink):
                assert main(argv) == 0
        (f, profile, coords), = calls
        constants = local_models.profile_constants(profile)
        payload = {
            "profile": list(profile),
            "K": constants.lcm,
            "r": list(constants.exponents),
            "d": constants.components,
            "function": format_function(f),
            "constant": str(coords.constant),
            "branches": [
                {"pole": str(b.pole), "order": b.order, "u": str(b.u), "a": [str(a) for a in b.tail]}
                for b in coords.branches
            ],
        }
        assert sink.getvalue() == json.dumps(payload, indent=2) + "\n"


class TestValuesWithALeadingMinus:
    @pytest.mark.parametrize(
        "argv, with_dashes",
        [
            (["to-sing", "-a_2"], ["to-sing", "--", "-a_2"]),
            (["to-basic", "-i[1,3]", "--format", "latex"],
             ["to-basic", "--format", "latex", "--", "-i[1,3]"]),
            (["to-sing", "--format", "json", "-d[0,1] + xi*d[0,0]"],
             ["to-sing", "--format", "json", "--", "-d[0,1] + xi*d[0,0]"]),
            (["local-model", "{1,1}", "0", "-1,2"], ["local-model", "{1,1}", "0", "--", "-1,2"]),
            (["local-model", "{2}", "-1/2", "1", "--format", "json"],
             ["local-model", "--format", "json", "{2}", "--", "-1/2", "1"]),
        ],
    )
    def test_same_stdout_with_and_without_double_dash(self, capsys, argv, with_dashes):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "") and out
        assert run(capsys, *with_dashes) == (0, out, "")


class TestInternalErrors:
    def test_a_defect_is_exit_4_not_a_verification_failure(self, capsys, monkeypatch):
        def broken(m):
            raise KeyError("boom")

        monkeypatch.setattr(classes, "product_expansion", broken)  # the handler imports it per call
        code, out, err = run(capsys, "product", "2")
        assert (code, out) == (4, "")
        assert err.startswith("internal error: KeyError: 'boom'\nTraceback (most recent call last):\n")


# Fragments that argv is drawn from: small integers and pieces of every
# literal the verbs read, well-formed or not.
_FRAGMENTS = [
    str(n) for n in range(-2, 9)
] + [
    "{1,1}", "{2}", "{1,2}", "{3}", "{}", "{0}", "{1,,2}", "{2,1", "[2,1]", "[1]",
    "[]", "[0,1]", "[-1]", "[1,,2]", "1,-1", "1/2,3", "3/4", "1/0", "1.5", "-1/2",
    "a_2", "a_1*psi", "psi*a_1", "i[1,1]", "d[0,1]", "d[]", "xi^2", "psi^3",
    "T{(0;0,0)}@sing", "T{(0;0,0)}@basic", "T{(0;1)}@sing", "a_1 + i[0,0]",
    "2*a_2 - xi*a_1", "a_2 + a_1", "C[1] + 1/2*C[]", "psi", "delta", "(", "@", "",
    "--raw", "--genus0", "--format", "json", "latex", "text", "--",
]
_VERBS = [
    "product", "psi", "to-sing", "to-basic", "completed-cycle", "x-poly",
    "multiply-cycles", "char", "coeff", "local-model",
]


class TestArgvFuzz:
    @settings(deadline=None, max_examples=60)
    @given(
        verb=st.sampled_from(_VERBS),
        rest=st.lists(st.sampled_from(_FRAGMENTS), max_size=4),
    )
    def test_every_argv_ends_in_a_documented_exit_code(self, verb, rest):
        # verify and --verify-at are covered by the explicit tests above
        sink = io.StringIO()
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("SINGCLASS_MAX_CODIM", "4")
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = main([verb, *rest])
        assert code in (0, 1, 2, 3), sink.getvalue()


# the stored calls: the CLI corpus and the benchmark's CLI calls
_CORPUS_ARGVS = [c["argv"] for c in json.loads((HERE / "cli_corpus.json").read_text())]
_BENCH_CALLS = HERE.parent / "perfbench" / "data" / "cli_calls.json"
_BENCH_ARGVS = [c["argv"] for c in json.loads(_BENCH_CALLS.read_text())]
_PARSER = cli.build_parser()
# tokens a perturbation may insert
_EXTRA = ["-h", "--", "-", "", "--format", "json", "--raw", "--genus0", "--verify-at", "--max-m",
          "3", "-3", "-3_0", " 3", "psi", "delta", "appendix", "--form", "--format=json"]


def _argparse_reads(argv: list[str]) -> dict | None:
    """The attributes of argparse's namespace for argv, or None where it exits."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return vars(_PARSER.parse_args(cli._values_after_dashes(argv)))
    except SystemExit:
        return None


def _read_as_argparse_reads(argv: list[str]) -> bool:
    fast = cli._read_fast(list(argv))
    return fast is None or vars(fast) == _argparse_reads(list(argv))


@st.composite
def _perturbed_argv(draw) -> list[str]:
    """A stored call with up to three tokens dropped, duplicated, swapped,
    abbreviated, joined with "=", negated or inserted."""
    argv = list(draw(st.sampled_from(_CORPUS_ARGVS + _BENCH_ARGVS)))
    for _ in range(draw(st.integers(0, 3))):
        how = draw(st.sampled_from(("drop", "duplicate", "swap", "abbreviate", "equals", "negate", "insert")))
        i = draw(st.integers(0, max(len(argv) - 1, 0)))
        if how == "insert" or not argv:
            argv.insert(i, draw(st.sampled_from(_EXTRA)))
        elif how == "drop":
            del argv[i]
        elif how == "duplicate":
            argv.insert(i, argv[i])
        elif how == "swap":
            j = draw(st.integers(0, len(argv) - 1))
            argv[i], argv[j] = argv[j], argv[i]
        elif how == "abbreviate":
            argv[i] = argv[i][: draw(st.integers(0, len(argv[i])))]
        elif how == "equals":
            argv[i:i + 2] = ["=".join(argv[i:i + 2])]
        else:
            argv[i] = "-" + argv[i]
    return argv


class TestFastReader:
    """main reads a well-formed argv without argparse; what it reads must be
    what argparse reads, and anything else must be left to argparse."""

    def test_every_benchmark_call_is_read_without_argparse(self):
        assert [argv for argv in _BENCH_ARGVS if cli._read_fast(argv) is None] == []

    def test_a_stored_call_reads_as_argparse_reads_it(self):
        assert [argv for argv in _CORPUS_ARGVS + _BENCH_ARGVS if not _read_as_argparse_reads(argv)] == []

    @pytest.mark.parametrize(
        "argv",
        [["char", "[2,1]", "[3]", "--format", "json", "--format", "json"], ["product", "--", "3"],
         ["coeff", "psi", "--raw", "4", "{1}"], ["char", "[2,1]", "--format", "json", "[3]"],
         ["multiply-cycles", "{1}", "{1}", "--verify-at", "-3"], ["product", "-3"], ["to-sing", "-h"],
         ["to-sing", "--format=json", "d[0,0]"], ["verify", "appendix", "--max-m", "3.5"]],
    )
    def test_argv_beyond_the_fast_reader_goes_to_argparse(self, argv):
        assert cli._read_fast(argv) is None
        assert _read_as_argparse_reads(argv)

    @pytest.mark.parametrize(
        "argv, attributes",
        [(["to-sing", "-d[0,0]", "--format", "latex"], {"expression": "-d[0,0]", "format": "latex"}),
         (["local-model", "{2}", "-1/2", "-"], {"profile": "{2}", "x": "-1/2", "poles": "-", "format": "text"}),
         (["coeff", "delta", "[0,2]", "{1,3}", "--raw"],
          {"which": "delta", "m": "[0,2]", "profile": "{1,3}", "raw": True, "format": "text"}),
         (["verify", "ko", "--max-m", " 4_0"], {"suite": "ko", "max_m": 40})],
    )
    def test_the_fast_reader_sets_what_argparse_sets(self, argv, attributes):
        assert vars(cli._read_fast(argv)) == {"verb": argv[0], **attributes} == _argparse_reads(argv)

    @settings(deadline=None, max_examples=400)
    @given(argv=_perturbed_argv())
    def test_a_perturbed_call_reads_as_argparse_reads_it(self, argv):
        assert _read_as_argparse_reads(argv)
