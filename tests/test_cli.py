"""Command-line interface: verbs, formats, exit codes."""

from __future__ import annotations

import json

from singclass.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
            capsys, "multiply-cycles", "{1,1,1,1,1,1}", "{1,1,1,1,1,1}"
        )
        assert code == 3
        assert out == ""
        assert "budget" in err

    def test_deeply_nested_tree_literal_is_exit_2(self, capsys):
        literal = "1"
        for _ in range(3000):
            literal = f"(0;{literal},1)"
        code, _, err = run(capsys, "to-sing", f"T{{{literal}}}@sing")
        assert code == 2
        assert "nested deeper" in err

    def test_verification_failure_is_exit_1(self, capsys):
        code, out, _ = run(
            capsys, "multiply-cycles", "{2}", "{2}", "--verify-at", "3"
        )
        # N=3 cannot host both factors: constraint violation, not a FAIL
        assert code == 3
