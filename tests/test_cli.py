"""CLI behavior: output shapes, exit codes, determinism, golden schema."""

import csv
import io
import json

import pytest
from click.testing import CliRunner

from fibexpr.cli import main
from fibexpr.expr import format_expression, parse
from fibexpr.optimize import build_expression


def run(*args, **kwargs):
    return CliRunner().invoke(main, list(args), **kwargs)


class TestExpr:
    def test_canonical_n9_metrics(self):
        result = run("expr", "--n", "9", "--method", "canonical")
        assert result.exit_code == 0
        assert "terms=201 plus=33" in result.output

    def test_middle_n9_metrics(self):
        result = run("expr", "--n", "9", "--method", "middle")
        assert "terms=31 plus=11" in result.output

    def test_n2_formula(self):
        result = run("expr", "--n", "2", "--method", "middle")
        assert result.output.splitlines() == ["a1", "terms=1 plus=0"]

    def test_json_round_trips(self):
        result = run("expr", "--n", "9", "--method", "middle", "--format", "json")
        payload = json.loads(result.output)
        assert payload["terms"] == 31 and payload["plus"] == 11
        assert parse(payload["formula"]) == build_expression(9, "middle")

    def test_long_formula_needs_out_file(self, tmp_path):
        out = tmp_path / "big.txt"
        result = run("expr", "--n", "24", "--method", "canonical", "--out", str(out))
        assert result.exit_code == 0
        assert "characters" in result.output  # summary only on console
        assert out.exists()
        assert parse(out.read_text()) == build_expression(24, "canonical")

    def test_usage_error_exit_2(self):
        assert run("expr", "--n", "9", "--method", "gd").exit_code == 2
        assert run("expr", "--n", "9", "--method", "nope").exit_code == 2

    def test_deterministic_output(self):
        first = run("expr", "--n", "13", "--method", "seeded", "--seed", "5").output
        second = run("expr", "--n", "13", "--method", "seeded", "--seed", "5").output
        assert first == second


class TestVerify:
    def test_expand_mode(self):
        result = run("verify", "--n", "12", "--method", "middle", "--mode", "expand")
        assert result.exit_code == 0
        assert "EQUIVALENT (144 monomials)" in result.output

    def test_modeval_mode_large_n(self):
        result = run("verify", "--n", "512", "--method", "gd", "--m", "3",
                     "--mode", "modeval", "--trials", "32")
        assert result.exit_code == 0
        assert "EQUIVALENT" in result.output

    def test_corrupted_formula_exits_1(self, tmp_path):
        # 4-vertex optimal expression with one label index shifted (b2 -> b1)
        bad = tmp_path / "bad.txt"
        bad.write_text("(a1a2+b1)a3+a1b1\n")
        result = run("verify", "--n", "4", "--formula", str(bad), "--mode", "expand")
        assert result.exit_code == 1
        assert "NOT EQUIVALENT" in result.output

    def test_modeval_prints_the_false_pass_bound(self):
        result = run("verify", "--n", "512", "--mode", "modeval", "--trials", "32")
        assert result.exit_code == 0
        assert result.output.splitlines() == [
            "EQUIVALENT (32 modular trials, false-pass bound 1.1e-212)"]

    def test_bound_does_not_underflow(self):
        result = run("verify", "--n", "64", "--mode", "modeval", "--trials", "1000")
        assert result.output.startswith("EQUIVALENT (1000 modular trials, false-pass bound ")
        assert "bound 0" not in result.output

    def test_rejected_modeval_has_no_bound(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("(a1a2+b1)a3+a1b1\n")
        result = run("verify", "--n", "4", "--formula", str(bad), "--mode", "modeval")
        assert result.exit_code == 1
        assert result.output.splitlines() == ["NOT EQUIVALENT (32 modular trials)"]

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_too_few_trials_is_usage_error(self, trials):
        result = run("verify", "--n", "64", "--mode", "modeval", "--trials", trials)
        assert result.exit_code == 2
        assert "EQUIVALENT" not in result.output

    @pytest.mark.parametrize("prime", ["1", "4", "61"])
    def test_bad_prime_is_usage_error(self, prime):
        result = run("verify", "--n", "64", "--mode", "modeval", "--prime", prime)
        assert result.exit_code == 2
        assert "prime greater than n-1 = 63" in result.output

    @pytest.mark.parametrize("value, message", [
        ("abc", "FIBEXPR_PRIME must be an integer"), ("9", "got 9")])
    def test_bad_env_prime_is_usage_error(self, value, message):
        result = run("verify", "--n", "64", "--mode", "modeval", env={"FIBEXPR_PRIME": value})
        assert result.exit_code == 2
        assert message in result.output

    def test_env_prime_is_used(self):
        result = run("verify", "--n", "9", "--mode", "modeval", "--trials", "2",
                     env={"FIBEXPR_PRIME": "11"})
        assert result.output.splitlines() == [
            "EQUIVALENT (2 modular trials, false-pass bound 5.3e-1)"]

    def test_good_formula_file(self, tmp_path):
        good = tmp_path / "good.txt"
        good.write_text(format_expression(build_expression(10, "middle")))
        result = run("verify", "--n", "10", "--formula", str(good), "--mode", "expand")
        assert result.exit_code == 0


class TestOptimizeSpecialFit:
    def test_optimize_n9(self):
        result = run("optimize", "--n", "9", "--metric", "T")
        assert "min T(9) = 31" in result.output
        assert "[5]" in result.output

    def test_special_31(self):
        result = run("special", "--n-max", "31")
        assert result.output.splitlines()[0] == "7,13,14,15,25,26,27,28,29,30,31"

    def test_fit_m2(self):
        result = run("fit", "--m", "2", "--n-list", "64,128,256,512")
        assert result.exit_code == 0
        exponent = float(result.output.split("~=")[1].split()[0])
        assert 1.85 <= exponent <= 2.15

    def test_fit_bad_list_is_usage_error(self):
        assert run("fit", "--m", "2", "--n-list", "64;128").exit_code == 2


class TestTable:
    def test_csv_schema_and_n9_row(self):
        result = run("table", "--n-max", "9", "--format", "csv")
        rows = list(csv.reader(io.StringIO(result.output)))
        assert rows[0] == ["n", "method", "T_measured", "P_measured",
                           "T_predicted", "P_predicted", "equivalent"]
        assert rows[-1] == ["9", "middle", "31", "11", "31", "11", "true"]

    def test_rows_ordered_by_n(self):
        result = run("table", "--n-max", "12", "--format", "csv")
        ns = [int(r[0]) for r in list(csv.reader(io.StringIO(result.output)))[1:]]
        assert ns == list(range(2, 13))

    def test_json_formulaless_records(self):
        result = run("table", "--n-max", "5", "--format", "json")
        data = json.loads(result.output)
        assert [r["n"] for r in data] == [2, 3, 4, 5]
        assert all(r["equivalent"] for r in data)

    def test_out_file(self, tmp_path):
        out = tmp_path / "table.csv"
        result = run("table", "--n-max", "6", "--format", "csv", "--out", str(out))
        assert result.exit_code == 0
        assert out.read_text().startswith("n,method,")
