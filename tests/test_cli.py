"""CLI behavior: output shapes, exit codes, determinism, golden schema."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from fibexpr.cli import METHODS, _exact_int_strings, main
from fibexpr.expr import format_expression, metric_plus, metric_terms, parse
from fibexpr.optimize import build_expression, recurrence_P


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

    @pytest.mark.parametrize("n, method", [(n, method) for n in (1, 2) for method in METHODS
                                           if (n, method) != (1, "canonical")])
    def test_n2_formula(self, n, method):
        # every method's one- and two-vertex roots are leaves: 1 and a1
        options = {"fixed": ["--vertex", "1"], "seeded": ["--seed", "1"], "gd": ["--m", "3"]}
        result = run("expr", "--n", str(n), "--method", method, *options.get(method, []))
        assert result.exit_code == 0
        assert result.output.splitlines() == (["1", "terms=0 plus=0"] if n == 1
                                              else ["a1", "terms=1 plus=0"])

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

    def test_formula_length_without_out_file(self):
        result = run("expr", "--n", "24", "--method", "canonical", "--format", "json")
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert "formula" not in payload and "formula_file" not in payload
        assert payload["formula_length"] == len(
            format_expression(build_expression(24, "canonical")))

    def test_json_names_the_out_file_of_a_long_formula(self, tmp_path):
        out = tmp_path / "f.txt"
        result = run("expr", "--n", "100", "--format", "json", "--out", str(out))
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["formula_length"] == 16102 and "formula" not in payload
        assert payload["formula_file"] == str(out)
        assert len(out.read_text()) == 16102 + 1

    def test_metrics_past_the_int_string_limit_print_exactly(self):
        # leftmost n=21000: T, P and the length have about 4,400 digits,
        # past CPython's default limit of 4,300 for int <-> str
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        args = ("expr", "--n", "21000", "--method", "leftmost")
        text, as_json = run(*args), run(*args, "--format", "json")
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
        assert text.exit_code == 0 and as_json.exit_code == 0
        e = build_expression(21000, "leftmost")
        terms, plus = metric_terms(e), metric_plus(e)
        with _exact_int_strings():
            assert len(str(terms)) == 4389
            assert text.output.splitlines()[-1] == f"terms={terms} plus={plus}"
            payload = json.loads(as_json.output)
        assert (payload["terms"], payload["plus"]) == (terms, plus)

    def test_runs_where_ints_print_at_any_length(self, monkeypatch):
        # CPython before 3.10.7 has no int-string limit to lift
        monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
        result = run("expr", "--n", "9")
        assert result.exit_code == 0
        assert result.output.splitlines()[-1] == "terms=31 plus=11"

    def test_formula_too_long_to_build_is_summarised(self):
        # 267,914,294 terms: the text is never built
        result = run("expr", "--n", "40", "--method", "leftmost")
        assert result.exit_code == 0
        assert result.output.splitlines() == [
            "[formula of 1110745166 characters; use --out to save it]",
            "terms=267914294 plus=102334154"]

    def test_formula_too_long_for_out_file_is_refused(self, tmp_path):
        # 16,802,244,881,216 characters: refused before the text is built
        out = tmp_path / "f.txt"
        result = run("expr", "--n", "60", "--method", "leftmost", "--out", str(out))
        assert result.exit_code == 2
        assert "exceeds --out bound" in result.output
        assert "Traceback" not in result.output
        assert not out.exists()

    def test_deep_leftmost_builds(self):
        result = run("expr", "--n", "3000", "--method", "leftmost")
        assert result.exit_code == 0
        assert "Traceback" not in result.output
        assert result.output.splitlines()[-1].startswith("terms=")

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

    @pytest.mark.parametrize("mode", ["expand", "modeval"])
    @pytest.mark.parametrize("text, message", [
        ("a1+", "expected a factor (at position 3)"),
        ("(a1+b2)a" + "1" * 5000, "label index of 5000 digits is too long (at position 7)"),
    ])
    def test_unparsable_formula_exits_2(self, tmp_path, mode, text, message):
        formula = tmp_path / "f.txt"
        formula.write_text(text)
        result = run("verify", "--n", "3", "--formula", str(formula), "--mode", mode)
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert f"Error: cannot parse {formula}: {message}\n" in result.output
        assert "Traceback" not in result.output

    def test_deep_leftmost_modeval(self):
        result = run("verify", "--n", "3000", "--method", "leftmost", "--mode", "modeval",
                     "--trials", "1")
        assert result.exit_code == 0
        assert result.output.startswith("EQUIVALENT (1 modular trials")
        assert "Traceback" not in result.output

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

    def test_bound_counts_points_from_1_to_p_minus_1(self, tmp_path):
        good = tmp_path / "good.txt"
        good.write_text("(a1a2+b1)a3+a1b2\n")
        result = run("verify", "--n", "4", "--formula", str(good), "--mode", "modeval",
                     "--prime", "5", "--trials", "1")
        assert result.exit_code == 0
        assert result.output.splitlines() == [
            "EQUIVALENT (1 modular trials, false-pass bound 7.5e-1)"]

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
        assert "prime greater than n = 64" in result.output

    @pytest.mark.parametrize("n, text", [("2", "1"), ("3", "1")])
    def test_prime_equal_to_n_is_usage_error(self, tmp_path, n, text):
        # points come from 1..n-1, so the per-trial bound (n-1)/(p-1) would be 1
        formula = tmp_path / "f.txt"
        formula.write_text(text + "\n")
        result = run("verify", "--n", n, "--formula", str(formula), "--mode", "modeval",
                     "--prime", n)
        assert result.exit_code == 2
        assert f"prime greater than n = {n}, got {n}" in result.output
        assert "EQUIVALENT" not in result.output

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
            "EQUIVALENT (2 modular trials, false-pass bound 6.4e-1)"]

    def test_good_formula_file(self, tmp_path):
        good = tmp_path / "good.txt"
        good.write_text(format_expression(build_expression(10, "middle")))
        result = run("verify", "--n", "10", "--formula", str(good), "--mode", "expand")
        assert result.exit_code == 0

    def test_label_outside_the_graph_is_not_equivalent(self, tmp_path):
        formula = tmp_path / "f.txt"
        formula.write_text("a1\n")
        result = run("verify", "--n", "1", "--formula", str(formula), "--mode", "modeval")
        assert result.exit_code == 1
        assert result.output.splitlines() == ["NOT EQUIVALENT (32 modular trials)"]

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
    @pytest.mark.parametrize("n, text", [
        ("3", "a1a2+b1+1+1+1+1+1"), ("3", "a1a1a1a1a1a2+b1"), ("1", "1+1+1+1+1+1")])
    def test_formula_equal_only_modulo_the_prime_is_not_equivalent(self, tmp_path, n, text):
        # each equals the path polynomial (a1a2+b1 at n=3, 1 at n=1) modulo 5
        # but not over the integers, which --mode expand reports; at n=1 the
        # printed bound is 0, a claim of certainty
        formula = tmp_path / "f.txt"
        formula.write_text(text + "\n")
        result = run("verify", "--n", n, "--formula", str(formula), "--mode", "modeval",
                     "--prime", "5")
        assert result.exit_code == 1

    def test_duplicate_monomial_is_not_equivalent(self, tmp_path):
        formula = tmp_path / "f.txt"
        formula.write_text("(a1+b1)(a2+1)+b1\n")
        result = run("verify", "--n", "3", "--formula", str(formula), "--mode", "expand")
        assert result.exit_code == 1
        assert result.output.startswith("NOT EQUIVALENT (2 monomials; ")
        assert "Traceback" not in result.output

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 3")
    def test_a_product_past_the_path_count_is_not_equivalent(
            self, tmp_path, monkeypatch):
        # 2^10 monomials against 3 paths: not equivalent, whatever the bound,
        # yet expand builds the product until it passes the bound
        monkeypatch.setattr("fibexpr.expr.DEFAULT_EXPANSION_BOUND", 100)
        formula = tmp_path / "f.txt"
        formula.write_text("".join(f"(a{k}+b{k})" for k in range(1, 11)) + "\n")
        result = run("verify", "--n", "3", "--formula", str(formula), "--mode", "expand")
        assert result.exit_code == 1
        assert result.output.startswith("NOT EQUIVALENT")


@pytest.mark.parametrize("args, message", [
    ("expr --n 0", "need an integer n >= 1, got 0"),
    ("verify --n 0 --mode modeval", "need an integer n >= 1, got 0"),
    ("optimize --n 2", "need an integer n >= 3, got 2"),
    ("expr --n 9 --method gd --m 1", "need an integer m >= 2, got 1"),
    ("expr --n 9 --method gd", "method 'gd' needs a part count m"),
    ("expr --n 9 --method seeded", "method 'seeded' needs a seed"),
    ("expr --n 9 --method fixed", "method 'fixed' needs a first-step vertex"),
    ("verify --n 9 --method gd --mode modeval", "method 'gd' needs a part count m"),
    ("fit --m 1 --n-list 64,128,256,512", "need an integer m >= 2, got 1"),
    ("fit --m 2 --n-list 1,2,3,4", "too small to fit"),
    ("expr --n 40 --method canonical", "paths exceeds bound"),
    ("verify --n 40 --mode expand", "paths exceeds bound"),
    ("expr --n 25000 --method canonical", "n=25000: the number of paths exceeds bound 1000000"),
    ("verify --n 25000 --mode expand", "n=25000: the number of paths exceeds bound 1000000"),
    ("expr --n 40 --method gd --m 40", "summands"),
    ("fit --m 100 --n-list 64,128,256,512", "summands"),
    ("expr --n 1024 --method gd --m 20", "a build of at least"),
    ("expr --n 1000000000 --method seeded --seed 1", "a build of at least 999999999 summands"),
    ("expr --n 1000000000 --method gd --m 3", "a build of at least 999999999 summands"),
])
def test_domain_errors_exit_2_without_traceback(args, message):
    result = run(*args.split())
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith("Error: ") and message in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("command", [
    "expr --n 5 --out {missing}/f.txt",
    "table --n-max 3 --out {missing}/t.csv",
    "verify --n 2 --formula {bad}",
])
def test_file_errors_exit_2_without_traceback(tmp_path, command):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"a1\xff\xfe")
    args = command.format(missing=tmp_path / "missing", bad=bad).split()
    result = run(*args)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith("Error: ") and len(result.output.splitlines()) == 1
    assert args[-1] in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("args", ["special --n-max 1000000000", "optimize --n 1000000000",
                                  "optimize --n 1000001 --metric P"])
def test_oversized_interval_table_exits_2_at_once(args):
    result = run(*args.split())
    assert result.exit_code == 2
    n = args.split()[2]
    assert result.output == f"Error: n={n}: the interval table exceeds bound 1000000\n"


@pytest.mark.parametrize("n_max", ["2001", "1000000000"])
def test_oversized_complexity_table_exits_2_at_once(n_max):
    # every row up to n_max would be built and verified before one is printed
    result = run("table", "--n-max", n_max)
    assert result.exit_code == 2
    assert result.output == f"Error: n_max={n_max}: the complexity table exceeds bound 2000\n"


def test_oversized_canonical_table_exits_2_at_once():
    # every row up to n = 30 would be built and verified before n = 31 failed
    result = run("table", "--n-max", "31", "--method", "canonical")
    assert result.exit_code == 2
    assert result.output == "Error: n=31: the number of paths exceeds bound 1000000\n"


def test_expand_refuses_a_large_n_at_once(tmp_path):
    # the path count is not computed past the bound, so n = 10^6 costs no
    # million big-integer additions
    formula = tmp_path / "f.txt"
    formula.write_text("a1\n")
    result = run("verify", "--n", "1000000", "--formula", str(formula), "--mode", "expand")
    assert result.exit_code == 2
    assert result.output == "Error: n=1000000: the number of paths exceeds bound 1000000\n"


def test_expand_detail_does_not_depend_on_the_hash_seed(tmp_path):
    # (a1+a1a2)(a2+1) makes a1a2 twice and repeats a2 in a1a2*a2; one
    # message names it under every hash seed
    src = Path(__file__).resolve().parents[1] / "src"
    formula = tmp_path / "f.txt"
    formula.write_text("(a1+a1a2)(a2+1)\n")
    outputs = set()
    for seed in range(8):
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": str(seed)}
        result = subprocess.run([sys.executable, "-m", "fibexpr", "verify", "--n", "3",
                                 "--formula", str(formula), "--mode", "expand"],
                                capture_output=True, text=True, env=env, timeout=60)
        assert result.returncode == 1
        outputs.add(result.stdout)
    assert outputs == {
        "NOT EQUIVALENT (2 monomials; label repeated within a monomial: ['a2'])\n"}


def test_python_m_fibexpr_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run([sys.executable, "-m", "fibexpr", "expr", "--n", "0"],
                            capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 2
    assert "need an integer n >= 1" in result.stderr
    assert "Traceback" not in result.stdout + result.stderr


class TestOptimizeSpecialFit:
    def test_optimize_n9(self):
        result = run("optimize", "--n", "9", "--metric", "T")
        assert "min T(9) = 31" in result.output
        assert "[5]" in result.output

    def test_optimize_n100000_json(self):
        result = run("optimize", "--n", "100000", "--format", "json")
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["argmin"] == [50000, 50001]
        assert payload["min"] == 3987230293

    def test_optimize_n100000_p_json(self):
        result = run("optimize", "--n", "100000", "--metric", "P", "--format", "json")
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["min"] == recurrence_P(100000)
        assert payload["argmin"] == list(range(49152, 50850))

    def test_special_31(self):
        result = run("special", "--n-max", "31")
        assert result.output.splitlines()[0] == "7,13,14,15,25,26,27,28,29,30,31"

    def test_special_json(self):
        result = run("special", "--n-max", "31", "--format", "json")
        assert result.exit_code == 0
        assert json.loads(result.output) == {
            "n_max": 31, "special": [7, 13, 14, 15, 25, 26, 27, 28, 29, 30, 31],
            "groups": [[7, 7], [13, 15], [25, 31]], "groups_ok": True}

    def test_optimize_refuses_an_n_too_long_to_read(self):
        # the int-string limit is lifted only while expr renders its output
        result = run("optimize", "--n", "1" + "0" * 5000)
        assert result.exit_code == 2
        assert "Traceback" not in result.output

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

    @pytest.mark.parametrize("method", ["gd", "seeded", "fixed"])
    def test_method_that_needs_an_option_is_usage_error(self, method):
        result = run("table", "--n-max", "5", "--method", method)
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "Error: Invalid value for '--method'" in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("method", ["canonical", "leftmost"])
    def test_methods_without_options(self, method):
        result = run("table", "--n-max", "6", "--method", method, "--format", "json")
        assert result.exit_code == 0
        assert [r["method"] for r in json.loads(result.output)] == [method] * 5

    def test_out_file(self, tmp_path):
        out = tmp_path / "table.csv"
        result = run("table", "--n-max", "6", "--format", "csv", "--out", str(out))
        assert result.exit_code == 0
        assert out.read_text().startswith("n,method,")
