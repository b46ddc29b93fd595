import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import prodtv
from prodtv import cli, exact_tv_bernoulli
from prodtv.cli import EXIT_BUDGET, EXIT_DOMAIN, EXIT_PARSE, main

from oracles import (
    GAP_RATIO_LOWER_BOUND,
    GAP_TV_PQ_BOUND,
    equal_marginals_error_bound,
    equal_marginals_mpmath,
    gap_tv_pq_mpmath,
    mc_estimate_reference,
    tv_fraction_bernoulli,
)


def write_instance(tmp_path, doc, name="instance.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fresh_env(**overrides):
    """os.environ for a fresh interpreter that imports this prodtv."""
    src = str(Path(prodtv.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])), **overrides)


class TestBoundsCommand:
    def test_exact_inside_bracket(self, tmp_path, capsys):
        path = write_instance(tmp_path, {"p": [0.5, 0.5], "q": [0.0, 0.0]})
        code, out, _ = run(capsys, ["bounds", path, "--exact"])
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert doc["exact_tv"] == pytest.approx(0.75, abs=1e-12)
        assert doc["best_lower"] - 1e-9 <= doc["exact_tv"] <= doc["best_upper"] + 1e-9

    def test_identical_pair_upper_zero(self, tmp_path, capsys):
        path = write_instance(tmp_path, {"p": [0.4, 0.4], "q": [0.4, 0.4]})
        code, out, _ = run(capsys, ["bounds", path])
        assert code == 0
        doc = json.loads(out)
        assert doc["best_upper"] == 0.0
        assert doc["ratio"] is None

    def test_general_instance(self, tmp_path, capsys):
        path = write_instance(
            tmp_path,
            {"P": [[1 / 3, 1 / 3, 1 / 3]], "Q": [[0.5, 0.25, 0.25]], "label": "tri"},
        )
        code, out, _ = run(capsys, ["bounds", path, "--exact"])
        assert code == 0
        doc = json.loads(out)
        assert doc["label"] == "tri"
        assert doc["exact_tv"] == pytest.approx(1 / 6, abs=1e-12)

    def test_malformed_row_names_coordinate(self, tmp_path, capsys):
        path = write_instance(tmp_path, {"P": [[0.5, 0.5], [0.5, 0.4]],
                                         "Q": [[0.5, 0.5], [0.5, 0.5]]})
        code, _, err = run(capsys, ["bounds", path])
        assert code == EXIT_PARSE
        assert "P[1]" in err

    def test_budget_overrun_degrades_gracefully(self, tmp_path, capsys):
        path = write_instance(tmp_path, {"p": [0.5] * 8, "q": [0.1] * 8})
        code, out, _ = run(capsys, ["bounds", path, "--exact", "--budget", "4"])
        assert code == 0
        doc = json.loads(out)
        assert "exact_tv" not in doc
        assert any("exact TV omitted" in w for w in doc["warnings"])
        assert doc["best_lower"] <= doc["best_upper"]

    def test_underflowing_minimum_mass_is_domain_error(self, tmp_path, capsys):
        # Q's joint minimum mass 1e-300 * 1e-300 underflows to 0, so the KL
        # lower bound's 1 / m raises ZeroDivisionError in the library
        # (ROADMAP item 1); the CLI reports it as a numeric-domain error.
        path = write_instance(tmp_path, {"p": [0.5, 0.5], "q": [1e-300, 1e-300]})
        code, out, err = run(capsys, ["bounds", path])
        assert (code, out) == (EXIT_DOMAIN, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.startswith("error: the KL lower bound KL / (2 log(1/m)) divides by zero")
        assert "Q_min, which underflows to 0.0 (P_min = 0.25)" in err

    def test_non_finite_bound_is_domain_error(self, tmp_path, capsys, monkeypatch):
        # The report refuses a NaN bound rather than clamp it into [0, 1].
        monkeypatch.setattr(prodtv.bounds, "hellinger_bracket", lambda pair: (math.nan, 0.5))
        path = write_instance(tmp_path, {"p": [0.9, 0.3], "q": [0.2, 0.8]})
        code, out, err = run(capsys, ["bounds", path])
        assert (code, out) == (EXIT_DOMAIN, "")
        assert err == "error: lower_hellinger is nan, not a finite bound\n"

    def test_round_trip_values(self, tmp_path, capsys):
        path = write_instance(tmp_path, {"p": [0.9, 0.3], "q": [0.2, 0.8]})
        code, out, _ = run(capsys, ["bounds", path, "--exact"])
        assert code == 0
        doc = json.loads(out)
        assert json.loads(json.dumps(doc)) == doc

    def test_text_format(self, tmp_path, capsys):
        path = write_instance(tmp_path, {"p": [0.5], "q": [0.2]})
        code, out, _ = run(capsys, ["bounds", path, "--format", "text"])
        assert code == 0
        assert "best_lower" in out and "best_upper" in out

    def test_csv_format(self, tmp_path, capsys):
        path = write_instance(tmp_path, {"p": [0.5], "q": [0.2]})
        code, out, _ = run(capsys, ["bounds", path, "--format", "csv"])
        assert code == 0
        header, row = out.strip().split("\n")
        assert header.split(",")[0] == "schema_version"
        assert len(header.split(",")) == len(row.split(","))


class TestInstanceParsing:
    def test_both_shapes_rejected(self, tmp_path, capsys):
        path = write_instance(tmp_path, {"p": [0.5], "q": [0.5],
                                         "P": [[0.5, 0.5]], "Q": [[0.5, 0.5]]})
        code, _, err = run(capsys, ["bounds", path])
        assert code == EXIT_PARSE

    def test_missing_q(self, tmp_path, capsys):
        path = write_instance(tmp_path, {"p": [0.5]})
        code, _, err = run(capsys, ["bounds", path])
        assert code == EXIT_PARSE
        assert "both p and q" in err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, ["bounds", str(path)])
        assert code == EXIT_PARSE
        assert "invalid JSON" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["bounds", "/nonexistent/instance.json"])
        assert code == EXIT_PARSE

    def test_out_of_range_parameter(self, tmp_path, capsys):
        path = write_instance(tmp_path, {"p": [1.5], "q": [0.5]})
        code, _, err = run(capsys, ["bounds", path])
        assert code == EXIT_PARSE
        assert "outside [0, 1]" in err

    @pytest.mark.parametrize("doc", [
        {"p": [[0.2, 0.3, 0.5], [0.6, 0.4]], "q": [[0.5, 0.3, 0.2], [0.1, 0.9]]},
        {"p": [0.2, [0.3]], "q": [0.5, 0.4]},
    ], ids=["mass-rows-as-p", "nested-entry"])
    def test_ragged_parameters(self, monkeypatch, capsys, doc):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        code, out, err = run(capsys, ["reduce", "-"])
        assert (code, out) == (EXIT_PARSE, "")
        assert err == "error: -: params must be a non-empty 1-D vector\n"

    @pytest.mark.parametrize("command", ["exact", "mc", "symmetrize", "bounds", "reduce"])
    def test_mismatched_lengths(self, tmp_path, capsys, command):
        path = write_instance(tmp_path, {"p": [0.5, 0.2], "q": [0.1]})
        code, out, err = run(capsys, [command, path])
        assert (code, out) == (EXIT_PARSE, "")
        assert err == f"error: {path}: p has length 2, q has length 1\n"


    @pytest.mark.parametrize("doc, message", [
        ([0.5, 0.5], "instance must be a JSON object"),
        ({"p": [0.5], "q": [0.5], "label": 7}, "label must be a string"),
        ({"P": [[0.5, 0.5]]}, "a general instance needs both P and Q"),
        ({"P": [0.2, 0.8], "Q": [0.5, 0.5]}, "P must be a sequence of 1-D mass rows"),
    ], ids=["list", "label-not-string", "P-without-Q", "flat-P"])
    def test_shape_errors_name_the_source(self, tmp_path, capsys, doc, message):
        path = write_instance(tmp_path, doc)
        code, out, err = run(capsys, ["bounds", path])
        assert (code, out) == (EXIT_PARSE, "")
        assert err == f"error: {path}: {message}\n"

    def test_non_utf8_file(self, tmp_path, capsys):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe\x00bad")
        code, out, err = run(capsys, ["bounds", str(path)])
        assert (code, out) == (EXIT_PARSE, "")
        assert err.startswith(f"error: {path}: cannot read: ")

    def test_nesting_past_the_recursion_limit(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO("[" * 100_000))
        code, out, err = run(capsys, ["bounds", "-"])
        assert (code, out) == (EXIT_PARSE, "")
        assert err.startswith("error: -: invalid JSON: maximum recursion depth exceeded")

    def test_unreadable_path_names_it(self, tmp_path, capsys):
        code, out, err = run(capsys, ["exact", str(tmp_path)])
        assert (code, out) == (EXIT_PARSE, "")
        assert err.startswith(f"error: {tmp_path}: cannot read: ")

    @pytest.mark.parametrize("command", ["mc", "symmetrize"])
    def test_bernoulli_only_commands_name_the_source(self, monkeypatch, capsys, command):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(GENERAL_MIXED)))
        code, out, err = run(capsys, [command, "-"])
        assert (code, out) == (EXIT_PARSE, "")
        assert err == f"error: -: {command} requires a Bernoulli instance (p/q shape)\n"


class TestBudgetRule:
    """One budget rule for both instance shapes: joint support <= 2**budget."""

    PQ = {"P": [[0.5, 0.5], [0.2, 0.8]], "Q": [[0.4, 0.6], [0.3, 0.7]]}
    PQ_AS_BERNOULLI = {"p": [0.5, 0.8], "q": [0.6, 0.7]}

    def test_negative_budget_refuses_both_shapes_alike(self, tmp_path, capsys):
        errors = set()
        for doc in (self.PQ, self.PQ_AS_BERNOULLI):
            path = write_instance(tmp_path, doc)
            code, out, err = run(capsys, ["exact", path, "--budget", "-1"])
            assert (code, out) == (EXIT_BUDGET, "")
            errors.add(err)
        assert errors == {"error: joint support exceeds the 2^-1 enumeration budget (n = 2)\n"}

    def test_bounds_exact_negative_budget_warns(self, tmp_path, capsys):
        path = write_instance(tmp_path, self.PQ)
        code, out, err = run(capsys, ["bounds", path, "--exact", "--budget", "-1"])
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert "exact_tv" not in doc
        assert doc["warnings"] == [
            "exact TV omitted: joint support exceeds the 2^-1 enumeration budget (n = 2)"]

    def test_support_past_int_string_limit(self, tmp_path, capsys):
        # 2**15000 has 4516 digits, past the 4300 that str(int) accepts.
        n = 15000
        path = write_instance(tmp_path, {"P": [[0.5, 0.5]] * n, "Q": [[0.4, 0.6]] * n})
        code, out, err = run(capsys, ["exact", path])
        assert (code, out) == (EXIT_BUDGET, "")
        assert err == f"error: joint support exceeds the 2^26 enumeration budget (n = {n})\n"
        code, out, err = run(capsys, ["bounds", path, "--exact"])
        assert (code, err) == (0, "")
        assert json.loads(out)["warnings"] == [
            f"exact TV omitted: joint support exceeds the 2^26 enumeration budget (n = {n})"]

    def test_support_at_budget_runs(self, tmp_path, capsys):
        path = write_instance(tmp_path, {"P": [[0.5, 0.5]] * 3, "Q": [[0.4, 0.6]] * 3})
        code, out, _ = run(capsys, ["exact", path, "--budget", "3"])
        assert code == 0 and json.loads(out)["tv"] > 0.0
        path = write_instance(tmp_path, {"P": [[0.2, 0.3, 0.5]] * 2, "Q": [[0.5, 0.3, 0.2]] * 2})
        code, out, _ = run(capsys, ["exact", path, "--budget", "3"])
        assert (code, out) == (EXIT_BUDGET, "")


class TestExactCommand:
    def test_bernoulli(self, tmp_path, capsys):
        path = write_instance(tmp_path, {"p": [0.5, 0.5], "q": [0.0, 0.0]})
        code, out, _ = run(capsys, ["exact", path])
        assert code == 0
        assert json.loads(out)["tv"] == pytest.approx(0.75, abs=1e-12)

    def test_budget_exit_code(self, tmp_path, capsys):
        path = write_instance(tmp_path, {"p": [0.5] * 8, "q": [0.1] * 8})
        code, _, err = run(capsys, ["exact", path, "--budget", "4"])
        assert code == EXIT_BUDGET
        assert "budget" in err

    def test_workers_flag_identical_output(self, tmp_path, capsys):
        rng = np.random.default_rng(601)
        doc = {"p": rng.random(17).tolist(), "q": rng.random(17).tolist()}
        path = write_instance(tmp_path, doc)
        outputs = set()
        for workers in ("1", "4", "8"):
            code, out, _ = run(capsys, ["exact", path, "--workers", workers])
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1


class TestMcCommand:
    def test_identical_pair(self, tmp_path, capsys):
        path = write_instance(tmp_path, {"p": [0.3, 0.3], "q": [0.3, 0.3]})
        code, out, _ = run(capsys, ["mc", path, "--samples", "1000", "--seed", "4"])
        assert code == 0
        assert json.loads(out)["value"] == 0.0

    def test_deterministic_given_seed(self, tmp_path, capsys):
        path = write_instance(tmp_path, {"p": [0.5, 0.5], "q": [0.0, 0.0]})
        argv = ["mc", path, "--samples", "20000", "--seed", "11"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second

    def test_text_shows_interval(self, tmp_path, capsys):
        path = write_instance(tmp_path, {"p": [0.5], "q": [0.1]})
        code, out, _ = run(capsys, ["mc", path, "--samples", "500", "--seed", "1",
                                    "--format", "text"])
        assert code == 0
        assert "+/-" in out

    def test_invalid_confidence_is_domain_error(self, tmp_path, capsys):
        path = write_instance(tmp_path, {"p": [0.5], "q": [0.1]})
        code, _, err = run(capsys, ["mc", path, "--confidence", "1.5"])
        assert code == EXIT_DOMAIN

    def test_general_instance_rejected(self, tmp_path, capsys):
        path = write_instance(tmp_path, {"P": [[0.5, 0.5]], "Q": [[0.4, 0.6]]})
        code, _, err = run(capsys, ["mc", path])
        assert code == EXIT_PARSE


class TestSymmetrizeCommand:
    def test_example_pair(self, tmp_path, capsys):
        path = write_instance(tmp_path, {"p": [0.8], "q": [0.6]})
        code, out, _ = run(capsys, ["symmetrize", path])
        assert code == 0
        doc = json.loads(out)
        assert doc["p_hat"][0] == pytest.approx(0.571429, abs=1e-6)
        assert doc["q_hat"][0] == pytest.approx(0.428571, abs=1e-6)
        rows = doc["channels"][0]
        assert rows[0][0] + rows[0][1] == pytest.approx(1.0, abs=1e-12)
        assert rows[1][0] + rows[1][1] == pytest.approx(1.0, abs=1e-12)


class TestReduceCommand:
    def test_three_point(self, tmp_path, capsys):
        path = write_instance(tmp_path,
                              {"P": [[1 / 3, 1 / 3, 1 / 3]], "Q": [[0.5, 0.25, 0.25]]})
        code, out, _ = run(capsys, ["reduce", path])
        assert code == 0
        doc = json.loads(out)
        assert doc["witness_sets"] == [[1, 2]]
        assert doc["p"][0] == pytest.approx(2 / 3, abs=1e-12)
        assert doc["q"][0] == pytest.approx(0.5, abs=1e-12)


class TestGapCommand:
    def test_csv_row(self, capsys):
        code, out, _ = run(capsys, ["gap", "--n", "4"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,tv_pq,tv_pq_prime_upper,ratio_lower,sqrt_n"
        assert lines[1] == "4,0.68359375,0.5,1.3671875,2.0"

    def test_past_the_power_form(self, capsys):
        # (1 - 1/n)**n rounds to 1 here, so the power form printed tv_pq 0.0.
        code, out, _ = run(capsys, ["gap", "--n", "20000000000000000"])
        assert code == 0
        row = dict(zip(*(line.split(",") for line in out.splitlines())))
        assert (row["tv_pq"], row["ratio_lower"]) == ("0.6321205588285577", "89395346.73502061")

    def test_range(self, capsys):
        code, out, _ = run(capsys, ["gap", "--n-range", "1:3"])
        assert code == 0
        assert len(out.strip().split("\n")) == 4

    def test_requires_exactly_one_selector(self, capsys):
        code, _, _ = run(capsys, ["gap"])
        assert code == EXIT_PARSE
        code, _, _ = run(capsys, ["gap", "--n", "2", "--n-range", "1:3"])
        assert code == EXIT_PARSE

    def test_invalid_n_is_domain_error(self, capsys):
        code, _, _ = run(capsys, ["gap", "--n", "0"])
        assert code == EXIT_DOMAIN

    def test_bad_range_is_parse_error(self, capsys):
        code, _, _ = run(capsys, ["gap", "--n-range", "4:x"])
        assert code == EXIT_PARSE

    @pytest.mark.parametrize("spec", ["1:2:3:4", "5:3"])
    def test_malformed_ranges(self, capsys, spec):
        code, out, err = run(capsys, ["gap", "--n-range", spec])
        assert (code, out) == (EXIT_PARSE, "")
        assert err == (f"error: invalid --n-range {spec!r}; "
                       "use N, A:B, A:B:STEP, or a comma list\n")

    def test_single_size_range(self, capsys):
        code, out, _ = run(capsys, ["gap", "--n-range", "7"])
        assert (code, out) == run(capsys, ["gap", "--n", "7"])[:2]
        assert len(out.splitlines()) == 2

    @pytest.mark.parametrize("command", ["gap", "sweep"])
    def test_text_format_two_sizes(self, capsys, command):
        code, out, err = run(capsys, [command, "--n-range", "3,5", "--format", "text"])
        assert (code, err) == (0, "")
        blocks = [line.split() for line in out.splitlines() if line.startswith("n ")]
        assert blocks == [["n", "3"], ["n", "5"]]
        keys = [line.split()[0] for line in out.splitlines()]
        columns = cli.GAP_COLUMNS if command == "gap" else cli.SWEEP_COLUMNS
        assert keys == list(columns) * 2


class TestSizeLimits:
    """A closed-form window past the budget exits 3, and a window past 2**53 or
    a size past the float range exits 4, each with one error line and nothing
    on stdout."""

    def test_sweep_window_past_budget(self, capsys, monkeypatch):
        rows = prodtv.core._binomial_rows

        def small_rows_only(n, p, q):
            assert n <= 4, "rows built past the budget"
            return rows(n, p, q)

        monkeypatch.setattr(prodtv.core, "_binomial_rows", small_rows_only)
        n = 10 ** 20
        code, out, err = run(capsys, ["sweep", "--n", str(n)])
        assert (code, out) == (EXIT_BUDGET, "")
        assert err == f"error: joint support exceeds the 2^26 enumeration budget (n = {n})\n"
        # A row within the budget comes first, but nothing is printed.
        code, out, _ = run(capsys, ["sweep", "--n-range", f"4,{n}"])
        assert (code, out) == (EXIT_BUDGET, "")

    def test_sweep_window_past_2_53(self, capsys):
        """Past about 10**34 the gap pair's window rounds to one count past
        2**53; the sweep exits 4 where it once divided by a zero TV."""
        n = 10 ** 40
        code, out, err = run(capsys, ["sweep", "--n", str(n)])
        assert (code, out) == (EXIT_DOMAIN, "")
        assert err.startswith(f"error: n = {n} is too large for the closed form: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["gap", "sweep"])
    def test_size_past_float_range(self, capsys, command):
        code, out, err = run(capsys, [command, "--n", "1" + "0" * 309])
        assert (code, out) == (EXIT_DOMAIN, "")
        assert err.startswith("error: ") and err.count("\n") == 1


class TestSweepCommand:
    def test_single_row(self, capsys):
        code, out, _ = run(capsys, ["sweep", "--n", "1"])
        assert code == 0
        lines = out.strip().split("\n")
        row = lines[1].split(",")
        assert row[0] == "1"
        assert float(row[4]) == 1.0  # exact gap ratio at n=1

    def test_ratio_strictly_increasing(self, capsys):
        code, out, _ = run(capsys, ["sweep", "--n-range", "4,16,64"])
        assert code == 0
        lines = out.strip().split("\n")
        header = lines[0].split(",")
        idx = header.index("gap_ratio_exact")
        ratios = [float(line.split(",")[idx]) for line in lines[1:]]
        assert ratios[0] < ratios[1] < ratios[2]

    def test_byte_identical_rerun(self, capsys):
        argv = ["sweep", "--n-range", "1:8"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second


class TestLowtherCommand:
    def test_two_equal_weights(self, capsys):
        code, out, _ = run(capsys, ["lowther", "--weights", "1,1", "--threshold",
                                    "1.4142135623730951"])
        assert code == 0
        doc = json.loads(out)
        assert doc["ratio"] == pytest.approx(2.0, abs=1e-12)

    def test_nonpositive_weight_is_domain_error(self, capsys):
        code, _, _ = run(capsys, ["lowther", "--weights", "1,0", "--threshold", "1"])
        assert code == EXIT_DOMAIN

    def test_bad_weight_list_is_parse_error(self, capsys):
        code, _, _ = run(capsys, ["lowther", "--weights", "1,a", "--threshold", "1"])
        assert code == EXIT_PARSE

    def test_empty_weight_list_is_parse_error(self, capsys):
        code, out, err = run(capsys, ["lowther", "--weights", ",", "--threshold", "1"])
        assert (code, out) == (EXIT_PARSE, "")
        assert err == "error: --weights must contain at least one value\n"

    @pytest.mark.parametrize("weights, threshold", [
        ("1e200,1e200", "1"), ("1e-200,1e-200", "1"), ("1e10,1e10", "1e-320"),
    ], ids=["norm-overflows", "norm-underflows", "threshold-underflows"])
    def test_unscalable_input_is_domain_error(self, capsys, weights, threshold):
        code, out, err = run(capsys, ["lowther", "--weights", weights, "--threshold", threshold])
        assert (code, out) == (EXIT_DOMAIN, "")
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_over_the_cap_is_budget_error(self, capsys):
        code, out, err = run(capsys, ["lowther", "--weights", ",".join(["1"] * 21),
                                      "--threshold", "1"])
        assert (code, out) == (EXIT_BUDGET, "")
        assert err == "error: joint support exceeds the 2^20 enumeration budget (n = 21)\n"


# Fixed instances whose CLI output is pinned byte for byte below.
# BERNOULLI_EDGES has parameters of 0 and 1 and an identical (0, 0)
# coordinate; GENERAL_MIXED has supports 2, 3 and 4 and one zero mass;
# SYMMETRIC_PADDED is symmetric (q = 1 - p) apart from one identical coordinate.
BERNOULLI_EDGES = {"p": [0.0, 1.0, 0.3, 0.75, 0.0], "q": [0.2, 0.9, 0.6, 0.5, 0.0]}
GENERAL_MIXED = {"P": [[0.25, 0.75], [0.2, 0.3, 0.5], [0.1, 0.2, 0.3, 0.4]],
                 "Q": [[0.5, 0.5], [0.0, 0.6, 0.4], [0.25, 0.25, 0.25, 0.25]]}
SYMMETRIC_PADDED = {"p": [0.7, 0.4, 0.55, 0.3], "q": [0.3, 0.6, 0.45, 0.3]}
# CHANNEL_CASES has coordinates with p < q, p = q, p + q = 1, (0, 1), (1, 1)
# and (0, 0), which cover both branches of the channel construction.
CHANNEL_CASES = {"p": [0.2, 0.35, 0.7, 0.0, 1.0, 0.0], "q": [0.65, 0.35, 0.3, 1.0, 1.0, 0.0]}

BOUNDS_BERNOULLI_EDGES = """\
{
  "schema_version": 1,
  "kind": "bernoulli",
  "n": 5,
  "delta_linf": 0.29999999999999993,
  "delta_l2": 0.4499999999999999,
  "delta_l1": 0.8499999999999999,
  "lower_trivial": 0.29999999999999993,
  "lower_l2": 0.08090999999999998,
  "lower_hellinger": 0.21856708217470955,
  "lower_kl": null,
  "upper_trivial": 0.8499999999999999,
  "upper_hellinger": 0.623989258672818,
  "upper_pinsker": 0.5670551120922838,
  "upper_symmetric": null,
  "upper_affinity": null,
  "best_lower": 0.29999999999999993,
  "best_lower_source": "trivial",
  "best_upper": 0.5670551120922838,
  "best_upper_source": "pinsker",
  "ratio": 1.8901837069742797
}
"""

BOUNDS_GENERAL_MIXED = """\
{
  "schema_version": 1,
  "kind": "general",
  "n": 3,
  "delta_linf": 0.29999999999999993,
  "delta_l2": 0.43874821936960606,
  "delta_l1": 0.7499999999999999,
  "lower_trivial": 0.29999999999999993,
  "lower_l2": 0.07888692984265516,
  "lower_hellinger": 0.1819473047994704,
  "lower_kl": null,
  "upper_trivial": 0.7499999999999999,
  "upper_hellinger": 0.5751432759540439,
  "upper_pinsker": 1.0,
  "upper_symmetric": null,
  "upper_affinity": null,
  "best_lower": 0.29999999999999993,
  "best_lower_source": "trivial",
  "best_upper": 0.5751432759540439,
  "best_upper_source": "hellinger",
  "ratio": 1.9171442531801468
}
"""

BOUNDS_GENERAL_MIXED_EXACT = """\
{
  "schema_version": 1,
  "kind": "general",
  "n": 3,
  "delta_linf": 0.29999999999999993,
  "delta_l2": 0.43874821936960606,
  "delta_l1": 0.7499999999999999,
  "lower_trivial": 0.29999999999999993,
  "lower_l2": 0.07888692984265516,
  "lower_hellinger": 0.1819473047994704,
  "lower_kl": null,
  "upper_trivial": 0.7499999999999999,
  "upper_hellinger": 0.5751432759540439,
  "upper_pinsker": 1.0,
  "upper_symmetric": null,
  "upper_affinity": null,
  "best_lower": 0.29999999999999993,
  "best_lower_source": "trivial",
  "best_upper": 0.5751432759540439,
  "best_upper_source": "hellinger",
  "ratio": 1.9171442531801468,
  "exact_tv": 0.4025
}
"""

BOUNDS_SYMMETRIC_PADDED_EXACT = """\
{
  "schema_version": 1,
  "kind": "bernoulli",
  "n": 4,
  "delta_linf": 0.39999999999999997,
  "delta_l2": 0.45825756949558394,
  "delta_l1": 0.7,
  "lower_trivial": 0.39999999999999997,
  "lower_l2": 0.08239471099530599,
  "lower_hellinger": 0.1065034974886584,
  "lower_kl": 0.07538775742937806,
  "upper_trivial": 0.7,
  "upper_hellinger": 0.4490701504219582,
  "upper_pinsker": 0.4690838066501174,
  "upper_symmetric": 0.4582575694955839,
  "upper_affinity": 0.44726087317113306,
  "best_lower": 0.39999999999999997,
  "best_lower_source": "trivial",
  "best_upper": 0.44726087317113306,
  "best_upper_source": "affinity",
  "ratio": 1.1181521829278327,
  "exact_tv": 0.39999999999999997
}
"""

REDUCE_GENERAL_MIXED = """\
{
  "schema_version": 1,
  "kind": "general",
  "n": 3,
  "p": [
    0.75,
    0.7,
    0.7
  ],
  "q": [
    0.5,
    0.4,
    0.5
  ],
  "witness_sets": [
    [
      1
    ],
    [
      0,
      2
    ],
    [
      2,
      3
    ]
  ]
}
"""

MC_BERNOULLI_EDGES = """\
{
  "schema_version": 1,
  "kind": "bernoulli",
  "n": 5,
  "value": 0.42082669387755106,
  "half_width": 0.0051331412368993586,
  "confidence": 0.95,
  "samples": 70000,
  "seed": 7
}
"""

SYMMETRIZE_CHANNEL_CASES = """\
{
  "schema_version": 1,
  "kind": "bernoulli",
  "n": 6,
  "gamma_hat": [
    0.391304347826087,
    0.0,
    0.39999999999999997,
    1.0,
    0.0,
    0.0
  ],
  "p_hat": [
    0.6956521739130435,
    0.5,
    0.7,
    1.0,
    0.5,
    0.5
  ],
  "q_hat": [
    0.30434782608695654,
    0.5,
    0.30000000000000004,
    0.0,
    0.5,
    0.5
  ],
  "channels": [
    [
      [
        0.0,
        1.0
      ],
      [
        0.8695652173913044,
        0.13043478260869557
      ]
    ],
    [
      [
        1.0,
        0.0
      ],
      [
        0.23076923076923078,
        0.7692307692307692
      ]
    ],
    [
      [
        1.0,
        0.0
      ],
      [
        0.0,
        1.0
      ]
    ],
    [
      [
        0.0,
        1.0
      ],
      [
        1.0,
        0.0
      ]
    ],
    [
      [
        0.5,
        0.5
      ],
      [
        0.0,
        1.0
      ]
    ],
    [
      [
        1.0,
        0.0
      ],
      [
        0.5,
        0.5
      ]
    ]
  ]
}
"""

SWEEP_RANGE = """\
n,tv_pq,tv_pq_prime_exact,tv_pq_prime_upper,gap_ratio_exact,ratio_lower,gap_ratio_over_sqrt_n
1000,0.6323045752290359,0.02522082304377445,0.03162277660168379,25.070735167190154,19.995226326690368,0.7928062574320318
31000,0.6321264924476846,0.0045316188790708355,0.005679618342470648,139.492421873151,111.2973538592926,0.7922637179064022
61000,0.6321235742544105,0.0032305180916098217,0.00404888165089458,195.67250711151803,156.12300599469137,0.7922548236283645
91000,0.6321225801534236,0.0026449494533945534,0.0033149677206589794,238.99231017142935,190.68740133245234,0.7922517937040069
"""


class TestPinnedOutput:
    @pytest.mark.parametrize("doc, command, expected", [
        (BERNOULLI_EDGES, ["bounds"], BOUNDS_BERNOULLI_EDGES),
        (GENERAL_MIXED, ["bounds"], BOUNDS_GENERAL_MIXED),
        (GENERAL_MIXED, ["bounds", "--exact"], BOUNDS_GENERAL_MIXED_EXACT),
        (SYMMETRIC_PADDED, ["bounds", "--exact"], BOUNDS_SYMMETRIC_PADDED_EXACT),
        (GENERAL_MIXED, ["reduce"], REDUCE_GENERAL_MIXED),
        (CHANNEL_CASES, ["symmetrize"], SYMMETRIZE_CHANNEL_CASES),
        (BERNOULLI_EDGES, ["mc", "--samples", "70000", "--seed", "7"], MC_BERNOULLI_EDGES),
    ], ids=["bounds-bernoulli-edges", "bounds-general-mixed",
            "bounds-general-mixed-exact", "bounds-symmetric-padded-exact", "reduce-general-mixed",
            "symmetrize-channel-cases", "mc-bernoulli-edges"])
    def test_stdout_bytes(self, tmp_path, capsys, doc, command, expected):
        path = write_instance(tmp_path, doc)
        code, out, err = run(capsys, [command[0], path, *command[1:], "--format", "json"])
        assert code == 0
        assert err == ""
        assert out == expected

    def test_mc_value_matches_its_references(self):
        """The pinned estimate is ``mc_estimate_reference``'s, drawn from the
        uniforms of np.random.default_rng(7), and lies within its Hoeffding
        half-width of the exact TV in rationals."""
        doc = json.loads(MC_BERNOULLI_EDGES)
        p, q = BERNOULLI_EDGES["p"], BERNOULLI_EDGES["q"]
        assert doc["value"] == mc_estimate_reference(p, q, doc["samples"], doc["seed"])
        exact = tv_fraction_bernoulli(p, q)
        assert abs(Fraction(doc["value"]) - exact) <= Fraction(doc["half_width"])

    def test_sweep_bytes(self, capsys):
        code, out, err = run(capsys, ["sweep", "--n-range", "1000:91000:30000"])
        assert code == 0
        assert err == ""
        assert out == SWEEP_RANGE

    def test_sweep_values_within_bound_of_mpmath(self):
        """The pinned values lie within their error bounds of mpmath: tv_pq and
        ratio_lower within those of ``_gap_scalars``, the exact TV of the
        symmetric pair within the closed form's, and the two exact ratios
        within the interval those bounds allow."""
        import mpmath

        header, *lines = SWEEP_RANGE.splitlines()
        for line in lines:
            row = dict(zip(header.split(","), line.split(",")))
            n = int(row["n"])
            prime = (0.5 + 0.5 / n, 0.5 - 0.5 / n)
            tv_pq, tv_prime = gap_tv_pq_mpmath(n), equal_marginals_mpmath(n, *prime)
            e_pq, e_prime = GAP_TV_PQ_BOUND * tv_pq, equal_marginals_error_bound(n, *prime)
            assert abs(float(row["tv_pq"]) - tv_pq) <= e_pq, n
            ratio_lower = tv_pq * mpmath.sqrt(n)
            assert (abs(float(row["ratio_lower"]) - ratio_lower)
                    <= GAP_RATIO_LOWER_BOUND * ratio_lower), n
            assert abs(float(row["tv_pq_prime_exact"]) - tv_prime) <= e_prime, n
            low = (tv_pq - e_pq) / (tv_prime + e_prime)
            high = (tv_pq + e_pq) / (tv_prime - e_prime)
            # Each float operation after the two TVs adds a relative 2**-53.
            for name, scale, ops in (("gap_ratio_exact", 1, 1),
                                     ("gap_ratio_over_sqrt_n", mpmath.sqrt(n), 3)):
                value = float(row[name]) * scale
                assert low * (1 - ops * 2.0 ** -52) <= value <= high * (1 + ops * 2.0 ** -52), \
                    (n, name)


class TestBlasThreadCount:
    def test_bounds_bytes_do_not_depend_on_it(self, tmp_path):
        """Every l2 norm is a fixed-order numpy sum, so a large instance prints
        the same bytes with one BLAS thread and with two."""
        rng = np.random.default_rng(5)
        path = write_instance(tmp_path, {"p": rng.random(100_000).tolist(),
                                         "q": rng.random(100_000).tolist()})
        outputs = []
        for threads in ("1", "2"):
            proc = subprocess.run([sys.executable, "-m", "prodtv.cli", "bounds", path],
                                  capture_output=True, timeout=300,
                                  env=fresh_env(OPENBLAS_NUM_THREADS=threads))
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]


class TestOverflowingMasses:
    def test_exit_2_with_one_stderr_line(self):
        # A fresh interpreter prints a RuntimeWarning that escapes validation.
        proc = subprocess.run([sys.executable, "-m", "prodtv.cli", "bounds", "-"],
                              input='{"P": [[1e308, 1e308]], "Q": [[0.5, 0.5]]}',
                              capture_output=True, text=True, env=fresh_env(), timeout=120)
        assert proc.returncode == EXIT_PARSE
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == ["error: -: P[0]: masses sum to inf, not 1"]


class TestExactBracketCheck:
    def near_identical(self, tmp_path):
        # TV is about 1.9e-8, but the Hellinger affinity product rounds to 1,
        # so the report's best upper bound comes out as 0.
        n = 20
        p = np.linspace(0.1, 0.9, n)
        q = p + 2e-8 / math.sqrt(n) * np.resize((1.0, -1.0), n)
        return write_instance(tmp_path, {"p": p.tolist(), "q": q.tolist()}), p, q

    def test_violated_bracket_is_domain_error(self, tmp_path, capsys):
        path, p, q = self.near_identical(tmp_path)
        exact = exact_tv_bernoulli(p, q)
        code, out, err = run(capsys, ["bounds", path, "--exact"])
        assert code == EXIT_DOMAIN
        assert out == ""
        assert "best_upper 0.0" in err
        assert repr(exact) in err

    def test_exact_below_best_lower_is_domain_error(self, tmp_path, monkeypatch, capsys):
        path = write_instance(tmp_path, {"p": [0.9, 0.3], "q": [0.2, 0.8]})
        monkeypatch.setattr(cli, "exact_tv_general", lambda *args, **kwargs: 0.0)
        code, out, err = run(capsys, ["bounds", path, "--exact"])
        assert (code, out) == (EXIT_DOMAIN, "")
        assert err.startswith("error: exact TV 0.0 lies below best_lower 0.")
        assert err.endswith("the bracket is violated\n")

    @pytest.mark.parametrize("argv, builds", [
        (["bounds", "--exact"], 1), (["exact"], 1), (["reduce"], 1), (["bounds"], 1),
        (["mc", "--samples", "10"], 0), (["symmetrize"], 0)])
    def test_pair_built_at_most_once(self, tmp_path, monkeypatch, capsys, argv, builds):
        calls = []
        build = prodtv.FiniteProductPair.from_bernoulli.__func__

        def counted(cls, p, q):
            calls.append(1)
            return build(cls, p, q)

        monkeypatch.setattr(prodtv.FiniteProductPair, "from_bernoulli", classmethod(counted))
        path = write_instance(tmp_path, {"p": [0.9, 0.3], "q": [0.2, 0.8]})
        code, _, _ = run(capsys, [argv[0], path, *argv[1:]])
        assert (code, len(calls)) == (0, builds)

    def test_bounds_alone_still_report(self, tmp_path, capsys):
        path, _, _ = self.near_identical(tmp_path)
        code, out, _ = run(capsys, ["bounds", path])
        assert code == 0
        assert json.loads(out)["best_upper"] == 0.0


class TestParserReuse:
    """One parser serves every call in a process; no call may change the next."""

    def calls(self, tmp_path):
        bern = write_instance(tmp_path, SYMMETRIC_PADDED, "bern.json")
        general = write_instance(tmp_path, GENERAL_MIXED, "general.json")
        return [
            ["bounds", bern],
            ["bounds", general, "--format", "csv"],
            ["exact", bern],
            ["mc", bern, "--samples", "2000", "--seed", "5"],
            ["mc", bern, "--format", "text"],
            ["symmetrize", bern, "--format", "text"],
            ["reduce", general],
            ["gap", "--n", "7"],
            ["gap", "--n-range", "3,9", "--format", "json"],
            ["sweep", "--n-range", "1:4"],
            ["lowther", "--weights", "1,2,3", "--threshold", "0.8"],
        ]

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_interleaved_calls_repeat_their_bytes(self, tmp_path, capsys):
        calls = self.calls(tmp_path)
        bern = calls[0][1]
        first = {}
        for _ in range(2):
            for i, argv in enumerate(calls):
                code, out, err = run(capsys, argv)
                assert (code, err) == (0, "")
                assert first.setdefault(i, out) == out, argv
                # Between calls: an argparse error and a flag-heavy bounds call.
                with pytest.raises(SystemExit):
                    main(["bounds", bern, "--format", "xml", "--exact"])
                capsys.readouterr()
                code, out, _ = run(capsys, ["bounds", bern, "--exact", "--budget", "30",
                                            "--workers", "3", "--format", "text"])
                assert code == 0 and "exact_tv" in out

    def test_flags_do_not_leak(self, tmp_path, capsys):
        bern = write_instance(tmp_path, SYMMETRIC_PADDED)
        run(capsys, ["bounds", bern, "--exact", "--budget", "4", "--format", "text"])
        code, out, _ = run(capsys, ["bounds", bern])
        assert code == 0
        doc = json.loads(out)  # JSON again, the default of bounds
        assert "exact_tv" not in doc and "warnings" not in doc
        run(capsys, ["gap", "--n", "3", "--format", "json"])
        _, out, _ = run(capsys, ["gap", "--n", "3"])
        assert out.startswith("n,tv_pq,")  # CSV again, the default of gap
        with pytest.raises(SystemExit):
            main(["exact", bern, "--budget", "x"])
        capsys.readouterr()
        code, out, _ = run(capsys, ["exact", bern, "--budget", "2"])
        assert code == EXIT_BUDGET
        code, out, _ = run(capsys, ["exact", bern])
        assert code == 0 and json.loads(out)["tv"] > 0.0


# Runs CLI commands and library calls (a string step, evaluated with prodtv in
# scope) in one fresh interpreter and prints, after each step, the scipy
# modules loaded so far.
_SCIPY_PROBE = """
import contextlib, io, json, sys

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

steps = []
import prodtv
steps.append(("import prodtv", loaded()))
import prodtv.cli
steps.append(("import prodtv.cli", loaded()))
for argv, stdin in json.loads(sys.argv[1]):
    if isinstance(argv, str):
        eval(argv, {"prodtv": prodtv})
        steps.append((argv, loaded()))
        continue
    sys.stdin = io.StringIO(stdin)
    with contextlib.redirect_stdout(io.StringIO()):
        code = prodtv.cli.main(argv)
    assert code == 0, (argv, code)
    steps.append((" ".join(argv), loaded()))
print(json.dumps(steps))
"""


def scipy_steps(calls):
    """[step, scipy modules loaded after it] pairs from one fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, json.dumps(calls)],
                          capture_output=True, text=True, env=fresh_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestScipyLoadedOnDemand:
    """Importing prodtv and running any command or bound leaves scipy unloaded:
    the library needs numpy only, and scipy is a test oracle."""

    BERN = json.dumps({"p": [0.5, 0.3, 0.9], "q": [0.1, 0.3, 0.95]})
    GENERAL = json.dumps(GENERAL_MIXED)

    def test_import_and_numpy_only_commands(self):
        steps = scipy_steps([
            (["exact", "-"], self.BERN),
            (["exact", "-"], self.GENERAL),
            (["mc", "-", "--samples", "2000"], self.BERN),
            (["gap", "--n-range", "1:5"], ""),
            (["sweep", "--n", "4"], ""),
            ("prodtv.exact_tv_equal_marginals(10 ** 6, 0.3, 0.31)", ""),
            ("prodtv.gap_ratio_exact(10 ** 6)", ""),
            (["reduce", "-"], self.BERN),
            (["reduce", "-"], self.GENERAL),
            (["symmetrize", "-"], self.BERN),
            (["lowther", "--weights", "1,2,3", "--threshold", "0.8"], ""),
            (["bounds", "-"], self.BERN),
            (["bounds", "-", "--exact"], self.GENERAL),
            ("prodtv.bounds_report(prodtv.FiniteProductPair("
             "[[0.2, 0.8], [0.5, 0.25, 0.25]], [[0.3, 0.7], [0.0, 0.5, 0.5]]))", ""),
        ])
        assert len(steps) == 16
        assert all(not modules for _, modules in steps), steps

    @pytest.mark.parametrize("argv, stdin", [
        (["bounds", "-"], BERN),
        (["sweep", "--n", "4"], ""),
        (["bounds", "-", "--exact"], GENERAL),
    ])
    def test_bounds_and_sweep_load_it(self, argv, stdin):
        """Run alone in a fresh interpreter, bounds (kl_bracket included),
        bounds --exact and sweep leave scipy unloaded at import and after
        the run."""
        (_, at_import), (_, after_import), (_, after_run) = scipy_steps([(argv, stdin)])
        assert not at_import and not after_import
        assert not after_run, after_run
