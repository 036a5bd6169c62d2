"""Command-line surface: formats, exit codes, determinism."""

import csv
import io
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import trunclc
from trunclc import cli
from trunclc.cli import MAX_LATTICE, _fmt, _fmt_all, _lattice, main
from trunclc.devroye import SampleBatch
from trunclc.families import ParameterError


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # the parser's refusals, and --help
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSample:
    def test_deep_tail_clean_exit(self, capsys):
        code, out, _ = run(capsys, "sample", "--dist", "normal", "--param", "mu=0",
                           "--param", "sigma=1", "--lower", "38", "--n", "5",
                           "--method", "devroye", "--seed", "7")
        assert code == 0
        values = [float(line) for line in out.strip().splitlines()]
        assert len(values) == 5 and all(v > 38.0 for v in values)

    def test_discrete_window(self, capsys):
        code, out, _ = run(capsys, "sample", "--dist", "poisson", "--param", "lambda=5",
                           "--lower", "12", "--upper", "14", "--n", "3",
                           "--method", "devroye", "--seed", "1")
        assert code == 0
        values = [int(line) for line in out.strip().splitlines()]
        assert len(values) == 3 and set(values) <= {13, 14}

    def test_its_overflow_exits_one(self, capsys):
        code, _, err = run(capsys, "sample", "--dist", "normal", "--lower", "10",
                           "--method", "its", "--n", "1")
        assert code == 1
        assert "error" in err

    def test_live_target_at_the_limit_samples(self, capsys):
        # log P(I) = -745.133 on this ]a, inf[, just above the limit: a live target
        code, out, err = run(capsys, "sample", "--dist", "invgauss", "--param", "mu=1",
                             "--param", "lambda=0.3", "--lower", "4887.1053931159", "--n", "5")
        assert code == 0 and "underflowed" not in err
        values = [float(line) for line in out.strip().splitlines()]
        assert len(values) == 5 and all(v > 4887.1053931159 for v in values)

    def test_unknown_family_usage_error(self, capsys):
        code, _, err = run(capsys, "sample", "--dist", "cauchy", "--n", "1")
        assert code == 64
        assert "unknown family" in err

    @pytest.mark.parametrize("param,why", [("rate=2", "unknown parameter(s) ['rate']"),
                                           ("lambda", "--param expects name=value")])
    def test_unknown_param_usage_error(self, capsys, param, why):
        code, _, err = run(capsys, "sample", "--dist", "poisson", "--param", param,
                           "--n", "1")
        assert code == 64 and why in err

    def test_tiny_gamma_shape_usage_error(self, capsys):
        code, out, err = run(capsys, "sample", "--dist", "gamma", "--param", "alpha=1e-310",
                             "--lower", "1", "--n", "1")
        assert code == 64 and out == ""
        assert "gamma" in err and "alpha" in err

    def test_degenerate_error_names_underflow(self, capsys):
        code, _, err = run(capsys, "sample", "--dist", "normal", "--lower", "800",
                           "--n", "2", "--impute", "error")
        assert code == 1
        assert "log P" in err

    def test_imputation_exits_two(self, capsys):
        code, out, _ = run(capsys, "sample", "--dist", "normal", "--lower", "800",
                           "--n", "3", "--impute", "mode", "--format", "csv")
        assert code == 2
        lines = out.strip().splitlines()
        assert lines[0] == "value,imputed"
        assert lines[1] == "800.0,true"
        assert lines[-1].startswith("# proposals=")

    @pytest.mark.parametrize("fmt", ["plain", "csv"])
    def test_discrete_output_matches_per_value_format(self, capsys, monkeypatch, fmt):
        # a discrete batch is formatted in bulk; the bytes are those of
        # ``_fmt`` per value, for 0, an imputed inf, and values past 2^53 and
        # 2^63 (past int64)
        values = np.array([0.0, 7.0, 553.0, math.inf, 2.0**53 + 2.0, 2.0**63,
                           2.0**64 + 2.0**12, 1e300, 12.0])
        imputed = np.isinf(values)
        batch = SampleBatch(values=values.copy(), imputed=imputed, proposals=40,
                            accepts=8, method="devroye")
        monkeypatch.setattr(cli, "ds_sample_batch", lambda *args: batch)
        code, out, err = run(capsys, "sample", "--dist", "poisson", "--param", "lambda=4",
                             "--lower", "2", "--n", str(values.size), "--impute", "inf",
                             "--format", fmt)
        assert code == 2
        want = [_fmt(v, True) for v in values.tolist()]
        assert want[:4] == ["0", "7", "553", "inf"] and want[5] == "9223372036854775808"
        if fmt == "plain":
            assert out == "".join(f"{w}\n" for w in want)
        else:
            flags = ["true" if f else "false" for f in imputed]
            assert out.splitlines()[1:-1] == [f"{w},{f}" for w, f in zip(want, flags)]

    def test_bulk_format_matches_per_value_format(self):
        values = np.array([0.0, -0.0, -3.0, 1.0, 2.0**53 + 2.0, -(2.0**63), 2.0**63, 2.0**70,
                           math.inf, -math.inf, math.nan, 7.5, 1e-300, 1e300])
        for discrete in (True, False):
            assert _fmt_all(values, discrete) == [_fmt(v, discrete) for v in values.tolist()]

    def test_csv_roundtrip(self, capsys):
        code, out, _ = run(capsys, "sample", "--dist", "poisson", "--param", "lambda=4",
                           "--lower", "2", "--n", "10", "--seed", "3",
                           "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
        assert len(rows) == 10
        assert all(r[1] == "false" for r in rows)
        stats = lines[-1]
        assert "accepts=10" in stats

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "sample", "--dist", "normal", "--lower", "1",
                           "--n", "4", "--seed", "5", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"meta", "rows"}
        assert doc["meta"]["seed"] == 5
        assert len(doc["rows"]) == 4
        assert all(not r["imputed"] for r in doc["rows"])

    def test_byte_identical_reruns(self, capsys):
        args = ("sample", "--dist", "normal", "--lower", "2", "--n", "50",
                "--seed", "11", "--format", "csv")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_env_var_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("TRUNCLC_SEED", "99")
        _, out_env, _ = run(capsys, "sample", "--dist", "normal", "--n", "5")
        monkeypatch.delenv("TRUNCLC_SEED")
        _, out_flag, _ = run(capsys, "sample", "--dist", "normal", "--n", "5",
                             "--seed", "99")
        assert out_env == out_flag

    def test_malformed_env_var_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("TRUNCLC_SEED", "abc")
        code, out, err = run(capsys, "sample", "--dist", "normal", "--n", "5")
        assert code == 64 and out == ""
        assert "usage error: TRUNCLC_SEED" in err

    def test_negative_seed_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "sample", "--dist", "normal", "--seed", "-1")
        assert code == 64 and out == ""
        assert "usage error: --seed" in err

    def test_negative_env_var_seed_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("TRUNCLC_SEED", "-3")
        code, out, err = run(capsys, "sample", "--dist", "normal")
        assert code == 64 and out == ""
        assert "usage error: TRUNCLC_SEED" in err

    @pytest.mark.parametrize("bounds", [
        ["--lower", "nan"],
        ["--lower", "5", "--upper", "3"],
        ["--lower", "inf"],
        ["--upper=-inf"],
    ], ids=["nan", "reversed", "inf", "upper-neg-inf"])
    def test_bounds_that_describe_no_interval_usage_error(self, capsys, bounds):
        code, out, err = run(capsys, "sample", "--dist", "normal", "--n", "2", *bounds)
        assert code == 64 and out == ""
        assert "usage error: --lower must be < --upper" in err

    def test_hitormiss_method(self, capsys):
        code, out, _ = run(capsys, "sample", "--dist", "normal", "--lower", "0",
                           "--n", "6", "--method", "hitormiss", "--seed", "2")
        assert code == 0
        assert all(float(v) > 0 for v in out.strip().splitlines())


class TestScan:
    def test_normal_scan_csv(self, capsys):
        code, out, _ = run(capsys, "scan", "--dist", "normal",
                           "--probe", "0:50:1:linear", "--method", "both",
                           "--seed", "3")
        assert code == 0
        cell = next(csv.DictReader(io.StringIO(out)))
        assert float(cell["eta"]) <= 10.0
        assert 37.0 <= float(cell["eta_prime"]) <= 39.0

    def test_grid_produces_rows(self, capsys):
        code, out, _ = run(capsys, "scan", "--dist", "poisson",
                           "--grid", "lambda=0.5:50:4:log", "--probe", "auto",
                           "--method", "devroye", "--n-probe", "200", "--seed", "1")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 4
        lam_values = [float(row["lambda"]) for row in rows]
        assert lam_values == sorted(lam_values)

    def test_logit_grid(self, capsys):
        # evenly spaced in logit(p): logit(0.1) = -logit(0.9), so the middle is 1/2
        code, out, err = run(capsys, "scan", "--dist", "binomial", "--param", "n=20",
                             "--grid", "p=0.1:0.9:3:logit", "--probe", "0:3:1",
                             "--method", "devroye", "--n-probe", "20", "--seed", "1")
        assert code == 0, err
        p = [float(row["p"]) for row in csv.DictReader(io.StringIO(out))]
        assert p == pytest.approx([0.1, 0.5, 0.9], rel=1e-15)

    def test_out_file_and_json(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run(capsys, "scan", "--dist", "normal",
                           "--probe", "0:12:1:linear", "--method", "its",
                           "--n-probe", "200", "--seed", "4",
                           "--format", "json", "--out", str(path))
        assert code == 0 and out == ""
        doc = json.loads(path.read_text())
        assert doc["meta"]["family"] == "normal"

    def test_unwritable_out_is_a_runtime_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "scan", "--dist", "normal", "--probe", "0:3:1",
                             "--n-probe", "5", "--out", str(tmp_path / "missing" / "x.csv"))
        assert code == 1 and out == ""
        assert err.startswith("trunclc: error: ") and "Traceback" not in err

    def test_bad_probe_spec(self, capsys):
        code, _, err = run(capsys, "scan", "--dist", "normal", "--probe", "oops")
        assert code == 64

    @pytest.mark.parametrize("probe", ["0:3:0", "0:3:-1", "0:3:nan"])
    def test_probe_step_must_be_positive(self, capsys, probe):
        code, out, err = run(capsys, "scan", "--dist", "normal", "--probe", probe,
                             "--n-probe", "20")
        assert code == 64 and out == ""
        assert "--probe step must be > 0" in err

    @pytest.mark.parametrize("argv,flag", [
        (["--probe", "a:3:1"], "--probe"),
        (["--grid", "lambda=2:20:x:log"], "--grid"),
        (["--grid", "lambda=2:20:0:log"], "--grid"),
        (["--grid", "lambda=2:20:-1:log"], "--grid"),
        (["--grid", "lambda=2:20:3"], "--grid"),
    ])
    def test_malformed_numeric_field_usage_error(self, capsys, argv, flag):
        code, out, err = run(capsys, "scan", "--dist", "poisson", "--param", "lambda=2",
                             "--n-probe", "20", *argv)
        assert code == 64 and out == ""
        assert f"usage error: {flag}" in err

    @pytest.mark.parametrize("argv,flag", [
        (["--dist", "poisson", "--grid", "lambda=0:20:3:log", "--probe", "0:3:1"], "--grid"),
        (["--dist", "binomial", "--param", "n=10", "--grid", "p=0.1:2:3:logit",
          "--probe", "0:3:1"], "--grid"),
        (["--dist", "poisson", "--grid", "lambda=2:20:3:log",
          "--grid", "lambda=1:2:2:linear", "--probe", "0:3:1"], "--grid"),
        (["--dist", "normal", "--probe", "5:1:1"], "--probe"),
        (["--dist", "poisson", "--grid", "lambda=2:20:3:cubic", "--probe", "0:3:1"], "--grid"),
    ])
    def test_out_of_domain_usage_error(self, capsys, argv, flag):
        code, out, err = run(capsys, "scan", "--n-probe", "20", *argv)
        assert code == 64 and out == ""
        assert f"usage error: {flag}" in err

    @pytest.mark.parametrize("argv,flag", [
        (["--dist", "normal", "--probe", "0:inf:1"], "--probe"),
        (["--dist", "normal", "--probe", "0:3:inf"], "--probe"),
        (["--dist", "normal", "--probe=-inf:3:1"], "--probe"),
        (["--dist", "poisson", "--grid", "lambda=1:inf:3:log", "--probe", "0:3:1"], "--grid"),
        (["--dist", "poisson", "--grid=lambda=-inf:3:2:linear", "--probe", "0:3:1"],
         "--grid"),
    ])
    def test_non_finite_end_usage_error(self, capsys, recwarn, argv, flag):
        code, out, err = run(capsys, "scan", "--n-probe", "20", *argv)
        assert code == 64 and out == ""
        assert f"usage error: {flag}" in err
        assert len(recwarn) == 0

    @pytest.mark.parametrize("command", [
        ["scan", "--dist", "normal", "--n-probe", "20", "--probe"],
        ["validate", "ztest", "--dist", "normal", "--n", "100", "--lower-grid"],
    ])
    @pytest.mark.parametrize("spec,why", [
        ("0:1e12:1", "more than 1048576 points"),
        ("1e17:1.0000000000000002e17:1", "below the spacing of doubles"),
        ("9007199254740990:9007199254740996:1", "below the spacing of doubles"),
    ])
    def test_lattice_usage_error(self, capsys, monkeypatch, command, spec, why):
        # the count is checked before numpy allocates: no test builds the
        # huge lattice
        arange = np.arange

        def bounded_arange(start, stop, step):
            assert (stop - start) / step <= MAX_LATTICE
            return arange(start, stop, step)

        monkeypatch.setattr(np, "arange", bounded_arange)
        code, out, err = run(capsys, *command, spec)
        assert code == 64 and out == ""
        assert f"usage error: {command[-1]}" in err and why in err

    def test_lattice_point_limit(self):
        assert _lattice("--probe", ["0", str(MAX_LATTICE - 1), "1"]).size == MAX_LATTICE
        with pytest.raises(ParameterError, match="more than"):
            _lattice("--probe", ["0", str(MAX_LATTICE), "1"])

    @pytest.mark.parametrize("beta", ["1.5", "3"])
    def test_epd_geometric_scan_exits_zero(self, capsys, beta):
        # the geometric schedule takes log S(a) of the epd to a ~ 1e17, where
        # the incomplete-gamma continued fraction settles one ulp below 1
        code, out, err = run(capsys, "scan", "--dist", "epd", "--param", f"beta={beta}",
                             "--probe", "geometric-progression", "--n-probe", "20")
        assert code == 0, err
        cell = next(csv.DictReader(io.StringIO(out)))
        assert float(cell["a_bar_prime"]) > float(cell["a_bar"]) > 0.0

    def test_grid_values_reported_as_floats(self, capsys):
        code, _, err = run(capsys, "scan", "--dist", "poisson", "--n-probe", "20",
                           "--grid", "lambda=-1:20:3:linear", "--probe", "0:3:1")
        assert code == 64
        assert "lambda=-1.0 " in err

    def test_n_probe_below_one_usage_error(self, capsys):
        code, out, err = run(capsys, "scan", "--dist", "normal", "--n-probe", "0",
                             "--probe", "0:3:1")
        assert code == 64 and out == ""
        assert "--n-probe must be >= 1" in err


QQ = ["validate", "qq", "--dist", "normal", "--lower", "3", "--n", "50"]
MEMORYLESS = ["validate", "memoryless", "--dist", "geometric", "--param", "p=0.3",
              "--lower", "3", "--n", "50"]
ZTEST = ["validate", "ztest", "--dist", "normal", "--n", "50"]


class TestValidate:
    @pytest.mark.parametrize("command", [QQ, MEMORYLESS], ids=["qq", "memoryless"])
    @pytest.mark.parametrize("flag,value", [
        ("--method", "its"), ("--z-threshold", "2"), ("--lower-grid", "1:2:1"),
    ])
    def test_flag_of_another_test_is_refused(self, capsys, command, flag, value):
        code, out, err = run(capsys, *command, flag, value)
        assert code == 64 and out == ""
        assert f"unrecognized arguments: {flag} {value}" in err

    @pytest.mark.parametrize("lowers", [["--lower", "3", "--lower-grid", "1:2:1"], []],
                             ids=["both", "neither"])
    def test_ztest_takes_exactly_one_of_lower_and_lower_grid(self, capsys, lowers):
        code, out, err = run(capsys, *ZTEST, *lowers)
        assert code == 64 and out == ""
        assert "usage: trunclc validate ztest" in err and "--lower-grid" in err

    @pytest.mark.parametrize("command", [ZTEST + ["--lower", "3"], QQ, MEMORYLESS],
                             ids=["ztest", "qq", "memoryless"])
    def test_n_below_one_usage_error(self, capsys, command):
        code, out, err = run(capsys, *command, "--n", "0")
        assert code == 64 and out == ""
        assert "usage error: --n must be >= 1, got 0" in err

    @pytest.mark.parametrize("command,lower", [
        (ZTEST, "nan"), (ZTEST, "inf"), (MEMORYLESS, "inf"), (MEMORYLESS, "nan"),
    ], ids=["ztest-nan", "ztest-inf", "memoryless-inf", "memoryless-nan"])
    def test_lower_must_be_finite(self, capsys, command, lower):
        code, out, err = run(capsys, *command, "--lower", lower)
        assert code == 64 and out == ""
        assert f"argument --lower: expected a finite number, got '{lower}'" in err

    def test_memoryless_needs_the_geometric_family(self, capsys):
        code, out, err = run(capsys, "validate", "memoryless", "--dist", "poisson",
                             "--param", "lambda=2", "--lower", "3", "--n", "50")
        assert code == 64 and out == ""
        assert "memoryless test is defined for the geometric family" in err

    def test_huge_memoryless_lower_prints_as_given(self, capsys):
        # a finite lower bound past the sampler's reach fails at run time,
        # naming the bound as parsed, not as a 301-digit integer
        code, out, err = run(capsys, *MEMORYLESS, "--lower", "1e300")
        assert code == 1 and out == ""
        assert "geometric(0.3) on ]1e+300, inf[ has underflowed mass" in err

    def test_flags_before_the_test_name_are_refused(self, capsys):
        code, out, _ = run(capsys, "validate", "--dist", "normal", "ztest", "--lower", "3")
        assert code == 64 and out == ""

    @pytest.mark.parametrize("grid", ["0:2:0", "0:2:-1"])
    def test_lower_grid_step_must_be_positive(self, capsys, grid):
        code, out, err = run(capsys, "validate", "ztest", "--dist", "normal",
                             "--lower-grid", grid, "--n", "100")
        assert code == 64 and out == ""
        assert "--lower-grid step must be > 0" in err

    @pytest.mark.parametrize("grid", ["0:b:1", "0:2"])
    def test_malformed_lower_grid_usage_error(self, capsys, grid):
        code, out, err = run(capsys, "validate", "ztest", "--dist", "normal",
                             "--lower-grid", grid, "--n", "100")
        assert code == 64 and out == ""
        assert "usage error: --lower-grid" in err

    @pytest.mark.parametrize("grid", ["-inf:3:1", "0:inf:1", "0:3:inf"])
    def test_non_finite_lower_grid_usage_error(self, capsys, recwarn, grid):
        code, out, err = run(capsys, "validate", "ztest", "--dist", "normal",
                             f"--lower-grid={grid}", "--n", "100")
        assert code == 64 and out == ""
        assert "usage error: --lower-grid" in err
        assert len(recwarn) == 0

    def test_empty_lower_grid_usage_error(self, capsys):
        code, out, err = run(capsys, "validate", "ztest", "--dist", "normal",
                             "--lower-grid", "5:1:1", "--n", "100")
        assert code == 64 and out == ""
        assert "usage error: --lower-grid" in err
        code, out, _ = run(capsys, "validate", "ztest", "--dist", "normal",
                           "--lower-grid", "1:1:1", "--n", "200", "--seed", "3")
        assert code == 0 and len(out.strip().splitlines()) == 2

    def test_ztest_single_cell(self, capsys):
        code, out, _ = run(capsys, "validate", "ztest", "--dist", "poisson",
                           "--param", "lambda=5", "--lower", "12", "--n", "20000",
                           "--seed", "8")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("test,family,params,lower")
        assert lines[1].endswith("pass")

    def test_ztest_its_method_fails_past_the_quantile_route(self, capsys):
        # the quantile route overflows at ten sigma: that cell fails, the
        # others pass, and the exit code reports the failure
        code, out, err = run(capsys, "validate", "ztest", "--dist", "normal",
                             "--lower-grid", "0:10:5", "--method", "its",
                             "--n", "1000", "--seed", "1")
        assert code == 1
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["verdict"] for r in rows] == ["pass", "pass", "fail"]
        assert "cells=3 failed=1 excluded=0" in err

    def test_ztest_grid_and_json(self, capsys):
        code, out, _ = run(capsys, "validate", "ztest", "--dist", "normal",
                           "--lower-grid", "0:2:1", "--n", "5000", "--seed", "9",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["rows"]) == 3
        assert all(r["verdict"] == "pass" for r in doc["rows"])

    def test_qq_emits_table_and_ks(self, capsys):
        code, out, _ = run(capsys, "validate", "qq", "--dist", "normal",
                           "--lower", "38.45", "--n", "20000", "--seed", "10")
        assert code == 0
        lines = out.strip().splitlines()
        assert len([l for l in lines if not l.startswith(("test", "#"))]) == 99
        assert lines[-1].startswith("# ks_statistic=")

    @pytest.mark.parametrize("lower", ["0", "-2"])
    def test_qq_threshold_at_or_below_zero_is_a_usage_error(self, capsys, lower):
        code, out, err = run(capsys, "validate", "qq", "--dist", "normal",
                             "--lower", lower, "--n", "50", "--seed", "10")
        assert code == 64
        assert out == ""
        assert "--lower" in err

    @pytest.mark.parametrize("dist", [["normal", "--lower", "40"],
                                      ["gamma", "--param", "alpha=2", "--lower", "800"]],
                             ids=["normal", "gamma"])
    def test_qq_with_every_variate_imputed_exits_one(self, capsys, dist):
        # degenerate targets: the policy imputes every variate
        code, out, err = run(capsys, "validate", "qq", "--dist", *dist, "--n", "100")
        assert code == 1 and out == ""
        assert err == "trunclc: error: need at least 2 non-imputed values for a tail Q-Q\n"

    def test_memoryless_pass(self, capsys):
        code, out, _ = run(capsys, "validate", "memoryless", "--dist", "geometric",
                           "--param", "p=0.5", "--lower", "20", "--n", "50000",
                           "--seed", "11")
        assert code == 0
        assert out.strip().splitlines()[1].endswith("pass")

    def test_ztest_untestable_cells_excluded(self, capsys):
        # beyond the sampler's own breakdown the row is marked, the exit
        # code ignores it
        code, out, err = run(capsys, "validate", "ztest", "--dist", "normal",
                             "--lower", "50", "--n", "100", "--seed", "12")
        assert code == 0
        assert "degenerate_target" in out
        assert "excluded=1" in err
        # an oracle failure is likewise excluded (poisson oracle collapses
        # once the survival ratio loses all digits)
        code2, out2, _ = run(capsys, "validate", "ztest", "--dist", "poisson",
                             "--param", "lambda=5", "--lower", "1e300",
                             "--n", "100", "--seed", "13")
        assert code2 == 0
        assert "oracle_unavailable" in out2

    def test_interval_beyond_the_support_has_no_oracle(self, capsys):
        code, out, _ = run(capsys, "validate", "ztest", "--dist", "binomial",
                           "--param", "n=20", "--param", "p=0.5", "--lower", "20",
                           "--n", "100", "--seed", "14")
        assert code == 0
        assert out.strip().splitlines()[1].endswith("oracle_unavailable")


HELP_FLAGS = {
    (): set(),
    ("sample",): {"--dist", "--param", "--seed", "--lower", "--upper", "--n", "--method",
                  "--impute", "--format"},
    ("scan",): {"--dist", "--param", "--seed", "--format", "--grid", "--probe", "--method",
                "--n-probe", "--out"},
    ("validate",): set(),
    ("validate", "ztest"): {"--dist", "--param", "--seed", "--format", "--n", "--lower",
                            "--lower-grid", "--method", "--z-threshold"},
    ("validate", "qq"): {"--dist", "--param", "--seed", "--format", "--n", "--lower"},
    ("validate", "memoryless"): {"--dist", "--param", "--seed", "--format", "--n", "--lower"},
}


@pytest.mark.parametrize("command", sorted(HELP_FLAGS), ids=lambda c: "-".join(["trunclc", *c]))
def test_help_lists_only_the_parsers_own_flags(capsys, command):
    # argparse finds two parsers declaring one flag only when it builds them
    code, out, _ = run(capsys, *command, "--help")
    assert code == 0
    assert out.startswith(" ".join(["usage: trunclc", *command]))
    options = out.split("\noptions:\n")[1]
    listed = set(re.findall(r"^  (?:-h, )?(--[\w-]+)", options, flags=re.M))
    assert listed == HELP_FLAGS[command] | {"--help"}


def test_import_and_devroye_sample_leave_scipy_stats_unimported():
    # scipy.stats and scipy.integrate are imported on first use: only the
    # quantiles, the oracles' quadrature and two tests read them
    script = (
        "import sys\n"
        "import trunclc.cli\n"
        "lazy = ('scipy.stats', 'scipy.integrate')\n"
        "assert not any(m in sys.modules for m in lazy), 'import'\n"
        "code = trunclc.cli.main(['sample', '--dist', 'poisson', '--param', 'lambda=50',\n"
        "                         '--lower', '60', '--n', '1000', '--method', 'devroye',\n"
        "                         '--seed', '1'])\n"
        "assert code == 0, code\n"
        "assert not any(m in sys.modules for m in lazy), 'sample'\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(trunclc.__file__)))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
