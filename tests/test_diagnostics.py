"""Oracles, validation statistics, and the safety scanner."""

import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import time

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate
from scipy import stats as st

from trunclc import (
    ImputationPolicy,
    OracleUnavailable,
    RngStream,
    TruncationInterval,
    brute_force_truncated_moments,
    build_descriptor,
    chi_square_gof,
    ds_sample_batch,
    exp_tail_qq,
    its_sample_batch,
    memorylessness_check,
    scan_safety,
    truncate,
    truncated_mean_oracle,
    truncated_mean_oracle_normal,
    truncated_mean_oracle_poisson,
    z_test_mean,
)
from trunclc import diagnostics
from trunclc.core import support_bounds, tail_targets
from trunclc.devroye import SampleBatch
from trunclc.diagnostics import (
    SafetyReport,
    ScanCell,
    _breakdown,
    _classify,
    _its_schedule,
    _live,
    auto_probes,
    format_table,
    geometric_probes,
)


class TestNormalMeanOracle:
    def test_half_normal(self):
        assert truncated_mean_oracle_normal(0.0) == pytest.approx(
            0.7978845608028654, abs=1e-12)

    def test_no_truncation_limit(self):
        assert truncated_mean_oracle_normal(-40.0) == pytest.approx(0.0, abs=1e-300)

    def test_deep_value_vs_mills_oracle(self):
        # mpmath 50 digits: npdf(38.45)/ncdf(-38.45) = 38.475972737085262...
        assert truncated_mean_oracle_normal(38.45) == pytest.approx(
            38.475972737085262, rel=1e-12)

    def test_branches_agree_at_switch_point(self):
        # both evaluation routes at a = 8 itself
        from trunclc.diagnostics import _mills_reciprocal_cf
        import scipy.special as sc
        a = 8.0
        log_route = math.exp(-0.5 * a * a - 0.5 * math.log(2 * math.pi) - sc.log_ndtr(-a))
        cf_route = _mills_reciprocal_cf(a)
        assert log_route == pytest.approx(cf_route, rel=1e-12)

    def test_monotone_sanity_stays_above_a(self):
        for a in [0.0, 5.0, 12.0, 100.0, 12_000.0, 1e6]:
            assert truncated_mean_oracle_normal(a) > a

    def test_agrees_with_brute_force(self):
        d = build_descriptor("normal", mu=0, sigma=1)
        for a in [0.0, 1.0, 2.0, 5.0, 8.0]:
            mean, _ = brute_force_truncated_moments(d, TruncationInterval(a, math.inf))
            assert truncated_mean_oracle_normal(a) == pytest.approx(mean, rel=1e-8)


class TestPoissonMeanOracle:
    def test_unit_rate_above_zero(self):
        # closed form: 1 / (1 - e^-1) = 1.5819767068693265
        assert truncated_mean_oracle_poisson(1.0, 0) == pytest.approx(
            1.5819767068693265, rel=1e-12)

    def test_matches_brute_summation(self):
        d = build_descriptor("poisson", {"lambda": 5.0})
        ks = np.arange(13, 300, dtype=float)
        w = np.exp(np.asarray(d.log_pdf(ks), dtype=float))
        want = float((ks * w).sum() / w.sum())
        assert truncated_mean_oracle_poisson(5.0, 12) == pytest.approx(want, rel=1e-10)

    def test_no_truncation(self):
        assert truncated_mean_oracle_poisson(5.0, -1) == 5.0

    def test_unavailable_when_survival_underflows(self):
        with pytest.raises(OracleUnavailable):
            truncated_mean_oracle_poisson(5.0, 10**300)

    def test_agrees_with_brute_force_oracle(self):
        d = build_descriptor("poisson", {"lambda": 3.0})
        for a in [0, 2, 5, 10]:
            mean, _ = brute_force_truncated_moments(d, TruncationInterval(a, math.inf))
            assert truncated_mean_oracle_poisson(3.0, a) == pytest.approx(mean, rel=1e-8)


class TestBruteForceMoments:
    def test_full_standard_normal(self):
        d = build_descriptor("normal", mu=0, sigma=1)
        mean, sd = brute_force_truncated_moments(d, TruncationInterval())
        assert mean == pytest.approx(0.0, abs=1e-9)
        assert sd == pytest.approx(1.0, abs=1e-9)

    def test_poisson_window_hand_sum(self):
        d = build_descriptor("poisson", {"lambda": 3.0})
        mean, _ = brute_force_truncated_moments(d, TruncationInterval(4.0, 9.0))
        pmf = st.poisson.pmf(np.arange(5, 10), 3.0)
        want = (np.arange(5, 10) * pmf).sum() / pmf.sum()
        assert mean == pytest.approx(float(want), rel=1e-10)

    def test_geometric_memoryless_shift(self):
        # oracle(a) must equal floor(a) + 1 + (1-p)/p by lack of memory
        d = build_descriptor("geometric", p=0.5)
        mean, _ = brute_force_truncated_moments(d, TruncationInterval(2.0, math.inf))
        assert mean == pytest.approx(2 + 1 + 1.0, rel=1e-10)

    @pytest.mark.parametrize("a", [0.5, 5.0, 50.0])
    def test_gamma_two_tail_closed_form(self, a):
        # X | X > a for gamma(2, 1): density x e^-x / ((a + 1) e^-a)
        d = build_descriptor("gamma", {"alpha": 2.0})
        mean, sd = brute_force_truncated_moments(d, TruncationInterval(a, math.inf))
        assert type(mean) is float and type(sd) is float
        assert mean == pytest.approx((a * a + 2 * a + 2) / (a + 1), rel=1e-12)
        second = (a**3 + 3 * a * a + 6 * a + 6) / (a + 1)
        assert sd * sd + mean * mean == pytest.approx(second, rel=1e-12)

    def test_normal_deep_tail_variance(self):
        # var = 1 + a lam - lam^2 with lam = phi(a) / Q(a), at 50 digits; the
        # raw second moment (~900) is far larger than the variance (~1e-3)
        a = 30.0
        with mp.workdps(50):
            lam = mp.npdf(a) / mp.ncdf(-a)
            want = float(1 + a * lam - lam * lam)
        mean, sd = brute_force_truncated_moments(build_descriptor("normal"),
                                                 TruncationInterval(a, math.inf))
        assert type(mean) is float and type(sd) is float
        assert abs(sd * sd - want) <= 1e-12 * want

    @staticmethod
    def quad_vec_moments(desc, interval):
        # the same window, shift and centring, integrated by scipy's quad_vec
        lo, hi = support_bounds(desc, interval)
        w0 = max(lo, desc.mu - 60.0 * desc.sigma)
        w1 = min(hi, desc.mu + 60.0 * desc.sigma)
        c = float(max(w0, min(w1, desc.mode)))
        shift = desc.log_pdf(c)
        if not math.isfinite(shift):
            shift = float(np.max(desc.log_pdf(np.linspace(w0, w1, 101)[1:-1])))
        powers = np.arange(3)
        (z, m1, m2), _ = integrate.quad_vec(
            lambda x: (x - c) ** powers * math.exp(desc.log_pdf(x) - shift),
            w0, w1, limit=400, epsabs=1e-14, epsrel=1e-11)
        m1, m2 = m1 / z, m2 / z
        return c + m1, math.sqrt(max(m2 - m1 * m1, 0.0))

    @pytest.mark.parametrize("family,params,a,rel", [
        ("gamma", {"alpha": 2.0}, 0.5, 1e-12),
        ("gamma", {"alpha": 2.0}, 5.0, 1e-12),
        ("gamma", {"alpha": 2.0}, 50.0, 1e-12),
        ("epd", {"beta": 1.5}, 3.0, 1e-12),
        ("epd", {"beta": 3.0}, 0.0, 1e-12),
        ("gamma", {"alpha": 0.5}, 0.5, 1e-12),
        ("invgauss", {"mu": 1.0, "lambda": 0.3}, 0.5, 1e-12),
        ("invgauss", {"mu": 1.0, "lambda": 2.0}, 3.0, 1e-12),
        ("normal", {}, 5.0, 1e-12),
        ("normal", {}, 37.0, 1e-12),
        # singular at 0: both rules stop on their error estimates there
        ("gamma", {"alpha": 0.5}, -math.inf, 1e-10),
    ])
    def test_agrees_with_quad_vec(self, family, params, a, rel):
        d = build_descriptor(family, params)
        interval = TruncationInterval(a, math.inf)
        mean, sd = brute_force_truncated_moments(d, interval)
        want_mean, want_sd = self.quad_vec_moments(d, interval)
        assert abs(mean - want_mean) <= rel * abs(want_mean)
        assert abs(sd - want_sd) <= rel * want_sd

    def test_stops_at_the_interval_cap(self):
        # 1/x on ]0, 1] has no integral: the estimate at the cap is returned
        calls = []

        def f(x):
            calls.append(x.size)
            return (1.0 / x)[:, None]

        got = diagnostics._integrate(f, 0.0, 1.0)
        # two halves to start, then two new intervals for each one bisected
        assert (sum(calls) // 21 + 2) // 2 == diagnostics.QUAD_LIMIT
        assert got.shape == (1,) and math.isfinite(got[0])

    def test_the_oracle_leaves_scipy_integrate_unimported(self):
        script = (
            "import sys\n"
            "from trunclc import build_descriptor, truncated_mean_oracle\n"
            "truncated_mean_oracle(build_descriptor('gamma', {'alpha': 2.0}), 5.0)\n"
            "assert 'scipy.integrate' not in sys.modules\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(diagnostics.__file__)))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True)
        assert done.returncode == 0, done.stderr


class TestZTest:
    def test_degenerate_zero_z(self):
        batch = SampleBatch(values=np.full(100, 3.0), imputed=np.zeros(100, bool),
                            proposals=100, accepts=100, method="devroye")
        res = z_test_mean(batch, 3.0)
        assert res.z == 0.0 and res.passed

    def test_poisson_deep_cell(self):
        d = build_descriptor("poisson", {"lambda": 5.0})
        t = truncate(d, lower=12.0)
        batch = ds_sample_batch(t, 100_000, RngStream(50))
        res = z_test_mean(batch, truncated_mean_oracle_poisson(5.0, 12), threshold=3.5)
        assert res.passed, res.z

    def test_imputed_values_excluded_and_counted(self):
        vals = np.array([1.0, 2.0, 3.0, 99.0])
        imp = np.array([False, False, False, True])
        batch = SampleBatch(values=vals, imputed=imp, proposals=10, accepts=3,
                            method="devroye")
        res = z_test_mean(batch, 2.0)
        assert res.n == 3 and res.n_imputed == 1
        assert res.sample_mean == pytest.approx(2.0)


class TestChiSquareGof:
    @pytest.mark.parametrize("support,probs", [
        ([], []),
        ([0.0, 1.0, 2.0], [0.5, 0.5]),
        ([0.0, 1.0], [0.2, 0.3, 0.5]),
    ], ids=["empty", "short-probs", "short-support"])
    def test_support_and_probs_of_one_nonzero_length(self, support, probs):
        with pytest.raises(ValueError, match="support and probs"):
            chi_square_gof(np.array([1.0, 2.0]), np.array(support), np.array(probs))

    @staticmethod
    def per_point_gof(observed, support, probs, alpha=0.001):
        # one pass over the sample per support point, the rest as the module
        n = observed.size
        counts = np.array([(observed == k).sum() for k in support], dtype=float)
        exp_counts, obs_counts = list(n * probs), list(counts)
        exp_counts[-1] += n * max(0.0, 1.0 - probs.sum())
        obs_counts[-1] += n - counts.sum()
        while len(exp_counts) > 2 and exp_counts[-1] < 5.0:
            exp_counts[-2] += exp_counts.pop()
            obs_counts[-2] += obs_counts.pop()
        exp_arr, obs_arr = np.array(exp_counts), np.array(obs_counts)
        keep = exp_arr > 0
        stat = float(((obs_arr[keep] - exp_arr[keep]) ** 2 / exp_arr[keep]).sum())
        return stat, int(keep.sum() - 1)

    @pytest.mark.parametrize("seed", range(4))
    def test_counts_equal_the_per_point_loop(self, seed):
        # duplicates throughout, and values above the support joining the last cell
        rng = np.random.default_rng(seed)
        observed = rng.poisson(20.0, size=5_000).astype(float)
        support = np.arange(10.0, 10.0 + 8 + 4 * seed)
        probs = np.exp(st.poisson.logpmf(support, 20.0))
        probs /= probs.sum() * 1.05
        observed = np.maximum(observed, support[0])
        assert (observed > support[-1]).any()
        res = chi_square_gof(observed, support, probs)
        assert (res.statistic, res.df) == self.per_point_gof(observed, support, probs)
        assert res.n == observed.size

    @pytest.mark.parametrize("support", [
        [0.0, 2.0, 3.0], [0.5, 1.5, 2.5], [3.0, 2.0, 1.0], [1.0, 1.0, 2.0], [math.nan, 1.0, 2.0],
    ], ids=["gap", "half-integers", "decreasing", "repeated", "nan"])
    def test_a_support_of_other_than_consecutive_integers_raises(self, support):
        with pytest.raises(ValueError, match="consecutive integers"):
            chi_square_gof(np.array([1.0, 2.0]), np.array(support), np.full(3, 1 / 3))

    def test_one_cell_left_passes_a_perfect_sample(self):
        # binomial(16, 1/2) on ]15, 16] has the one support point 16
        t = truncate(build_descriptor("binomial", {"n": 16, "p": 0.5}), lower=15.0, upper=16.0)
        b = ds_sample_batch(t, 1000, RngStream(1))
        support = np.arange(b.values.min(), b.values.max() + 1)
        res = chi_square_gof(b.values, support, np.exp(t.log_pdf(support)))
        assert (res.statistic, res.df, res.critical, res.passed) == (0.0, 0, 0.0, True)

    @pytest.mark.parametrize("stray", [0.0, 5.5, math.nan], ids=["below", "between", "nan"])
    def test_an_observation_off_the_support_fails(self, stray):
        observed = np.concatenate([np.full(50, stray), np.full(50, 5.0)])
        res = chi_square_gof(observed, np.array([5.0, 6.0]), np.array([0.5, 0.5]))
        assert res.statistic == math.inf and not res.passed

    def test_an_observation_in_a_cell_of_probability_zero_fails(self):
        observed = np.repeat([5.0, 6.0, 7.0], [40, 20, 40])
        res = chi_square_gof(observed, np.arange(5.0, 8.0), np.array([0.5, 0.0, 0.5]))
        assert res.statistic == math.inf and not res.passed


class TestExpTailQQ:
    def test_synthetic_exponential_null(self):
        a = 38.45
        rng = np.random.default_rng(60)
        vals = a + rng.exponential(1.0 / a, size=100_000)
        batch = SampleBatch(values=vals, imputed=np.zeros(vals.size, bool),
                            proposals=vals.size, accepts=vals.size, method="devroye")
        qq = exp_tail_qq(batch, a)
        assert qq.ks_statistic < 1.36 / math.sqrt(vals.size) * 1.5
        assert qq.percentiles.size == 99
        # quantile pairs agree within a tight band under the null
        assert np.max(np.abs(qq.empirical - qq.theoretical)) < 0.2 / a

    def test_moderate_depth_has_bounded_error(self):
        # at a = 10 the approximation error is of order 1/a^2
        t = truncate(build_descriptor("normal", mu=0, sigma=1), lower=10.0)
        batch = ds_sample_batch(t, 100_000, RngStream(61))
        qq = exp_tail_qq(batch, 10.0)
        assert 0.0 < qq.ks_statistic < 0.02


    @pytest.mark.parametrize("a", [0.0, -2.0, math.inf, math.nan])
    def test_threshold_outside_the_positive_reals_raises(self, a):
        # at a = 0 every theoretical quantile was inf, and below 0 negative
        batch = SampleBatch(values=np.array([1.0, 2.0, 3.0]), imputed=np.zeros(3, bool),
                            proposals=3, accepts=3, method="devroye")
        with pytest.raises(ValueError, match="threshold 0 < a < inf"):
            exp_tail_qq(batch, a)

    @pytest.mark.parametrize("imputed", [[True, True, True], [True, False, True]])
    def test_fewer_than_two_unimputed_values_raise(self, imputed):
        # rather than the IndexError np.quantile raises on an empty excess
        batch = SampleBatch(values=np.array([1.0, 2.0, 3.0]), imputed=np.array(imputed),
                            proposals=3, accepts=3 - sum(imputed), method="devroye")
        with pytest.raises(ValueError, match="at least 2 non-imputed values"):
            exp_tail_qq(batch, 0.5)

    @pytest.mark.parametrize("n", [2, 400, 100_000])
    @pytest.mark.parametrize("a", [0.5, 3.0, 10.0, 30.0])
    def test_equals_quantile_and_kstest_on_the_unsorted_excess(self, a, n):
        t = truncate(build_descriptor("normal"), lower=a)
        batch = ds_sample_batch(t, n, RngStream(int(10 * a) + n))
        if n == 400:
            batch.imputed[::7] = True
        qq = exp_tail_qq(batch, a)
        excess = batch.values[~batch.imputed] - a
        ks = st.kstest(excess, lambda y: -np.expm1(-a * np.asarray(y))).statistic
        assert qq.empirical.tobytes() == np.quantile(excess, qq.percentiles).tobytes()
        assert qq.theoretical.tobytes() == (-np.log1p(-qq.percentiles) / a).tobytes()
        assert qq.ks_statistic == float(ks) and qq.n == excess.size


class TestMemorylessness:
    def test_moderate_truncation(self):
        res = memorylessness_check(0.5, 20, 100_000, RngStream(70))
        assert res.passed, (res.statistic, res.critical)

    def test_no_truncation(self):
        res = memorylessness_check(0.5, -1, 100_000, RngStream(71))
        assert res.passed

    def test_deep_truncation_beyond_its_range(self):
        # log survival at 200 is ~ 201 log(0.1) ~ -463: representable, so the
        # rejection sampler still reflects lack of memory out here
        res = memorylessness_check(0.9, 200, 100_000, RngStream(72))
        assert res.passed


class TestFormatTable:
    COLUMNS = ["flag", "count", "x", "nan", "inf"]
    ROWS = [{"flag": True, "count": 3, "x": 0.1, "nan": math.nan, "inf": -math.inf},
            {"flag": False, "count": 7, "x": np.float64(1e-300)}]

    def test_csv_cells(self):
        assert format_table("csv", self.COLUMNS, self.ROWS) == (
            "flag,count,x,nan,inf\n"
            "true,3,0.1,nan,-inf\n"
            "false,7,1e-300,,\n")

    def test_json_document(self):
        text = format_table("json", self.COLUMNS, self.ROWS, meta={"seed": 4})
        assert text.endswith("}\n")
        doc = json.loads(text)
        assert doc["meta"] == {"seed": 4}
        first, second = doc["rows"]
        assert first["flag"] is True and first["count"] == 3 and first["x"] == 0.1
        assert math.isnan(first["nan"]) and first["inf"] == -math.inf
        assert second == {"flag": False, "count": 7, "x": 1e-300}


@pytest.fixture(scope="module")
def normal_report():
    return scan_safety("normal", probe_schedule=np.arange(0.0, 51.0),
                       method="both", n_probe=1000, seed=3)


class TestScanner:

    def test_normal_breakdown_bands(self, normal_report):
        cell = normal_report.rows[0]
        assert cell.eta <= 10.0
        assert 37.0 <= cell.eta_prime <= 39.0
        assert not cell.ds_censored

    def test_endpoint_ordering(self, normal_report):
        assert normal_report.endpoint_violations() == []

    def test_endpoint_violation_is_a_quantile_route_outliving_the_rejection_one(self):
        cells = [ScanCell({"k": 0}, a_bar=40.0, a_bar_prime=38.0),
                 ScanCell({"k": 1}, a_bar=38.0, a_bar_prime=38.0),
                 ScanCell({"k": 2}, a_bar=math.nan, a_bar_prime=38.0),
                 ScanCell({"k": 3}, a_bar=40.0, a_bar_prime=math.nan),
                 ScanCell({"k": 4}, a_bar=9.0, a_bar_prime=38.0)]
        report = SafetyReport("normal", cells, n_probe=10, seed=0)
        assert report.endpoint_violations() == [cells[0]]

    def test_csv_roundtrip(self, normal_report):
        # every float of the report parses back from its CSV bit for bit
        rows = list(csv.DictReader(io.StringIO(normal_report.to_csv())))
        assert len(rows) == len(normal_report.rows)
        for row, cell in zip(rows, normal_report.rows):
            assert row["family"] == "normal"
            assert {k: float(row[k]) for k in cell.params} == cell.params
            for col in ("a_bar", "a_bar_prime", "a_bar_dprime", "eta", "eta_prime"):
                assert float(row[col]) == getattr(cell, col)

    def test_json_structure(self, normal_report):
        doc = json.loads(normal_report.to_json())
        assert set(doc) == {"meta", "rows"}
        assert doc["meta"]["family"] == "normal"
        assert doc["rows"][0]["a_bar_prime"] == normal_report.rows[0].a_bar_prime

    def test_scan_is_deterministic(self):
        r1 = scan_safety("normal", probe_schedule=np.arange(0.0, 12.0),
                         method="its", n_probe=200, seed=9)
        r2 = scan_safety("normal", probe_schedule=np.arange(0.0, 12.0),
                         method="its", n_probe=200, seed=9)
        assert r1.to_csv() == r2.to_csv()

    def test_geometric_progression_schedule(self):
        rep = scan_safety("geometric", param_grid=[{"p": 0.5}],
                          probe_schedule="geometric", method="devroye",
                          n_probe=300, seed=5)
        cell = rep.rows[0]
        # breakdown where (a+1) log(1-p) crosses the representability limit,
        # i.e. a ~ 745/log 2 ~ 1074
        assert 500.0 <= cell.a_bar_prime <= 2200.0

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            scan_safety("poisson", param_grid=[], probe_schedule="auto")

    def test_n_probe_below_one_raises(self):
        # a sampler error inside a scan only marks its probe unclean, so the
        # batch size is checked before any probe runs
        with pytest.raises(ValueError, match="n_probe must be >= 1"):
            scan_safety("normal", probe_schedule=np.arange(0.0, 3.0), n_probe=0)

    @pytest.mark.parametrize("schedule", [[1.0, 2.0, math.inf], [1.0, math.nan, 3.0],
                                          [[1.0, 2.0], [3.0, 4.0]]],
                             ids=["inf", "nan", "2-d"])
    def test_non_finite_probe_raises(self, schedule):
        # an infinite depth has no target, and a bisection towards it never
        # narrows; a nan slips past the increasing check; a 2-d schedule has
        # rows, not depths
        with pytest.raises(ValueError, match="finite, strictly increasing"):
            scan_safety("normal", probe_schedule=schedule, n_probe=10)


class TestItsSchedule:
    """The scan's ITS pass judges every probe of a schedule as ``_classify``
    judges ``its_sample_batch`` on the same spawned stream, with one
    quantile call per schedule."""

    CASES = [
        ("normal", {}, np.arange(0.0, 51.0), 200),
        # the exponential saturates beyond a ~ 33
        ("gamma", {"alpha": 1.0}, np.arange(1.0, 1001.0, 7.0), 100),
        ("poisson", {"lambda": 50.0}, "auto", 300),
        ("binomial", {"n": 16.0, "p": 0.5}, "auto", 300),
        # depths past n
        ("binomial", {"n": 2048.0, "p": 0.05}, "auto", 300),
        # about 910 unsaturated probes among 1000
        ("normal", {}, np.linspace(-30.0, 12.0, 1000), 80),
        # a quantile assembled from 2q - 1 (epd), and a shape below one, on
        # schedules deep into the tail
        ("epd", {"beta": 1.5}, "geometric", 200),
        ("gamma", {"alpha": 0.5}, "geometric", 200),
    ]

    @pytest.mark.parametrize("family,params,schedule,n", CASES,
                             ids=[f"{c[0]}-{i}" for i, c in enumerate(CASES)])
    def test_matches_per_probe_classify(self, family, params, schedule, n):
        desc = build_descriptor(family, params)
        if isinstance(schedule, str):
            schedule = {"auto": auto_probes, "geometric": geometric_probes}[schedule](desc)
        sizes = []

        def quantile(p):
            sizes.append(p.size)
            return desc.quantile(p)

        targets = tail_targets(dataclasses.replace(desc, quantile=quantile), schedule)

        def its(t, r):
            return its_sample_batch(t, n, r, ImputationPolicy("error"))

        want = [_classify(its, t, r)
                for t, r in zip(targets, RngStream(4).spawn(len(targets)))]
        sizes.clear()
        got = _its_schedule(targets, RngStream(4).spawn(len(targets)), n)
        assert got == want
        assert True in want and False in want
        assert len(sizes) == 1


class TestDevroyeVerdict:
    """The scan reads the rejection sampler's verdict off the target
    (``_live``) and samples only a few checks per cell.  The per-probe
    sampled judge that the rule replaced is kept here as its reference."""

    CASES = [
        ("normal", {}, np.arange(0.0, 51.0)),
        ("gamma", {"alpha": 1.0}, np.arange(1.0, 1001.0, 7.0)),
        ("poisson", {"lambda": 50.0}, "auto"),
        ("binomial", {"n": 2048.0, "p": 0.5}, "auto"),
        # sampled on log X
        ("gamma", {"alpha": 0.5}, "geometric"),
        ("invgauss", {"mu": 1.0, "lambda": 0.3}, "geometric"),
    ]

    @pytest.mark.parametrize("family,params,schedule", CASES,
                             ids=[f"{c[0]}-{i}" for i, c in enumerate(CASES)])
    def test_sampled_judge_agrees_with_the_rule(self, family, params, schedule):
        desc = build_descriptor(family, params)
        if isinstance(schedule, str):
            schedule = {"auto": auto_probes, "geometric": geometric_probes}[schedule](desc)
        targets = tail_targets(desc, schedule)
        stream = RngStream(6)

        def sampled(ts):
            return [_classify(lambda t, r: ds_sample_batch(t, 200, r), t, r)
                    for t, r in zip(ts, stream.spawn(len(ts)))]

        assert sampled(targets) == _live(targets)
        # the bisection's depths too: both judges end on the same depth
        got = _breakdown(_live, desc, schedule, targets)
        assert _breakdown(sampled, desc, schedule, targets) == got

    def test_bisection_ends_where_doubles_are_coarser_than_the_tolerance(self):
        # doubles near 1e14 are 1/64 apart, wider than REFINE_TOL: the
        # midpoint of two adjacent ones rounds onto one of them
        desc = build_descriptor("normal", mu=1e14, sigma=1.0)
        schedule = auto_probes(desc)
        calls = []

        def judge(ts):
            calls.append(ts)
            if len(calls) > 200:
                raise AssertionError("the bisection does not end")
            return _live(ts)

        got = _breakdown(judge, desc, schedule, tail_targets(desc, schedule))
        assert got == (1e14 + 38.484375, False, [])

    def test_a_route_that_imputes_deep_is_flagged(self, monkeypatch):
        sample = diagnostics.ds_sample_batch

        def imputing(t, n, rng):
            # every slot imputed where log P(I) < -8, as gamma(0.5)'s old
            # transform route did
            b = sample(t, n, rng)
            if t.log_mass < -8.0:
                b.imputed[:] = True
            return b

        monkeypatch.setattr(diagnostics, "ds_sample_batch", imputing)
        report = scan_safety("gamma", [{"alpha": 0.5}], "geometric", n_probe=200, seed=1)
        cell = report.rows[0]
        assert cell.ds_inexact == pytest.approx(11.81, abs=0.01)
        assert cell.a_bar_prime == pytest.approx(741.26, abs=0.01)
        row = next(csv.DictReader(io.StringIO(report.to_csv())))
        assert float(row["ds_inexact"]) == cell.ds_inexact
        assert json.loads(report.to_json())["rows"][0]["ds_inexact"] == cell.ds_inexact

    def test_a_lattice_past_two_to_the_53_is_flagged(self):
        # every bisection there ends on adjacent doubles, 16384 apart
        t0 = time.perf_counter()
        cell = scan_safety("poisson", [{"lambda": 1e20}], "auto", n_probe=20).rows[0]
        assert time.perf_counter() - t0 < 10.0
        assert math.isfinite(cell.a_bar_prime) and math.isfinite(cell.ds_inexact)


class TestZGridProperty:
    def test_poisson_grid_fraction_beyond_two_sigma(self):
        # across clean cells of a (lambda, z) grid the Z statistics are
        # approximately standard normal: the fraction with |Z| > 2 sits in a
        # wide binomial band around 0.046
        lambdas = [0.5, 2.0, 10.0, 100.0]
        zs = np.arange(0, 16)
        root = RngStream(2024)
        z_values = []
        for lam in lambdas:
            d = build_descriptor("poisson", {"lambda": lam})
            streams = root.spawn(len(zs))
            for z, stream in zip(zs, streams):
                a = math.floor(lam + z * math.sqrt(lam))
                try:
                    oracle = truncated_mean_oracle_poisson(lam, a)
                except OracleUnavailable:
                    continue
                t = truncate(d, lower=float(a))
                batch = ds_sample_batch(t, 20_000, stream)
                if batch.imputed.any():
                    continue
                z_values.append(z_test_mean(batch, oracle).z)
        z_values = np.asarray(z_values)
        assert z_values.size >= 50
        assert np.all(np.abs(z_values) < 4.0)
        frac = float((np.abs(z_values) > 2.0).mean())
        assert 0.01 <= frac <= 0.12, frac


class TestOracleDispatch:
    def test_normal_rescaling(self):
        d = build_descriptor("normal", mu=2.0, sigma=3.0)
        got = truncated_mean_oracle(d, 5.0)
        assert got == pytest.approx(2.0 + 3.0 * truncated_mean_oracle_normal(1.0))

    def test_generic_family_uses_brute_force(self):
        d = build_descriptor("gamma", alpha=2.0, **{"lambda": 1.0})
        got = truncated_mean_oracle(d, 4.0)
        mean, _ = brute_force_truncated_moments(d, TruncationInterval(4.0, math.inf))
        assert got == pytest.approx(mean, rel=1e-12)
