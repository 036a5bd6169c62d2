"""Oracles, validation statistics, and the safety scanner."""

import csv
import dataclasses
import io
import json
import math

import mpmath as mp
import numpy as np
import pytest
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
from trunclc.core import tail_targets
from trunclc.devroye import SampleBatch
from trunclc.diagnostics import (
    SafetyReport,
    ScanCell,
    _classify,
    _its_schedule,
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
    judges ``its_sample_batch`` on the same spawned stream, with few
    quantile calls of at most ``MAX_ROUND`` values.  A case with a ``cap``
    runs under ``MAX_ROUND = cap``, so that its probes fill many quantile
    calls."""

    CASES = [
        ("normal", {}, np.arange(0.0, 51.0), 200, None),
        # the exponential saturates beyond a ~ 33
        ("gamma", {"alpha": 1.0}, np.arange(1.0, 1001.0, 7.0), 100, None),
        ("poisson", {"lambda": 50.0}, "auto", 300, None),
        ("binomial", {"n": 16.0, "p": 0.5}, "auto", 300, None),
        # depths past n
        ("binomial", {"n": 2048.0, "p": 0.05}, "auto", 300, None),
        # about 910 unsaturated probes under a cap of 64 values a call: the
        # stacked values overflow one quantile call many times over
        ("normal", {}, np.linspace(-30.0, 12.0, 1000), 80, 64),
        # a quantile assembled from 2q - 1 (epd), and a shape below one, on
        # schedules deep into the tail
        ("epd", {"beta": 1.5}, "geometric", 200, None),
        ("gamma", {"alpha": 0.5}, "geometric", 200, None),
    ]

    @pytest.mark.parametrize("family,params,schedule,n,cap", CASES,
                             ids=[f"{c[0]}-{i}" for i, c in enumerate(CASES)])
    def test_matches_per_probe_classify(self, family, params, schedule, n, cap, monkeypatch):
        desc = build_descriptor(family, params)
        if isinstance(schedule, str):
            schedule = {"auto": auto_probes, "geometric": geometric_probes}[schedule](desc)
        if cap is not None:
            monkeypatch.setattr(diagnostics, "MAX_ROUND", cap)
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
        assert sizes and max(sizes) <= diagnostics.MAX_ROUND
        if cap is not None:
            assert len(sizes) > 10 and sum(sizes) > 10 * cap


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
