"""Rejection sampler: envelope, acceptance rates, exactness, imputation."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import stats as st

from trunclc import (
    DegenerateTargetError,
    ImputationPolicy,
    RngStream,
    SamplingBreakdownError,
    TruncationOverflow,
    build_descriptor,
    chi_square_gof,
    ds_sample_batch,
    hit_or_miss_batch,
    its_sample_batch,
    scan_safety,
    truncate,
    truncated_mean_oracle,
    z_test_mean,
)
from trunclc.core import DistributionDescriptor, tail_targets
from trunclc.devroye import MAX_ROUND
from trunclc.logspace import elementwise


def truncated_pmf(desc, lo, hi):
    """Brute-force normalized pmf on the integer support of ]lo, hi]."""
    ks = np.arange(math.floor(lo) + 1, math.floor(hi) + 1, dtype=float)
    p = np.exp(np.asarray(desc.log_pdf(ks), dtype=float))
    return ks, p / p.sum()


class TestRngStream:
    def test_determinism(self):
        t = truncate(build_descriptor("normal", mu=0, sigma=1), lower=1.0)
        b1 = ds_sample_batch(t, 500, RngStream(42))
        b2 = ds_sample_batch(t, 500, RngStream(42))
        assert np.array_equal(b1.values, b2.values)
        assert b1.proposals == b2.proposals

    def test_spawned_streams_differ(self):
        s1, s2 = RngStream(7).spawn(2)
        t = truncate(build_descriptor("normal", mu=0, sigma=1))
        v1 = ds_sample_batch(t, 100, s1).values
        v2 = ds_sample_batch(t, 100, s2).values
        assert not np.array_equal(v1, v2)


class TestEnvelopeDomination:
    @pytest.mark.parametrize("family,params,span", [
        ("normal", {"mu": 0.0, "sigma": 1.0}, (-12.0, 12.0)),
        ("gamma", {"alpha": 1.0, "lambda": 1.0}, (0.0, 40.0)),
        ("gamma", {"alpha": 3.5, "lambda": 2.0}, (0.0, 40.0)),
        ("epd", {"beta": 1.0}, (-30.0, 30.0)),
        ("epd", {"beta": 2.5}, (-8.0, 8.0)),
    ])
    def test_continuous_inequality(self, family, params, span):
        # f(x) <= f(m) min(1, exp(1 - f(m)|x - m|)) on 1000 random probes
        d = build_descriptor(family, params)
        rng = np.random.default_rng(11)
        xs = rng.uniform(span[0], span[1], size=1000)
        lfm = float(d.log_pdf(np.asarray(d.mode)))
        fm = math.exp(lfm)
        lf = np.asarray(d.log_pdf(xs), dtype=float)
        bound = lfm + np.minimum(0.0, 1.0 - fm * np.abs(xs - d.mode))
        assert np.all(lf <= bound + 1e-9)


class TestAcceptanceRates:
    def test_continuous_is_quarter(self):
        # acceptance is exactly 25% for any continuous target; modest n here,
        # the acceptance suite does the 1e6-proposal version
        t = truncate(build_descriptor("normal", mu=0, sigma=1))
        b = ds_sample_batch(t, 50_000, RngStream(1))
        assert b.acceptance_rate == pytest.approx(0.25, abs=0.01)
        t2 = truncate(build_descriptor("gamma", alpha=2, **{"lambda": 1}), lower=5.0)
        b2 = ds_sample_batch(t2, 50_000, RngStream(2))
        assert b2.acceptance_rate == pytest.approx(0.25, abs=0.01)

    def test_discrete_rate_formula(self):
        # rate = 1/(4 + f_I(m)), always within [0.20, 0.25]
        d = build_descriptor("geometric", p=0.7)
        t = truncate(d, lower=3.0, upper=9.0)
        c = math.exp(t.log_peak)
        b = ds_sample_batch(t, 200_000, RngStream(3))
        assert b.acceptance_rate == pytest.approx(1.0 / (4.0 + c), abs=0.01)
        assert 0.20 <= b.acceptance_rate <= 0.25 + 1e-9

    def test_batch_accounting_invariants(self):
        t = truncate(build_descriptor("poisson", {"lambda": 5.0}), lower=4.0, upper=9.0)
        b = ds_sample_batch(t, 10_000, RngStream(4))
        assert b.accepts == (~b.imputed).sum()
        assert b.accepts <= b.proposals
        assert 0.0 < b.acceptance_rate <= 1.0


class TestExactness:
    def test_poisson_truncated_chi_square(self):
        d = build_descriptor("poisson", {"lambda": 3.0})
        t = truncate(d, lower=4.0, upper=9.0)
        b = ds_sample_batch(t, 100_000, RngStream(10))
        ks, probs = truncated_pmf(d, 4.0, 9.0)
        res = chi_square_gof(b.values, ks, probs, alpha=0.001)
        assert res.passed, (res.statistic, res.critical)

    def test_geometric_deep_shift_chi_square(self):
        # X - 21 | X > 20 is the base geometric law exactly
        d = build_descriptor("geometric", p=0.3)
        t = truncate(d, lower=20.0)
        b = ds_sample_batch(t, 100_000, RngStream(12))
        assert b.is_clean(t)
        y = b.values - 21.0
        kmax = int(y.max())
        support = np.arange(0, kmax + 1, dtype=float)
        probs = 0.3 * 0.7 ** support
        res = chi_square_gof(y, support, probs, alpha=0.001)
        assert res.passed, (res.statistic, res.critical)

    def test_single_support_point(self):
        t = truncate(build_descriptor("binomial", n=10, p=0.5), lower=9.0, upper=10.0)
        b = ds_sample_batch(t, 2_000, RngStream(13))
        assert np.all(b.values == 10.0)
        assert not b.imputed.any()

    def test_offsets_beyond_two_to_the_53(self):
        # a one-proposal round always builds its log-pmf table; at lambda =
        # 1e34 the offsets exceed 2**53, where ``hi + 1`` rounds to ``hi``
        t = truncate(build_descriptor("poisson", {"lambda": 1e34}))
        for seed in range(5):
            batch = ds_sample_batch(t, 1, rng=seed)
            assert batch.is_clean(t) and batch.values[0] == t.proj_mode

    def test_lattice_points_that_round_onto_the_open_end_are_rejected(self):
        # at 1e34 the doubles are 2**61 apart, so the proposals m + k near
        # the mode round onto a = 1e34, which ]a, inf[ excludes: none may be
        # returned as a clean variate
        t = truncate(build_descriptor("poisson", {"lambda": 1e34}), lower=1e34)
        b = ds_sample_batch(t, 20, RngStream(6), ImputationPolicy(max_iterations=50))
        assert (t.interval.contains(b.values) | b.imputed).all()

    def test_continuous_ks_normal_tail(self):
        d = build_descriptor("normal", mu=0, sigma=1)
        t = truncate(d, lower=1.0)
        b = ds_sample_batch(t, 10_000, RngStream(14))
        res = st.kstest(b.values, lambda x: t.cdf(x))
        assert res.pvalue > 0.001

    def test_continuous_ks_gamma_tail(self):
        d = build_descriptor("gamma", alpha=2, **{"lambda": 1})
        t = truncate(d, lower=5.0)
        b = ds_sample_batch(t, 10_000, RngStream(15))
        res = st.kstest(b.values, lambda x: t.cdf(x))
        assert res.pvalue > 0.001

    def test_invgauss_moderate_window(self):
        d = build_descriptor("invgauss", mu=1, **{"lambda": 1})
        t = truncate(d, lower=0.3, upper=2.0)
        b = ds_sample_batch(t, 20_000, RngStream(16))
        res = st.kstest(b.values, lambda x: t.cdf(x))
        assert res.pvalue > 0.001

    def test_half_normal_mean(self):
        # half-normal mean sqrt(2/pi) = 0.7978845608028654
        t = truncate(build_descriptor("normal", mu=0, sigma=1), lower=0.0)
        b = ds_sample_batch(t, 100_000, RngStream(17))
        se = math.sqrt(1.0 - 2.0 / math.pi) / math.sqrt(b.values.size)
        assert abs(b.values.mean() - 0.7978845608028654) < 4.0 * se

    def test_values_never_escape_interval(self):
        cases = [
            truncate(build_descriptor("normal", mu=0, sigma=1), lower=2.0, upper=2.5),
            truncate(build_descriptor("poisson", {"lambda": 5.0}), lower=12.0),
            truncate(build_descriptor("gamma", alpha=1, **{"lambda": 1}), lower=700.0),
            truncate(build_descriptor("nbinom", n=3, p=0.4), lower=10.0, upper=40.0),
        ]
        for t in cases:
            b = ds_sample_batch(t, 5_000, RngStream(18))
            ok = t.interval.contains(b.values) | b.imputed
            assert ok.all()


class TestFiniteUpperSupportEnd:
    """A law whose density is positive at the upper end of its support,
    truncated past that end: the accept test must reject every proposal
    beyond the support, not read the density at the nearest support point."""

    @staticmethod
    def ramp():
        # density 2x on [0, 1]: log-concave, mode 1, F(x) = x^2
        def inside(x, f, below, above):
            out = np.where(x < 0.0, below, above)
            on = (x >= 0.0) & (x <= 1.0)
            with np.errstate(divide="ignore"):
                out[on] = f(x[on])
            return out

        return DistributionDescriptor(
            family_name="ramp", params={}, kind="continuous", support=(0.0, 1.0),
            log_pdf=elementwise(lambda x: inside(x, lambda y: math.log(2.0) + np.log(y),
                                                 -np.inf, -np.inf)),
            log_cdf=elementwise(lambda x: inside(x, lambda y: 2.0 * np.log(y), -np.inf, 0.0)),
            log_sf=elementwise(lambda x: inside(x, lambda y: np.log1p(-y * y), 0.0, -np.inf)),
            mode=1.0, mu=2.0 / 3.0, sigma=math.sqrt(1.0 / 18.0),
        )

    def test_no_value_beyond_the_support(self):
        t = truncate(self.ramp(), lower=0.5, upper=5.0)
        assert t.proj_mode == 1.0
        b = ds_sample_batch(t, 20_000, RngStream(19))
        assert not b.imputed.any()
        assert (b.values <= 1.0).all() and (b.values > 0.5).all()
        se = math.sqrt(0.25 * 0.75 / b.proposals)
        assert abs(b.acceptance_rate - 0.25) < 6.0 * se
        assert st.kstest(b.values, lambda x: t.cdf(x)).pvalue > 0.001


class TestDensityReads:
    """Where and how often a batch reads the base log-density."""

    @staticmethod
    def recorded(desc, calls):
        """``desc`` with a ``log_pdf`` that appends each argument to ``calls``."""
        def log_pdf(x):
            calls.append(np.atleast_1d(np.array(x, dtype=float)))
            return desc.log_pdf(x)

        return dataclasses.replace(desc, log_pdf=log_pdf)

    def test_one_lattice_table_per_batch(self):
        desc = build_descriptor("poisson", {"lambda": 50.0})
        calls = []
        t = truncate(self.recorded(desc, calls), lower=50.0)
        calls.clear()  # the peak, read when the target is built
        b = ds_sample_batch(t, 20_000, RngStream(21))
        assert b.proposals > MAX_ROUND  # several rounds
        points = np.concatenate(calls)
        assert np.unique(points).size == points.size
        assert max(c.size for c in calls) <= MAX_ROUND
        want = ds_sample_batch(truncate(desc, lower=50.0), 20_000, RngStream(21))
        assert np.array_equal(b.values, want.values)
        assert (b.proposals, b.accepts) == (want.proposals, want.accepts)

    @pytest.mark.parametrize("family,params,lower,upper", [
        ("gamma", {"alpha": 2.0}, 5.0, math.inf),
        ("gamma", {"alpha": 2.0}, -1.0, 0.3),
        ("epd", {"beta": 1.5}, 0.3, 2.0),
    ])
    def test_continuous_reads_stay_in_the_truncated_support(self, family, params, lower, upper):
        desc = build_descriptor(family, params)
        calls = []
        t = truncate(self.recorded(desc, calls), lower, upper)
        lo, hi = max(lower, desc.support[0]), min(upper, desc.support[1])
        calls.clear()
        b = ds_sample_batch(t, 20_000, RngStream(22))
        points = np.concatenate(calls)
        assert points.min() >= lo and points.max() <= hi
        want = ds_sample_batch(truncate(desc, lower, upper), 20_000, RngStream(22))
        assert np.array_equal(b.values, want.values)

    def test_a_log_scale_law_reads_only_the_log_x_density(self):
        # invgauss draws log X: the x-scale density is never read, and the
        # log-X density only on ]log a, log b], each end one ulp wider
        desc = build_descriptor("invgauss", mu=1.0, **{"lambda": 1.0})
        x_calls, y_calls = [], []
        log_pdf, mode = desc.log_scale

        def log_pdf_y(y):
            y_calls.append(y.copy())
            return log_pdf(y)

        recorded = dataclasses.replace(self.recorded(desc, x_calls), log_scale=(log_pdf_y, mode))
        t = truncate(recorded, 0.3, 2.0)
        x_calls.clear()
        b = ds_sample_batch(t, 20_000, RngStream(22))
        assert x_calls == []
        points = np.concatenate(y_calls)
        assert points.min() >= math.nextafter(math.log(0.3), -math.inf)
        assert points.max() <= math.nextafter(math.log(2.0), math.inf)
        want = ds_sample_batch(truncate(desc, 0.3, 2.0), 20_000, RngStream(22))
        assert np.array_equal(b.values, want.values)


class TestDeepTail:
    def test_normal_38_sigma_clean(self):
        t = truncate(build_descriptor("normal", mu=0, sigma=1), lower=38.0)
        b = ds_sample_batch(t, 20_000, RngStream(20))
        assert b.is_clean(t)
        assert b.values.min() > 38.0

    def test_exponential_700_clean(self):
        t = truncate(build_descriptor("gamma", alpha=1, **{"lambda": 1}), lower=700.0)
        b = ds_sample_batch(t, 20_000, RngStream(21))
        assert b.is_clean(t)
        # memoryless: excess is exponential(1) exactly
        res = st.kstest(b.values - 700.0, st.expon.cdf)
        assert res.pvalue > 0.001


class TestImputation:
    def test_degenerate_impute_mode(self):
        t = truncate(build_descriptor("normal", mu=0, sigma=1), lower=800.0)
        b = ds_sample_batch(t, 100, RngStream(22))
        assert np.all(b.values == 800.0)
        assert b.imputed.all()
        assert b.accepts == 0

    def test_degenerate_error_policy(self):
        t = truncate(build_descriptor("normal", mu=0, sigma=1), lower=800.0)
        with pytest.raises(DegenerateTargetError, match="log P"):
            ds_sample_batch(t, 10, RngStream(23), ImputationPolicy("error"))

    def test_degenerate_impute_infinite(self):
        t = truncate(build_descriptor("normal", mu=0, sigma=1), lower=800.0)
        b = ds_sample_batch(t, 10, RngStream(24), ImputationPolicy("impute_infinite"))
        assert np.all(np.isinf(b.values))
        assert b.imputed.all()

    def test_iteration_cap_flags_or_raises(self):
        t = truncate(build_descriptor("normal", mu=0, sigma=1), lower=1.0)
        b = ds_sample_batch(t, 2_000, RngStream(25), ImputationPolicy(max_iterations=1))
        # one proposal per variate at ~25% acceptance: most get imputed
        assert 0 < b.n_imputed < 2_000
        assert np.all(b.values[b.imputed] == t.proj_mode)
        with pytest.raises(SamplingBreakdownError):
            ds_sample_batch(t, 2_000, RngStream(25),
                            ImputationPolicy("error", max_iterations=1))

    @pytest.mark.parametrize("cap", [2.0, math.nan, math.inf, 0])
    def test_max_iterations_must_be_an_integer_of_at_least_one(self, cap):
        # a float cap reaches numpy's integer draws, nan spends no proposal,
        # and inf never stops on a target the sampler cannot reach
        with pytest.raises(ValueError, match="max_iterations must be an integer >= 1"):
            ImputationPolicy(max_iterations=cap)

    def test_max_iterations_accepts_numpy_integers(self):
        t = truncate(build_descriptor("normal", mu=0, sigma=1), lower=1.0)
        b = ds_sample_batch(t, 20, RngStream(26), ImputationPolicy(max_iterations=np.int64(50)))
        assert b.n_imputed == 0

    def test_batch_size_validation(self):
        t = truncate(build_descriptor("normal", mu=0, sigma=1))
        with pytest.raises(ValueError):
            ds_sample_batch(t, 0, RngStream(0))


class TestBatchSize:
    """Every sampler entry point, and the scan's probe size, takes an
    integer batch size of at least one and refuses anything else with a
    ``ValueError`` before drawing."""

    SAMPLERS = {
        "devroye": ds_sample_batch,
        "its": its_sample_batch,
        "hitormiss": hit_or_miss_batch,
        "scan": lambda t, n, rng: scan_safety(
            "normal", probe_schedule=[1.0, 2.0], method="both", n_probe=n, seed=rng),
    }

    @pytest.mark.parametrize("n", [2.5, 3.0, math.nan, 0])
    @pytest.mark.parametrize("entry", sorted(SAMPLERS))
    def test_non_integer_or_below_one_raises(self, entry, n):
        # a float size used to reach numpy's integer draws and raise a
        # TypeError there, which the scan does not catch
        t = truncate(build_descriptor("normal", mu=0, sigma=1), lower=1.0)
        name = "n_probe" if entry == "scan" else "batch size"
        with pytest.raises(ValueError, match=f"{name} must be >= 1 and an integer"):
            self.SAMPLERS[entry](t, n, 27)

    @pytest.mark.parametrize("entry", sorted(SAMPLERS))
    def test_numpy_integers_pass(self, entry):
        t = truncate(build_descriptor("normal", mu=0, sigma=1), lower=1.0)
        out = self.SAMPLERS[entry](t, np.int64(3), 27)
        if entry == "scan":
            assert out.n_probe == 3
        else:
            assert out.values.size == 3


class TestLogScaleRoute:
    """gamma with shape below one and the inverse Gaussian draw log X."""

    def test_alpha_below_one_untruncated(self):
        d = build_descriptor("gamma", alpha=0.5, **{"lambda": 1.0})
        t = truncate(d)
        b = ds_sample_batch(t, 50_000, RngStream(40))
        assert b.method == "devroye"
        assert not b.imputed.any()
        # gamma(0.5, 1): mean 0.5, sd sqrt(0.5)
        se = math.sqrt(0.5) / math.sqrt(b.values.size)
        assert abs(b.values.mean() - 0.5) < 4.0 * se
        res = st.kstest(b.values, st.gamma(0.5).cdf)
        assert res.pvalue > 0.001

    def test_alpha_below_one_truncated(self):
        d = build_descriptor("gamma", alpha=0.5, **{"lambda": 2.0})
        t = truncate(d, lower=1.0)
        b = ds_sample_batch(t, 20_000, RngStream(41))
        assert b.is_clean(t)
        res = st.kstest(b.values, lambda x: t.cdf(x))
        assert res.pvalue > 0.001

    def test_route_comes_from_the_descriptor(self):
        # log_scale travels with the descriptor, whatever its family name
        d = build_descriptor("gamma", alpha=0.5)
        renamed = dataclasses.replace(d, family_name="gamma_half")
        a = ds_sample_batch(truncate(d, lower=0.3), 2_000, RngStream(43))
        b = ds_sample_batch(truncate(renamed, lower=0.3), 2_000, RngStream(43))
        assert a.values.tobytes() == b.values.tobytes()
        assert (a.proposals, a.accepts) == (b.proposals, b.accepts)
        assert not b.imputed.any()

    def test_values_that_underflow_onto_the_support_end_are_not_clean(self):
        # gamma(1e-3) has P(X < 5e-324) = 0.475: about half its draws of
        # log X map to 0.0 under exp, an end the law puts no mass on.  exp
        # overflows at proposals the envelope rejects, and must not warn.
        t = truncate(build_descriptor("gamma", alpha=1e-3))
        b = ds_sample_batch(t, 20_000, RngStream(1))
        assert not b.imputed.any() and 0.45 < np.mean(b.values == 0.0) < 0.5
        assert not b.is_clean(t)
        its = its_sample_batch(t, 20_000, RngStream(1))
        assert 0.45 < its.imputed.mean() < 0.5 and (its.values[~its.imputed] > 0.0).all()
        with pytest.raises(TruncationOverflow):
            its_sample_batch(t, 20_000, RngStream(1), ImputationPolicy("error"))

    def test_values_past_the_largest_double_are_not_clean(self):
        # gamma(0.5, 1e-308) has P(X > 1.8e308) = Q(0.5, 1.8) = 0.058: those
        # draws of log X map to inf; a density read as lam e^y would drop them
        t = truncate(build_descriptor("gamma", alpha=0.5, **{"lambda": 1e-308}))
        b = ds_sample_batch(t, 20_000, RngStream(2))
        assert not b.imputed.any() and 0.045 < np.mean(np.isinf(b.values)) < 0.07
        assert not b.is_clean(t)

    @pytest.mark.parametrize("lower", [40.0, 50.0, 700.0])
    def test_extreme_truncation_is_clean(self, lower):
        # log P(I) from -42.8 to -703.8; a hit-tested route imputed here
        t = truncate(build_descriptor("gamma", alpha=0.5), lower=lower)
        b = ds_sample_batch(t, 20_000, RngStream(42))
        assert b.is_clean(t)
        assert st.kstest(b.values, t.cdf).pvalue > 0.001

    @pytest.mark.parametrize("alpha", [1e-3, 1e-300])
    def test_tiny_shapes_are_clean_above_a_half(self, alpha):
        # log P(I) = -7.5 and -691.4: mass a hit test never reaches
        t = truncate(build_descriptor("gamma", alpha=alpha), lower=0.5)
        b = ds_sample_batch(t, 20_000, RngStream(44))
        assert b.is_clean(t)
        assert abs(b.acceptance_rate - 0.25) < 6.0 * math.sqrt(0.25 * 0.75 / b.proposals)

    def test_log_ends_that_round_together(self):
        # ]100, nextafter(100)] has log a == log b; the log ends are moved
        # out by one ulp, and no exp(y) lands on nextafter(100), so every
        # slot goes to the policy after the batch's budget
        t = truncate(build_descriptor("gamma", alpha=0.5), 100.0, math.nextafter(100.0, math.inf))
        assert math.log(t.interval.lower) == math.log(t.interval.upper)
        b = ds_sample_batch(t, 5, RngStream(45), ImputationPolicy(max_iterations=20))
        assert b.imputed.all() and b.proposals == 100

    def test_live_targets_at_the_limit_sample_clean(self):
        # log P(I) = -745.133 on ]a, inf[, a live target: log X's envelope
        # runs on the target's own mass, so no second mass of log X, whose
        # last digits may round below the limit, refuses it
        d = build_descriptor("invgauss", mu=1.0, **{"lambda": 0.3})
        a = 4887.1053931159
        live = [t for t in tail_targets(d, np.linspace(a - 3e-13, a + 3e-13, 400))
                if not t.degenerate]
        assert live
        for t in live:
            b = ds_sample_batch(t, 5, RngStream(46))
            assert b.is_clean(t) and b.proposals > 0

    def test_a_batch_reads_no_tail_of_the_base(self):
        # the envelope needs the target's mode, peak and P(I), all known
        # before the batch: no tail is read again per batch
        reads = []

        def counted(f, name):
            def tail(x):
                reads.append(name)
                return f(x)
            return tail

        d = build_descriptor("invgauss", mu=1.0, **{"lambda": 0.3})
        d = dataclasses.replace(d, log_cdf=counted(d.log_cdf, "log_cdf"),
                                log_sf=counted(d.log_sf, "log_sf"))
        t = truncate(d, lower=2.0, upper=50.0)
        reads.clear()
        b = ds_sample_batch(t, 1_000, RngStream(47))
        assert b.is_clean(t) and reads == []

    def test_invgauss_far_tail_is_exact(self):
        # log-convex in x beyond 2 lambda / 3 = 0.2, log-concave in log x:
        # the x-scale envelope gave a mean of 1.444 here
        d = build_descriptor("invgauss", mu=1.0, **{"lambda": 0.3})
        t = truncate(d, lower=0.5)
        b = ds_sample_batch(t, 200_000, RngStream(3))
        assert b.is_clean(t)
        assert z_test_mean(b, truncated_mean_oracle(d, 0.5), threshold=5.0).passed
        assert abs(b.acceptance_rate - 0.25) <= 6.0 * math.sqrt(0.25 * 0.75 / b.proposals)
        b = ds_sample_batch(t, 20_000, RngStream(7))
        assert st.kstest(b.values, t.cdf).pvalue > 0.001

    def test_geometric_scan_reaches_the_limit_without_violations(self):
        report = scan_safety("gamma", [{"alpha": 0.5}], "geometric", n_probe=200, seed=1)
        assert report.endpoint_violations() == []
        assert report.rows[0].a_bar_prime > 700.0


class TestRounds:
    """Each round overdraws and keeps accepted proposals by position only."""

    TARGETS = {
        "normal": lambda: truncate(build_descriptor("normal", mu=0, sigma=1), lower=1.0),
        "poisson": lambda: truncate(build_descriptor("poisson", {"lambda": 50.0}), lower=50.0),
        "gamma_half": lambda: truncate(build_descriptor("gamma", alpha=0.5), lower=0.5),
    }

    @staticmethod
    def ks_pvalue(t, x):
        """KS p-value of ``x`` against ``t.cdf``; for a lattice law the
        statistic is taken at each observed point and the one below it,
        where the two step functions differ most (conservative p-value)."""
        x = np.sort(x)
        n = x.size
        if t.base.is_discrete:
            pts = np.unique(np.concatenate([x, x - 1.0]))
            d = np.max(np.abs(np.searchsorted(x, pts, side="right") / n - t.cdf(pts)))
        else:
            cdf = t.cdf(x)
            i = np.arange(1, n + 1)
            d = max(np.max(i / n - cdf), np.max(cdf - (i - 1) / n))
        return st.kstwo.sf(d, n)

    @pytest.mark.parametrize("name", ["normal", "poisson"])
    @pytest.mark.parametrize("n", [1, 3])
    def test_small_batches_pool_to_the_target(self, name, n):
        # a batch of n keeps the first n accepted of about 4n + 6 sqrt(n)
        # proposals; keeping them by value instead would bias the pool
        t = self.TARGETS[name]()
        gen = RngStream(60 + n).generator
        x = np.concatenate([ds_sample_batch(t, n, gen).values for _ in range(2_000)])
        assert t.interval.contains(x).all()
        assert self.ks_pvalue(t, x) > 0.001

    @pytest.mark.parametrize("name", sorted(TARGETS))
    def test_no_draw_exceeds_the_round_cap(self, name):
        sizes = []

        class Recording:
            def __init__(self, gen):
                self.gen = gen

            def __getattr__(self, attr):
                draw = getattr(self.gen, attr)

                def recorded(*args, size=None, **kwargs):
                    sizes.append(size)
                    return draw(*args, size=size, **kwargs)

                return recorded

        t = self.TARGETS[name]()
        stream = RngStream(70)
        stream.generator = Recording(stream.generator)
        b = ds_sample_batch(t, 500_000, stream)
        assert b.is_clean(t)
        assert max(sizes) == MAX_ROUND

    @pytest.mark.parametrize("name", sorted(TARGETS))
    def test_budget_is_max_iterations_proposals_per_variate(self, name):
        t = self.TARGETS[name]()
        b = ds_sample_batch(t, 2_000, RngStream(80), ImputationPolicy(max_iterations=1))
        assert b.proposals <= 2_000
        assert 0 < b.n_imputed < 2_000
        # the open slots are the last ones
        assert b.imputed[-b.n_imputed:].all() and not b.imputed[:b.accepts].any()

    def test_rate_underflow_spends_the_budget(self):
        # log P(I) = -744.5, so hit-or-miss's rate P(I)/4 rounds to 0
        t = truncate(build_descriptor("normal"), lower=38.47)
        assert not t.degenerate and 0.25 * math.exp(t.log_mass) == 0.0
        b = hit_or_miss_batch(t, 3, RngStream(85), ImputationPolicy(max_iterations=5))
        assert b.imputed.all() and b.proposals == 15

    def test_proposals_stop_at_the_last_kept_acceptance(self):
        # one slot: the round's first accepted proposal fills it, so the
        # proposals counted are geometric with mean 1/rate = 4
        t = self.TARGETS["normal"]()
        gen = RngStream(90).generator
        props = np.array([ds_sample_batch(t, 1, gen).proposals for _ in range(4_000)])
        assert props.min() == 1
        assert abs(props.mean() - 4.0) < 4.0 * math.sqrt(12.0 / props.size)
