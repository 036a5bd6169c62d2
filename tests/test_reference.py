"""Inverse-transform and hit-or-miss reference samplers."""

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
    truncate,
)


class TestInverseTransform:
    def test_half_normal_median(self):
        # u = 0.5 maps through q(0.75) = 0.6744897501960817
        t = truncate(build_descriptor("normal", mu=0, sigma=1), lower=0.0)
        assert t.quantile(0.5) == pytest.approx(0.6744897501960817, abs=1e-12)

    def test_exponential_memorylessness_through_quantile(self):
        # for unit-rate exponential, q_I(p) = a - log(1 - p) exactly
        t = truncate(build_descriptor("gamma", alpha=1, **{"lambda": 1}), lower=1.5)
        for u in (0.05, 0.3, 0.62, 0.97):
            want = 1.5 - math.log1p(-u)
            assert t.quantile(u) == pytest.approx(want, rel=1e-9)

    def test_overflow_at_ten_sigma(self):
        t = truncate(build_descriptor("normal", mu=0, sigma=1), lower=10.0)
        with pytest.raises(TruncationOverflow, match="variate 0"):
            its_sample_batch(t, 1, RngStream(0), ImputationPolicy("error"))

    def test_batch_matches_scalar_semantics(self):
        t = truncate(build_descriptor("normal", mu=0, sigma=1), lower=0.5, upper=3.0)
        b = its_sample_batch(t, 5_000, RngStream(1), ImputationPolicy("error"))
        assert b.method == "its"
        assert b.is_clean(t)
        assert np.all((b.values >= 0.5) & (b.values <= 3.0))

    def test_batch_error_policy_raises_on_overflow(self):
        t = truncate(build_descriptor("normal", mu=0, sigma=1), lower=10.0)
        with pytest.raises(TruncationOverflow):
            its_sample_batch(t, 100, RngStream(2), ImputationPolicy("error"))

    def test_batch_impute_policy_flags(self):
        t = truncate(build_descriptor("normal", mu=0, sigma=1), lower=10.0)
        b = its_sample_batch(t, 100, RngStream(3), ImputationPolicy("impute_mode"))
        assert b.imputed.all()
        assert np.all(b.values == 10.0)

    def test_value_on_the_open_lower_end_is_bad(self):
        # P(I) ~ 5e-17 on ]1, nextafter(1, 2)], below the ulp of F(1) ~ 0.84:
        # the argument rounds to F(1) and every value comes back as 1.0,
        # outside the half-open interval
        t = truncate(build_descriptor("normal", mu=0, sigma=1), lower=1.0,
                     upper=math.nextafter(1.0, 2.0))
        assert not t.degenerate
        with pytest.raises(TruncationOverflow, match="variate 0"):
            its_sample_batch(t, 1000, RngStream(7), ImputationPolicy("error"))
        b = its_sample_batch(t, 1000, RngStream(7), ImputationPolicy("impute_mode"))
        assert b.imputed.all() and b.accepts == 0
        with pytest.raises(TruncationOverflow):
            t.quantile(0.5)

    def test_its_and_ds_indistinguishable(self):
        # two-sample KS on a target where both samplers are healthy
        t = truncate(build_descriptor("normal", mu=0, sigma=1), lower=1.0)
        b_its = its_sample_batch(t, 10_000, RngStream(4), ImputationPolicy("error"))
        b_ds = ds_sample_batch(t, 10_000, RngStream(5))
        res = st.ks_2samp(b_its.values, b_ds.values)
        assert res.pvalue > 0.001

    def test_discrete_its_matches_pmf(self):
        d = build_descriptor("poisson", {"lambda": 3.0})
        t = truncate(d, lower=4.0, upper=9.0)
        b = its_sample_batch(t, 50_000, RngStream(6), ImputationPolicy("error"))
        ks = np.arange(5, 10, dtype=float)
        p = np.exp(np.asarray(d.log_pdf(ks), dtype=float))
        res = chi_square_gof(b.values, ks, p / p.sum(), alpha=0.001)
        assert res.passed


class TestHitOrMiss:
    def test_half_line_trial_cost(self):
        # mean trial count is 1/P(I) = 2 for the positive half-line
        t = truncate(build_descriptor("normal", mu=0, sigma=1), lower=0.0)
        b = hit_or_miss_batch(t, 10_000, RngStream(10))
        assert b.method == "hit_or_miss"
        assert b.trials.mean() == pytest.approx(2.0, abs=0.05)
        assert b.is_clean(t)

    def test_poisson_trial_cost_vs_summation_oracle(self):
        d = build_descriptor("poisson", {"lambda": 5.0})
        # oracle: P(X >= 5) by direct summation
        ks = np.arange(5, 200, dtype=float)
        p_tail = float(np.exp(np.asarray(d.log_pdf(ks), dtype=float)).sum())
        t = truncate(d, lower=4.0)
        b = hit_or_miss_batch(t, 10_000, RngStream(11))
        assert b.trials.mean() == pytest.approx(1.0 / p_tail, abs=0.05)

    def test_trials_are_geometric(self):
        t = truncate(build_descriptor("normal", mu=0, sigma=1), lower=1.0)
        p_hit = math.exp(t.log_mass)
        b = hit_or_miss_batch(t, 10_000, RngStream(12))
        # mean within 3 standard errors of 1/P(I)
        se = math.sqrt((1.0 - p_hit) / p_hit**2) / math.sqrt(b.trials.size)
        assert abs(b.trials.mean() - 1.0 / p_hit) < 3.0 * se
        # chi-square against the geometric trial-count law (support 1, 2, ...)
        kmax = int(b.trials.max())
        support = np.arange(1, kmax + 1, dtype=float)
        probs = p_hit * (1.0 - p_hit) ** (support - 1.0)
        res = chi_square_gof(b.trials.astype(float), support, probs, alpha=0.001)
        assert res.passed, (res.statistic, res.critical)

    def test_deep_interval_exhausts_budget(self):
        # P(I) ~ 1e-9 << 1/100: imputation is essentially certain
        t = truncate(build_descriptor("normal", mu=0, sigma=1), lower=6.0)
        b = hit_or_miss_batch(t, 20, RngStream(13), policy=ImputationPolicy(max_iterations=100))
        assert b.imputed.all()

    def test_scalar_roundtrip(self):
        t = truncate(build_descriptor("normal", mu=0, sigma=1), lower=0.0)
        b = hit_or_miss_batch(t, 1, RngStream(14))
        assert b.values[0] > 0.0 and b.trials.shape == (1,) and b.trials[0] >= 1

    def test_gamma_below_one_draws_through_its_transform(self):
        # gamma(0.5) is not log-concave: its base draws must take the EPD
        # route, not the envelope (whose peak is -inf at the pole, so every
        # proposal would be rejected and every variate imputed).  A variate
        # misses all 20 trials with probability (1 - P(X > 1))^20 ~ 0.033.
        t = truncate(build_descriptor("gamma", alpha=0.5), lower=1.0)
        b = hit_or_miss_batch(t, 20, RngStream(16),
                              policy=ImputationPolicy("impute_mode", max_iterations=20))
        assert b.n_imputed <= 3
        assert t.interval.contains(b.values[~b.imputed]).all()
        assert b.proposals == b.trials.sum()

    def test_gamma_below_one_matches_conditioned_law(self):
        t = truncate(build_descriptor("gamma", alpha=0.5), lower=1.0)
        b = hit_or_miss_batch(t, 20_000, RngStream(17))
        assert b.is_clean(t)
        law = st.gamma(0.5)
        res = st.kstest(b.values, lambda x: 1.0 - law.sf(x) / law.sf(1.0))
        assert res.pvalue > 0.001

    @pytest.mark.parametrize("family,params,lower,n,max_iterations", [
        ("normal", {}, 1.0, 500, 10_000),       # every slot filled
        ("normal", {}, 2.5, 200, 20),           # the policy's budget runs out part way
        ("poisson", {"lambda": 5.0}, 8.0, 300, 10_000),
        ("gamma", {"alpha": 0.5}, 1.0, 300, 10_000),
    ])
    def test_trials_account_for_every_base_draw(self, family, params, lower, n, max_iterations):
        t = truncate(build_descriptor(family, params), lower=lower)
        policy = ImputationPolicy(max_iterations=max_iterations)
        b = hit_or_miss_batch(t, n, RngStream(18), policy=policy)
        assert b.proposals == b.trials.sum() <= n * max_iterations
        assert (b.trials[~b.imputed] >= 1).all()
        # draws left after the last hit belong to the first open slot
        assert (b.trials[b.imputed][1:] == 0).all()
        assert t.interval.contains(b.values[~b.imputed]).all()

    def test_error_policy_raises_when_the_budget_runs_out(self):
        # P(X > 3) ~ 1.3e-3: 50 base draws find no hit with probability ~0.94
        t = truncate(build_descriptor("normal", mu=0, sigma=1), lower=3.0)
        with pytest.raises(SamplingBreakdownError, match="budget of 50 base draws"):
            hit_or_miss_batch(t, 5, RngStream(1),
                              policy=ImputationPolicy("error", max_iterations=10))

    def test_degenerate_target_goes_to_policy_without_draws(self):
        # log P(I) underflows on ]40, inf[: no base draw can be spent on it
        t = truncate(build_descriptor("normal", mu=0, sigma=1), lower=40.0)
        assert t.degenerate
        b = hit_or_miss_batch(t, 3, RngStream(15))
        assert b.proposals == 0 and b.accepts == 0
        assert b.trials.tolist() == [0, 0, 0]
        assert b.imputed.all() and (b.values == t.proj_mode).all()
        with pytest.raises(DegenerateTargetError):
            hit_or_miss_batch(t, 3, RngStream(15), policy=ImputationPolicy("error"))
