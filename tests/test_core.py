"""Truncated-target construction: interval mass, mode projection, density,
CDF and quantile contracts."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate

from trunclc import (
    TruncationInterval,
    TruncationOverflow,
    build_descriptor,
    log_interval_mass,
    support_bounds,
    truncate,
)
from trunclc import core
from trunclc.core import invert_targets, tail_targets
from trunclc.diagnostics import auto_probes
from trunclc.logspace import log_diff_exp

from test_families import CONTRACT_CASES


def brute_log_sum(desc, lo, hi):
    """Independent oracle: direct log-space summation of the pmf."""
    ks = np.arange(lo, hi + 1, dtype=float)
    lp = np.asarray(desc.log_pdf(ks), dtype=float)
    m = lp.max()
    return m + math.log(np.exp(lp - m).sum())


class TestLogIntervalMass:
    def test_full_interval_is_zero(self):
        d = build_descriptor("normal", mu=0, sigma=1)
        assert log_interval_mass(d, TruncationInterval()) == 0.0

    def test_half_line_by_symmetry(self):
        d = build_descriptor("normal", mu=0, sigma=1)
        got = log_interval_mass(d, TruncationInterval(0.0, math.inf))
        assert got == pytest.approx(math.log(0.5), abs=1e-14)

    def test_deep_tail_vs_mills_oracle(self):
        # oracle: mpmath log(Phi-bar(38)) = -726.55721601882013...
        d = build_descriptor("normal", mu=0, sigma=1)
        got = log_interval_mass(d, TruncationInterval(38.0, math.inf))
        assert got == pytest.approx(-726.55721601882013, abs=1e-9)

    def test_representability_underflow_collapses_to_neg_inf(self):
        d = build_descriptor("normal", mu=0, sigma=1)
        assert log_interval_mass(d, TruncationInterval(39.0, math.inf)) == -math.inf
        e = build_descriptor("gamma", alpha=1, **{"lambda": 1})
        assert log_interval_mass(e, TruncationInterval(745.0, math.inf)) > -math.inf
        assert log_interval_mass(e, TruncationInterval(746.0, math.inf)) == -math.inf

    def test_route_stability(self):
        # CDF route and survival route agree on the log scale wherever
        # both are finite and well conditioned
        d = build_descriptor("normal", mu=0, sigma=1)
        for a, b in [(-2.0, -0.5), (-1.0, 1.0), (0.5, 2.0), (-8.0, -6.0), (6.0, 8.0)]:
            cdf_route = log_diff_exp(
                float(d.log_cdf(np.asarray(b))), float(d.log_cdf(np.asarray(a)))
            )
            sf_route = log_diff_exp(
                float(d.log_sf(np.asarray(a))), float(d.log_sf(np.asarray(b)))
            )
            assert cdf_route == pytest.approx(sf_route, rel=1e-9)
            got = log_interval_mass(d, TruncationInterval(a, b))
            assert got == pytest.approx(cdf_route, rel=1e-9)

    def test_discrete_mass_matches_brute_force(self):
        d = build_descriptor("poisson", {"lambda": 5.0})
        got = log_interval_mass(d, TruncationInterval(12.0, math.inf))
        want = brute_log_sum(d, 13, 300)
        assert got == pytest.approx(want, rel=1e-12)
        got2 = log_interval_mass(d, TruncationInterval(4.0, 9.0))
        want2 = brute_log_sum(d, 5, 9)
        assert got2 == pytest.approx(want2, rel=1e-12)


class TestProjectMode:
    def test_continuous_clamp(self):
        d = build_descriptor("normal", mu=0, sigma=1)
        assert truncate(d, 3.0, math.inf).proj_mode == 3.0
        assert truncate(d, -math.inf, -2.0).proj_mode == -2.0
        assert truncate(d, -1.0, 1.0).proj_mode == 0.0

    def test_discrete_projection(self):
        d = build_descriptor("poisson", {"lambda": 5.0})
        assert truncate(d, 10.7, math.inf).proj_mode == 11.0
        assert truncate(d, 2.0, 20.0).proj_mode == 5.0
        assert truncate(d, -math.inf, math.inf).proj_mode == 5.0

    def test_discrete_empty_interval_errors(self):
        d = build_descriptor("poisson", {"lambda": 5.0})
        with pytest.raises(ValueError):
            truncate(d, 9.2, 9.8)

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            TruncationInterval(2.0, 2.0)
        with pytest.raises(ValueError):
            TruncationInterval(5.0, 1.0)


def _random_intervals(d, rng, n=200):
    """``n`` random ``(a, b)`` with integer, fractional and infinite ends,
    plus intervals below, above and (for a lattice) between support points."""
    s0, s1 = d.support
    edges = [e + off for e in d.support if math.isfinite(e)
             for off in (-1.0, -0.5, 0.0, 0.5, 1.0)]
    free = d.mu + d.sigma * rng.uniform(-6.0, 8.0, n)
    pool = np.concatenate([[-math.inf, math.inf], edges, free, np.round(free)])
    out = []
    while len(out) < n:
        a, b = sorted(rng.choice(pool, 2))
        if a < b:
            out.append((a, b))
    k = math.floor(d.mu)
    out += [(k + 0.2, k + 0.7), (k + 0.2, k + 1.0), (k - 0.5, k + 0.5)]
    if math.isfinite(s0):
        out += [(-math.inf, s0 - 1.0), (s0 - 3.0, s0 - 0.5), (-math.inf, s0)]
    if math.isfinite(s1):
        out += [(s1 + 0.5, math.inf), (s1, math.inf), (s1 - 0.5, s1 + 2.0)]
    return out


class TestSupportRule:
    """``support_bounds`` against brute enumeration, and the rules built on it."""

    @pytest.mark.parametrize("family,params", CONTRACT_CASES,
                             ids=[f"{f}{p}" for f, p in CONTRACT_CASES])
    def test_bounds_mode_and_lowest_quantile(self, family, params):
        d = build_descriptor(family, params)
        s0, s1 = d.support
        rng = np.random.default_rng(sum(map(ord, f"{family}{params}")))
        intervals = _random_intervals(d, rng)
        finite = [x for ab in intervals for x in (*ab, s0, s1) if math.isfinite(x)]
        bottom, top = math.floor(min(finite)) - 2.0, math.ceil(max(finite)) + 2.0
        if d.is_discrete:
            grid = np.arange(max(s0, bottom), min(s1, top) + 1.0)
        else:
            grid = np.unique(np.concatenate([finite, np.linspace(bottom, top, 4001)]))
            grid = grid[(grid >= s0) & (grid <= s1)]
        for a, b in intervals:
            iv = TruncationInterval(a, b)
            pts = grid[(grid > a) & (grid <= b)]
            if pts.size == 0:
                with pytest.raises(ValueError):
                    support_bounds(d, iv)
                with pytest.raises(ValueError):
                    truncate(d, a, b)
                continue
            lo, hi = support_bounds(d, iv)
            assert type(lo) is float and type(hi) is float
            unbounded = b == math.inf and s1 == math.inf
            if d.is_discrete:
                assert lo == pts.min(), (a, b)
                assert hi == (math.inf if unbounded else pts.max()), (a, b)
            else:
                # the infimum may be the open end a, the supremum sits in ]a, b]
                assert lo <= pts.min() and (lo in pts or lo == a), (a, b)
                assert hi >= pts.max() and (hi in pts or unbounded), (a, b)
            t = truncate(d, a, b)
            assert t.support == (lo, hi)
            assert t.proj_mode == max(lo, min(hi, d.mode))
            if not t.degenerate:
                assert t.quantile(0.0) == lo


class TestCleanMask:
    """``core.clean_mask``: finite, above ``a`` and in the truncated support."""

    def test_continuous_lower_edge_is_open(self):
        d = build_descriptor("gamma", alpha=2.0)
        ts = [truncate(d, -1.0, 5.0), truncate(d, 1.0, 5.0)]  # ]0, 5] and ]1, 5]
        x = np.array([-1.0, 0.0, 5e-324, 1.0, 5.0, np.nextafter(5.0, 6.0), np.inf, np.nan])
        got = core.clean_mask(ts, np.stack([x, x]))
        assert got.tolist() == [[False, False, True, True, True, False, False, False],
                                [False, False, False, False, True, False, False, False]]

    def test_lattice_lower_edge_is_a_support_point(self):
        d = build_descriptor("poisson", {"lambda": 5.0})
        x = np.array([[2.5, 3.0, 9.0, 9.5, -np.inf, np.inf]])
        assert core.clean_mask([truncate(d, 2.5, 9.0)], x).tolist() == [
            [False, True, True, False, False, False]]
        # past 2**53, floor(a) + 1 rounds onto the open end a
        t = truncate(build_descriptor("poisson", {"lambda": 1e34}), lower=1e34)
        assert t.support[0] == 1e34 and not core.clean_mask([t], np.array([[1e34]])).any()


class TestTruncLogPdf:
    def test_half_normal_value(self):
        # closed form: log(2 phi(0)) = -0.22579135264472744
        t = truncate(build_descriptor("normal", mu=0, sigma=1), lower=0.0)
        assert t.log_pdf(1e-12) == pytest.approx(-0.22579135264472744, abs=1e-9)

    def test_outside_interval_is_neg_inf(self):
        t = truncate(build_descriptor("normal", mu=0, sigma=1), lower=0.0, upper=2.0)
        assert t.log_pdf(-0.5) == -math.inf
        assert t.log_pdf(0.0) == -math.inf  # open lower endpoint
        assert t.log_pdf(2.0) > -math.inf   # closed upper endpoint
        assert t.log_pdf(2.0000001) == -math.inf

    def test_poisson_vs_summation_oracle(self):
        d = build_descriptor("poisson", {"lambda": 5.0})
        t = truncate(d, lower=12.0)
        want = float(d.log_pdf(np.asarray(13.0))) - brute_log_sum(d, 13, 200)
        assert t.log_pdf(13.0) == pytest.approx(want, rel=1e-12)

    def test_normalization_continuous(self):
        # numerical integral of the truncated density is 1 at moderate depth
        for family, params, a, b in [
            ("normal", {"mu": 0.0, "sigma": 1.0}, 1.0, math.inf),
            ("gamma", {"alpha": 2.0, "lambda": 1.0}, 5.0, 9.0),
            ("invgauss", {"mu": 1.0, "lambda": 1.0}, 0.5, 4.0),
        ]:
            t = truncate(build_descriptor(family, params), lower=a, upper=b)
            hi = b if math.isfinite(b) else a + 60.0
            val, _ = integrate.quad(
                lambda x: math.exp(t.log_pdf(x)), a, hi, limit=300
            )
            assert val == pytest.approx(1.0, abs=1e-6)

    def test_normalization_discrete(self):
        t = truncate(build_descriptor("poisson", {"lambda": 3.0}), lower=4.0, upper=9.0)
        total = sum(math.exp(t.log_pdf(float(k))) for k in range(5, 10))
        assert total == pytest.approx(1.0, abs=1e-6)


class TestTruncQuantile:
    def test_half_normal_median(self):
        # oracle: standard normal quantile at 0.75 = 0.6744897501960817
        t = truncate(build_descriptor("normal", mu=0, sigma=1), lower=0.0)
        assert t.quantile(0.5) == pytest.approx(0.6744897501960817, abs=1e-12)

    def test_p_zero_limits(self):
        t = truncate(build_descriptor("normal", mu=0, sigma=1), lower=1.5)
        assert t.quantile(0.0) == 1.5
        tp = truncate(build_descriptor("poisson", {"lambda": 5.0}), lower=2.0, upper=20.0)
        assert tp.quantile(0.0) == 3.0

    def test_p_zero_clamped_into_support(self):
        # the lower endpoint -5 lies below the gamma support [0, inf): the
        # infimum of the truncated law is 0, and small p approach it from above
        t = truncate(build_descriptor("gamma", alpha=2.0), lower=-5.0, upper=3.0)
        assert t.quantile(0.0) == 0.0
        assert 0.0 < t.quantile(1e-12) < 1e-5

    def test_overflow_at_ten_sigma(self):
        t = truncate(build_descriptor("normal", mu=0, sigma=1), lower=10.0)
        with pytest.raises(TruncationOverflow):
            t.quantile(0.5)

    def test_monotone_in_p(self):
        for target in [
            truncate(build_descriptor("normal", mu=0, sigma=1), lower=-1.0, upper=2.0),
            truncate(build_descriptor("poisson", {"lambda": 7.0}), lower=3.0, upper=30.0),
        ]:
            ps = np.linspace(0.001, 0.999, 41)
            qs = [target.quantile(float(p)) for p in ps]
            assert all(q2 >= q1 for q1, q2 in zip(qs, qs[1:]))

    def test_quantile_cdf_inversion(self):
        # F_I(q_I(p)) = p to 1e-8 on continuous targets with mass >= 1e-4
        targets = [
            truncate(build_descriptor("normal", mu=0, sigma=1), lower=-1.0, upper=2.0),
            truncate(build_descriptor("gamma", alpha=2, **{"lambda": 1}), lower=0.5, upper=4.0),
            truncate(build_descriptor("invgauss", mu=1, **{"lambda": 1}), lower=0.3, upper=2.0),
        ]
        for t in targets:
            a = t.interval.lower
            for p in [0.05, 0.2, 0.5, 0.8, 0.95]:
                x = t.quantile(p)
                la = float(t.base.log_cdf(np.asarray(a)))
                lx = float(t.base.log_cdf(np.asarray(x)))
                f_i = math.exp(log_diff_exp(lx, min(la, lx)) - t.log_mass)
                assert f_i == pytest.approx(p, abs=1e-8)


class TestTruncCdf:
    def test_deep_target_interior_points(self):
        # log P(I) = -745 is representable, but each sub-interval mass
        # below it is not; F_I must still come out of the log-space ratio
        t = truncate(build_descriptor("gamma", alpha=1, **{"lambda": 1}), lower=745.0)
        got = t.cdf([745.5, 746.0])
        want = [-math.expm1(-0.5), -math.expm1(-1.0)]
        assert got == pytest.approx(want, abs=1e-12)

    def test_matches_per_point_interval_mass(self):
        # reference: the ratio of two log_interval_mass values per point
        cases = [
            ("normal", {"mu": 0.0, "sigma": 1.0}, -1.0, 2.5),
            ("normal", {"mu": 0.0, "sigma": 1.0}, 3.0, math.inf),
            ("gamma", {"alpha": 2.0, "lambda": 1.0}, 5.0, 9.0),
            ("poisson", {"lambda": 5.0}, 4.0, math.inf),
            ("geometric", {"p": 0.3}, -math.inf, 12.0),
            ("nbinom", {"n": 10.0, "p": 0.5}, 1000.0, math.inf),
        ]
        for family, params, a, b in cases:
            t = truncate(build_descriptor(family, params), lower=a, upper=b)
            lo = a if math.isfinite(a) else -3.0
            xs = np.concatenate([[lo - 1.0, lo], lo + np.linspace(0.25, 6.0, 7)])
            want = [
                0.0 if x <= a else 1.0 if x >= b else math.exp(
                    log_interval_mass(t.base, TruncationInterval(a, x)) - t.log_mass)
                for x in xs
            ]
            assert t.cdf(xs) == pytest.approx(np.minimum(want, 1.0), rel=1e-14, abs=1e-15)
        assert isinstance(t.cdf(1002.0), float)

    @pytest.mark.parametrize("family,params,a,b", [
        ("nbinom", {"n": 10.0, "p": 0.5}, 1000.0, math.inf),  # survival route, tail sums
        ("normal", {"mu": 0.0, "sigma": 1.0}, -1.0, 2.5),  # CDF route
    ])
    def test_reads_the_lower_end_from_the_target(self, family, params, a, b):
        # ``cdf`` evaluates log F and log S at its points only: log F(a) and
        # log S(a) are read from the target, and the values are those of
        # evaluating them again
        calls = []
        d = build_descriptor(family, params)

        def counting(fn):
            return lambda x: calls.append(np.atleast_1d(x).copy()) or fn(x)

        t = truncate(dataclasses.replace(d, log_cdf=counting(d.log_cdf),
                                         log_sf=counting(d.log_sf)), lower=a, upper=b)
        assert t.log_cdf_lower == d.log_cdf(a)
        if family == "nbinom":
            assert t.log_sf_lower == d.log_sf(a)
        else:
            assert t.log_sf_lower == pytest.approx(d.log_sf(a), rel=1e-15)
        xs = a + np.array([-1.0, 0.0, 0.5, 1.0, 3.0, 10.0, 50.0])
        for x in (xs, xs[3:4], float(xs[4])):
            calls.clear()
            got = t.cdf(x)
            assert calls and not any((c == a).any() for c in calls)
            x, got = np.atleast_1d(x), np.atleast_1d(got)
            inside = (x > a) & (x < b)
            la, lsa = core._log_lower(d, np.array([a]))
            want = np.exp(core._log_masses(d, la, lsa, x[inside]) - t.log_mass)
            np.testing.assert_array_equal(got[inside], np.minimum(want, 1.0))


class TestDescriptorConsistency:
    def test_cdf_plus_sf_is_one(self):
        # |F + S - 1| <= 1e-12 wherever both are comfortably representable
        cases = [
            ("normal", {"mu": 0.0, "sigma": 1.0}, np.linspace(-6, 6, 25)),
            ("gamma", {"alpha": 2.0, "lambda": 0.5}, np.linspace(0.1, 20, 25)),
            ("invgauss", {"mu": 1.0, "lambda": 2.0}, np.linspace(0.05, 8, 25)),
            ("poisson", {"lambda": 7.0}, np.arange(0, 25, dtype=float)),
            ("geometric", {"p": 0.3}, np.arange(0, 30, dtype=float)),
        ]
        for family, params, xs in cases:
            d = build_descriptor(family, params)
            f = np.exp(np.asarray(d.log_cdf(xs), dtype=float))
            s = np.exp(np.asarray(d.log_sf(xs), dtype=float))
            keep = (f > 1e-300) & (s > 1e-300)
            assert np.all(np.abs(f[keep] + s[keep] - 1.0) <= 1e-12)

    def test_degenerate_target_flag(self):
        t = truncate(build_descriptor("normal", mu=0, sigma=1), lower=800.0)
        assert t.degenerate
        assert t.proj_mode == 800.0


class TestTailTargets:
    """``tail_targets`` builds a schedule's targets ]a, inf[ in array calls,
    each equal to the one ``truncate`` builds."""

    # the auto schedule of every registered family, deep members whose
    # schedules reach the tail-sum fallback and the -745 limit, and binomial
    # members whose schedules run past n
    CASES = CONTRACT_CASES + [
        ("normal", {"mu": 3.0, "sigma": 0.1}),
        ("poisson", {"lambda": 500.0}),
        ("nbinom", {"n": 10.0, "p": 0.5}),
        ("binomial", {"n": 16.0, "p": 0.05}),
        ("binomial", {"n": 2048.0, "p": 0.05}),
        ("binomial", {"n": 2048.0, "p": 0.5}),
    ]

    @staticmethod
    def _one(desc, a):
        try:
            return truncate(desc, lower=a)
        except ValueError:
            return None

    @pytest.mark.parametrize("family,params", CASES, ids=[f"{f}{p}" for f, p in CASES])
    def test_equals_truncate_field_for_field(self, family, params):
        desc = build_descriptor(family, params)
        # from below the support, through the auto schedule, to far past it
        lowers = np.concatenate([desc.mu - desc.sigma * np.arange(6.0, 0.0, -1.0),
                                 auto_probes(desc), desc.mu + desc.sigma * np.array([1e3, 1e6])])
        got = tail_targets(desc, lowers)
        assert len(got) == lowers.size
        refused = 0
        for a, t in zip(lowers.tolist(), got):
            want = self._one(desc, a)
            if want is None:
                refused += 1
                assert t is None, a
                continue
            assert t == want and t.base is desc, a
        if family == "binomial":
            assert refused > 0  # depths past n
        else:
            assert refused == 0

    def test_a_refused_depth_gives_none(self):
        desc = build_descriptor("binomial", n=10.0, p=0.5)
        assert tail_targets(desc, [3.0, 10.0, math.inf, 2.0])[1:3] == [None, None]
        assert tail_targets(desc, [10.0]) == [None]

    def test_invert_reads_log_f_a_from_the_target(self):
        calls = []
        d = build_descriptor("normal", mu=0, sigma=1)
        counting = dataclasses.replace(d, log_cdf=lambda x: calls.append(x) or d.log_cdf(x))
        t = truncate(counting, lower=1.0)
        assert len(calls) == 1 and t.log_cdf_lower == d.log_cdf(1.0)
        pp, _, _ = t.invert(np.array([0.0, 0.5]))
        assert len(calls) == 1
        assert pp[0] == math.exp(d.log_cdf(1.0))


class TestInvertTargets:
    """``invert_targets`` runs the inverse transform of many targets of one
    base in one quantile call; ``invert`` is its one-target case."""

    def test_rows_equal_invert(self):
        desc = build_descriptor("normal", mu=0, sigma=1)
        targets = tail_targets(desc, [-1.0, 2.0, 9.0])
        u = np.random.default_rng(1).random((3, 50))
        pp, x, bad = invert_targets(targets, u)
        for t, row in zip(targets, range(3)):
            want = t.invert(u[row])
            for got, w in zip((pp[row], x[row], bad[row]), want):
                np.testing.assert_array_equal(got, w)
        assert bad[2].any() and not bad[0].any()

    def test_scalar_invert_keeps_its_shape(self):
        t = truncate(build_descriptor("normal", mu=0, sigma=1), lower=1.0)
        pp, x, bad = t.invert(0.5)
        assert np.shape(pp) == np.shape(x) == np.shape(bad) == ()
        assert float(x) == t.quantile(0.5)
