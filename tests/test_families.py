"""Family registry: standardization indices, modes, tail accuracy,
log-concavity, and the registration API."""

import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest
from scipy import stats as st

from trunclc import (
    DistributionDescriptor,
    FamilySpec,
    ParameterError,
    ParamSpec,
    UnknownFamilyError,
    build_descriptor,
    check_log_concavity,
    ds_sample_batch,
    list_families,
    register_family,
    truncate,
)
from trunclc.families import _log_tail_sum, exception_route
from trunclc.logspace import log1mexp

from test_golden import FAMILY_MEMBERS

mp.mp.dps = 50


def brute_log_sum(desc, lo, hi):
    ks = np.arange(lo, hi + 1, dtype=float)
    lp = np.asarray(desc.log_pdf(ks), dtype=float)
    m = lp.max()
    return m + math.log(np.exp(lp - m).sum())


class TestStandardizationIndices:
    """mu / sigma per the central-tendency and dispersion conventions."""

    def test_poisson(self):
        d = build_descriptor("poisson", {"lambda": 4.0})
        assert (d.mu, d.sigma) == (4.0, 2.0)

    def test_geometric(self):
        d = build_descriptor("geometric", p=0.5)
        assert d.mu == 0.0
        assert d.sigma == pytest.approx(math.sqrt(0.5) / 0.5)

    def test_binomial(self):
        d = build_descriptor("binomial", n=10, p=0.5)
        assert d.mu == 5.0
        assert d.sigma == pytest.approx(math.sqrt(2.5))
        assert d.mode == 5.0  # oracle: argmax of the pmf by direct scan
        pm = st.binom.pmf(np.arange(11), 10, 0.5)
        assert np.argmax(pm) == 5

    def test_nbinom(self):
        d = build_descriptor("nbinom", n=4.0, p=0.25)
        assert d.mu == pytest.approx(4.0 * 0.25 / 0.75)
        assert d.sigma == pytest.approx(math.sqrt(1.0) / 0.75)

    def test_gamma(self):
        d = build_descriptor("gamma", alpha=4.0, **{"lambda": 2.0})
        assert d.mu == 2.0
        assert d.sigma == 1.0

    def test_invgauss(self):
        d = build_descriptor("invgauss", mu=2.0, **{"lambda": 4.0})
        assert d.mu == 2.0
        assert d.sigma == pytest.approx(math.sqrt(8.0 / 4.0))


class TestParameterValidation:
    def test_unknown_family(self):
        with pytest.raises(UnknownFamilyError):
            build_descriptor("zipf", s=2)

    def test_invalid_parameter_names_constraint(self):
        with pytest.raises(ParameterError, match="lambda > 0"):
            build_descriptor("poisson", {"lambda": -1.0})
        with pytest.raises(ParameterError, match="0 < p < 1"):
            build_descriptor("geometric", p=1.5)

    def test_gamma_shape_whose_reciprocal_overflows(self):
        # 1/1e-310 is inf; below there scipy's gammaincc goes negative
        with pytest.raises(ParameterError, match=r"gamma: parameter alpha=1e-310"):
            build_descriptor("gamma", alpha=1e-310)
        assert build_descriptor("gamma", alpha=1e-300).log_scale is not None

    def test_missing_and_extra(self):
        with pytest.raises(ParameterError, match="missing"):
            build_descriptor("binomial", n=10)
        with pytest.raises(ParameterError, match="unknown parameter"):
            build_descriptor("poisson", {"lambda": 1.0, "scale": 2.0})


class TestModeIsArgmax:
    """The mode field maximizes the density (probed, not trusted)."""

    DISCRETE = [
        ("poisson", [{"lambda": v} for v in (0.3, 1.0, 2.5, 5.0, 17.2, 100.0)]),
        ("binomial", [{"n": 1, "p": 0.5}, {"n": 10, "p": 0.5}, {"n": 10, "p": 0.23},
                      {"n": 100, "p": 0.9}, {"n": 1000, "p": 0.01}, {"n": 7, "p": 0.999}]),
        ("nbinom", [{"n": 0.5, "p": 0.3}, {"n": 1.0, "p": 0.5}, {"n": 2.0, "p": 0.7},
                    {"n": 10.0, "p": 0.9}, {"n": 100.0, "p": 0.2}]),
        ("geometric", [{"p": v} for v in (0.1, 0.5, 0.9)]),
    ]
    CONTINUOUS = [
        ("normal", [{"mu": -3.0, "sigma": 0.5}, {"mu": 2.0, "sigma": 10.0}]),
        ("gamma", [{"alpha": a, "lambda": l} for a in (1.0, 1.5, 2.0, 10.0)
                   for l in (0.5, 2.0)]),
        ("invgauss", [{"mu": 1.0, "lambda": 1.0}, {"mu": 2.0, "lambda": 0.5},
                      {"mu": 0.5, "lambda": 3.0}]),
        ("epd", [{"beta": v} for v in (1.0, 1.7, 2.0, 4.0)]),
    ]

    @pytest.mark.parametrize("family,grid", DISCRETE)
    def test_discrete(self, family, grid):
        for params in grid:
            d = build_descriptor(family, params)
            lm = float(d.log_pdf(np.asarray(d.mode)))
            for delta in (-1.0, 1.0):
                neighbor = d.mode + delta
                ln = float(d.log_pdf(np.asarray(neighbor)))
                assert lm >= ln - 1e-12, (family, params, neighbor)

    @pytest.mark.parametrize("family,grid", CONTINUOUS)
    def test_continuous(self, family, grid):
        for params in grid:
            d = build_descriptor(family, params)
            delta = 1e-6 * d.sigma
            lm = float(d.log_pdf(np.asarray(d.mode)))
            for s in (-1.0, 1.0):
                x = d.mode + s * delta
                if not d.support[0] <= x <= d.support[1]:
                    continue
                assert lm >= float(d.log_pdf(np.asarray(x))) - 1e-12, (family, params)

    @pytest.mark.parametrize("mu,lam", [
        (1.0, 1e-7), (1.0, 1e-8), (1.0, 1e-10), (1.0, 1e-160), (1.0, 1e-300),
        (1.0, 0.3), (2.0, 3.0), (0.7, 5.0), (1e3, 1e-3), (1e-3, 1e3),
    ])
    def test_invgauss_mode_vs_mpmath(self, mu, lam):
        # mu (sqrt(1 + r^2) - r), r = 3 mu / (2 lam), at enough digits to
        # survive its cancellation (r is 1.5e300 at the smallest lam)
        d = build_descriptor("invgauss", mu=mu, **{"lambda": lam})
        with mp.workdps(700):
            r = 3 * mp.mpf(mu) / (2 * mp.mpf(lam))
            want = float(mu * (mp.sqrt(1 + r * r) - r))
        assert d.mode == pytest.approx(want, rel=1e-15)


class TestTailAccuracy:
    """log CDF / log survival against independent high-precision oracles."""

    def _probes(self, d, integer=False):
        lo = max(d.support[0], d.mu - 5.0 * d.sigma)
        hi = min(d.support[1], d.mu + 5.0 * d.sigma)
        xs = np.linspace(lo, hi, 20)
        if integer:
            xs = np.unique(np.floor(xs))
        return xs

    @pytest.mark.parametrize("family,params", [
        ("poisson", {"lambda": 7.0}),
        ("binomial", {"n": 50, "p": 0.3}),
        ("nbinom", {"n": 6.0, "p": 0.4}),
        ("geometric", {"p": 0.35}),
    ])
    def test_discrete_vs_brute_summation(self, family, params):
        d = build_descriptor(family, params)
        hi_sum = int(min(d.support[1], d.mu + 60.0 * d.sigma + 60))
        for k in self._probes(d, integer=True):
            want_cdf = brute_log_sum(d, int(d.support[0]), int(k))
            want_sf = brute_log_sum(d, int(k) + 1, hi_sum) if k < d.support[1] else -math.inf
            assert float(d.log_cdf(np.asarray(k))) == pytest.approx(want_cdf, rel=1e-10)
            if want_sf > -math.inf:
                assert float(d.log_sf(np.asarray(k))) == pytest.approx(want_sf, rel=1e-10)

    def test_normal_vs_mpmath(self):
        d = build_descriptor("normal", mu=1.0, sigma=2.0)
        for x in self._probes(d):
            z = (mp.mpf(x) - 1) / 2
            assert float(d.log_cdf(np.asarray(x))) == pytest.approx(
                float(mp.log(mp.ncdf(z))), rel=1e-12)
            assert float(d.log_sf(np.asarray(x))) == pytest.approx(
                float(mp.log(mp.ncdf(-z))), rel=1e-12)

    def test_gamma_vs_mpmath(self):
        d = build_descriptor("gamma", alpha=2.5, **{"lambda": 1.5})
        for x in self._probes(d):
            if x <= 0:
                continue
            z = mp.mpf(1.5) * mp.mpf(x)
            want_cdf = float(mp.log(mp.gammainc(mp.mpf(2.5), 0, z, regularized=True)))
            want_sf = float(mp.log(mp.gammainc(mp.mpf(2.5), z, mp.inf, regularized=True)))
            assert float(d.log_cdf(np.asarray(x))) == pytest.approx(want_cdf, rel=1e-10)
            assert float(d.log_sf(np.asarray(x))) == pytest.approx(want_sf, rel=1e-10)

    def test_epd_vs_mpmath(self):
        for beta in (1.0, 2.0, 3.5):
            d = build_descriptor("epd", beta=beta)
            a = mp.mpf(1) / beta
            for x in self._probes(d):
                xx = mp.mpf(abs(x)) ** beta
                half_tail = mp.mpf("0.5") * mp.gammainc(a, xx, mp.inf, regularized=True)
                want_sf = half_tail if x >= 0 else 1 - half_tail
                assert float(d.log_sf(np.asarray(x))) == pytest.approx(
                    float(mp.log(want_sf)), rel=1e-10), (beta, x)

    def test_invgauss_vs_mpmath_quadrature(self):
        # independent oracle: adaptive quadrature of the density itself
        d = build_descriptor("invgauss", mu=1.0, **{"lambda": 2.0})

        def pdf(x):
            return mp.sqrt(2 / (2 * mp.pi * x**3)) * mp.exp(
                -2 * (x - 1) ** 2 / (2 * x))

        for x in [0.2, 0.5, 1.0, 2.0, 4.0]:
            want_cdf = float(mp.log(mp.quad(pdf, [0, x])))
            want_sf = float(mp.log(mp.quad(pdf, [x, mp.inf])))
            assert float(d.log_cdf(np.asarray(x))) == pytest.approx(want_cdf, rel=1e-9)
            assert float(d.log_sf(np.asarray(x))) == pytest.approx(want_sf, rel=1e-9)

    @pytest.mark.parametrize("x", [1e155, 1e300, 1e-310, 5e-324])
    def test_invgauss_at_extreme_finite_points(self, x):
        # warnings are errors: no overflow may escape at these points
        mu, lam = mp.mpf(1), mp.mpf("0.3")
        d = build_descriptor("invgauss", mu=1.0, **{"lambda": 0.3})
        xx = mp.mpf(x)
        want_pdf = (mp.log(lam / (2 * mp.pi * xx**3)) / 2
                    - lam * (xx - mu) ** 2 / (2 * mu * mu * xx))
        # -1.5e154 and -1.5e299 at the large points; below -1.8e308 (-inf)
        # at the subnormal ones
        assert d.log_pdf(x) == pytest.approx(float(want_pdf), rel=1e-14)
        # log F(x) = log(Phi(u1) + e^(2 lam / mu) Phi(-u2)), u1 = sqrt(lam / x) (x / mu - 1)
        u1 = mp.sqrt(lam / xx) * (xx / mu - 1)
        if x < 1.0:
            # both terms are below phi(u1) / |u1|, whose log is below the
            # double range: log F is -inf and log S is 0
            bound = -u1**2 / 2 - mp.log(2 * mp.pi) / 2 - mp.log(-u1)
            assert float(bound) == -math.inf
            assert (d.log_cdf(x), d.log_sf(x)) == (-math.inf, 0.0)
        else:
            # S(x) < Phi(-u1) < phi(u1) / u1, so log F = log1p(-S) rounds to 0
            assert float(mp.exp(-u1**2 / 2) / u1) == 0.0
            assert d.log_cdf(x) == 0.0

    def test_deep_tail_pmf_vs_mpmath(self):
        d = build_descriptor("poisson", {"lambda": 5.0})
        want = float(120 * mp.log(5) - 5 - mp.log(mp.factorial(120)))
        assert float(d.log_pdf(np.asarray(120.0))) == pytest.approx(want, rel=1e-13)
        b = build_descriptor("binomial", n=1000, p=0.3)
        want_b = float(
            mp.log(mp.binomial(1000, 990)) + 990 * mp.log(mp.mpf("0.3"))
            + 10 * mp.log(mp.mpf("0.7")))
        assert float(b.log_pdf(np.asarray(990.0))) == pytest.approx(want_b, rel=1e-13)

    def test_tail_sum_fallback_below_linear_floor(self):
        # survival at depths where the linear special function underflows
        d = build_descriptor("poisson", {"lambda": 5.0})
        got = float(d.log_sf(np.asarray(300.0)))
        want = brute_log_sum(d, 301, 700)
        assert got == pytest.approx(want, rel=1e-12)
        assert got < -600.0


class TestMemorylessnessIdentities:
    def test_geometric_shift_identity(self):
        # under the failures convention the exact identity is
        # log S(x+h) - log S(x) = h log(1-p)  (= log S(h-1))
        for p in (0.1, 0.5, 0.9):
            d = build_descriptor("geometric", p=p)
            lq = math.log1p(-p)
            for x in (0.0, 3.0, 17.0, 50.0):
                for h in (0.0, 1.0, 8.0, 50.0):
                    got = float(d.log_sf(np.asarray(x + h))) - float(
                        d.log_sf(np.asarray(x)))
                    assert got == pytest.approx(h * lq, abs=1e-10)

    def test_exponential_shift_identity(self):
        d = build_descriptor("gamma", alpha=1.0, **{"lambda": 0.7})
        for x in (0.0, 1.5, 40.0, 900.0):
            for h in (0.3, 2.0, 60.0):
                got = float(d.log_sf(np.asarray(x + h))) - float(d.log_sf(np.asarray(x)))
                assert got == pytest.approx(float(d.log_sf(np.asarray(h))), abs=1e-10)


class TestLogConcavity:
    def test_poisson_is_log_concave(self):
        d = build_descriptor("poisson", {"lambda": 5.0})
        ok, violation = check_log_concavity(d, (0.0, 100.0))
        assert ok and violation is None

    def test_gamma_below_one_is_not(self):
        d = build_descriptor("gamma", alpha=0.5, **{"lambda": 1.0})
        ok, violation = check_log_concavity(d, (1e-9, 10.0), n_probes=500)
        assert not ok and violation is not None

    def test_discrete_mixture_is_not(self):
        # poisson(5) + poisson(40): the log-pmf turns convex between the modes
        p5 = build_descriptor("poisson", {"lambda": 5.0})
        p40 = build_descriptor("poisson", {"lambda": 40.0})
        d = dataclasses.replace(
            p5, log_pdf=lambda x: np.logaddexp(p5.log_pdf(x), p40.log_pdf(x)))
        ok, (k, gap) = check_log_concavity(d, (0.0, 100.0))
        ks = np.arange(101.0)
        lf = np.logaddexp(st.poisson.logpmf(ks, 5.0), st.poisson.logpmf(ks, 40.0))
        gaps = 2.0 * lf[1:-1] - lf[:-2] - lf[2:]
        first = int(np.argmax(gaps < -1e-9))
        assert not ok and 5.0 < k < 40.0
        assert k == ks[first + 1] and gap == pytest.approx(gaps[first], rel=1e-9)

    def test_normal_is_log_concave(self):
        d = build_descriptor("normal", mu=0, sigma=1)
        ok, _ = check_log_concavity(d, (-10.0, 10.0), n_probes=500)
        assert ok

    @pytest.mark.parametrize("family,params,rng", [
        ("binomial", {"n": 40, "p": 0.3}, (0.0, 40.0)),
        ("nbinom", {"n": 3.0, "p": 0.6}, (0.0, 200.0)),
        ("geometric", {"p": 0.2}, (0.0, 300.0)),
        ("gamma", {"alpha": 3.0, "lambda": 2.0}, (1e-6, 30.0)),
        ("epd", {"beta": 1.5}, (-20.0, 20.0)),
    ])
    def test_builtin_families_pass_probe(self, family, params, rng):
        d = build_descriptor(family, params)
        ok, violation = check_log_concavity(d, rng, n_probes=400)
        assert ok, violation

    def test_invgauss_log_concave_region_only(self):
        # the inverse Gaussian log-density has second derivative
        # 3/(2x^2) - lambda/x^3: concave only below 2*lambda/3.  The probe
        # must accept the concave region and flag the convex tail.
        d = build_descriptor("invgauss", mu=1.0, **{"lambda": 3.0})
        ok, _ = check_log_concavity(d, (1e-6, 2.0 * 3.0 / 3.0 - 0.05), n_probes=500)
        assert ok
        bad, violation = check_log_concavity(d, (2.5, 40.0), n_probes=500)
        assert not bad and violation is not None


def _epd_log_pdf(x, beta):
    return build_descriptor("epd", beta=beta).log_pdf(x)


class TestExponentialPower:
    def test_log_pdf_values(self):
        assert _epd_log_pdf(0.0, 1.0) == pytest.approx(math.log(0.5), abs=1e-14)
        # Gamma(1.5) = sqrt(pi)/2, so f(0; 2) = 1/sqrt(pi)
        assert _epd_log_pdf(0.0, 2.0) == pytest.approx(-0.5723649429247001, abs=1e-13)
        assert _epd_log_pdf(1.0, 1.0) == pytest.approx(-1.0 - math.log(2.0), abs=1e-14)

    def test_beta_below_one_rejected(self):
        with pytest.raises(ParameterError):
            _epd_log_pdf(0.0, 0.5)

    @pytest.mark.parametrize("beta", [1.5, 3.0])
    @pytest.mark.parametrize("q", [1e-3, 1e-16, 1e-17, 1e-100])
    def test_left_quantile_vs_mpmath(self, beta, q):
        # F(x) = Q(1/beta, |x|^beta) / 2 left of 0; mpmath solves it for
        # s = log |x|^beta, from the quantile's own guess
        a = mp.mpf(1) / beta
        got = build_descriptor("epd", beta=beta).quantile(q)
        s = mp.findroot(lambda s: mp.log(mp.gammainc(a, mp.exp(s), mp.inf, regularized=True))
                        - mp.log(2 * mp.mpf(q)), mp.log(mp.mpf(-got) ** beta))
        want = -float(mp.exp(s * a))
        assert got == pytest.approx(want, rel=1e-13)


def _build_laplace(params):
    m, b = params["m"], params["b"]

    def log_pdf(x):
        return -np.abs(np.asarray(x, dtype=float) - m) / b - math.log(2.0 * b)

    def log_cdf(x):
        x = np.asarray(x, dtype=float)
        lo = math.log(0.5) - (m - x) / b
        return np.where(x <= m, lo, log1mexp(np.minimum(
            math.log(0.5) - (x - m) / b, 0.0)))

    def log_sf(x):
        x = np.asarray(x, dtype=float)
        hi = math.log(0.5) - (x - m) / b
        return np.where(x >= m, hi, log1mexp(np.minimum(
            math.log(0.5) - (m - x) / b, 0.0)))

    def quantile(p):
        p = np.asarray(p, dtype=float)
        return np.where(p < 0.5, m + b * np.log(2.0 * p),
                        m - b * np.log1p(-np.minimum(p, 1.0)) - b * math.log(2.0))

    return DistributionDescriptor(
        family_name="laplace", params=params, kind="continuous",
        support=(-math.inf, math.inf), log_pdf=log_pdf, log_cdf=log_cdf,
        log_sf=log_sf, mode=m, mu=m, sigma=b, quantile=quantile,
    )


# a family is added by supplying its name, schema, and log-space descriptor
# functions; the builder's functions need not handle scalars themselves
LAPLACE = FamilySpec(
    name="laplace",
    params=(ParamSpec("m", lambda v: True, "real"),
            ParamSpec("b", lambda v: v > 0, "b > 0")),
    builder=_build_laplace,
)


class TestRegistrationApi:
    def test_user_family_end_to_end(self):
        register_family(LAPLACE)
        d = build_descriptor("laplace", m=0.0, b=1.0)
        ok, _ = check_log_concavity(d, (-10.0, 10.0))
        assert ok
        # deep truncation: the excess over a is exponential(1/b) exactly
        target = truncate(d, lower=20.0)
        batch = ds_sample_batch(target, 20_000, rng=5)
        assert batch.is_clean(target)
        ks = st.kstest(batch.values - 20.0, st.expon.cdf)
        assert ks.pvalue > 0.001

    def test_user_family_follows_the_convention(self):
        register_family(LAPLACE)
        d = build_descriptor("laplace", m=0.5, b=2.0)
        xs = np.array([-80.0, -6.0, -0.5, 0.0, 0.5, 1.9, 12.0, 80.0])
        for fn in (d.log_pdf, d.log_cdf, d.log_sf):
            _assert_convention(fn, xs)
        _assert_convention(d.quantile, np.array([1e-12, 0.1, 0.25, 0.5, 0.9, 1.0 - 1e-9]))


# a member of each registered family: the family's defaults, completed here
# where it has none; extra cases reach the gamma closed forms and log scale
MEMBERS = {
    "poisson": {"lambda": 5.0},
    "binomial": {"n": 40.0, "p": 0.3},
    "nbinom": {"n": 4.0, "p": 0.5},
    "geometric": {"p": 0.3},
    "gamma": {"alpha": 2.5},
    "invgauss": {"mu": 1.0, "lambda": 2.0},
    "epd": {"beta": 1.5},
}
CONTRACT_CASES = [(f, MEMBERS.get(f, {})) for f in list_families()] + [
    ("gamma", {"alpha": 1.0}), ("gamma", {"alpha": 0.5}), ("epd", {"beta": 1.0})]


def _bits(v):
    return np.float64(v).view(np.int64)


def _assert_convention(fn, xs):
    """Scalars and 0-d arrays give a float, arrays a float array of their
    shape, and a scalar result is the matching array element bit for bit."""
    out = fn(xs)
    assert isinstance(out, np.ndarray) and out.dtype == np.float64 and out.shape == xs.shape
    for shape in ((1,), (2, xs.size // 2)):
        part = fn(xs[: math.prod(shape)].reshape(shape))
        assert isinstance(part, np.ndarray) and part.dtype == np.float64
        assert part.shape == shape
        assert (_bits(part.ravel()) == _bits(out[: part.size])).all()
    for x, want in zip(xs, out):
        for arg in (float(x), np.float64(x), np.asarray(x)):
            got = fn(arg)
            assert type(got) is float, (fn, arg)
            assert _bits(got) == _bits(want), (fn, arg, got, want)


# laws that declare a log scale, over their parameter range
LOG_SCALE_CASES = [("gamma", {"alpha": a, "lambda": lam})
                   for a, lam in ((0.5, 1.0), (0.5, 3.0), (1e-3, 1.0), (0.99, 0.2))] + [
    ("invgauss", {"mu": mu, "lambda": lam})
    for mu, lam in ((1.0, 0.3), (1.0, 2.0), (1.0, 1e3), (1e3, 1.0), (0.01, 50.0))]


class TestLogScale:
    @pytest.mark.parametrize("family,params", CONTRACT_CASES,
                             ids=[f"{f}{p}" for f, p in CONTRACT_CASES])
    def test_which_laws_declare_a_log_scale(self, family, params):
        d = build_descriptor(family, params)
        declares = family == "invgauss" or (family == "gamma" and d.params["alpha"] < 1.0)
        assert (d.log_scale is not None) == declares
        assert exception_route(d) is None

    @pytest.mark.parametrize("family,params", LOG_SCALE_CASES,
                             ids=[f"{f}{p}" for f, p in LOG_SCALE_CASES])
    def test_closed_form_is_the_log_x_density(self, family, params):
        # log f(e^y) + y, read where neither form loses digits
        d = build_descriptor(family, params)
        log_pdf_y, mode = d.log_scale
        y = mode + np.linspace(-3.0, 3.0, 61)
        assert np.allclose(log_pdf_y(y), d.log_pdf(np.exp(y)) + y, rtol=1e-12, atol=1e-12)
        # the mode is the maximum
        assert (log_pdf_y(y) <= log_pdf_y(np.array([mode]))).all()

    @pytest.mark.parametrize("family,params", LOG_SCALE_CASES,
                             ids=[f"{f}{p}" for f, p in LOG_SCALE_CASES])
    def test_log_x_law_is_log_concave(self, family, params):
        log_pdf_y, mode = build_descriptor(family, params).log_scale
        log_x = DistributionDescriptor(
            family_name="log x", params={}, kind="continuous", support=(-math.inf, math.inf),
            log_pdf=log_pdf_y, log_cdf=None, log_sf=None, mode=mode, mu=mode, sigma=1.0)
        ok, violation = check_log_concavity(log_x, (mode - 40.0, mode + 6.0), n_probes=2_000)
        assert ok, violation

    def test_invgauss_density_does_not_cancel(self):
        # at lambda/mu = 1e12 the expanded form sums terms of about 1e12 to
        # about 12, losing 11 digits; mpmath gives the value
        mu, lam = 1.0, 1e12
        log_pdf_y, mode = build_descriptor("invgauss", mu=mu, **{"lambda": lam}).log_scale
        y = mode + 1e-6
        with mp.workdps(60):
            e = mp.exp(mp.mpf(y))
            want = (mp.log(lam) - mp.log(2 * mp.pi) - y) / 2 - lam * (e / mu - 1) ** 2 / (2 * e)
        assert log_pdf_y(np.array([y]))[0] == pytest.approx(float(want), rel=1e-12)


class TestScalarArrayContract:
    @pytest.mark.parametrize("family,params", CONTRACT_CASES,
                             ids=[f"{f}{p}" for f, p in CONTRACT_CASES])
    def test_every_callable_follows_the_convention(self, family, params):
        d = build_descriptor(family, params)
        # both sides of the mode, outside the support, and deep tails where
        # the tail-sum and continued-fraction fallbacks fire
        xs = d.mu + d.sigma * np.array([-40.0, -3.0, -0.5, 0.0, 0.7, 2.0, 6.0, 40.0])
        if d.is_discrete:
            xs = np.floor(xs)
        for fn in (d.log_pdf, d.log_cdf, d.log_sf):
            _assert_convention(fn, xs)
        _assert_convention(d.quantile, np.array([1e-12, 0.1, 0.25, 0.5, 0.9, 1.0 - 1e-9]))
        t = truncate(d, lower=d.mu + d.sigma)
        _assert_convention(t.log_pdf, xs)
        _assert_convention(t.cdf, xs)


class TestLimitsAtInfinity:
    def test_every_digest_member_takes_its_limits(self):
        # -inf and +inf are evaluated, not masked by the caller: an inf - inf
        # or 0 * inf inside a family raises here, as warnings are errors
        want = {"log_pdf": [-math.inf, -math.inf], "log_cdf": [-math.inf, 0.0],
                "log_sf": [0.0, -math.inf]}
        got = {}
        for name, (family, params) in FAMILY_MEMBERS.items():
            d = build_descriptor(family, params)
            for fn in want:
                got[name, fn] = getattr(d, fn)(np.array([-math.inf, math.inf])).tolist()
                assert [getattr(d, fn)(x) for x in (-math.inf, math.inf)] == got[name, fn]
        assert got == {(name, fn): want[fn] for name in FAMILY_MEMBERS for fn in want}

    def test_every_digest_member_takes_its_values_at_its_finite_lower_end(self):
        # the family digest's grid reaches x = 0 only for gamma_1; a lattice
        # law is probed left of 0, at -1 and between lattice points
        got, want = {}, {}
        for name, (family, params) in FAMILY_MEMBERS.items():
            d = build_descriptor(family, params)
            if d.support[0] != 0.0:
                continue
            xs = [-1.0, -0.5] if d.is_discrete else [-1.0, 0.0]
            # gamma(1, lambda) at 0 is log lambda, the limit from inside
            at_0 = math.log(d.params["lambda"]) if name == "gamma_1" else -math.inf
            want[name] = {"log_pdf": [-math.inf, -math.inf if d.is_discrete else at_0],
                          "log_cdf": [-math.inf, -math.inf], "log_sf": [0.0, 0.0]}
            for fn in want[name]:
                got[name, fn] = getattr(d, fn)(np.array(xs)).tolist()
                assert [getattr(d, fn)(x) for x in xs] == got[name, fn]
        assert sorted(want) == ["binomial_1_0.5", "binomial_1e5_0.97", "binomial_2048_0.5",
                                "binomial_40_0.3", "gamma_0.5", "gamma_1", "gamma_2",
                                "geometric_0.3", "invgauss_1_0.3", "nbinom_0.5_0.9",
                                "nbinom_10_0.5", "poisson_0.5", "poisson_1e5", "poisson_50"]
        assert got == {(name, fn): want[name][fn] for name in want for fn in want[name]}


class TestLatticeContract:
    """Every lattice law's callables are step functions of ``floor(x)``: the
    log-pmf is -inf between lattice points, and the log tails at ``k + 0.5``
    are their values at ``k`` bit for bit."""

    CASES = [
        ("poisson", {"lambda": 0.5}), ("poisson", {"lambda": 50.0}),
        ("binomial", {"n": 40.0, "p": 0.3}), ("binomial", {"n": 2048.0, "p": 0.5}),
        ("nbinom", {"n": 10.0, "p": 0.5}), ("nbinom", {"n": 0.5, "p": 0.9}),
        ("geometric", {"p": 0.3}), ("geometric", {"p": 0.01}),
    ]

    @pytest.mark.parametrize("family,params", CASES, ids=[f"{f}{p}" for f, p in CASES])
    def test_step_functions_of_floor(self, family, params):
        d = build_descriptor(family, params)
        # left of the support, both sides of the mode, past a finite upper
        # end, and deep enough for the tail-sum fallback
        z = np.concatenate([np.arange(-6.0, 60.0, 0.5), [200.0, 1e3]])
        k = np.unique(np.concatenate([[-2.0, -1.0], np.floor(d.mu + d.sigma * z)]))
        assert (d.log_pdf(k + 0.5) == -math.inf).all()
        for fn in (d.log_cdf, d.log_sf):
            assert (_bits(fn(k + 0.5)) == _bits(fn(k))).all()


class TestQuantileIsMonotone:
    """Each registered quantile is non-decreasing on sorted arguments, bit
    for bit, and non-finite only at the two ends.  The scan's ITS pass
    inverts only a probe's smallest and largest uniform, and relies on
    this to judge the whole batch by them."""

    # the deep members of the benchmark's scan grid not among CONTRACT_CASES
    SCAN_MEMBERS = [("poisson", {"lambda": lam}) for lam in (0.5, 50.0, 500.0)] + [
        ("binomial", {"n": n, "p": p}) for n in (16.0, 256.0, 2048.0) for p in (0.05, 0.5)]
    CASES = CONTRACT_CASES + SCAN_MEMBERS

    # sorted uniforms, every double within 2000 ulp of 1, a linear sweep of
    # [0, 2e-16] and a log-spaced one down to 1e-300
    ARGS = np.unique(np.concatenate([
        np.random.default_rng(11).random(200_000),
        1.0 - np.arange(2001) * np.finfo(float).epsneg,
        np.linspace(0.0, 2e-16, 2001),
        np.logspace(-300.0, -16.0, 2000),
    ]))

    @pytest.mark.parametrize("family,params", CASES, ids=[f"{f}{p}" for f, p in CASES])
    def test_non_decreasing_and_finite_inside(self, family, params):
        x = build_descriptor(family, params).quantile(self.ARGS)
        assert not np.isnan(x).any()
        assert (x[1:] >= x[:-1]).all()
        finite = np.flatnonzero(np.isfinite(x))
        # the finite values are one run
        assert finite.size and finite[-1] - finite[0] + 1 == finite.size


class TestLogPmfBatchIndependence:
    """A discrete log-pmf value depends only on its own point, never on the
    rest of the array it is evaluated in.  The discrete sampler's per-round
    table relies on this."""

    # members with far-tail points: past the ``_bd0`` near branch, at the
    # support's edge and beyond it
    CASES = [
        ("poisson", {"lambda": 50.0}, [200.0, 1e3, 1e5]),
        ("binomial", {"n": 2048.0, "p": 0.27}, [1500.0, 2047.0, 2048.0, 3000.0]),
        ("nbinom", {"n": 10.0, "p": 0.5}, [300.0, 1e3, 1e5]),
        ("geometric", {"p": 0.3}, [500.0, 2e3, 1e6]),
    ]

    @pytest.mark.parametrize("family,params,far", CASES, ids=[c[0] for c in CASES])
    def test_value_does_not_depend_on_batch(self, family, params, far):
        t = truncate(build_descriptor(family, params))
        # the lattice from 0 to twice the mode crosses the ``_bd0`` near
        # branch, |x - m| < 0.1 (x + m), out to its edges, where its series
        # runs the most terms before it converges
        lattice = np.arange(0.0, 2.0 * t.base.mode + 20.0)
        on_lattice = t.log_pdf(lattice)
        far = np.array(far)
        rng = np.random.default_rng(0)
        subset = rng.choice(lattice, size=lattice.size // 2, replace=False)
        mixed = rng.permutation(np.concatenate([subset, far]))
        want = {x: _bits(v) for x, v in zip(lattice, on_lattice)}
        want.update((x, _bits(t.log_pdf(x))) for x in far)
        got = t.log_pdf(mixed)
        assert [_bits(v) for v in got] == [want[x] for x in mixed]
        # each point alone stops the near-branch series at its own term
        assert [_bits(t.log_pdf(x)) for x in lattice] == [want[x] for x in lattice]


def _log_tail_sum_one_term(log_pmf, start, step, lo, hi):
    """The tail sum with one ``log_pmf`` call per term: the oracle that the
    blocked ``families._log_tail_sum`` must match bit for bit."""
    j = float(start)
    anchor = None
    acc = 0.0
    for _ in range(200_000):
        if j < lo or j > hi:
            break
        lj = float(log_pmf(np.array([j]))[0])
        if anchor is None:
            if lj > -math.inf:
                anchor = lj
                acc = 1.0
        else:
            r = math.exp(lj - anchor)
            acc += r
            if r < acc * 1e-18:
                break
        if j + step == j:
            break
        j += step
    if anchor is None:
        return -math.inf
    return anchor + math.log(acc)


class TestBlockedTailSum:
    """``_log_tail_sum`` evaluates the log-pmf on blocks of terms and sums
    them in the one-term loop's order, so it returns that loop's value bit
    for bit."""

    # survival sums from start + 1 for start in ]lo, hi]
    PANELS = [
        ("nbinom", {"n": 10.0, "p": 0.5}, 900, 1400),
        ("poisson", {"lambda": 500.0}, 1399, 2400),
        ("binomial", {"n": 2048.0, "p": 0.05}, 849, 1500),
    ]

    @pytest.mark.parametrize("family,params,lo,hi", PANELS, ids=[p[0] for p in PANELS])
    def test_survival_panel(self, family, params, lo, hi):
        d = build_descriptor(family, params)
        upper = d.support[1]
        for k in range(lo + 1, hi + 1, 7):
            want = _log_tail_sum_one_term(d.log_pdf, k + 1, 1.0, 0.0, upper)
            got = _log_tail_sum(d.log_pdf, k + 1, 1.0, 0.0, upper)
            assert _bits(got) == _bits(want), k
        # the deep end of the panel goes through the fallback
        assert _bits(d.log_sf(float(hi))) == _bits(
            _log_tail_sum_one_term(d.log_pdf, hi + 1, 1.0, 0.0, upper))

    @pytest.mark.parametrize("start,step", [(2045.0, 1.0), (5.0, -1.0)])
    def test_stops_at_the_support_edge(self, start, step):
        # binomial(2048, 0.5) terms near n or 0 are still far above 1e-18
        # of the sum when the edge stops it
        d = build_descriptor("binomial", n=2048.0, p=0.5)
        want = _log_tail_sum_one_term(d.log_pdf, start, step, 0.0, 2048.0)
        assert _bits(_log_tail_sum(d.log_pdf, start, step, 0.0, 2048.0)) == _bits(want)

    @pytest.mark.parametrize("start", [2.0**53 - 40.0, 2.0**53 + 2.0])
    def test_stops_beyond_integer_resolution(self, start):
        # a geometric law this flat never meets the 1e-18 stop; the sum ends
        # where ``j + 1 == j``
        d = build_descriptor("geometric", p=1e-20)
        want = _log_tail_sum_one_term(d.log_pdf, start, 1.0, 0.0, math.inf)
        assert _bits(_log_tail_sum(d.log_pdf, start, 1.0, 0.0, math.inf)) == _bits(want)
        assert math.isfinite(want)
