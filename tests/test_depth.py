"""Depth contract: the rejection sampler reaches the representability limit.

For each registered family (the ``CONTRACT_CASES`` members), a devroye scan
on the geometric schedule must end where the interval mass stops being
representable as a double, log P(I) ~ -745, without a sampled check
raising or coming out unclean (``ds_inexact``), and within a wall-time
budget.  The log mass at that depth must match an mpmath oracle, and the
auto schedule, whose deepest probe is ``Z_MAX`` sigmas, must reach the
same depth or say that it is censored.

gamma with shape 0.5 and invgauss are not log-concave in x, but are in
log x, and are sampled there.

Every member's variates are also tested against the truncated law where
log P(I) ~ -700.
"""

import math
import time

import mpmath as mp
import numpy as np
import pytest
from scipy import stats as st

from trunclc import (
    RngStream,
    TruncationInterval,
    build_descriptor,
    chi_square_gof,
    ds_sample_batch,
    log_interval_mass,
    scan_safety,
    truncate,
)
from trunclc import diagnostics
from trunclc.diagnostics import REFINE_TOL

from test_families import CONTRACT_CASES

LIMIT = -740.0   # log P(I) at the breakdown depth must lie at or below this
BUDGET_S = 10.0  # per scan; each takes 0.01-0.06 s, a fallback at its cap far more


def _mp_log_sf(desc, a: float) -> float:
    """log P(X > a) of ``desc`` in mpmath at 60 digits."""
    p, name = desc.params, desc.family_name
    with mp.workdps(60):
        a = mp.mpf(a)
        k = mp.floor(a)
        if name == "normal":
            s = mp.erfc((a - p["mu"]) / (p["sigma"] * mp.sqrt(2))) / 2
        elif name == "poisson":
            s = mp.gammainc(k + 1, 0, p["lambda"], regularized=True)
        elif name == "binomial":
            s = mp.betainc(k + 1, p["n"] - k, 0, p["p"], regularized=True)
        elif name == "nbinom":
            s = mp.betainc(k + 1, p["n"], 0, p["p"], regularized=True)
        elif name == "geometric":
            s = (1 - mp.mpf(p["p"])) ** (k + 1)
        elif name == "gamma":
            s = mp.gammainc(p["alpha"], p["lambda"] * a, mp.inf, regularized=True)
        elif name == "epd":
            s = mp.gammainc(1 / mp.mpf(p["beta"]), a ** p["beta"], mp.inf, regularized=True) / 2
        elif name == "invgauss":
            mu, lam = mp.mpf(p["mu"]), mp.mpf(p["lambda"])
            r = mp.sqrt(lam / a)
            s = mp.ncdf(-r * (a / mu - 1)) - mp.exp(2 * lam / mu) * mp.ncdf(-r * (a / mu + 1))
        else:
            raise AssertionError(f"no mpmath oracle for {name}")
        return float(mp.log(s))


def _scan(family, params, schedule):
    """The devroye cell of ``schedule``, its wall time, and every exception
    a checked batch raised (the scan itself only marks such a check unclean)."""
    raised = []
    sample = diagnostics.ds_sample_batch

    def recording(*args, **kwargs):
        try:
            return sample(*args, **kwargs)
        except Exception as exc:
            raised.append(exc)
            raise

    with pytest.MonkeyPatch.context() as mpatch:
        mpatch.setattr(diagnostics, "ds_sample_batch", recording)
        t0 = time.perf_counter()
        report = scan_safety(family, [params], probe_schedule=schedule, method="devroye",
                             n_probe=50, seed=1)
        elapsed = time.perf_counter() - t0
    return report.rows[0], elapsed, raised


@pytest.fixture(scope="module", params=CONTRACT_CASES,
                ids=[f"{f}{p}" for f, p in CONTRACT_CASES])
def geometric(request):
    family, params = request.param
    desc = build_descriptor(family, params)
    cell, elapsed, raised = _scan(family, params, "geometric")
    return desc, cell, elapsed, raised


def test_geometric_schedule_reaches_the_limit(geometric):
    desc, cell, elapsed, raised = geometric
    assert raised == []
    assert elapsed < BUDGET_S
    a = cell.a_bar_prime
    assert math.isfinite(a) and not cell.ds_censored
    assert math.isnan(cell.ds_inexact)
    lm = log_interval_mass(desc, TruncationInterval(a, math.inf))
    if desc.family_name == "binomial":
        # the support ends at n, so the depth stops below it, on P(X = n)
        n = desc.params["n"]
        assert n - 1.0 < a < n
    else:
        assert lm <= LIMIT, (a, lm)


def test_log_mass_at_the_depth_matches_mpmath(geometric):
    desc, cell, _, _ = geometric
    a = cell.a_bar_prime
    got = log_interval_mass(desc, TruncationInterval(a, math.inf))
    want = _mp_log_sf(desc, a)
    assert abs(got - want) <= 1e-12 * abs(want), (a, got, want)


def test_auto_schedule_reaches_the_same_depth_or_is_censored(geometric):
    desc, geo, _, _ = geometric
    cell, elapsed, raised = _scan(desc.family_name, desc.params, "auto")
    assert raised == []
    assert elapsed < BUDGET_S
    assert math.isfinite(cell.a_bar_prime) and math.isnan(cell.ds_inexact)
    if cell.ds_censored:
        assert cell.a_bar_prime <= geo.a_bar_prime
    else:
        assert abs(cell.a_bar_prime - geo.a_bar_prime) <= REFINE_TOL


def _deep_lower_end(desc, log_p=-700.0) -> float:
    """The lower end ``a`` where log P(]a, inf[) is about ``log_p``, an integer
    on a lattice; on a bounded lattice, the deepest ``a`` that leaves two
    support points, if that is shallower."""
    def log_mass(a):
        return log_interval_mass(desc, TruncationInterval(a, math.inf))

    lo, hi = desc.mu, desc.mu + desc.sigma
    while log_mass(hi) > log_p:
        lo, hi = hi, hi + 2.0 * (hi - desc.mu)
    while hi - lo > 1e-9 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if log_mass(mid) > log_p else (lo, mid)
    if not desc.is_discrete:
        return lo
    return min(math.floor(lo), desc.support[1] - 2.0)


@pytest.mark.parametrize("family,params", CONTRACT_CASES,
                         ids=[f"{f}{p}" for f, p in CONTRACT_CASES])
def test_sampler_is_exact_at_depth(family, params):
    """2e4 variates where log P(I) ~ -700 follow the truncated law: a KS test
    against ``TruncatedTarget.cdf``, or a chi-square test on its log-pmf."""
    desc = build_descriptor(family, params)
    t = truncate(desc, lower=_deep_lower_end(desc))
    b = ds_sample_batch(t, 20_000, RngStream(5))
    assert b.is_clean(t)
    if desc.is_discrete:
        support = np.arange(t.support[0], b.values.max() + 1.0)
        assert chi_square_gof(b.values, support, np.exp(t.log_pdf(support))).passed
    else:
        assert st.kstest(b.values, t.cdf).pvalue > 0.001
