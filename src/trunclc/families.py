"""Built-in log-concave families and the registration API.

Every family exposes direct log-space evaluations of its pmf/pdf, CDF and
survival function.  Poisson, binomial, nbinom and geometric are lattice laws
built by ``_lattice_law`` alone: a log-pmf on the integers of [0, hi], -inf
at every other real, and log tails at the integers of [0, hi).  Geometric
gives closed forms; the others a saddle-point (Stirling-error / binomial-
deviance) log-pmf, which keeps full precision deep in the tails, and
linear-space tails whose logs give way to a log-space tail sum below
``LINEAR_FLOOR``.

New families are added with :func:`register_family`, supplying the same
ingredients: parameter schema, log-density, log-CDF/survival, and a mode
function.  A builder returns plain array functions (a float array in, a
float array of its shape out); :func:`build_descriptor` alone gives them the
package's scalar/array convention.  Gamma with shape below one and the
inverse Gaussian, log-concave in log x but not in x, declare the closed-form
log-density of log X (``log_scale``), and the sampler draws log X.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
from scipy import special as sc

from .core import DistributionDescriptor
from .logspace import (
    LOG_2PI,
    LOG_HALF,
    _masked,
    _scipy,
    elementwise,
    log1mexp,
    log_diff_exp,
    log_gamma_lower_reg,
    log_gamma_upper_reg,
    log_or_fallback,
)

_LOG_SQRT_2PI = 0.5 * LOG_2PI
_MAX_TAIL_TERMS = 200_000  # cap on the terms of one log-space tail sum


class UnknownFamilyError(ValueError):
    pass


class ParameterError(ValueError):
    pass


# ---------------------------------------------------------------------------
# saddle-point pmf machinery (Loader-style stirlerr / bd0)

def _stirlerr(n):
    """log n! - Stirling approximation: lgamma(n+1) - (n+1/2)log n + n - log sqrt(2 pi),
    the series at n >= 16 and the exact form below."""
    inv2 = 1.0 / (n * n)
    out = (
        1.0 / 12.0
        - (1.0 / 360.0 - (1.0 / 1260.0 - (1.0 / 1680.0 - inv2 / 1188.0) * inv2) * inv2) * inv2
    ) / n
    small = n < 16.0
    if np.any(small):
        out = np.where(small, sc.gammaln(n + 1.0) - ((n + 0.5) * np.log(n) - n + _LOG_SQRT_2PI),
                       out)
    return out


def _bd0(x, m):
    """Binomial deviance x log(x/m) + m - x, stable for x near m: where
    |x - m| < 0.1 (x + m), a series in v = (x - m)/(x + m) that stops once no
    element changes; far points carry v = 0, so they never hold up the stop.
    """
    d = x - m
    near = np.abs(d) < 0.1 * (x + m)
    v = np.where(near, d / (x + m), 0.0)
    s = d * v
    ej = 2.0 * x * v
    v2 = v * v
    for j in range(1, 1000):
        ej = ej * v2
        s1 = s + ej / (2 * j + 1)
        if (s1 == s).all():
            break
        s = s1
    return np.where(near, s, sc.xlogy(x, x / m) + m - x)


def _log_binom_raw(x, n, p):
    """Saddle-point log of C(n,x) p^x (1-p)^(n-x) for real 0 <= x <= n."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        mid = (_stirlerr(n) - _stirlerr(x) - _stirlerr(n - x)
               - _bd0(x, n * p) - _bd0(n - x, n * (1.0 - p))
               + 0.5 * (np.log(n) - LOG_2PI - np.log(x) - np.log(n - x)))
    return np.where(x == 0.0, n * math.log1p(-p), np.where(x == n, n * math.log(p), mid))


def _log_poisson_raw(k, lam):
    """Saddle-point log of exp(-lam) lam^k / k! for integer k >= 0."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        mid = -_stirlerr(k) - _bd0(k, lam) - 0.5 * (LOG_2PI + np.log(k))
    return np.where(k == 0.0, -lam, mid)


def _tail_points(start, step, lo, hi):
    """The points ``start, start + step, ...`` of a tail sum, in order: each
    the float sum of the one before and ``step``, within ``[lo, hi]``, at
    most ``_MAX_TAIL_TERMS`` of them, and none after a point that ``step``
    no longer moves (beyond the integer resolution of doubles)."""
    j = float(start)
    for _ in range(_MAX_TAIL_TERMS):
        if j < lo or j > hi:
            return
        yield j
        if j + step == j:
            return
        j += step


def _log_tail_sum(log_pmf, start, step, lo, hi):
    """Log-space sum of a monotone pmf tail from ``start`` in direction ``step``.

    The terms are scaled by the first finite one and summed in order; the
    sum stops at the first term below 1e-18 of the running total.
    ``log_pmf`` is evaluated on blocks of consecutive points, 16 at first
    and twice as many each block, and the scalar accumulation then runs
    over the block's values in order.  Each log-pmf value depends on its own
    point alone (the discrete proposer's lattice table relies on the same
    property), so the sum is bit for bit the one of a call per term.
    """
    points = _tail_points(start, step, lo, hi)
    anchor = None
    acc = 0.0
    size = 16
    while block := list(itertools.islice(points, size)):
        for lj in log_pmf(np.array(block)).tolist():
            if anchor is None:
                if lj > -math.inf:
                    anchor = lj
                    acc = 1.0
            else:
                r = math.exp(lj - anchor)
                acc += r
                if r < acc * 1e-18:
                    return anchor + math.log(acc)
        size *= 2
    if anchor is None:
        return -math.inf
    return anchor + math.log(acc)


def _on_half_line(f, at_inf, elsewhere):
    """The edge rule of the laws on (0, inf): ``f`` there, ``at_inf`` at
    +inf and ``elsewhere`` at every other point, nan included."""

    def on_half_line(x):
        out = _masked(x, (x > 0.0) & (x < math.inf), elsewhere, f)
        if at_inf != elsewhere:
            out[x == math.inf] = at_inf
        return out

    return on_half_line


# ---------------------------------------------------------------------------
# registry

@dataclass(frozen=True)
class ParamSpec:
    name: str
    check: Callable[[float], bool]
    constraint: str


@dataclass(frozen=True)
class FamilySpec:
    """Recipe for building descriptors of one family.

    ``builder`` maps validated float parameters to a descriptor whose
    callables are plain array functions (a float array of at least one
    dimension in, a float array of its shape out).
    A family log-concave in log x but not in x sets the descriptor's
    ``log_scale`` there; the recipe itself carries no sampling route.
    """

    name: str
    params: tuple[ParamSpec, ...]
    builder: Callable[[dict], DistributionDescriptor]
    defaults: dict = field(default_factory=dict)


_REGISTRY: dict[str, FamilySpec] = {}


def register_family(spec: FamilySpec) -> None:
    _REGISTRY[spec.name] = spec


def get_family(name: str) -> FamilySpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownFamilyError(
            f"unknown family {name!r}; known: {sorted(_REGISTRY)}"
        ) from None


def list_families() -> list[str]:
    return sorted(_REGISTRY)


def build_descriptor(family: str, params: dict | None = None, **kwargs) -> DistributionDescriptor:
    """Build a descriptor, validating parameters against the family schema,
    with each callable wrapped in the scalar/array convention
    (:func:`~trunclc.logspace.elementwise`)."""
    spec = get_family(family)
    given = dict(spec.defaults)
    given.update(params or {})
    given.update(kwargs)
    names = {ps.name for ps in spec.params}
    extra = set(given) - names
    if extra:
        raise ParameterError(f"{family}: unknown parameter(s) {sorted(extra)}")
    missing = names - set(given)
    if missing:
        raise ParameterError(f"{family}: missing parameter(s) {sorted(missing)}")
    for ps in spec.params:
        v = given[ps.name]
        if not np.isfinite(v) or not ps.check(float(v)):
            raise ParameterError(f"{family}: parameter {ps.name}={v!r} violates: {ps.constraint}")
    desc = spec.builder({k: float(v) for k, v in given.items()})
    return replace(desc, **{name: elementwise(fn)
                            for name in ("log_pdf", "log_cdf", "log_sf", "quantile")
                            if (fn := getattr(desc, name)) is not None})


def exception_route(desc: DistributionDescriptor):
    """None: no family samples through a hit-tested map (read by perfbench)."""
    return None


# ---------------------------------------------------------------------------
# builders

def _build_normal(params):
    mu, sigma = params["mu"], params["sigma"]

    def log_pdf(x):
        z = (x - mu) / sigma
        return -0.5 * z * z - math.log(sigma) - _LOG_SQRT_2PI

    def log_cdf(x):
        return sc.log_ndtr((x - mu) / sigma)

    def log_sf(x):
        return sc.log_ndtr(-(x - mu) / sigma)

    def quantile(p):
        return mu + sigma * sc.ndtri(p)

    return DistributionDescriptor(
        family_name="normal", params=params, kind="continuous",
        support=(-math.inf, math.inf), log_pdf=log_pdf, log_cdf=log_cdf,
        log_sf=log_sf, mode=mu, mu=mu, sigma=sigma, quantile=quantile,
    )


def _lattice_law(name, params, raw, hi, log_cdf, log_sf, quantile, mode, mu, sigma):
    """The descriptor of a lattice law with support (0, ``hi``), ``hi`` maybe inf.

    The lattice contract: ``log_pdf`` is ``raw`` on the integers of [0, ``hi``]
    and -inf at every other real.  ``log_cdf``/``log_sf`` map a float array
    of integers of [0, ``hi``) to the law's log tails there; the descriptor's
    tails are their values at ``floor(x)``, and the exact 0 or 1 elsewhere.
    """

    def log_pmf(x):
        return _masked(x, (x == np.floor(x)) & (x >= 0.0) & (x <= hi) & (x < math.inf),
                       -np.inf, raw)

    def tail(at_k, below, above):
        def log_tail(x):
            k = np.floor(x)
            out = _masked(k, (k >= 0.0) & (k < hi), -np.inf, at_k)
            out[k < 0.0] = below
            out[k >= hi] = above
            return out

        return log_tail

    return DistributionDescriptor(
        family_name=name, params=params, kind="discrete", support=(0.0, hi),
        log_pdf=log_pmf, log_cdf=tail(log_cdf, -np.inf, 0.0), log_sf=tail(log_sf, 0.0, -np.inf),
        mode=mode, mu=mu, sigma=sigma, quantile=quantile,
    )


def _linear_lattice_law(name, params, raw, hi, lin_cdf, lin_sf, *rest):
    """``_lattice_law`` with the logs of linear-space tails, the log-space tail
    sum of ``raw`` taking over below ``LINEAR_FLOOR``; the sum's points are
    integers of [0, ``hi``], where ``raw`` is the law's log-pmf."""

    def tail(lin, start, step):
        return lambda k: log_or_fallback(
            lin(k), lambda i: _log_tail_sum(raw, k[i] + start, step, 0.0, hi))

    return _lattice_law(name, params, raw, hi, tail(lin_cdf, 0.0, -1.0),
                        tail(lin_sf, 1.0, 1.0), *rest)


def _build_poisson(params):
    lam = params["lambda"]
    return _linear_lattice_law(
        "poisson", params, lambda k: _log_poisson_raw(k, lam), math.inf,
        lambda k: sc.gammaincc(k + 1.0, lam), lambda k: sc.gammainc(k + 1.0, lam),
        lambda q: _scipy("stats").poisson.ppf(q, lam),
        math.floor(lam), lam, math.sqrt(lam),
    )


def _build_binomial(params):
    n, p = params["n"], params["p"]
    return _linear_lattice_law(
        "binomial", params, lambda k: _log_binom_raw(k, n, p), n,
        lambda k: sc.betainc(n - k, k + 1.0, 1.0 - p), lambda k: sc.betainc(k + 1.0, n - k, p),
        lambda q: _scipy("stats").binom.ppf(q, int(n), p),
        min(n, max(0.0, math.floor((n + 1.0) * p))), n * p, math.sqrt(n * p * (1.0 - p)),
    )


def _build_nbinom(params):
    # number of failures before the n-th complementary event; p is the
    # per-trial probability of the counted outcome (mean np/(1-p))
    n, p = params["n"], params["p"]

    def raw(k):
        return np.log(n) - np.log(n + k) + _log_binom_raw(n, n + k, 1.0 - p)

    return _linear_lattice_law(
        "nbinom", params, raw, math.inf,
        lambda k: sc.betainc(n, k + 1.0, 1.0 - p), lambda k: sc.betainc(k + 1.0, n, p),
        lambda q: _scipy("stats").nbinom.ppf(q, n, 1.0 - p),
        math.floor((n - 1.0) * p / (1.0 - p)) if n > 1.0 else 0.0,
        n * p / (1.0 - p), math.sqrt(n * p) / (1.0 - p),
    )


def _build_geometric(params):
    # support {0, 1, ...}: number of non-events before the first event
    p = params["p"]
    lq = math.log1p(-p)
    # Table-1 indices: the mode (0) and base standard deviation
    return _lattice_law(
        "geometric", params, lambda k: math.log(p) + k * lq, math.inf,
        lambda k: log1mexp(np.minimum((k + 1.0) * lq, 0.0)), lambda k: (k + 1.0) * lq,
        lambda q: _scipy("stats").geom.ppf(q, p) - 1.0,
        0.0, 0.0, math.sqrt(1.0 - p) / p,
    )


def _build_gamma(params):
    alpha, lam = params["alpha"], params["lambda"]

    if alpha == 1.0:
        # log(lambda) at x = 0 is the limit from inside, which the peak of a
        # target whose projected mode is the open lower end 0 reads
        def log_pdf(x):
            return np.where(x >= 0.0, math.log(lam) - lam * x, -np.inf)
    else:
        log_pdf = _on_half_line(lambda x: (
            alpha * math.log(lam) + (alpha - 1.0) * np.log(x) - lam * x - sc.gammaln(alpha)),
            -np.inf, -np.inf)

    def log_cdf(x):
        return log_gamma_lower_reg(alpha, lam * x)

    def log_sf(x):
        return log_gamma_upper_reg(alpha, lam * x)

    def quantile(q):
        return _scipy("stats").gamma.ppf(q, alpha, scale=1.0 / lam)

    # log X's density, log-concave below shape one: unlike log f(e^y) + y it
    # keeps the mass where e^y rounds to 0 or passes the largest double
    def log_pdf_y(y):
        with np.errstate(over="ignore"):  # -inf is the limit
            return alpha * (y + math.log(lam)) - np.exp(y + math.log(lam)) - sc.gammaln(alpha)

    mode = (alpha - 1.0) / lam if alpha >= 1.0 else 0.0
    return DistributionDescriptor(
        family_name="gamma", params=params, kind="continuous",
        support=(0.0, math.inf), log_pdf=log_pdf, log_cdf=log_cdf, log_sf=log_sf,
        mode=mode, mu=alpha / lam, sigma=math.sqrt(alpha) / lam, quantile=quantile,
        log_scale=(log_pdf_y, math.log(alpha / lam)) if alpha < 1.0 else None,
    )


def _build_invgauss(params):
    mu, lam = params["mu"], params["lambda"]

    def log_pdf_inside(x):
        # the quadratic term overflows at subnormal x, where -inf is the
        # limit; past x ~ 1e154 the square overflows (and near 1e308 the
        # denominator too) but the term, about lam x / (2 mu^2), is finite:
        # it is taken there as lam / (2 mu^2) (x - mu) ((x - mu) / x)
        with np.errstate(over="ignore", invalid="ignore"):
            q = lam * (x - mu) ** 2 / (2.0 * mu * mu * x)
            far = ~(q < math.inf) & (x > mu)
            if far.any():
                d = x[far] - mu
                q[far] = lam / (2.0 * mu * mu) * d * (d / x[far])
        return 0.5 * (math.log(lam) - LOG_2PI - 3.0 * np.log(x)) - q

    log_pdf = _on_half_line(log_pdf_inside, -np.inf, -np.inf)

    def _terms(x):
        with np.errstate(over="ignore"):
            rx = np.sqrt(lam / x)
        u1 = rx * (x / mu - 1.0)
        u2 = rx * (x / mu + 1.0)
        return sc.log_ndtr(u1), sc.log_ndtr(-u1), 2.0 * lam / mu + sc.log_ndtr(-u2)

    def cdf(x):
        t1, _, t2 = _terms(x)
        return np.minimum(np.logaddexp(t1, t2), 0.0)

    def sf(x):
        _, s1, t2 = _terms(x)
        return log_diff_exp(s1, np.minimum(t2, s1))

    # the terms are inf/inf at x = inf: its limits are set, not evaluated
    log_cdf = _on_half_line(cdf, 0.0, -np.inf)
    log_sf = _on_half_line(sf, -np.inf, 0.0)

    def quantile(q):
        return _scipy("stats").invgauss.ppf(q, mu / lam, scale=lam)

    # mu (sqrt(1 + r^2) - r) with r = 3 mu / (2 lam), rationalised, as that
    # form cancels at small lam / mu; hypot, as r^2 overflows before r does
    r = 1.5 * mu / lam
    mode = mu / (math.hypot(1.0, r) + r)

    # log X is log-concave; sinh keeps lam/mu - lam e^y/(2mu^2) - lam e^-y/2 from cancelling
    def log_pdf_y(y):
        with np.errstate(over="ignore"):  # -inf is the limit
            s = np.sinh(0.5 * (y - math.log(mu)))
        return 0.5 * (math.log(lam) - LOG_2PI - y) - 2.0 * lam / mu * s * s

    return DistributionDescriptor(
        family_name="invgauss", params=params, kind="continuous",
        support=(0.0, math.inf), log_pdf=log_pdf, log_cdf=log_cdf, log_sf=log_sf,
        mode=mode, mu=mu, sigma=math.sqrt(mu**3 / lam), quantile=quantile,
        log_scale=(log_pdf_y, math.log(2.0 * lam / (1.0 + math.hypot(1.0, 2.0 * lam / mu)))),
    )


def _build_epd(params):
    beta = params["beta"]
    a = 1.0 / beta

    def log_pdf(x):
        with np.errstate(over="ignore"):
            return -np.abs(x) ** beta - math.log(2.0) - sc.gammaln(1.0 / beta + 1.0)

    def log_sf(x):
        # P(X > x) = Q(a, x^beta) / 2 on the right; its complement on the left
        out = LOG_HALF + log_gamma_upper_reg(a, np.abs(x) ** beta)
        neg = x < 0.0
        out[neg] = log1mexp(out[neg])
        return out

    def log_cdf(x):
        return log_sf(-x)  # the law is symmetric

    def quantile(q):
        # the left half inverts Q(a, .) at 2q, not P(a, .) at 1 - 2q, which
        # rounds to 1 below q ~ 1e-17
        out = np.empty(q.shape)
        left = q < 0.5
        out[left] = -sc.gammainccinv(a, 2.0 * q[left]) ** a
        out[~left] = sc.gammaincinv(a, 2.0 * q[~left] - 1.0) ** a
        return out

    peak = -math.log(2.0) - sc.gammaln(a + 1.0)
    return DistributionDescriptor(
        family_name="epd", params=params, kind="continuous",
        support=(-math.inf, math.inf), log_pdf=log_pdf, log_cdf=log_cdf,
        log_sf=log_sf, mode=0.0, mu=0.0, sigma=math.exp(-peak), quantile=quantile,
    )


def _is_prob(v):
    return 0.0 < v < 1.0


register_family(FamilySpec(
    name="normal",
    params=(ParamSpec("mu", lambda v: True, "real"),
            ParamSpec("sigma", lambda v: v > 0, "sigma > 0")),
    builder=_build_normal,
    defaults={"mu": 0.0, "sigma": 1.0},
))
register_family(FamilySpec(
    name="poisson",
    params=(ParamSpec("lambda", lambda v: v > 0, "lambda > 0"),),
    builder=_build_poisson,
))
register_family(FamilySpec(
    name="binomial",
    params=(ParamSpec("n", lambda v: v >= 1 and v == int(v), "n a positive integer"),
            ParamSpec("p", _is_prob, "0 < p < 1")),
    builder=_build_binomial,
))
register_family(FamilySpec(
    name="nbinom",
    params=(ParamSpec("n", lambda v: v > 0, "n > 0"),
            ParamSpec("p", _is_prob, "0 < p < 1")),
    builder=_build_nbinom,
))
register_family(FamilySpec(
    name="geometric",
    params=(ParamSpec("p", _is_prob, "0 < p < 1"),),
    builder=_build_geometric,
))
register_family(FamilySpec(
    name="gamma",
    # below it scipy's gammaincc goes negative (gammaincc(1e-310, 1) =
    # -5.8e-311), so the mass of ]1, inf[, about exp(-715.3), would read -inf
    params=(ParamSpec("alpha", lambda v: v > 0 and math.isfinite(1.0 / v),
                      "alpha > 0 with 1/alpha finite"),
            ParamSpec("lambda", lambda v: v > 0, "lambda > 0")),
    builder=_build_gamma,
    defaults={"lambda": 1.0},
))
register_family(FamilySpec(
    name="invgauss",
    params=(ParamSpec("mu", lambda v: v > 0, "mu > 0"),
            ParamSpec("lambda", lambda v: v > 0, "lambda > 0")),
    builder=_build_invgauss,
))
register_family(FamilySpec(
    name="epd",
    params=(ParamSpec("beta", lambda v: v >= 1, "beta >= 1 (log-concave regime)"),),
    builder=_build_epd,
))


# ---------------------------------------------------------------------------
# log-concavity probe

def check_log_concavity(
    desc: DistributionDescriptor,
    probe_range: tuple[float, float],
    n_probes: int = 200,
    tol: float = 1e-9,
    rng: np.random.Generator | None = None,
):
    """Probe the log-concavity of a descriptor over ``probe_range``.

    Discrete: verifies 2 l(x) >= l(x-1) + l(x+1) at every integer in the
    range.  Continuous: midpoint concavity on random pairs.  Returns
    ``(ok, violation)`` with the first violating probe, if any.
    """
    lo = max(probe_range[0], desc.support[0])
    hi = min(probe_range[1], desc.support[1])
    if lo > hi:
        raise ValueError("probe range does not intersect the support")
    if desc.is_discrete:
        ks = np.arange(math.ceil(lo), math.floor(hi) + 1.0)
        if ks.size > 2_000_000:
            raise ValueError("probe range too wide for an exhaustive integer scan")
        l = desc.log_pdf(ks)
        inner = np.isfinite(l[1:-1]) & np.isfinite(l[:-2]) & np.isfinite(l[2:])
        gap = 2.0 * l[1:-1] - l[:-2] - l[2:]
        bad = inner & (gap < -tol)
        if bad.any():
            i = int(np.argmax(bad))
            return False, (float(ks[i + 1]), float(gap[i]))
        return True, None
    rng = rng or np.random.default_rng(0)
    x1 = rng.uniform(lo, hi, size=n_probes)
    x2 = rng.uniform(lo, hi, size=n_probes)
    lm = desc.log_pdf((x1 + x2) / 2.0)
    l1 = desc.log_pdf(x1)
    l2 = desc.log_pdf(x2)
    fin = np.isfinite(l1) & np.isfinite(l2)
    gap = lm - (l1 + l2) / 2.0
    bad = fin & (gap < -tol)
    if bad.any():
        i = int(np.argmax(bad))
        return False, ((float(x1[i]), float(x2[i])), float(gap[i]))
    return True, None
