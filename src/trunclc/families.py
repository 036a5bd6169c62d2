"""Built-in log-concave families and the registration API.

Every family exposes direct log-space evaluations of its pmf/pdf, CDF and
survival function.  Poisson, binomial and nbinom are lattice laws built by
``_lattice_law`` alone: a saddle-point (Stirling-error / binomial-deviance)
log-pmf, which keeps full precision deep in the tails, on the integers of
[0, hi] and -inf at every other real, and linear-space CDF/survival values
whose logs give way to a log-space tail sum below ``LINEAR_FLOOR``.

New families are added with :func:`register_family`, supplying the same
ingredients: parameter schema, log-density, log-CDF/survival, and a mode
function.  A builder returns plain array functions (a float array in, a
float array of its shape out); :func:`build_descriptor` alone gives them the
package's scalar/array convention.  A family member outside the log-concave
class declares on its descriptor how to reach it from one inside
(``transform``): gamma with shape below one is the image of the exponential
power distribution.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
from scipy import special as sc
from scipy import stats as st

from .core import DistributionDescriptor
from .logspace import (
    LOG_2PI,
    LOG_HALF,
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
    """log n! - Stirling approximation: lgamma(n+1) - (n+1/2)log n + n - log sqrt(2 pi)."""
    out = np.empty_like(n)
    small = n < 16.0
    if small.any():
        ns = n[small]
        out[small] = sc.gammaln(ns + 1.0) - ((ns + 0.5) * np.log(ns) - ns + _LOG_SQRT_2PI)
    if (~small).any():
        nl = n[~small]
        with np.errstate(over="ignore"):
            inv2 = 1.0 / (nl * nl)
        out[~small] = (
            1.0 / 12.0
            - (1.0 / 360.0 - (1.0 / 1260.0 - (1.0 / 1680.0 - inv2 / 1188.0) * inv2) * inv2)
            * inv2
        ) / nl
    return out


def _bd0(x, m):
    """Binomial deviance x log(x/m) + m - x, stable for x near m."""
    x, m = np.broadcast_arrays(x, m)
    out = np.empty(x.shape)
    near = np.abs(x - m) < 0.1 * (x + m)
    if (~near).any():
        xf, mf = x[~near], m[~near]
        out[~near] = sc.xlogy(xf, xf / mf) + mf - xf
    if near.any():
        xn, mn = x[near], m[near]
        v = (xn - mn) / (xn + mn)
        s = (xn - mn) * v
        ej = 2.0 * xn * v
        v2 = v * v
        for j in range(1, 1000):
            ej = ej * v2
            s1 = s + ej / (2 * j + 1)
            if np.array_equal(s1, s):
                break
            s = s1
        out[near] = s
    return out


def _log_binom_raw(x, n, p):
    """Saddle-point log of C(n,x) p^x (1-p)^(n-x) for real 0 <= x <= n."""
    x, n = np.broadcast_arrays(x, n)
    q = 1.0 - p
    out = np.empty(x.shape)
    at_zero = x == 0.0
    at_n = x == n
    mid = ~(at_zero | at_n)
    out[at_zero] = n[at_zero] * math.log1p(-p)
    out[at_n] = n[at_n] * math.log(p)
    if mid.any():
        xm, nm = x[mid], n[mid]
        out[mid] = (
            _stirlerr(nm)
            - _stirlerr(xm)
            - _stirlerr(nm - xm)
            - _bd0(xm, nm * p)
            - _bd0(nm - xm, nm * q)
            + 0.5 * (np.log(nm) - LOG_2PI - np.log(xm) - np.log(nm - xm))
        )
    return out


def _log_poisson_raw(k, lam):
    """Saddle-point log of exp(-lam) lam^k / k! for integer k >= 0."""
    out = np.empty(k.shape)
    zero = k == 0.0
    out[zero] = -lam
    if (~zero).any():
        km = k[~zero]
        out[~zero] = -_stirlerr(km) - _bd0(km, lam) - 0.5 * (LOG_2PI + np.log(km))
    return out


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


def _integer_mask(x):
    return (x == np.floor(x)) & np.isfinite(x)


def _masked(x, mask, fill, f):
    """``f(x[mask])`` where ``mask`` holds, ``fill`` elsewhere."""
    out = np.full(x.shape, fill)
    if mask.any():
        out[mask] = f(x[mask])
    return out


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
    A family whose log-concavity fails on part of its parameter space sets
    the descriptor's ``transform`` there; the recipe itself carries no
    sampling route.
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
    """``desc.transform``, the route or None; kept for ``perfbench/workloads.py``."""
    return desc.transform


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


def _lattice_law(name, params, raw, hi, lin_cdf, lin_sf, quantile, mode, mu, sigma):
    """The descriptor of a lattice law with support (0, ``hi``), ``hi`` maybe inf.

    The lattice contract: ``log_pdf`` is ``raw`` on the integers of [0, ``hi``]
    and -inf at every other real.
    ``log_cdf``/``log_sf`` at ``x`` are the logs of ``lin_cdf``/``lin_sf`` at
    ``floor(x)``, with the pmf's log-space tail sum taking over below
    ``LINEAR_FLOOR``, and the law's exact 0 or 1 outside [0, ``hi``).
    """

    def log_pmf(x):
        return _masked(x, _integer_mask(x) & (x >= 0.0) & (x <= hi), -np.inf, raw)

    def tail(lin, start, step, below, above):
        def log_tail(x):
            k = np.floor(x)
            out = np.full(k.shape, -np.inf)
            out[k < 0.0] = below
            out[k >= hi] = above
            mid = (k >= 0.0) & (k < hi)
            if mid.any():
                km = k[mid]
                out[mid] = log_or_fallback(
                    lin(km), lambda i: _log_tail_sum(log_pmf, km[i] + start, step, 0.0, hi))
            return out

        return log_tail

    return DistributionDescriptor(
        family_name=name, params=params, kind="discrete", support=(0.0, hi),
        log_pdf=log_pmf, log_cdf=tail(lin_cdf, 0.0, -1.0, -np.inf, 0.0),
        log_sf=tail(lin_sf, 1.0, 1.0, 0.0, -np.inf), mode=mode, mu=mu, sigma=sigma,
        quantile=quantile,
    )


def _build_poisson(params):
    lam = params["lambda"]
    return _lattice_law(
        "poisson", params, lambda k: _log_poisson_raw(k, lam), math.inf,
        lambda k: sc.gammaincc(k + 1.0, lam), lambda k: sc.gammainc(k + 1.0, lam),
        lambda q: st.poisson.ppf(q, lam),
        math.floor(lam), lam, math.sqrt(lam),
    )


def _build_binomial(params):
    n, p = params["n"], params["p"]
    return _lattice_law(
        "binomial", params, lambda k: _log_binom_raw(k, n, p), n,
        lambda k: sc.betainc(n - k, k + 1.0, 1.0 - p), lambda k: sc.betainc(k + 1.0, n - k, p),
        lambda q: st.binom.ppf(q, int(n), p),
        min(n, max(0.0, math.floor((n + 1.0) * p))), n * p, math.sqrt(n * p * (1.0 - p)),
    )


def _build_nbinom(params):
    # number of failures before the n-th complementary event; p is the
    # per-trial probability of the counted outcome (mean np/(1-p))
    n, p = params["n"], params["p"]

    def raw(k):
        return np.log(n) - np.log(n + k) + _log_binom_raw(np.full(k.shape, n), n + k, 1.0 - p)

    return _lattice_law(
        "nbinom", params, raw, math.inf,
        lambda k: sc.betainc(n, k + 1.0, 1.0 - p), lambda k: sc.betainc(k + 1.0, n, p),
        lambda q: st.nbinom.ppf(q, n, 1.0 - p),
        math.floor((n - 1.0) * p / (1.0 - p)) if n > 1.0 else 0.0,
        n * p / (1.0 - p), math.sqrt(n * p) / (1.0 - p),
    )


def _build_geometric(params):
    # support {0, 1, ...}: number of non-events before the first event
    p = params["p"]
    lq = math.log1p(-p)

    def log_pmf(x):
        ok = _integer_mask(x) & (x >= 0.0)
        return np.where(ok, math.log(p) + x * lq, -np.inf)

    def log_sf(x):
        k = np.floor(x)
        return np.where(k < 0.0, 0.0, (k + 1.0) * lq)

    def log_cdf(x):
        k = np.floor(x)
        return np.where(k < 0.0, -np.inf, log1mexp(np.minimum((k + 1.0) * lq, 0.0)))

    def quantile(q):
        return st.geom.ppf(q, p) - 1.0

    # Table-1 indices: the mode (0) and base standard deviation
    return DistributionDescriptor(
        family_name="geometric", params=params, kind="discrete",
        support=(0.0, math.inf), log_pdf=log_pmf, log_cdf=log_cdf, log_sf=log_sf,
        mode=0.0, mu=0.0, sigma=math.sqrt(1.0 - p) / p, quantile=quantile,
    )


def _build_gamma(params):
    alpha, lam = params["alpha"], params["lambda"]

    if alpha == 1.0:
        # exponential closed forms: exact log-space tails at any depth
        def log_pdf(x):
            return np.where(x >= 0.0, math.log(lam) - lam * x, -np.inf)

        def log_cdf(x):
            return np.where(x > 0.0, log1mexp(np.minimum(-lam * x, 0.0)), -np.inf)

        def log_sf(x):
            return np.where(x > 0.0, -lam * x, 0.0)
    else:
        def log_pdf(x):
            return _masked(x, (x > 0.0) & (x < math.inf), -np.inf, lambda xp: (
                alpha * math.log(lam) + (alpha - 1.0) * np.log(xp) - lam * xp - sc.gammaln(alpha)))

        def log_cdf(x):
            return log_gamma_lower_reg(alpha, lam * x)

        def log_sf(x):
            return log_gamma_upper_reg(alpha, lam * x)

    def quantile(q):
        return st.gamma.ppf(q, alpha, scale=1.0 / lam)

    mode = (alpha - 1.0) / lam if alpha >= 1.0 else 0.0
    transform = None
    if alpha < 1.0:
        # not log-concave: sample |Y|^(1/alpha) / lambda with Y ~ EPD(1/alpha)
        beta = 1.0 / alpha
        transform = (build_descriptor("epd", beta=beta), lambda y: np.abs(y) ** beta / lam)
    return DistributionDescriptor(
        family_name="gamma", params=params, kind="continuous",
        support=(0.0, math.inf), log_pdf=log_pdf, log_cdf=log_cdf, log_sf=log_sf,
        mode=mode, mu=alpha / lam, sigma=math.sqrt(alpha) / lam, quantile=quantile,
        transform=transform,
    )


def _build_invgauss(params):
    # log-density second derivative is 3/(2x^2) - lam/x^3: concave only for
    # x < 2*lam/3, so the rejection envelope is not a strict bound in the
    # far tail.  The excess mass is tiny at practical depths; run
    # check_log_concavity over the interval of interest to quantify.
    mu, lam = params["mu"], params["lambda"]

    def log_pdf(x):
        return _masked(x, (x > 0.0) & (x < math.inf), -np.inf, lambda xp: (
            0.5 * (math.log(lam) - LOG_2PI - 3.0 * np.log(xp))
            - lam * (xp - mu) ** 2 / (2.0 * mu * mu * xp)))

    def _terms(x):
        rx = np.sqrt(lam / x)
        u1 = rx * (x / mu - 1.0)
        u2 = rx * (x / mu + 1.0)
        return sc.log_ndtr(u1), sc.log_ndtr(-u1), 2.0 * lam / mu + sc.log_ndtr(-u2)

    # the terms are inf/inf at x = inf: its limits are set, not evaluated
    def log_cdf(x):
        out = np.where(x == math.inf, 0.0, -np.inf)
        pos = (x > 0.0) & (x < math.inf)
        if pos.any():
            t1, _, t2 = _terms(x[pos])
            out[pos] = np.minimum(np.logaddexp(t1, t2), 0.0)
        return out

    def log_sf(x):
        out = np.where(x == math.inf, -np.inf, 0.0)
        pos = (x > 0.0) & (x < math.inf)
        if pos.any():
            _, s1, t2 = _terms(x[pos])
            out[pos] = log_diff_exp(s1, np.minimum(t2, s1))
        return out

    def quantile(q):
        return st.invgauss.ppf(q, mu / lam, scale=lam)

    mode = mu * (math.sqrt(1.0 + 9.0 * mu * mu / (4.0 * lam * lam)) - 3.0 * mu / (2.0 * lam))
    return DistributionDescriptor(
        family_name="invgauss", params=params, kind="continuous",
        support=(0.0, math.inf), log_pdf=log_pdf, log_cdf=log_cdf, log_sf=log_sf,
        mode=mode, mu=mu, sigma=math.sqrt(mu**3 / lam), quantile=quantile,
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
    # the alpha < 1 route samples EPD(1/alpha), so 1/alpha must be finite
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
