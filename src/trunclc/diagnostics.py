"""Safety-margin cartography and statistical validation of sampler output.

The scanner walks a schedule of truncation depths per parameter
configuration and records the deepest point at which each sampler still
produces a clean batch.  The quantile-based sampler's endpoint is sampled:
an execution error or a value that is not a clean variate
(:func:`~trunclc.core.clean_mask`).  The rejection sampler's endpoint is
read off the target: Devroye's sampler accepts at a rate of at least 1/5,
so it breaks down only where the target is degenerate, its interval mass
no longer representable.  A few of its batches per cell are then sampled
to check that reading.  Depths are standardized to safety ratios through
each family's central tendency and dispersion indices.  A cell's schedule
is built in array calls (:func:`~trunclc.core.tail_targets`), and its ITS
pass inverts the two extreme uniforms of many probes in one quantile call
(:func:`~trunclc.core.invert_targets`); the bisection between two probes
builds and judges each depth one at a time.

Validation tools check the samples themselves: a Z statistic on the
truncated mean against independent oracles, an exponential tail Q-Q
comparison for the deep normal tail, and a memorylessness check for the
geometric law.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy import special as sc

from .core import (
    DegenerateTargetError,
    DistributionDescriptor,
    TruncatedTarget,
    TruncationInterval,
    TruncationOverflow,
    invert_targets,
    support_bounds,
    tail_targets,
    truncate,
)
from .devroye import (
    RngLike,
    RngStream,
    SampleBatch,
    _check_size,
    as_generator,
    ds_sample_batch,
)
from .families import build_descriptor, get_family
from .logspace import LOG_2PI, _scipy
# ``its_sample_batch`` is a module attribute that perfbench's tracer swaps
from .reference import its_sample_batch  # noqa: F401


class OracleUnavailable(ValueError):
    """The requested moment oracle cannot be evaluated at this depth."""


# ---------------------------------------------------------------------------
# truncated-moment oracles

def _mills_reciprocal_cf(a: float) -> float:
    """1 / Mills ratio of the standard normal: the Laplace continued fraction, 128 deep."""
    g = a
    for k in range(128, 0, -1):
        g = a + (k + 1) / g
    return a + 1.0 / g


def truncated_mean_oracle_normal(a: float) -> float:
    """E[X | X > a] for the standard normal, reliable at any finite depth.

    Uses the log-space density/survival ratio up to 8 sigma and the
    Mills-ratio continued fraction beyond, where the log-ratio loses the
    tiny gap above ``a`` to cancellation.  The result is clamped to stay
    strictly above ``a``.
    """
    if not math.isfinite(a):
        raise ValueError("a must be finite")
    if a <= 8.0:
        log_phi = -0.5 * a * a - 0.5 * LOG_2PI
        out = math.exp(log_phi - sc.log_ndtr(-a))
    else:
        out = _mills_reciprocal_cf(a)
    if out <= a:
        out = a + 1.0 / a  # leading asymptotic term; keeps the mean above a
    return out


def truncated_mean_oracle_poisson(lam: float, a: int) -> float:
    """E[X | X > a] = lambda * S(a-1) / S(a), computed in log space."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    if a != math.floor(a):
        raise ValueError("a must be an integer")
    if a <= -1:
        return lam
    desc = build_descriptor("poisson", {"lambda": lam})
    lsf_a = desc.log_sf(a)
    if lsf_a == -math.inf:
        raise OracleUnavailable(f"log survival underflowed at a={a} for lambda={lam}")
    lsf_am1 = desc.log_sf(a - 1.0)
    out = lam * math.exp(lsf_am1 - lsf_a)
    # E[X | X > a] > a always; anything else means the log-space difference
    # lost its significant digits
    if not math.isfinite(out) or out <= a:
        raise OracleUnavailable(f"oracle lost precision at a={a} for lambda={lam}")
    return out


# QUADPACK's 21-point Gauss-Kronrod rule (Piessens et al. 1983), as in
# scipy's ``quad_vec``: the Kronrod nodes on [-1, 1] and their weights, and
# the 10-point Gauss weights of the nodes at the odd indices
_GK21_NODES = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720])
_GK21_NODES = np.concatenate([_GK21_NODES, [0.0], -_GK21_NODES[::-1]])
_GK21_KRONROD = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068])
_GK21_KRONROD = np.concatenate([_GK21_KRONROD, [0.149445554002916905664936468389821],
                                _GK21_KRONROD[::-1]])
_GK21_GAUSS = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])
_GK21_GAUSS = np.concatenate([_GK21_GAUSS, _GK21_GAUSS[::-1]])
QUAD_EPSABS, QUAD_EPSREL, QUAD_LIMIT = 1e-14, 1e-11, 400
_EPS, _TINY = float(np.finfo(float).eps), float(np.finfo(float).tiny)


def _gk21(f: Callable[[np.ndarray], np.ndarray], a: np.ndarray, b: np.ndarray):
    """GK21 estimates of the integral of ``f`` over each ``[a[i], b[i]]`` and their errors.

    ``f`` maps a 1-d array of points to one row of values per point; it is
    called once, on the 21 nodes of every interval.  The error estimate is
    QUADPACK's, in the 2-norm over a row, as ``quad_vec`` takes it.
    """
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    fv = f((c[:, None] + h[:, None] * _GK21_NODES).ravel()).reshape(a.size, 21, -1)
    s_k = _GK21_KRONROD @ fv
    err = h * np.linalg.norm(s_k - _GK21_GAUSS @ fv[:, 1::2], axis=-1)
    dabs = h * np.linalg.norm(_GK21_KRONROD @ np.abs(fv - 0.5 * s_k[:, None]), axis=-1)
    scaled = (dabs != 0.0) & (err != 0.0)
    ratio = np.divide(200.0 * err, dabs, out=np.zeros_like(err), where=scaled)
    err = np.where(scaled, dabs * np.minimum(1.0, ratio ** 1.5), err)
    rounding = 50.0 * _EPS * h * np.linalg.norm(_GK21_KRONROD @ np.abs(fv), axis=-1)
    err = np.where(rounding > _TINY, np.maximum(err, rounding), err)
    return h[:, None] * s_k, err


def _integrate(f: Callable[[np.ndarray], np.ndarray], w0: float, w1: float) -> np.ndarray:
    """Integral of the vector function ``f`` over ``[w0, w1]``, adaptive GK21 on arrays.

    It starts from the two halves of the window, as ``quad_vec`` does.  Each
    step bisects every interval whose error is at least its share
    (1/count) of the tolerance, the worst interval at least, and evaluates
    all new halves in one :func:`_gk21` call.  It stops once the summed
    error is below tol / 8, tol = max(QUAD_EPSABS, QUAD_EPSREL * |integral|),
    once that error is not finite, or once it holds QUAD_LIMIT intervals or
    more, returning the estimate it has then.
    """
    mid = 0.5 * (w0 + w1)
    a, b = np.array([w0, mid]), np.array([mid, w1])
    part, err = _gk21(f, a, b)
    while True:
        tol = max(QUAD_EPSABS, QUAD_EPSREL * float(np.linalg.norm(part.sum(axis=0))))
        total = float(err.sum())
        n = err.size
        if not math.isfinite(total) or total < tol / 8 or n >= QUAD_LIMIT:
            return part.sum(axis=0)
        split = err >= tol / (8 * n)
        split[np.argmax(err)] = True  # over its share in exact arithmetic, whatever the rounding
        mids = 0.5 * (a[split] + b[split])
        new_a, new_b = np.concatenate([a[split], mids]), np.concatenate([mids, b[split]])
        new_part, new_err = _gk21(f, new_a, new_b)
        a, b = np.concatenate([a[~split], new_a]), np.concatenate([b[~split], new_b])
        part = np.concatenate([part[~split], new_part])
        err = np.concatenate([err[~split], new_err])


def brute_force_truncated_moments(
    desc: DistributionDescriptor, interval: TruncationInterval
) -> tuple[float, float]:
    """(mean, sd) of the truncated law by exhaustive summation / quadrature.

    The independent oracle for validation.  Over the truncated support (see
    :func:`~trunclc.core.support_bounds`) within mu +/- 60 sigma, it sums
    the pmf, or integrates the density, times the centred powers
    (1, d, d^2), d = x - c, with c the mode clamped into the window.
    Weights scaled to 1 near c keep it conditioned down to an interval mass
    of ~1e-300, and centring keeps the variance conditioned.

    The integral is adaptive 21-point Gauss-Kronrod on arrays
    (:func:`_integrate`): each step reads ``desc.log_pdf`` once, on the
    nodes of every new interval.  Its tolerance is ``quad_vec``'s here:
    an absolute 1e-14 or a relative 1e-11, in the 2-norm over the three
    integrals; once it holds 400 intervals it returns its estimate as it
    stands.
    """
    try:
        lo, hi = support_bounds(desc, interval)
    except ValueError as exc:
        raise OracleUnavailable(str(exc)) from None
    w0 = max(lo, desc.mu - 60.0 * desc.sigma)
    w1 = min(hi, desc.mu + 60.0 * desc.sigma)
    if desc.is_discrete:
        w0, w1 = math.ceil(w0), math.floor(w1)
        if w1 < w0:
            raise OracleUnavailable("no support points in the window")
        if w1 - w0 > 5_000_000:
            raise OracleUnavailable("window too wide for exhaustive summation")
    elif w0 >= w1:
        raise OracleUnavailable("window empty: interval lies beyond mu + 60 sigma")
    c = float(max(w0, min(w1, desc.mode)))
    if desc.is_discrete:
        ks = np.arange(w0, w1 + 1, dtype=float)
        lp = desc.log_pdf(ks)
        if lp.max() == -math.inf:
            raise OracleUnavailable("all probability mass underflowed")
        w, d = np.exp(lp - lp.max()), ks - c
        z, m1, m2 = w.sum(), (d * w).sum(), (d * d * w).sum()
    else:
        shift = desc.log_pdf(c)
        if not math.isfinite(shift):
            shift = float(np.max(desc.log_pdf(np.linspace(w0, w1, 101)[1:-1])))
        if not math.isfinite(shift):
            raise OracleUnavailable("density underflowed across the window")

        def moments(x):
            w, d = np.exp(desc.log_pdf(x) - shift), x - c
            return np.stack([w, d * w, d * d * w], axis=-1)

        z, m1, m2 = _integrate(moments, w0, w1)
    if not (z > 0.0 and math.isfinite(z)):
        raise OracleUnavailable("quadrature not conditioned on this interval")
    m1, m2 = m1 / z, m2 / z
    return float(c + m1), math.sqrt(max(float(m2 - m1 * m1), 0.0))


def truncated_mean_oracle(desc: DistributionDescriptor, a: float) -> float:
    """Dispatch to the sharpest available truncated-mean oracle for ]a, inf[."""
    if desc.family_name == "normal":
        mu, sigma = desc.params["mu"], desc.params["sigma"]
        return mu + sigma * truncated_mean_oracle_normal((a - mu) / sigma)
    if desc.family_name == "poisson":
        return truncated_mean_oracle_poisson(desc.params["lambda"], math.floor(a))
    mean, _ = brute_force_truncated_moments(desc, TruncationInterval(a, math.inf))
    return mean


# ---------------------------------------------------------------------------
# validation statistics

@dataclass
class ValidationResult:
    """Z test of the sample mean against a truncated-mean oracle."""

    sample_mean: float
    sample_sd: float
    oracle_mean: float
    n: int
    z: float
    threshold: float
    passed: bool
    n_imputed: int = 0

    def to_dict(self) -> dict:
        return {
            "sample_mean": self.sample_mean,
            "sample_sd": self.sample_sd,
            "oracle_mean": self.oracle_mean,
            "n": self.n,
            "n_imputed": self.n_imputed,
            "z": self.z,
            "threshold": self.threshold,
            "verdict": "pass" if self.passed else "fail",
        }


def z_test_mean(batch: SampleBatch, oracle_mean: float, threshold: float = 3.5) -> ValidationResult:
    """Z = (sample mean - oracle mean) / (S / sqrt(n)) over non-imputed values."""
    vals = batch.values[~batch.imputed]
    n = vals.size
    if n < 2:
        raise ValueError("need at least 2 non-imputed values for a Z test")
    xbar = float(vals.mean())
    s = float(vals.std(ddof=1))
    if s > 0.0:
        z = (xbar - oracle_mean) / (s / math.sqrt(n))
    else:
        z = 0.0 if xbar == oracle_mean else math.copysign(math.inf, xbar - oracle_mean)
    return ValidationResult(
        sample_mean=xbar, sample_sd=s, oracle_mean=oracle_mean, n=n,
        z=z, threshold=threshold, passed=abs(z) <= threshold,
        n_imputed=batch.n_imputed,
    )


@dataclass
class QQResult:
    """Excess-over-threshold quantiles against the exponential tail law."""

    a: float
    percentiles: np.ndarray
    empirical: np.ndarray
    theoretical: np.ndarray
    ks_statistic: float
    n: int


def exp_tail_qq(batch: SampleBatch, a: float) -> QQResult:
    """Compare the excess X - a with the exponential(rate a) tail approximation.

    Emits paired quantiles at the 99 integer percentiles plus the
    Kolmogorov-Smirnov distance between the excess sample and
    exponential(a).  The threshold must satisfy ``0 < a < inf``: the
    exponential law has no rate ``a`` otherwise; and at least 2 values must
    be left unimputed.

    The excess is sorted once.  ``np.quantile`` reads the sorted copy, and
    the distance is taken on it as ``max(max(i/n - F), max(F - (i-1)/n))``
    over the order statistics, i = 1..n: both are the values of
    ``np.quantile`` and ``scipy.stats.kstest`` on the unsorted excess, bit
    for bit, without their own sorts.
    """
    if not 0.0 < a < math.inf:
        raise ValueError(f"the exponential tail Q-Q needs a threshold 0 < a < inf, got {a!r}")
    excess = np.sort(batch.values[~batch.imputed] - a)
    n = excess.size
    if n < 2:
        raise ValueError("need at least 2 non-imputed values for a tail Q-Q")
    ps = np.arange(1, 100) / 100.0
    emp = np.quantile(excess, ps)
    theo = -np.log1p(-ps) / a
    cdf = -np.expm1(-a * excess)
    ks = max(np.max(np.arange(1.0, n + 1) / n - cdf), np.max(cdf - np.arange(0.0, n) / n))
    return QQResult(
        a=a, percentiles=ps, empirical=emp, theoretical=theo,
        ks_statistic=float(ks), n=n,
    )


@dataclass
class GofResult:
    """Chi-square goodness-of-fit verdict."""

    statistic: float
    df: int
    critical: float
    alpha: float
    passed: bool
    n: int


def chi_square_gof(
    observed_values: np.ndarray,
    support: np.ndarray,
    probs: np.ndarray,
    alpha: float = 0.001,
) -> GofResult:
    """Chi-square test of integer observations against pmf values on ``support``.

    ``support`` must be consecutive integers (an ``np.arange``); the
    observations are counted in one ``np.bincount`` over their offsets from
    ``support[0]``.  Any tail mass beyond ``support`` is folded into the
    last cell, and so are the observations above ``support[-1]``.  An
    observation below ``support[0]`` or off the integers has expected count
    0, as has one in a cell of probability 0: any of them makes the
    statistic ``inf``, and the test fails.

    Cells are pooled from the right so every expected count is at least 5.
    With one cell left (df = 0) chi-square is a point mass at 0, so the
    critical value is 0 and only a statistic of 0 passes.
    """
    n = observed_values.size
    support = np.asarray(support, dtype=float)
    probs = np.asarray(probs, dtype=float)
    if probs.size == 0 or probs.shape != support.shape:
        raise ValueError("support and probs must have one equal, non-zero length")
    if not (support.ndim == 1 and math.isfinite(support[0])
            and support[0] == math.floor(support[0]) and np.all(np.diff(support) == 1.0)):
        raise ValueError("support must be consecutive integers")
    tail = max(0.0, 1.0 - probs.sum())
    # every observation above support[-1] lands in one extra bin, which joins the last cell
    offsets = np.minimum(observed_values - support[0], support.size)
    on = (offsets >= 0.0) & (offsets == np.floor(offsets))
    stray = not on.all()
    counts = np.bincount((offsets[on] if stray else offsets).astype(np.intp),
                         minlength=support.size + 1)
    exp_counts = list(n * probs)
    obs_counts = list(counts[:-1].astype(float))
    exp_counts[-1] += n * tail
    obs_counts[-1] += float(counts[-1])
    # pool right-to-left until every expected count reaches 5
    while len(exp_counts) > 2 and exp_counts[-1] < 5.0:
        exp_counts[-2] += exp_counts[-1]
        obs_counts[-2] += obs_counts[-1]
        exp_counts.pop()
        obs_counts.pop()
    exp_arr = np.array(exp_counts)
    obs_arr = np.array(obs_counts)
    keep = exp_arr > 0
    if stray or np.any(obs_arr[~keep] > 0):
        stat = math.inf
    else:
        stat = float(((obs_arr[keep] - exp_arr[keep]) ** 2 / exp_arr[keep]).sum())
    df = int(keep.sum() - 1)
    crit = float(_scipy("stats").chi2.ppf(1.0 - alpha, df)) if df > 0 else 0.0
    return GofResult(statistic=stat, df=df, critical=crit, alpha=alpha,
                     passed=stat <= crit, n=n)


def memorylessness_check(
    p: float,
    a: float,
    n: int,
    rng: RngLike = None,
    alpha: float = 0.001,
) -> GofResult:
    """Geometric lack-of-memory check under truncation to ]a, inf[.

    Samples the truncated geometric with the rejection sampler, shifts it
    down by its smallest support point, and tests it against the base pmf:
    the shifted law is exactly the base law, at any truncation depth the
    sampler survives.
    """
    desc = build_descriptor("geometric", {"p": p})
    target = truncate(desc, lower=a)
    if target.degenerate:
        raise DegenerateTargetError(f"geometric({p}) on ]{a}, inf[ has underflowed mass")
    batch = ds_sample_batch(target, n, rng)
    y = batch.values[~batch.imputed] - target.support[0]
    kmax = int(max(y.max(), 1))
    support = np.arange(0, kmax + 1)
    probs = p * (1.0 - p) ** support
    return chi_square_gof(y, support, probs, alpha=alpha)


# ---------------------------------------------------------------------------
# tables

def format_table(fmt: str, columns: Optional[Sequence[str]], rows: list[dict],
                 meta: Optional[dict] = None) -> str:
    """``rows`` (dicts) in the package's one table format, ``fmt`` "csv" or "json".

    CSV: a header row of ``columns``, then one line per row; a bool prints
    as ``true``/``false``, a float as its ``repr`` (shortest round trip), a
    missing key as an empty cell, anything else through ``str``.  JSON:
    ``{"meta": meta, "rows": rows}``, rows as given and other numbers through
    ``float``; ``columns`` is not read.  Both end in a newline.

    ``trunclc sample`` writes its plain and CSV variates with one join
    instead: routing a 1e5-value CSV batch through row dicts here made that
    call 2.1-2.2x slower, with the same bytes (min of 7 in-process calls).
    """
    if fmt == "json":
        return json.dumps({"meta": meta, "rows": rows}, indent=2, default=float) + "\n"

    def cell(v) -> str:
        if isinstance(v, bool):
            return "true" if v else "false"
        return repr(float(v)) if isinstance(v, float) else str(v)

    lines = [",".join(columns)]
    lines += [",".join(cell(row.get(c, "")) for c in columns) for row in rows]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# safety scanner

_SCAN_COLUMNS = ("a_bar", "a_bar_prime", "a_bar_dprime", "eta", "eta_prime", "ds_inexact")


@dataclass
class ScanCell:
    """Measured breakdown points for one parameter configuration.

    ``a_bar`` is sampled: the deepest depth whose ITS batch is clean.
    ``a_bar_prime`` is read off the targets: the deepest depth whose target
    is live (not degenerate).  ``ds_inexact`` is the shallowest of the
    sampled rejection checks whose batch is not clean, nan when every check
    is clean or none ran.
    """

    params: dict
    a_bar: float = math.nan          # quantile-sampler endpoint
    a_bar_prime: float = math.nan    # rejection-sampler endpoint
    a_bar_dprime: float = math.nan   # density linear-representability edge
    eta: float = math.nan
    eta_prime: float = math.nan
    ds_inexact: float = math.nan     # shallowest unclean rejection check
    its_censored: bool = False
    ds_censored: bool = False
    its_anomalies: list = field(default_factory=list)
    ds_anomalies: list = field(default_factory=list)


@dataclass
class SafetyReport:
    family: str
    rows: list[ScanCell]
    n_probe: int
    seed: int
    metadata: dict = field(default_factory=dict)

    def endpoint_violations(self) -> list[ScanCell]:
        """Cells where the quantile sampler outlived the rejection sampler."""
        out = []
        for cell in self.rows:
            if (
                math.isfinite(cell.a_bar)
                and math.isfinite(cell.a_bar_prime)
                and cell.a_bar > cell.a_bar_prime
            ):
                out.append(cell)
        return out

    def to_csv(self) -> str:
        names = list(dict.fromkeys(k for cell in self.rows for k in cell.params))
        rows = [{"family": self.family, **{k: float(v) for k, v in cell.params.items()},
                 **{c: getattr(cell, c) for c in _SCAN_COLUMNS},
                 "n_probe": self.n_probe, "seed": self.seed}
                for cell in self.rows]
        return format_table("csv", ["family", *names, *_SCAN_COLUMNS, "n_probe", "seed"],
                            rows)

    def to_json(self) -> str:
        rows = [{"params": {k: float(v) for k, v in cell.params.items()},
                 **{c: getattr(cell, c) for c in _SCAN_COLUMNS},
                 "its_censored": cell.its_censored, "ds_censored": cell.ds_censored,
                 "its_anomalies": cell.its_anomalies, "ds_anomalies": cell.ds_anomalies}
                for cell in self.rows]
        return format_table("json", None, rows, meta={
            "family": self.family, "n_probe": self.n_probe, "seed": self.seed,
            **self.metadata})


REFINE_TOL = 0.01  # the bisection of a breakdown depth stops at this width
DS_CHECKS = 8  # the most live depths per cell whose devroye batch is sampled
Z_MAX = 50  # the "auto" schedule's deepest probe, in sigmas
GEOMETRIC_RATIO, GEOMETRIC_COUNT = 2.0, 64


def geometric_probes(desc: DistributionDescriptor) -> np.ndarray:
    """Depths mu + sigma * GEOMETRIC_RATIO^k, k < GEOMETRIC_COUNT; suits heavy tails."""
    ks = np.arange(GEOMETRIC_COUNT, dtype=float)
    probes = desc.mu + desc.sigma * GEOMETRIC_RATIO**ks
    return probes[np.isfinite(probes)]


def auto_probes(desc: DistributionDescriptor) -> np.ndarray:
    """Integer-sigma lattice mu + k*sigma for k = 0..Z_MAX.

    The lattice is not clipped to the support: a probe past its upper end
    cannot be truncated to, and the scan classifies it as a failure.
    """
    return desc.mu + desc.sigma * np.arange(0, Z_MAX + 1, dtype=float)


def _classify(sample, target: Optional[TruncatedTarget], rng: RngLike) -> bool:
    """Whether ``sample(target, rng)`` gives a clean batch (``SampleBatch.is_clean``).

    A depth that cannot be truncated to (``target`` is ``None``), or a
    sampler that raises, is a failure.
    """
    if target is None:
        return False
    try:
        batch = sample(target, rng)
    except (TruncationOverflow, DegenerateTargetError, ValueError):
        return False
    return batch.is_clean(target)


def _its_schedule(targets: list, streams: list, n: int) -> list[bool]:
    """Whether the ITS batch of ``n`` variates on each of ``targets`` is
    clean, probe ``i`` drawing from ``streams[i]``, in one quantile call.

    Each probe draws its ``n`` uniforms as
    :func:`~trunclc.reference.its_sample_batch` does, but only the smallest
    and the largest are inverted: they decide the verdict (the order
    statistics argument of Devroye 1986, ch. V).  The argument
    ``F(a) + u P(I)`` is non-decreasing in ``u``, rounding included, and
    each registered quantile is non-decreasing on sorted arguments and
    non-finite only at its ends.  So each way a variate can fail
    (saturating, or a value :func:`~trunclc.core.clean_mask` rejects) shows
    first at one of the two extremes.  Every probe goes through one
    :func:`~trunclc.core.invert_targets` call, and a probe is clean when
    neither of its two inversions is in the failure mask, the mask by which
    ``its_sample_batch`` hands a variate to its policy.  A depth that cannot
    be truncated to (``None``) is not clean.
    """
    clean = [False] * len(targets)
    live = [i for i, t in enumerate(targets) if t is not None]
    if not live or targets[live[0]].base.quantile is None:
        return clean  # ``invert`` refuses every probe
    u = np.array([(r.min(), r.max())
                  for r in (as_generator(streams[i]).random(size=n) for i in live)])
    _, _, bad = invert_targets([targets[i] for i in live], u)
    for i, b in zip(live, bad.any(axis=1).tolist()):
        clean[i] = not b
    return clean


def _live(targets: list) -> list[bool]:
    """The rejection sampler's verdict on each of ``targets``, read off the
    target: it exists and is not degenerate.

    A live log-concave target accepts at a rate of at least 1/5, so it
    cannot spend the 10,000 proposals a slot its batch may make (the
    expected number of trials is 1/rate, Devroye 1986, II.3).
    """
    return [t is not None and not t.degenerate for t in targets]


def _breakdown(
    judge: Callable[[list], Sequence[bool]],
    desc: DistributionDescriptor,
    schedule: np.ndarray,
    targets: list,
) -> tuple[float, bool, list]:
    """Largest clean depth on the schedule, one bisection refinement stage, anomalies.

    ``targets`` are the schedule's targets (:func:`~trunclc.core.tail_targets`).
    ``judge(targets)`` says which of ``targets`` are clean: the ITS judge
    samples them, the rejection judge (:func:`_live`) reads them.  The
    schedule is judged in one call and each bisection depth, built with
    ``tail_targets``, in a call of its own.  The bisection stops at
    ``REFINE_TOL``, or where the midpoint rounds onto an end, as it does
    once doubles are spaced wider than ``REFINE_TOL``.
    """
    clean = np.array(judge(targets))
    if not clean.any():
        return math.nan, False, []
    last_clean = int(np.nonzero(clean)[0].max())
    anomalies = [float(schedule[i]) for i in range(last_clean) if not clean[i]]
    a_lo = float(schedule[last_clean])
    censored = last_clean == len(schedule) - 1
    if censored:
        return a_lo, True, anomalies
    a_hi = float(schedule[last_clean + 1])
    while a_hi - a_lo > REFINE_TOL:
        mid = 0.5 * (a_lo + a_hi)
        if not a_lo < mid < a_hi:
            break
        if judge(tail_targets(desc, [mid]))[0]:
            a_lo = mid
        else:
            a_hi = mid
    return a_lo, False, anomalies


def _dprime(desc, schedule: np.ndarray, targets: list) -> float:
    """Largest probed depth at which the density is still linearly representable.

    ``targets`` are the schedule's targets (:func:`~trunclc.core.tail_targets`).
    The density is probed at the lower edge of each one's ``support``; a
    depth that cannot be truncated to (``None``) fails.
    """
    firsts = [math.nan if t is None else t.support[0] for t in targets]
    ok = np.exp(desc.log_pdf(np.array(firsts))) > 0.0
    if not ok.any():
        return math.nan
    return float(schedule[np.nonzero(ok)[0].max()])


def scan_safety(
    family: str,
    param_grid: Optional[Sequence[dict]] = None,
    probe_schedule="auto",
    method: str = "both",
    n_probe: int = 1000,
    seed: int = 0,
) -> SafetyReport:
    """Measure breakdown depths over a parameter grid.

    ``probe_schedule`` is one of ``"auto"`` (integer-sigma lattice),
    ``"geometric"`` (geometric progression of depths), or an explicit
    increasing array of finite lower truncation bounds applied to every cell.

    Each cell builds its schedule's targets in array calls and judges the
    ITS batch of every probe with one quantile call (``_its_schedule``);
    each probe still draws its ``n_probe`` uniforms from its own spawned
    stream, so the outcome is the one of a batch per probe.  Only the
    smallest and largest uniform of a probe are inverted: the inverse
    transform is non-decreasing in the uniform, so a batch holds a bad
    variate exactly when one of its two extreme order statistics is bad
    (Devroye 1986, ch. V).

    The rejection sampler's verdict is read off each target, not sampled
    (:func:`_live`).  Its samples check that reading instead: up to
    ``DS_CHECKS`` live schedule depths, evenly spaced over the live probes
    from the shallowest to the deepest, each get one batch of ``n_probe``
    variates, on streams spawned after the ITS pass.  The shallowest one
    that is not clean is the cell's ``ds_inexact``.

    The bisection of each breakdown depth builds its depths one at a time,
    with the same ``tail_targets``, and judges each with the same function
    as the schedule; ``_dprime`` reads the density edge off the same targets.
    """
    if method not in ("its", "devroye", "both"):
        raise ValueError(f"unknown method {method!r}")
    # checked here: a sampler that raises only marks its probe unclean
    _check_size(n_probe, "n_probe")
    spec = get_family(family)
    if param_grid is None:
        if set(spec.defaults) != {ps.name for ps in spec.params}:
            raise ValueError(f"{family} has no default parameters; supply param_grid")
        param_grid = [dict(spec.defaults)]
    if len(param_grid) == 0:
        raise ValueError("empty parameter grid")
    root = RngStream(seed)
    rows: list[ScanCell] = []
    for params in param_grid:
        desc = build_descriptor(family, params)
        if isinstance(probe_schedule, str):
            if probe_schedule == "auto":
                schedule = auto_probes(desc)
            elif probe_schedule == "geometric":
                schedule = geometric_probes(desc)
            else:
                raise ValueError(f"unknown probe schedule {probe_schedule!r}")
        else:
            schedule = np.asarray(probe_schedule, dtype=float)
        if (schedule.ndim != 1 or schedule.size == 0 or not np.isfinite(schedule).all()
                or np.any(np.diff(schedule) <= 0)):
            raise ValueError("probe schedule must be one-dimensional, finite, strictly "
                             "increasing and nonempty")
        cell_stream = root.spawn(1)[0]
        # frozen, so the ITS pass, the devroye pass and its checks share them
        targets = tail_targets(desc, schedule)
        cell = ScanCell(params=dict(params))
        cell.a_bar_dprime = _dprime(desc, schedule, targets)
        if method in ("its", "both"):
            cell.a_bar, cell.its_censored, cell.its_anomalies = _breakdown(
                lambda ts: _its_schedule(ts, cell_stream.spawn(len(ts)), n_probe),
                desc, schedule, targets)
            cell.eta = (cell.a_bar - desc.mu) / desc.sigma
        if method in ("devroye", "both"):
            cell.a_bar_prime, cell.ds_censored, cell.ds_anomalies = _breakdown(
                _live, desc, schedule, targets)
            cell.eta_prime = (cell.a_bar_prime - desc.mu) / desc.sigma
            live = np.flatnonzero(_live(targets))
            picks = live[np.linspace(0, live.size - 1, min(DS_CHECKS, live.size)).astype(int)]
            for i, r in zip(picks, cell_stream.spawn(picks.size)):
                # ``ds_sample_batch`` is a module attribute read at each call
                if not _classify(lambda t, r: ds_sample_batch(t, n_probe, r), targets[i], r):
                    cell.ds_inexact = float(schedule[i])
                    break
        rows.append(cell)
    return SafetyReport(
        family=family, rows=rows, n_probe=n_probe, seed=seed,
        metadata={"refine_tol": REFINE_TOL, "method": method},
    )
