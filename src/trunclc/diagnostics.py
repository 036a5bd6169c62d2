"""Safety-margin cartography and statistical validation of sampler output.

The scanner walks a schedule of truncation depths per parameter
configuration and records the deepest point at which each sampler still
produces a clean batch: the quantile-based sampler's endpoint is an
execution error, an infinite value, or an out-of-interval value; the
rejection sampler's endpoint is a nonzero imputation rate.  Depths are
standardized to safety ratios through each family's central tendency and
dispersion indices.

Validation tools check the samples themselves: a Z statistic on the
truncated mean against independent oracles, an exponential tail Q-Q
comparison for the deep normal tail, and a memorylessness check for the
geometric law.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy import integrate
from scipy import special as sc
from scipy import stats as st

from .core import (
    DegenerateTargetError,
    DistributionDescriptor,
    TruncatedTarget,
    TruncationInterval,
    TruncationOverflow,
    truncate,
)
from .devroye import ImputationPolicy, RngLike, RngStream, SampleBatch, ds_sample_batch
from .families import build_descriptor, get_family
from .logspace import LOG_2PI
from .reference import its_sample_batch


class OracleUnavailable(ValueError):
    """The requested moment oracle cannot be evaluated at this depth."""


# ---------------------------------------------------------------------------
# truncated-moment oracles

def _mills_reciprocal_cf(a: float, depth: int = 128) -> float:
    """1 / Mills ratio of the standard normal via the Laplace continued fraction."""
    g = a
    for k in range(depth, 0, -1):
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


def brute_force_truncated_moments(
    desc: DistributionDescriptor, interval: TruncationInterval
) -> tuple[float, float]:
    """(mean, sd) of the truncated law by exhaustive summation / quadrature.

    The independent oracle for validation: sums the pmf or integrates the
    density over the interval intersected with mu +/- 60 sigma, working on
    shifted linear weights so the result is conditioned whenever the
    interval mass exceeds ~1e-300.
    """
    a, b = interval.lower, interval.upper
    lo, hi = desc.support
    w0 = max(a, lo, desc.mu - 60.0 * desc.sigma)
    w1 = min(b, hi, desc.mu + 60.0 * desc.sigma)
    if w0 >= w1 and not (desc.is_discrete and math.floor(w0) == math.floor(w1)):
        raise OracleUnavailable("window empty: interval lies beyond mu + 60 sigma")
    if desc.is_discrete:
        k0 = math.floor(max(a, lo - 1.0)) + 1
        k0 = max(k0, math.ceil(desc.mu - 60.0 * desc.sigma))
        k1 = math.floor(min(b, hi, desc.mu + 60.0 * desc.sigma))
        if k1 < k0:
            raise OracleUnavailable("no support points in the window")
        if k1 - k0 > 5_000_000:
            raise OracleUnavailable("window too wide for exhaustive summation")
        ks = np.arange(k0, k1 + 1, dtype=float)
        lp = desc.log_pdf(ks)
        s = lp.max()
        if s == -math.inf:
            raise OracleUnavailable("all probability mass underflowed")
        w = np.exp(lp - s)
        z = w.sum()
        mean = float((ks * w).sum() / z)
        var = float((ks * ks * w).sum() / z - mean * mean)
        return mean, math.sqrt(max(var, 0.0))
    shift = desc.log_pdf(max(w0, min(w1, desc.mode)))
    if not math.isfinite(shift):
        mid_probe = np.linspace(w0, w1, 101)[1:-1]
        shift = float(np.max(desc.log_pdf(mid_probe)))
    if not math.isfinite(shift):
        raise OracleUnavailable("density underflowed across the window")

    def f(x, power):
        return (x**power) * math.exp(desc.log_pdf(x) - shift)

    opts = dict(limit=400, epsabs=1e-14, epsrel=1e-11)
    z, _ = integrate.quad(f, w0, w1, args=(0,), **opts)
    if not (z > 0.0 and math.isfinite(z)):
        raise OracleUnavailable("quadrature not conditioned on this interval")
    m1, _ = integrate.quad(f, w0, w1, args=(1,), **opts)
    m2, _ = integrate.quad(f, w0, w1, args=(2,), **opts)
    mean = m1 / z
    var = m2 / z - mean * mean
    return float(mean), math.sqrt(max(var, 0.0))


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
    exponential(a).
    """
    excess = batch.values[~batch.imputed] - a
    ps = np.arange(1, 100) / 100.0
    emp = np.quantile(excess, ps)
    theo = -np.log1p(-ps) / a
    ks = st.kstest(excess, lambda y: -np.expm1(-a * np.asarray(y))).statistic
    return QQResult(
        a=a, percentiles=ps, empirical=emp, theoretical=theo,
        ks_statistic=float(ks), n=excess.size,
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

    Cells are pooled from the right so every expected count is at least 5;
    any tail mass beyond ``support`` is folded into the last cell.
    """
    n = observed_values.size
    probs = np.asarray(probs, dtype=float)
    tail = max(0.0, 1.0 - probs.sum())
    counts = np.array(
        [(observed_values == k).sum() for k in support], dtype=float
    )
    overflow = n - counts.sum()
    exp_counts = list(n * probs)
    obs_counts = list(counts)
    exp_counts[-1] += n * tail
    obs_counts[-1] += overflow
    # pool right-to-left until every expected count reaches 5
    while len(exp_counts) > 2 and exp_counts[-1] < 5.0:
        exp_counts[-2] += exp_counts[-1]
        obs_counts[-2] += obs_counts[-1]
        exp_counts.pop()
        obs_counts.pop()
    exp_arr = np.array(exp_counts)
    obs_arr = np.array(obs_counts)
    keep = exp_arr > 0
    stat = float(((obs_arr[keep] - exp_arr[keep]) ** 2 / exp_arr[keep]).sum())
    df = int(keep.sum() - 1)
    crit = float(st.chi2.ppf(1.0 - alpha, df))
    return GofResult(statistic=stat, df=df, critical=crit, alpha=alpha,
                     passed=stat <= crit, n=n)


def memorylessness_check(
    p: float,
    a: int,
    n: int,
    rng: RngLike = None,
    alpha: float = 0.001,
) -> GofResult:
    """Geometric lack-of-memory check under truncation to ]a, inf[.

    Samples the truncated geometric with the rejection sampler, shifts the
    excess back to the origin, and tests it against the base pmf: the
    shifted law is exactly the base law, at any truncation depth the
    sampler survives.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    desc = build_descriptor("geometric", {"p": p})
    target = truncate(desc, lower=a)
    if target.degenerate:
        raise DegenerateTargetError(f"geometric({p}) on ]{a}, inf[ has underflowed mass")
    batch = ds_sample_batch(target, n, rng)
    shift = math.floor(a) + 1 if a >= 0 else 0
    y = batch.values[~batch.imputed] - shift
    kmax = int(max(y.max(), 1))
    support = np.arange(0, kmax + 1)
    probs = p * (1.0 - p) ** support
    return chi_square_gof(y, support, probs, alpha=alpha)


# ---------------------------------------------------------------------------
# safety scanner

@dataclass
class ScanCell:
    """Measured breakdown points for one parameter configuration."""

    params: dict
    a_bar: float = math.nan          # quantile-sampler endpoint
    a_bar_prime: float = math.nan    # rejection-sampler endpoint
    a_bar_dprime: float = math.nan   # density linear-representability edge
    eta: float = math.nan
    eta_prime: float = math.nan
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

    def _param_names(self) -> list[str]:
        names: list[str] = []
        for cell in self.rows:
            for k in cell.params:
                if k not in names:
                    names.append(k)
        return names

    def to_csv(self) -> str:
        buf = io.StringIO()
        names = self._param_names()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ["family", *names, "a_bar", "a_bar_prime", "a_bar_dprime",
             "eta", "eta_prime", "n_probe", "seed"]
        )
        for cell in self.rows:
            writer.writerow(
                [self.family]
                + [repr(float(cell.params[k])) for k in names]
                + [repr(float(v)) for v in (cell.a_bar, cell.a_bar_prime,
                                            cell.a_bar_dprime, cell.eta, cell.eta_prime)]
                + [self.n_probe, self.seed]
            )
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "SafetyReport":
        reader = csv.reader(io.StringIO(text))
        header = next(reader)
        fixed = ["a_bar", "a_bar_prime", "a_bar_dprime", "eta", "eta_prime",
                 "n_probe", "seed"]
        names = header[1:len(header) - len(fixed)]
        rows = []
        family = ""
        n_probe = 0
        seed = 0
        for rec in reader:
            family = rec[0]
            vals = rec[1:]
            params = {k: float(v) for k, v in zip(names, vals[: len(names)])}
            rest = vals[len(names):]
            rows.append(ScanCell(
                params=params,
                a_bar=float(rest[0]), a_bar_prime=float(rest[1]),
                a_bar_dprime=float(rest[2]), eta=float(rest[3]),
                eta_prime=float(rest[4]),
            ))
            n_probe = int(rest[5])
            seed = int(rest[6])
        return cls(family=family, rows=rows, n_probe=n_probe, seed=seed)

    def to_json(self) -> str:
        rows = []
        for cell in self.rows:
            rows.append({
                "params": {k: float(v) for k, v in cell.params.items()},
                "a_bar": cell.a_bar,
                "a_bar_prime": cell.a_bar_prime,
                "a_bar_dprime": cell.a_bar_dprime,
                "eta": cell.eta,
                "eta_prime": cell.eta_prime,
                "its_censored": cell.its_censored,
                "ds_censored": cell.ds_censored,
                "its_anomalies": cell.its_anomalies,
                "ds_anomalies": cell.ds_anomalies,
            })
        return json.dumps(
            {"meta": {"family": self.family, "n_probe": self.n_probe,
                      "seed": self.seed, **self.metadata},
             "rows": rows},
            indent=2,
        )


def geometric_probes(desc: DistributionDescriptor, ratio: float = 2.0, count: int = 64) -> np.ndarray:
    """Probe depths mu + sigma * ratio^k; suits heavy scans like the geometric family."""
    ks = np.arange(count, dtype=float)
    probes = desc.mu + desc.sigma * ratio**ks
    return probes[np.isfinite(probes)]


def auto_probes(desc: DistributionDescriptor, z_max: int = 50) -> np.ndarray:
    """Integer-sigma lattice mu + k*sigma for k = 0..z_max.

    The lattice is not clipped to the support: a probe past its upper end
    cannot be truncated to, and the scan classifies it as a failure.
    """
    return desc.mu + desc.sigma * np.arange(0, z_max + 1, dtype=float)


def _classify(sample, desc, a: float, rng: RngLike) -> bool:
    """Whether ``sample(target, rng)`` gives a clean batch on ]a, inf[.

    A depth that cannot be truncated to, or a sampler that raises, is a
    failure.
    """
    try:
        target = truncate(desc, lower=float(a))
        batch = sample(target, rng)
    except (TruncationOverflow, DegenerateTargetError, ValueError):
        return False
    return batch.is_clean(target)


def _breakdown(
    classify: Callable[[float, RngLike], bool],
    schedule: np.ndarray,
    stream: RngStream,
    refine_tol: float,
) -> tuple[float, bool, list]:
    """Largest clean depth on the schedule, one bisection refinement stage, anomalies."""
    probes = [s for s in stream.spawn(len(schedule))]
    clean = np.array([classify(float(a), r) for a, r in zip(schedule, probes)])
    if not clean.any():
        return math.nan, False, []
    last_clean = int(np.nonzero(clean)[0].max())
    anomalies = [float(schedule[i]) for i in range(last_clean) if not clean[i]]
    a_lo = float(schedule[last_clean])
    censored = last_clean == len(schedule) - 1
    if censored:
        return a_lo, True, anomalies
    a_hi = float(schedule[last_clean + 1])
    while a_hi - a_lo > refine_tol:
        mid = 0.5 * (a_lo + a_hi)
        r = stream.spawn(1)[0]
        if classify(mid, r):
            a_lo = mid
        else:
            a_hi = mid
    return a_lo, False, anomalies


def _dprime(desc, schedule: np.ndarray) -> float:
    """Largest probed depth at which the density is still linearly representable.

    A discrete density is probed at the first support point above each depth.
    """
    lp = desc.log_pdf(np.floor(schedule) + 1.0 if desc.is_discrete else schedule)
    ok = np.exp(lp) > 0.0
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
    refine_tol: float = 0.01,
) -> SafetyReport:
    """Measure breakdown depths over a parameter grid.

    ``probe_schedule`` is one of ``"auto"`` (integer-sigma lattice),
    ``"geometric"`` (geometric progression of depths), or an explicit
    increasing array of lower truncation bounds applied to every cell.
    """
    if method not in ("its", "devroye", "both"):
        raise ValueError(f"unknown method {method!r}")
    # checked here: a sampler that raises only marks its probe unclean
    if n_probe < 1:
        raise ValueError(f"n_probe must be >= 1, got {n_probe}")
    spec = get_family(family)
    if param_grid is None:
        if set(spec.defaults) != {ps.name for ps in spec.params}:
            raise ValueError(f"{family} has no default parameters; supply param_grid")
        param_grid = [dict(spec.defaults)]
    if len(param_grid) == 0:
        raise ValueError("empty parameter grid")
    root = RngStream(seed)
    rows: list[ScanCell] = []

    # the sampler functions are module attributes read at each call
    def its(t, r):
        return its_sample_batch(t, n_probe, r, policy=ImputationPolicy("error"))

    def ds(t, r):
        return ds_sample_batch(t, n_probe, r)

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
        if schedule.size == 0 or np.any(np.diff(schedule) <= 0):
            raise ValueError("probe schedule must be strictly increasing and nonempty")
        cell_stream = root.spawn(1)[0]
        cell = ScanCell(params=dict(params))
        cell.a_bar_dprime = _dprime(desc, schedule)
        if method in ("its", "both"):
            cell.a_bar, cell.its_censored, cell.its_anomalies = _breakdown(
                lambda a, r: _classify(its, desc, a, r), schedule, cell_stream, refine_tol,
            )
            cell.eta = (cell.a_bar - desc.mu) / desc.sigma
        if method in ("devroye", "both"):
            cell.a_bar_prime, cell.ds_censored, cell.ds_anomalies = _breakdown(
                lambda a, r: _classify(ds, desc, a, r), schedule, cell_stream, refine_tol,
            )
            cell.eta_prime = (cell.a_bar_prime - desc.mu) / desc.sigma
        rows.append(cell)
    return SafetyReport(
        family=family, rows=rows, n_probe=n_probe, seed=seed,
        metadata={"refine_tol": refine_tol, "method": method},
    )
