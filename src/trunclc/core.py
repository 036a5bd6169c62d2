"""Distribution descriptors and truncated targets.

A :class:`DistributionDescriptor` bundles the log-space functions of a
base distribution (log-pdf/pmf, log-CDF, log-survival), its mode and
support, and the central tendency / dispersion indices used to
standardize truncation depths.  A :class:`TruncatedTarget` pairs a
descriptor with a half-open interval ``]a, b]`` and precomputes the
log interval mass and the projected mode.

Interval masses are computed entirely in log space, but a mass whose
linear value is not representable as a nonzero double (log mass below
roughly -745) is deliberately collapsed to ``-inf`` and the target is
marked degenerate.  This is the representability limit that defines the
breakdown depth of the rejection sampler: samplers must impute on a
degenerate target rather than silently produce garbage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .logspace import LOG_HALF, elementwise, log_diff_exp


class TruncationOverflow(ArithmeticError):
    """The quantile route produced a non-finite or out-of-interval value."""


class DegenerateTargetError(ValueError):
    """The interval mass underflowed and the policy forbids imputation."""


class SamplingBreakdownError(RuntimeError):
    """A rejection loop exhausted its iteration cap under an error policy."""


@dataclass(frozen=True)
class DistributionDescriptor:
    """A parameterized family member exposing log-space descriptors.

    ``log_pdf``, ``log_cdf``, ``log_sf`` and ``quantile`` follow the
    convention of :func:`~trunclc.logspace.elementwise` (the built-in
    families build each with it): a scalar or 0-d argument returns a Python
    ``float``, an array a float array of its shape.  For discrete kinds the
    first three are step functions of a real argument (internally
    floored).  ``mu`` and ``sigma`` are the standardization indices used
    for safety ratios, not necessarily the mean and standard deviation.
    """

    family_name: str
    params: dict
    kind: str  # "discrete" | "continuous"
    support: tuple[float, float]
    log_pdf: Callable[[np.ndarray], np.ndarray]
    log_cdf: Callable[[np.ndarray], np.ndarray]
    log_sf: Callable[[np.ndarray], np.ndarray]
    mode: float
    mu: float
    sigma: float
    quantile: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.kind not in ("discrete", "continuous"):
            raise ValueError(f"kind must be 'discrete' or 'continuous', got {self.kind!r}")
        lo, hi = self.support
        if not lo <= self.mode <= hi:
            raise ValueError(f"mode {self.mode} outside support {self.support}")
        if self.kind == "discrete" and self.mode != math.floor(self.mode):
            raise ValueError(f"discrete mode must be an integer, got {self.mode}")

    @property
    def is_discrete(self) -> bool:
        return self.kind == "discrete"


@dataclass(frozen=True)
class TruncationInterval:
    """Half-open truncation interval ``]a, b]``; either end may be infinite."""

    lower: float = -math.inf
    upper: float = math.inf

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ValueError(f"interval requires a < b, got ]{self.lower}, {self.upper}]")

    def contains(self, x):
        x = np.asarray(x, dtype=float)
        return (x > self.lower) & (x <= self.upper)


def project_mode(desc: DistributionDescriptor, interval: TruncationInterval) -> float:
    """Clamp the base mode into the truncation interval.

    Continuous: ``clamp(m, a, b)`` (the lower endpoint is the limiting
    infimum of the interval).  Discrete: ``max(floor(a) + 1, min(floor(b), m))``
    so the result is an integer support point strictly above ``a``.
    """
    a, b = interval.lower, interval.upper
    lo, hi = desc.support
    if desc.is_discrete:
        fa = math.floor(a) if math.isfinite(a) else a
        fb = math.floor(b) if math.isfinite(b) else b
        lo_pt = max(fa + 1.0 if math.isfinite(fa) else -math.inf, lo)
        hi_pt = min(fb, hi)
        if lo_pt > hi_pt:
            raise ValueError(
                f"no support point in ]{a}, {b}] for {desc.family_name}"
            )
        m = max(lo_pt, min(hi_pt, desc.mode))
    else:
        if a >= hi or b < lo:
            raise ValueError(
                f"]{a}, {b}] does not intersect the support {desc.support}"
            )
        m = max(a, min(b, desc.mode))
        m = max(lo, min(hi, m))
    return float(m)


def _log_masses(desc: DistributionDescriptor, a: float, b) -> np.ndarray:
    """log P(a < X <= b) for a 1-d array of upper points ``b >= a``.

    The CDF route ``log(F(b) - F(a))`` is used while ``F(a)`` sits in the
    left tail (``log F(a) <= log 1/2``); otherwise the survival route
    ``log(S(a) - S(b))``.  The route depends on ``a`` alone, so it is
    picked once for every upper point.  No representability collapse is
    applied here.
    """
    finite = b != math.inf
    la = desc.log_cdf(a) if a != -math.inf else -math.inf
    if la <= LOG_HALF:
        lb = np.zeros(b.shape)
        if finite.any():
            lb[finite] = desc.log_cdf(b[finite])
        lm = log_diff_exp(lb, np.minimum(la, lb))
    else:
        la = desc.log_sf(a)
        lb = np.full(b.shape, -np.inf)
        if finite.any():
            lb[finite] = desc.log_sf(b[finite])
        lm = log_diff_exp(la, np.minimum(lb, la))
    return np.minimum(lm, 0.0)


def log_interval_mass(desc: DistributionDescriptor, interval: TruncationInterval) -> float:
    """log P(a < X <= b), choosing the stabler of the CDF and survival routes.

    Masses that underflow linear double precision collapse to ``-inf``.
    """
    lm = float(_log_masses(desc, interval.lower, np.array([interval.upper]))[0])
    # representability limit: a mass whose double value rounds to zero is
    # treated as total underflow
    if math.exp(lm) == 0.0:
        return -math.inf
    return lm


@dataclass(frozen=True)
class TruncatedTarget:
    """A descriptor truncated to ``]a, b]`` with cached normalization."""

    base: DistributionDescriptor
    interval: TruncationInterval
    log_mass: float = field(init=False)
    proj_mode: float = field(init=False)
    log_peak: float = field(init=False)

    def __post_init__(self):
        pm = project_mode(self.base, self.interval)
        lm = log_interval_mass(self.base, self.interval)
        # peak of the truncated density at the projected mode; the interval
        # indicator is not applied (the projected mode may sit on the open
        # lower endpoint, where the density value is the relevant limit)
        lp = self.base.log_pdf(pm) - lm if lm > -math.inf else math.inf
        object.__setattr__(self, "proj_mode", pm)
        object.__setattr__(self, "log_mass", lm)
        object.__setattr__(self, "log_peak", lp)

    @property
    def degenerate(self) -> bool:
        return self.log_mass == -math.inf

    @elementwise(at=1)
    def log_pdf(self, x):
        """log f_I(x): log f(x) - log P(I) inside ]a, b], else -inf."""
        with np.errstate(invalid="ignore"):
            return np.where(self.interval.contains(x), self.base.log_pdf(x) - self.log_mass,
                            -np.inf)

    @elementwise(at=1)
    def cdf(self, x):
        """F_I(x) = P(a < X <= x) / P(I), computed from log-space masses."""
        if self.degenerate:
            raise DegenerateTargetError("interval mass underflowed; CDF undefined")
        a, b = self.interval.lower, self.interval.upper
        inside = (x > a) & (x < b)
        out = np.full(x.shape, np.nan)
        out[x <= a] = 0.0
        out[x >= b] = 1.0
        out[inside] = np.exp(_log_masses(self.base, a, x[inside]) - self.log_mass)
        return np.minimum(out, 1.0)

    def invert(self, u):
        """The inverse-transform pipeline at uniforms ``u``: ``q(F(a) + u P(I))``.

        The probability argument is deliberately assembled in linear
        space (this is the fragile pipeline whose breakdown the
        diagnostics measure).  Returns ``(p', x, bad)``: the assembled
        arguments, the base quantiles at them, and the mask of failed
        inversions (a saturated argument, a non-finite value, or a value
        outside the interval).
        """
        if self.base.quantile is None:
            raise ValueError(f"{self.base.family_name} descriptor has no quantile function")
        u = np.asarray(u, dtype=float)
        a, b = self.interval.lower, self.interval.upper
        fa = math.exp(self.base.log_cdf(a)) if a != -math.inf else 0.0
        mass = math.exp(self.log_mass) if self.log_mass > -math.inf else 0.0
        pp = fa + u * mass
        # a saturated argument makes the base quantile silently return
        # sup X (the paper's imputation-as-supremum failure)
        saturated = (u < 1.0) & (pp >= 1.0)
        with np.errstate(invalid="ignore"):
            x = self.base.quantile(pp)
        if self.base.is_discrete:
            lo_edge = max(math.floor(a) if math.isfinite(a) else -math.inf,
                          self.base.support[0] - 1.0)
            hi_edge = math.floor(b) if math.isfinite(b) else math.inf
            outside = (x <= lo_edge) | (x > hi_edge)
        else:
            outside = (x < a) | (x > b)
        return pp, x, saturated | ~np.isfinite(x) | outside

    def quantile(self, p: float) -> float:
        """Truncated quantile q(F(a) + p * P(I)) via :meth:`invert`.

        A failed inversion raises :class:`TruncationOverflow`.
        """
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {p}")
        if self.degenerate:
            raise TruncationOverflow(
                f"interval mass underflowed (log mass = -inf) for ]{self.interval.lower}, "
                f"{self.interval.upper}]"
            )
        a = self.interval.lower
        if p == 0.0:
            # the infimum of the truncated law: its smallest support point
            # (discrete) or the open lower endpoint as a limiting value
            if self.base.is_discrete:
                return float(max(math.floor(a) + 1.0 if math.isfinite(a) else -math.inf,
                                 self.base.support[0]))
            return a
        pp, x, bad = self.invert(p)
        if bad:
            raise TruncationOverflow(
                f"quantile route failed: p' = {float(pp)!r} -> {float(x)!r} on "
                f"]{a}, {self.interval.upper}]"
            )
        return float(x)


def truncate(
    desc: DistributionDescriptor,
    lower: float = -math.inf,
    upper: float = math.inf,
) -> TruncatedTarget:
    """Build a truncated target for ``desc`` restricted to ``]lower, upper]``."""
    return TruncatedTarget(desc, TruncationInterval(lower, upper))
