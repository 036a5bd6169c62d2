"""Distribution descriptors and truncated targets.

A :class:`DistributionDescriptor` bundles the log-space functions of a
base distribution (log-pdf/pmf, log-CDF, log-survival), its mode and
support, and the central tendency / dispersion indices used to
standardize truncation depths.  A :class:`TruncatedTarget` is a frozen
record of a descriptor, a half-open interval ``]a, b]`` and what the
samplers read: log P(I), the projected mode, the peak, log F(a), log S(a).

The *truncated support* is the part of the base support in ``]a, b]``;
for a discrete law, the lattice points ``floor(a) + 1, ..., floor(b)``.
Its edges are worked out only in :func:`support_bounds`, and each target
keeps them as ``support``; :func:`clean_mask` says, for every sampler and
check, which values the truncated law can produce.

These are computed only in ``_targets``, over many intervals of one
descriptor in one call of each descriptor function: :func:`truncate` is its
one-interval case, and :func:`tail_targets` builds many targets ``]a, inf[``,
such as a scan's schedule of depths.
:func:`invert_targets` runs the inverse transform on many targets of one
descriptor with one quantile call; :meth:`TruncatedTarget.invert` is its
one-target case.

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

from .logspace import LOG_HALF, _masked, elementwise, log_diff_exp


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
    convention of :func:`~trunclc.logspace.elementwise`: a scalar or 0-d
    argument returns a Python ``float``, an array a float array of its
    shape.  :func:`~trunclc.families.build_descriptor` gives every
    registered family's callables this convention; a descriptor built by
    hand must follow it itself.  Beyond the support, +-inf included,
    ``log_pdf`` is -inf and ``log_cdf``/``log_sf`` are -inf/0 below it and
    0/-inf above; a discrete law's three are step functions of ``floor(x)``.
    At a finite lower end a continuous ``log_pdf`` is the limit from inside,
    or -inf where that is not finite: a projected mode there reads it as the
    peak.  ``mu`` and ``sigma`` are the standardization indices used for
    safety ratios, not necessarily the mean and standard deviation.

    ``log_scale``, when set, is ``(log_pdf, mode)``: log X's closed-form
    log-density (an array function) and mode, declared by a law on (0, inf)
    log-concave in log x but not in x; the sampler then draws exp(log X),
    normalising log X's density by the target's P(I), which is log X's mass
    on ]log a, log b].
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
    log_scale: Optional[tuple[Callable[[np.ndarray], np.ndarray], float]] = None

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


def support_bounds(desc: DistributionDescriptor, interval: TruncationInterval
                   ) -> tuple[float, float]:
    """``(lo, hi)``: the smallest and largest points of the truncated support.

    Discrete: ``max(floor(a) + 1, s0)`` and ``min(floor(b), s1)``.
    Continuous: ``max(a, s0)`` and ``min(b, s1)``, where the lower edge is
    the limiting infimum of the open end.  Raises ``ValueError`` when
    ``]a, b]`` holds no point of the support.
    """
    a, b = interval.lower, interval.upper
    s0, s1 = desc.support
    if desc.is_discrete:
        lo = max(math.floor(a) + 1.0 if math.isfinite(a) else a, s0)
        hi = min(math.floor(b) if math.isfinite(b) else b, s1)
        if lo > hi:
            raise ValueError(f"no support point in ]{a}, {b}] for {desc.family_name}")
    else:
        if a >= s1 or b < s0:
            raise ValueError(f"]{a}, {b}] does not intersect the support {desc.support}")
        lo, hi = max(a, s0), min(b, s1)
    return float(lo), float(hi)


def _log_lower(desc: DistributionDescriptor, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(log F(a), log S(a))`` for a 1-d array ``a`` of lower ends.

    ``log_cdf`` is called once over the finite lower ends and ``log_sf``
    once over those on the survival route (``log F(a) > log 1/2``).  On the
    CDF route log S(a) is ``log1p(-F(a))``, well conditioned there since
    ``F(a) <= 1/2``.
    """
    la = np.full(a.shape, -np.inf)
    finite = a != -math.inf
    if finite.any():
        la[finite] = desc.log_cdf(a[finite])
    survival = ~(la <= LOG_HALF)
    lsa = np.zeros(a.shape)
    if survival.any():
        lsa[survival] = desc.log_sf(a[survival])
    lsa[~survival] = np.log1p(-np.exp(la[~survival]))
    return la, lsa


def _log_masses(desc: DistributionDescriptor, la: np.ndarray, lsa: np.ndarray, b) -> np.ndarray:
    """log P(a < X <= b) of lower ends ``a`` given as ``(log F(a), log S(a))``
    (see :func:`_log_lower`).

    ``b >= a`` holds the upper ends, of ``la``'s shape or, for one lower
    end, of any 1-d shape.  Each lower end picks its route: the CDF route
    ``log(F(b) - F(a))`` while ``F(a)`` sits in the left tail
    (``log F(a) <= log 1/2``), otherwise the survival route
    ``log(S(a) - S(b))``.  ``log_cdf`` and ``log_sf`` are each called once,
    over the finite upper ends of their route; every value depends on its
    own point alone.  No representability collapse is applied here.
    """
    survival = ~(la <= LOG_HALF)
    la_b, lsa_b, survival_b, b = np.broadcast_arrays(la, lsa, survival, b)
    # log F(b) on the CDF route, log S(b) on the survival route
    lb = np.where(survival_b, -np.inf, 0.0)
    finite = b != math.inf
    for route, log_tail in ((~survival_b, desc.log_cdf), (survival_b, desc.log_sf)):
        at = finite & route
        if at.any():
            lb[at] = log_tail(b[at])
    hi = np.where(survival_b, lsa_b, lb)
    lo = np.where(survival_b, lb, la_b)
    return np.minimum(log_diff_exp(hi, np.minimum(lo, hi)), 0.0)


def _representable(lm: float) -> float:
    """``lm``, or ``-inf`` for a mass whose double value rounds to zero.

    This is the representability limit: such a mass is treated as total
    underflow.
    """
    return -math.inf if math.exp(lm) == 0.0 else lm


def log_interval_mass(desc: DistributionDescriptor, interval: TruncationInterval) -> float:
    """log P(a < X <= b), choosing the stabler of the CDF and survival routes.

    Masses that underflow linear double precision collapse to ``-inf``.
    """
    lm = _log_masses(desc, *_log_lower(desc, np.array([interval.lower])),
                     np.array([interval.upper]))
    return _representable(float(lm[0]))


@dataclass(frozen=True)
class TruncatedTarget:
    """A descriptor truncated to ``]a, b]`` with cached normalization.

    Build one with :func:`truncate`, or many ``]a, inf[`` with
    :func:`tail_targets`; both compute the fields in :func:`_targets`.
    ``support`` is ``(lo, hi)``, the edges of the truncated support from
    :func:`support_bounds`; ``proj_mode`` is the base mode clamped into it.
    ``log_cdf_lower`` and ``log_sf_lower`` are log F(a) and log S(a), which
    the mass evaluates anyway; the inverse transform reads the first, and
    :meth:`cdf` reads both instead of evaluating them again.
    """

    base: DistributionDescriptor
    interval: TruncationInterval
    support: tuple[float, float]
    log_mass: float
    proj_mode: float
    log_peak: float
    log_cdf_lower: float = field(repr=False)
    log_sf_lower: float = field(repr=False)

    @property
    def degenerate(self) -> bool:
        return self.log_mass == -math.inf

    @elementwise(at=1)
    def log_pdf(self, x):
        """log f_I(x): log f(x) - log P(I) inside ]a, b], else -inf; the base
        is evaluated only inside ]a, b]."""
        # -inf - -inf where a degenerate target (log P(I) = -inf) has no density
        with np.errstate(invalid="ignore"):
            return _masked(x, self.interval.contains(x), -np.inf,
                           lambda p: self.base.log_pdf(p) - self.log_mass)

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
        out[inside] = np.exp(_log_masses(self.base, np.array([self.log_cdf_lower]),
                                         np.array([self.log_sf_lower]), x[inside])
                             - self.log_mass)
        return np.minimum(out, 1.0)

    def invert(self, u):
        """The inverse-transform pipeline at uniforms ``u``: ``q(F(a) + u P(I))``.

        The one-target case of :func:`invert_targets`; returns ``(p', x,
        bad)``, each of ``u``'s shape.
        """
        u = np.asarray(u, dtype=float)
        return tuple(v.reshape(u.shape) for v in invert_targets([self], u.reshape(1, -1)))

    def quantile(self, p: float) -> float:
        """Truncated quantile q(F(a) + p * P(I)) via :meth:`invert`.

        ``p = 0`` gives the infimum of the truncated law, the lower edge of
        ``support``.  A failed inversion raises :class:`TruncationOverflow`.
        """
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {p}")
        if self.degenerate:
            raise TruncationOverflow(
                f"interval mass underflowed (log mass = -inf) for ]{self.interval.lower}, "
                f"{self.interval.upper}]"
            )
        if p == 0.0:
            return self.support[0]
        pp, x, bad = self.invert(p)
        if bad:
            raise TruncationOverflow(
                f"quantile route failed: p' = {float(pp)!r} -> {float(x)!r} on "
                f"]{self.interval.lower}, {self.interval.upper}]"
            )
        return float(x)


def _targets(desc: DistributionDescriptor, intervals: list, supports: list) -> list:
    """The target of ``desc`` on each of ``intervals``, ``supports`` the
    edges ``(lo, hi)`` of their truncated supports (:func:`support_bounds`).

    The only code that computes a target's fields.  One :func:`_log_lower`
    and one :func:`_log_masses` call cover every interval, and one
    ``log_pdf`` call every projected mode of a non-degenerate target.
    """
    modes = [float(max(lo, min(hi, desc.mode))) for lo, hi in supports]
    las, lsas = _log_lower(desc, np.array([iv.lower for iv in intervals]))
    lms = _log_masses(desc, las, lsas, np.array([iv.upper for iv in intervals]))
    lms = [_representable(lm) for lm in lms.tolist()]
    live = [i for i, lm in enumerate(lms) if lm > -math.inf]
    peaks = [math.inf] * len(lms)
    if live:
        # peak of the truncated density at the projected mode; the interval
        # indicator is not applied (the projected mode may sit on the open
        # lower endpoint, where the density value is the relevant limit)
        lfs = desc.log_pdf(np.array([modes[i] for i in live]))
        for i, lf in zip(live, lfs.tolist()):
            peaks[i] = lf - lms[i]
    return [TruncatedTarget(desc, *fields) for fields in
            zip(intervals, supports, lms, modes, peaks, las.tolist(), lsas.tolist())]


def truncate(
    desc: DistributionDescriptor,
    lower: float = -math.inf,
    upper: float = math.inf,
) -> TruncatedTarget:
    """Build a truncated target for ``desc`` restricted to ``]lower, upper]``."""
    interval = TruncationInterval(lower, upper)
    return _targets(desc, [interval], [support_bounds(desc, interval)])[0]


def clean_mask(targets: list, x) -> np.ndarray:
    """Which of ``x`` are clean variates, row ``i`` of the 2-d ``x`` on
    ``targets[i]`` (one base): finite, above ``a`` and in ``support``.

    A continuous law puts no mass on its lower edge, so there ``x > lo``
    (hence ``x > a``); a lattice keeps ``x > a``, which ``x >= lo`` does
    not imply past 2**53, where ``floor(a) + 1`` rounds to ``a``.
    """
    a, lo, hi = np.array([(t.interval.lower, *t.support) for t in targets]).T[:, :, None]
    above = (x > a) & (x >= lo) if targets[0].base.is_discrete else x > lo
    return above & (x <= hi) & np.isfinite(x)


def invert_targets(targets: list, u):
    """The inverse-transform pipeline ``q(F(a) + u P(I))`` of targets of one
    base, row ``i`` of the 2-d uniforms ``u`` on ``targets[i]``, in one
    quantile call.

    The probability argument is deliberately assembled in linear space
    (this is the fragile pipeline whose breakdown the diagnostics measure).
    Returns ``(p', x, bad)``, each of ``u``'s shape: the assembled
    arguments, the base quantiles at them, and the mask of failures: a
    saturated argument (``u < 1`` but ``p' >= 1``) or a value that
    :func:`clean_mask` rejects.  At a saturated argument the base quantile
    silently returns sup X (the paper's imputation-as-supremum failure).
    """
    base = targets[0].base
    if base.quantile is None:
        raise ValueError(f"{base.family_name} descriptor has no quantile function")
    u = np.asarray(u, dtype=float)
    fa = np.array([[math.exp(t.log_cdf_lower)] for t in targets])
    mass = np.array([[math.exp(t.log_mass)] for t in targets])
    pp = fa + u * mass
    with np.errstate(invalid="ignore"):
        x = base.quantile(pp.ravel()).reshape(u.shape)
    return pp, x, ((u < 1.0) & (pp >= 1.0)) | ~clean_mask(targets, x)


def tail_targets(desc: DistributionDescriptor, lowers) -> list[Optional[TruncatedTarget]]:
    """``truncate(desc, lower=a)`` for each ``a`` of ``lowers``, built in array calls.

    One ``_targets`` call builds every depth that :func:`support_bounds`
    accepts, so each target equals the one :func:`truncate` builds; a depth
    that :func:`truncate` refuses gives ``None``.
    """
    intervals, supports = [], []
    for a in lowers:
        try:
            iv = TruncationInterval(float(a), math.inf)
            supports.append(support_bounds(desc, iv))
        except ValueError:
            iv = None
        intervals.append(iv)
    built = iter(_targets(desc, [iv for iv in intervals if iv is not None], supports))
    return [None if iv is None else next(built) for iv in intervals]
