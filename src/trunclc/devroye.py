"""Rejection sampler for truncated log-concave targets.

The proposal is the universal uniform-exponential mixture implied by the
log-concave envelope ``f(x) <= f(m) min(1, exp(1 - f(m)|x - m|))``:
continuous targets accept exactly 25% of proposals, discrete targets
``1/(4 + f_I(m))`` (between 20% and 25%).  All acceptance comparisons
happen on the log scale, which is what carries the sampler to the
representability limit of the interval mass rather than the much earlier
breakdown of linear-space tail arithmetic.

Every sampler in the package fills its batch through one round driver,
``_fill``, which keeps proposing for the open slots until each is
accepted or the round cap is reached; the samplers differ only in the
proposer they hand it.  Slots left open, and every slot of a target whose
interval mass underflowed (``log_mass == -inf``, a degenerate target),
go to the one policy helper, ``_finish``: depending on the
:class:`ImputationPolicy` it substitutes the projected mode flagged as
imputed, raises, or imputes ``+inf`` (provided only to mirror the
behavior of quantile-based packages; it is not a sound choice for
log-concave tails).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from . import families
from .core import (
    DegenerateTargetError,
    SamplingBreakdownError,
    TruncatedTarget,
    truncate,
)

DEFAULT_MAX_ITERATIONS = 10_000


class RngStream:
    """Deterministic, spawnable random stream (counter-based Philox core).

    Identical seeds yield identical variate sequences; ``spawn`` derives
    statistically independent child streams for parallel grid cells.
    """

    def __init__(self, seed: Optional[int] = 0, *, _seq: Optional[np.random.SeedSequence] = None):
        self.seed_sequence = _seq if _seq is not None else np.random.SeedSequence(seed)
        self.generator = np.random.Generator(np.random.Philox(self.seed_sequence))

    def spawn(self, n: int) -> list["RngStream"]:
        return [RngStream(_seq=s) for s in self.seed_sequence.spawn(n)]


RngLike = Union[RngStream, np.random.Generator, int, None]


def as_generator(rng: RngLike) -> np.random.Generator:
    if isinstance(rng, RngStream):
        return rng.generator
    if isinstance(rng, np.random.Generator):
        return rng
    return RngStream(rng).generator


@dataclass(frozen=True)
class ImputationPolicy:
    """What to do when a variate cannot be sampled.

    ``impute_mode`` substitutes the projected mode (the concentration
    point of the truncated law); ``error`` aborts; ``impute_infinite``
    substitutes +inf.
    """

    mode: str = "impute_mode"
    max_iterations: int = DEFAULT_MAX_ITERATIONS

    def __post_init__(self):
        if self.mode not in ("impute_mode", "error", "impute_infinite"):
            raise ValueError(f"unknown imputation mode {self.mode!r}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


DEFAULT_POLICY = ImputationPolicy()


@dataclass
class SampleBatch:
    """Generated variates plus imputation flags and acceptance accounting."""

    values: np.ndarray
    imputed: np.ndarray
    proposals: int
    accepts: int
    method: str
    trials: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def n_imputed(self) -> int:
        return int(self.imputed.sum())

    @property
    def acceptance_rate(self) -> float:
        if self.proposals == 0:
            return math.nan
        return self.accepts / self.proposals

    def is_clean(self, target: Optional[TruncatedTarget] = None) -> bool:
        """No imputation, all values finite and (if a target is given) in its interval."""
        if self.imputed.any() or not np.isfinite(self.values).all():
            return False
        if target is not None and not target.interval.contains(self.values).all():
            return False
        return True


def _finish(t, values, bad_idx, proposals, policy, method, error) -> SampleBatch:
    """Hand the slots in ``bad_idx`` to the imputation policy and pack the batch.

    This is the one place the policy's mode is read.  ``error(i)`` builds
    the exception raised under the ``error`` policy, ``i`` being the
    first bad slot.
    """
    n = values.size
    imputed = np.zeros(n, dtype=bool)
    if bad_idx.size:
        if policy.mode == "error":
            raise error(int(bad_idx[0]))
        values[bad_idx] = t.proj_mode if policy.mode == "impute_mode" else math.inf
        imputed[bad_idx] = True
    return SampleBatch(
        values=values,
        imputed=imputed,
        proposals=proposals,
        accepts=n - bad_idx.size,
        method=method,
    )


def _degenerate_batch(t: TruncatedTarget, n: int, policy: ImputationPolicy, method: str):
    """Every slot of a degenerate target goes to the policy, with no proposals."""
    error = DegenerateTargetError(
        f"log P(I) underflowed to -inf for {t.base.family_name} on "
        f"]{t.interval.lower}, {t.interval.upper}]; cannot sample under the error policy")
    return _finish(t, np.empty(n), np.arange(n), 0, policy, method, lambda i: error)


def _cap_error(policy: ImputationPolicy):
    return lambda i: SamplingBreakdownError(
        f"variate {i} exceeded {policy.max_iterations} proposals"
    )


def _fill(n: int, max_rounds: int, propose):
    """Fill ``n`` slots in rounds; returns (values, open slot indices, proposals).

    ``propose(idx)`` draws one candidate for each open slot in ``idx`` and
    returns ``(x, accepted, proposals)``; accepted candidates close their
    slots.  Slots still open after ``max_rounds`` rounds are returned for
    the imputation policy.
    """
    values = np.empty(n)
    idx = np.arange(n)
    proposals = 0
    for _ in range(max_rounds):
        if idx.size == 0:
            break
        x, acc, props = propose(idx)
        proposals += props
        values[idx[acc]] = x[acc]
        idx = idx[~acc]
    return values, idx, proposals


def _continuous_proposer(t: TruncatedTarget, gen: np.random.Generator):
    """One envelope proposal and log-space accept test per open slot."""
    m = t.proj_mode
    c = math.exp(t.log_peak)

    def propose(idx):
        k = idx.size
        u = gen.uniform(0.0, 2.0, size=k)
        e = gen.standard_exponential(size=k)
        e_star = gen.standard_exponential(size=k)
        sign = np.where(gen.random(size=k) < 0.5, -1.0, 1.0)
        tail = u > 1.0
        offset = np.where(tail, 1.0 + e_star, u)
        z = np.where(tail, -e - e_star, -e)
        x = m + sign * offset / c
        lf = t.log_pdf(x)
        return x, z <= lf - t.log_peak, k

    return propose


def _discrete_proposer(t: TruncatedTarget, gen: np.random.Generator):
    m = t.proj_mode
    log_c = min(t.log_peak, 0.0)
    c = math.exp(log_c)
    w = 1.0 + c / 2.0

    def propose(idx):
        k = idx.size
        u = gen.random(size=k)
        w_u = gen.random(size=k)
        v = gen.random(size=k)
        e = gen.standard_exponential(size=k)
        sign = np.where(gen.random(size=k) < 0.5, -1.0, 1.0)
        tail = u > w / (1.0 + w)
        y = np.where(tail, (w + e) / c, w * v / c)
        offs = sign * np.floor(y + 0.5)
        x = m + offs
        lf = t.log_pdf(x)
        with np.errstate(divide="ignore"):
            log_w = np.log(w_u)
        acc = (log_w + np.minimum(0.0, w - c * y) <= lf - log_c) & (lf > -np.inf)
        return x, acc, k

    return propose


def _proposer(t: TruncatedTarget, gen: np.random.Generator):
    return (_discrete_proposer if t.base.is_discrete else _continuous_proposer)(t, gen)


def ds_sample_batch(
    t: TruncatedTarget,
    n: int,
    rng: RngLike = None,
    policy: ImputationPolicy = DEFAULT_POLICY,
) -> SampleBatch:
    """Draw ``n`` variates from the truncated target.

    A degenerate target is handed to the imputation policy whole.
    Otherwise sampling routes through the family's exception handler when
    one applies (gamma with shape below one goes through the exponential
    power transform), else runs the log-concave rejection loop.
    """
    if n < 1:
        raise ValueError(f"batch size must be >= 1, got {n}")
    gen = as_generator(rng)
    if t.degenerate:
        return _degenerate_batch(t, n, policy, "devroye")
    route = families.exception_route(t.base)
    if route is not None:
        return route(t, n, gen, policy)
    values, pending, proposals = _fill(n, policy.max_iterations, _proposer(t, gen))
    return _finish(t, values, pending, proposals, policy, "devroye", _cap_error(policy))


def epd_gamma_route(
    t: TruncatedTarget, n: int, gen: np.random.Generator, policy: ImputationPolicy
) -> SampleBatch:
    """Sampling route for gamma targets with shape < 1 and a representable mass.

    Each round draws from the (log-concave) exponential power law with
    shape ``1/alpha`` via an inner rejection fill, maps ``|x|^(1/alpha)``
    to a gamma variate, and keeps transformed values landing in the
    truncation interval (hit-or-miss against I).
    """
    alpha = t.base.params["alpha"]
    lam = t.base.params["lambda"]
    beta = 1.0 / alpha
    epd = _continuous_proposer(truncate(families.build_descriptor("epd", beta=beta)), gen)

    def propose(idx):
        k = idx.size
        draws, pending, props = _fill(k, policy.max_iterations, epd)
        ok = np.ones(k, dtype=bool)
        ok[pending] = False
        y = families.epd_to_gamma(draws, beta) / lam
        return y, ok & t.interval.contains(y), props

    values, pending, proposals = _fill(n, policy.max_iterations, propose)
    return _finish(t, values, pending, proposals, policy, "devroye", _cap_error(policy))
