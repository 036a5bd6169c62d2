"""Rejection sampler for truncated log-concave targets.

The proposal is the universal uniform-exponential mixture implied by the
log-concave envelope ``f(x) <= f(m) min(1, exp(1 - f(m)|x - m|))``:
continuous targets accept exactly 25% of proposals, discrete targets
``1/(4 + f_I(m))`` (between 20% and 25%).  All acceptance comparisons
happen on the log scale, which is what carries the sampler to the
representability limit of the interval mass rather than the much earlier
breakdown of linear-space tail arithmetic.

A discrete round's proposals sit on a narrow lattice around the projected
mode, so a round whose offsets span fewer lattice points than it has
proposals evaluates the log-pmf once per point of that span, into a table
it then indexes (Devroye 1987, "A simple generator for discrete
log-concave distributions").  The table is never larger than the round,
and its values are the per-proposal values bit for bit.

Every sampler in the package fills its batch through one round driver,
``_fill``, which keeps proposing for the open slots until each is
accepted or the round cap is reached; the samplers differ only in the
proposer they hand it, and ``_proposer`` is the one place that picks it
from the target: the envelope proposer of the target's kind, or, for a
descriptor that declares a ``transform``, the hit-test proposer
``_hit_proposer`` over the log-concave base (draw, map, keep the draws
that land in the interval).  Hit-or-miss uses the same hit-test proposer
over the untruncated base.  Slots left open, and every slot of a target
whose interval mass underflowed (``log_mass == -inf``, a degenerate
target), go to the one policy helper, ``_finish``: depending on the
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

    def is_clean(self, target: TruncatedTarget) -> bool:
        """No imputation, and all values finite and in ``target``'s interval."""
        return (not self.imputed.any() and bool(np.isfinite(self.values).all())
                and bool(target.interval.contains(self.values).all()))


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
    """One envelope proposal on the lattice ``m + Z`` and log-space accept
    test per open slot.

    A round whose integer offsets span fewer lattice points than it has
    proposals evaluates the log-pmf once per point of that span, into a
    table it then indexes; any other round evaluates it once per proposal.
    So the table is never larger than the round, and both give the same
    values bit for bit.
    """
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
        lo, hi = offs.min(), offs.max()
        if hi - lo < k:
            # Each log-pmf value depends only on its own point, never on the
            # rest of the array, so a table entry equals the value at that
            # point in ``x``.  That includes the series loop in
            # ``families._bd0``, which stops once the whole array has
            # converged: its terms share a sign and shrink in magnitude, so
            # once a term no longer changes an element, no later term does.
            # ``offs - lo`` and ``lo + (offs - lo)`` are exact, so each
            # proposal reads the value at its own point ``m + offs``; the
            # table length is ``hi - lo + 1`` even where ``hi + 1`` would
            # round to ``hi`` (offsets beyond 2**53).
            table = t.log_pdf(m + (lo + np.arange(hi - lo + 1.0)))
            lf = table[(offs - lo).astype(np.intp)]
        else:
            lf = t.log_pdf(x)
        with np.errstate(divide="ignore"):
            log_w = np.log(w_u)
        acc = (log_w + np.minimum(0.0, w - c * y) <= lf - log_c) & (lf > -np.inf)
        return x, acc, k

    return propose


def _hit_proposer(base, interval, max_rounds: int, fmap=None):
    """Hit-or-miss against ``interval``: one draw per open slot from the
    proposer ``base`` (an inner ``_fill``), mapped through ``fmap``, is
    accepted if it lands in the interval; an inner slot left open misses.
    """

    def propose(idx):
        k = idx.size
        draws, pending, props = _fill(k, max_rounds, base)
        ok = np.ones(k, dtype=bool)
        ok[pending] = False
        if fmap is not None:
            draws = fmap(draws)
        return draws, ok & interval.contains(draws), props

    return propose


def _proposer(t: TruncatedTarget, gen: np.random.Generator, max_rounds: int):
    """The proposer for ``t``: a transform route, or the envelope of its kind."""
    route = t.base.transform
    if route is not None:
        base, fmap = route
        return _hit_proposer(_proposer(truncate(base), gen, max_rounds), t.interval,
                             max_rounds, fmap)
    return (_discrete_proposer if t.base.is_discrete else _continuous_proposer)(t, gen)


def ds_sample_batch(
    t: TruncatedTarget,
    n: int,
    rng: RngLike = None,
    policy: ImputationPolicy = DEFAULT_POLICY,
) -> SampleBatch:
    """Draw ``n`` variates from the truncated target.

    A degenerate target is handed to the imputation policy whole.
    Otherwise the rejection loop runs on the proposer ``_proposer`` picks:
    the envelope of the target's kind, or, when the descriptor declares a
    ``transform`` (gamma with shape below one), draws of its log-concave
    base mapped and hit-tested against the interval.
    """
    if n < 1:
        raise ValueError(f"batch size must be >= 1, got {n}")
    gen = as_generator(rng)
    if t.degenerate:
        return _degenerate_batch(t, n, policy, "devroye")
    propose = _proposer(t, gen, policy.max_iterations)
    values, pending, proposals = _fill(n, policy.max_iterations, propose)
    return _finish(t, values, pending, proposals, policy, "devroye", _cap_error(policy))
