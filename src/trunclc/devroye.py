"""Rejection sampler for truncated log-concave targets.

The proposal is the universal uniform-exponential mixture implied by the
log-concave envelope ``f(x) <= f(m) min(1, exp(1 - f(m)|x - m|))``:
continuous targets accept exactly 25% of proposals, discrete targets
``1/(4 + f_I(m))`` (between 20% and 25%).  All acceptance comparisons
happen on the log scale, which is what carries the sampler to the
representability limit of the interval mass rather than the much earlier
breakdown of linear-space tail arithmetic.

Every sampler in the package fills its batch through one round driver,
``_fill``.  With ``k`` slots open and an acceptance rate ``rho`` it draws
``ceil(k/rho + 3 sqrt(k/rho)) + 1`` proposals in one round (Devroye 1986,
*Non-Uniform Random Variate Generation*, II.3), so a batch usually fills in
one or two rounds.  Accepted proposals fill the open slots in proposal
order and the surplus is dropped: a proposal is kept or dropped by its
position, never by its value, so every kept value is still an independent
draw from the target.  A batch counts its proposals up to the last accepted
one it kept, and may spend at most ``n * ImputationPolicy.max_iterations``
of them; each round is clipped to what is left of that budget and to
``MAX_ROUND`` proposals, which bounds the memory of a round.

The samplers differ only in the proposer they hand the driver, and
``_proposer`` is the one place that picks it from the target: the envelope
proposer of the target's kind, or, for a descriptor that declares a
``transform``, the hit-test proposer ``_hit_proposer`` (envelope proposals
of the log-concave base, mapped, kept where the envelope test passes and
the image lands in the interval).  Hit-or-miss uses the same hit-test
proposer over the untruncated law.  Slots left open, and every slot of a
target whose interval mass underflowed (``log_mass == -inf``, a degenerate
target), go to the one policy helper, ``_finish``: depending on the
:class:`ImputationPolicy` it substitutes the projected mode flagged as
imputed, raises, or imputes ``+inf`` (provided only to mirror the
behavior of quantile-based packages; it is not a sound choice for
log-concave tails).

A discrete round's proposals sit on a narrow lattice around the projected
mode, so a round whose offsets span fewer lattice points than it has
proposals evaluates the log-pmf once per point of that span, into a table
it then indexes (Devroye 1987, "A simple generator for discrete
log-concave distributions").  The table is never larger than the round,
and its values are the per-proposal values bit for bit.
"""

from __future__ import annotations

import math
import numbers
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
# Largest round, in proposals.  A round's arrays take a few dozen bytes per
# proposal, so this keeps a round of a large batch to a few megabytes.
MAX_ROUND = 1 << 16


class RngStream:
    """Deterministic, spawnable random stream (SFC64 core).

    Identical seeds yield identical variate sequences; ``spawn`` derives
    statistically independent child streams (``SeedSequence.spawn``) for
    parallel grid cells.
    """

    def __init__(self, seed: Optional[int] = 0, *, _seq: Optional[np.random.SeedSequence] = None):
        self.seed_sequence = _seq if _seq is not None else np.random.SeedSequence(seed)
        self.generator = np.random.Generator(np.random.SFC64(self.seed_sequence))

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
    substitutes +inf.  A batch of ``n`` variates may spend at most
    ``n * max_iterations`` proposals, ``max_iterations`` an integer >= 1;
    the slots still open then go to the policy.
    """

    mode: str = "impute_mode"
    max_iterations: int = DEFAULT_MAX_ITERATIONS

    def __post_init__(self):
        if self.mode not in ("impute_mode", "error", "impute_infinite"):
            raise ValueError(f"unknown imputation mode {self.mode!r}")
        cap = self.max_iterations
        if not (isinstance(cap, numbers.Integral) and cap >= 1):
            raise ValueError(f"max_iterations must be an integer >= 1, got {cap!r}")


DEFAULT_POLICY = ImputationPolicy()


def _check_size(n, name: str = "batch size") -> None:
    """Raise ``ValueError`` unless ``n`` is an integer >= 1 (numpy ints pass)."""
    if not (isinstance(n, numbers.Integral) and n >= 1):
        raise ValueError(f"{name} must be >= 1 and an integer, got {n!r}")


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


def _round_size(k: int, rate: float, left: int) -> int:
    """Proposals for a round with ``k`` open slots: ``k/rate`` plus three of
    its square roots, plus one, clipped to ``left`` and ``MAX_ROUND``.  A
    rate that underflowed to 0 (a transform route whose interval mass is
    near the representability limit) asks for the most allowed."""
    mean = k / rate if rate > 0.0 else math.inf
    return min(math.ceil(min(mean + 3.0 * math.sqrt(mean), MAX_ROUND)) + 1, left, MAX_ROUND)


def _fill(n: int, budget: int, propose, rate: float):
    """Fill ``n`` slots in rounds; returns (values, filled, proposals).

    ``propose(size)`` draws ``size`` proposals and returns ``(x, accepted)``
    for its candidates (at most ``size`` of them); ``rate`` is the expected
    share of proposals accepted.  Accepted candidates fill slots
    ``0, 1, ...`` in the order drawn and the surplus of a round is dropped.
    ``proposals`` counts the candidates up to the last one kept, and the
    rounds stop once it reaches ``budget``; slots ``filled`` to ``n - 1``
    are then still open, for the imputation policy.
    """
    values = np.empty(n)
    filled = proposals = 0
    while filled < n and proposals < budget:
        k = n - filled
        x, acc = propose(_round_size(k, rate, budget - proposals))
        hits = np.flatnonzero(acc)[:k]
        values[filled:filled + hits.size] = x[hits]
        filled += hits.size
        proposals += int(hits[-1]) + 1 if filled == n else x.size
    return values, filled, proposals


def _continuous_proposer(t: TruncatedTarget, gen: np.random.Generator):
    """Envelope proposals and their log-space accept test; rate 1/4.

    One uniform ``v`` on [-2, 2) gives the side of the mode (its sign) and
    the envelope component (``|v|``, uniform on [0, 2]); a second
    exponential is drawn only for the proposals that fall in the
    exponential tails.
    """
    m = t.proj_mode
    c = math.exp(t.log_peak)

    def propose(size):
        v = gen.uniform(-2.0, 2.0, size=size)
        offset = np.abs(v)
        z = -gen.standard_exponential(size=size)
        tail = np.flatnonzero(offset > 1.0)
        e_star = gen.standard_exponential(size=tail.size)
        offset[tail] = 1.0 + e_star
        z[tail] -= e_star
        offset /= c
        x = np.copysign(offset, v, out=offset)
        x += m
        return x, z <= t.log_pdf(x) - t.log_peak

    return propose, 0.25


def _discrete_proposer(t: TruncatedTarget, gen: np.random.Generator):
    """Envelope proposals on the lattice ``m + Z`` and their log-space accept
    test; rate ``1/(4 + f_I(m))``.

    One uniform ``v`` on [-1, 1) gives the side of the mode (its sign), the
    envelope component and, within the flat part, the position (``|v|``,
    uniform on [0, 1]); an exponential is drawn only for the proposals that
    fall in the exponential tails.

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
    flat = w / (1.0 + w)  # the flat part's share of the envelope

    def propose(size):
        v = gen.uniform(-1.0, 1.0, size=size)
        y = np.abs(v)
        tail = np.flatnonzero(y > flat)
        # in the flat part |v| / flat is uniform on [0, 1): y = w (|v| / flat) / c
        y *= (1.0 + w) / c
        y[tail] = (w + gen.standard_exponential(size=tail.size)) / c
        offs = np.copysign(np.floor(y + 0.5), v)
        x = m + offs
        lo, hi = offs.min(), offs.max()
        if hi - lo < size:
            # Each log-pmf value depends only on its own point, never on the
            # rest of the array, so a table entry equals the value at that
            # point in ``x``.  That includes the series loop in
            # ``families._bd0``, which stops once no element changes (far
            # points carry v = 0, so they never change): its terms share a
            # sign and shrink in magnitude, so once a term no longer changes
            # an element, no later term does.
            # ``offs - lo`` and ``lo + (offs - lo)`` are exact, so each
            # proposal reads the value at its own point ``m + offs``; the
            # table length is ``hi - lo + 1`` even where ``hi + 1`` would
            # round to ``hi`` (offsets beyond 2**53).
            table = t.log_pdf(m + (lo + np.arange(hi - lo + 1.0)))
            lf = table[(offs - lo).astype(np.intp)]
        else:
            lf = t.log_pdf(x)
        z = np.minimum(0.0, w - c * y) - gen.standard_exponential(size=size)
        return x, (z <= lf - log_c) & (lf > -np.inf)

    return propose, 1.0 / (4.0 + c)


def _hit_proposer(t: TruncatedTarget, gen: np.random.Generator, per_draw: bool = False):
    """Draws of the untruncated law of ``t``, hit-tested against its interval.

    The proposals are those of the envelope of the law's log-concave root:
    ``t.base`` itself or, when it declares a ``transform``, the transform's
    base, whose proposals are mapped.  A proposal that passes the envelope
    test is a draw of the law; it is accepted when it lands in the
    interval.  The candidates are the proposals, or with ``per_draw`` the
    draws alone (hit-or-miss counts base draws, not proposals).
    """
    root, fmap = t.base.transform or (t.base, None)
    envelope, rate = _proposer(truncate(root), gen)

    def propose(size):
        x, drawn = envelope(size)
        if per_draw:
            x = x[drawn]
        if fmap is not None:
            x = fmap(x)
        hit = t.interval.contains(x)
        return x, hit if per_draw else drawn & hit

    return propose, rate * math.exp(t.log_mass)


def _proposer(t: TruncatedTarget, gen: np.random.Generator):
    """``(propose, rate)`` for ``t``: a transform route, or the envelope of its kind."""
    if t.base.transform is not None:
        return _hit_proposer(t, gen)
    return (_discrete_proposer if t.base.is_discrete else _continuous_proposer)(t, gen)


def ds_sample_batch(
    t: TruncatedTarget,
    n: int,
    rng: RngLike = None,
    policy: ImputationPolicy = DEFAULT_POLICY,
) -> SampleBatch:
    """Draw ``n`` variates from the truncated target.

    A degenerate target is handed to the imputation policy whole.
    Otherwise the rejection rounds run on the proposer ``_proposer`` picks:
    the envelope of the target's kind, or, when the descriptor declares a
    ``transform`` (gamma with shape below one), proposals of its
    log-concave base mapped and hit-tested against the interval.  At most
    ``n * policy.max_iterations`` proposals are spent.
    """
    _check_size(n)
    gen = as_generator(rng)
    if t.degenerate:
        return _degenerate_batch(t, n, policy, "devroye")
    budget = n * policy.max_iterations
    values, filled, proposals = _fill(n, budget, *_proposer(t, gen))

    def error(i):
        return SamplingBreakdownError(
            f"variate {i} still open after the batch's budget of {budget} proposals")

    return _finish(t, values, np.arange(filled, n), proposals, policy, "devroye", error)
