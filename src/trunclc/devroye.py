"""Rejection sampler for truncated log-concave targets.

The proposal is the universal uniform-exponential mixture implied by the
log-concave envelope ``f(x) <= f(m) min(1, exp(1 - f(m)|x - m|))``:
continuous targets accept exactly 25% of proposals, discrete targets
``1/(4 + f_I(m))`` (between 20% and 25%).  All acceptance comparisons
happen on the log scale, which is what carries the sampler to the
representability limit of the interval mass rather than the much earlier
breakdown of linear-space tail arithmetic.

Both rejection samplers, this one and hit-or-miss, build their batches
through one batch function, ``_sample``, and fill them through one round
driver, ``_fill``.  With ``k`` slots open and an acceptance rate ``rho`` it
draws ``ceil(k/rho + 3 sqrt(k/rho)) + 1`` proposals in one round (Devroye
1986, *Non-Uniform Random Variate Generation*, II.3), so a batch usually
fills in one or two rounds.  Accepted proposals fill the open slots in
proposal order and the surplus is dropped: a proposal is kept or dropped by
its position, never by its value, so every kept value is still an
independent draw from the target.  A batch counts its proposals up to the
last accepted one it kept, and may spend at most
``n * ImputationPolicy.max_iterations`` of them; each round is clipped to
what is left of that budget and to ``MAX_ROUND`` proposals, which bounds
the memory of a round.  ``_fill`` owns a round's work arrays: it allocates
them once per batch, and every round's proposer draws into them.

The samplers differ only in the proposer they hand the driver, and
``_proposer`` is the one place that picks it from the target: the envelope
proposer of the target's kind, or, for a descriptor that declares a
``log_scale``, ``_log_proposer`` (envelope proposals of log X on ]log a,
log b], mapped by ``exp``).  Both continuous routes run
``_continuous_proposer`` on a density, the target's own log P(I), a mode,
a peak and the ends of a support: log X needs no target of its own, as its
mass on ]log a, log b] is the target's.  Hit-or-miss keeps the draws of
``_proposer`` on the untruncated law that land in the interval.  Slots left
open, and every slot of a target whose interval mass underflowed
(``log_mass == -inf``, a degenerate target, the one target refused before
the rounds), go to the one policy helper, ``_finish``:
depending on the :class:`ImputationPolicy` it substitutes the projected
mode flagged as imputed, raises, or imputes ``+inf`` (provided only to
mirror the behavior of quantile-based packages; it is not a sound choice
for log-concave tails).

A discrete batch's proposals sit on a narrow lattice around the projected
mode, so its proposer keeps one log-pmf table per batch (Devroye 1987, "A
simple generator for discrete log-concave distributions"): each round
evaluates the log-pmf only at the lattice points of its span that earlier
rounds have not reached, and indexes the table.  The table never holds more
than ``MAX_ROUND`` points, and a round adds no more points than it has
proposals; a round that would break either bound evaluates the log-pmf once
per proposal.  Either way the values are those of
``TruncatedTarget.log_pdf`` bit for bit.  A continuous round reads its
density (the base's, or log X's) at its proposals clamped into the
truncated support and rejects the proposals the clamp moved, so it neither
reads a density outside the support nor masks one.
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
    clean_mask,
)
# unused here: ``truncate`` is a module attribute that perfbench's tracer swaps
from .core import truncate  # noqa: F401

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
        """No imputation, and every value clean (:func:`~trunclc.core.clean_mask`)."""
        return not self.imputed.any() and bool(clean_mask([target], self.values).all())


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


def _round_size(k: int, rate: float, left: int) -> int:
    """Proposals for a round with ``k`` open slots: ``k/rate`` plus three of
    its square roots, plus one, clipped to ``left`` and ``MAX_ROUND``.  A
    rate that underflowed to 0 (hit-or-miss on an interval mass near the
    representability limit) asks for the most allowed."""
    mean = k / rate if rate > 0.0 else math.inf
    return min(math.ceil(min(mean + 3.0 * math.sqrt(mean), MAX_ROUND)) + 1, left, MAX_ROUND)


def _fill(n: int, budget: int, propose, rate: float):
    """Fill ``n`` slots in rounds; returns (values, filled, proposals).

    ``propose(work)`` draws ``size`` proposals into the three float rows of
    the ``(3, size)`` work array ``work`` and returns ``(x, accepted)`` for
    its candidates (at most ``size`` of them), which may be rows of ``work``
    that the next round overwrites; ``rate`` is the expected share of
    proposals accepted.  Accepted candidates fill slots ``0, 1, ...`` in the
    order drawn and the surplus of a round is dropped.
    ``proposals`` counts the candidates up to the last one kept, and the
    rounds stop once it reaches ``budget``; slots ``filled`` to ``n - 1``
    are then still open, for the imputation policy.
    """
    values = np.empty(n)
    # A round's arrays are hundreds of kilobytes, and the allocator returns
    # freed arrays of that size to the operating system, so a round that
    # allocated them afresh would page-fault on each: on a 2-core Xeon VM
    # that took about a third of a 65,536-proposal round.  Open slots and
    # budget only shrink, so no round is larger than the first, and the
    # first round's arrays serve the whole batch.
    work = np.empty((3, _round_size(n, rate, budget)))
    filled = proposals = 0
    while filled < n and proposals < budget:
        k = n - filled
        x, acc = propose(work[:, :_round_size(k, rate, budget - proposals)])
        hits = np.flatnonzero(acc)[:k]
        values[filled:filled + hits.size] = x[hits]
        filled += hits.size
        proposals += int(hits[-1]) + 1 if filled == n else x.size
    return values, filled, proposals


def _continuous_proposer(log_pdf, log_mass: float, m: float, log_peak: float,
                         lo: float, hi: float, gen: np.random.Generator):
    """Envelope proposals about the mode ``m`` of the truncated density
    ``exp(log_pdf - log_mass)`` and their log-space accept test; rate 1/4.

    One uniform ``v`` on [-2, 2) gives the side of the mode (its sign) and
    the envelope component (``|v|``, uniform on [0, 2]); a second
    exponential ``e*`` is drawn only for the proposals that fall in the
    exponential tails.

    A proposal ``x`` is accepted when ``-(E + e*) <= log f_I(x) - log
    f_I(m)``, tested as ``E + e* >= log f_I(m) - (log f(x) - log P(I))``,
    with ``log f_I(m)`` the peak ``log_peak`` and ``log P(I)`` the
    ``log_mass``; negation is exact, so the decisions are those of the first
    form bit for bit.  ``log_pdf`` is read at ``x`` clamped into ``[lo,
    hi]``, the smallest and largest doubles of the truncated support, so it
    never sees a point outside the support, and the one support test
    ``clamp(x) == x`` rejects every proposal outside it, at an open lower
    end included, even where the density at an end is positive.  The clamp
    and the test are made only at a finite end: on an unbounded support
    (``lo = -inf`` and ``hi = inf``) they cost nothing.
    """
    c = math.exp(log_peak)

    def propose(work):
        v, x, e = work
        size = x.size
        # uniform(-2, 2) is -2 + 4 U, and 4 U is exact
        gen.random(size=size, out=v)
        v *= 4.0
        v -= 2.0
        np.abs(v, out=x)
        gen.standard_exponential(size=size, out=e)
        tail = np.flatnonzero(x > 1.0)
        e_star = gen.standard_exponential(size=tail.size)
        e[tail] += e_star
        e_star += 1.0
        x[tail] = e_star
        x /= c
        np.copysign(x, v, out=x)
        x += m
        xc = x
        if lo > -math.inf:
            xc = np.maximum(xc, lo, out=v)
        if hi < math.inf:
            xc = np.minimum(xc, hi, out=v)
        bound = log_pdf(xc) - log_mass
        accepted = e >= np.subtract(log_peak, bound, out=bound)
        if xc is not x:
            accepted &= xc == x
        return x, accepted

    return propose, 0.25


def _discrete_proposer(t: TruncatedTarget, gen: np.random.Generator):
    """Envelope proposals on the lattice ``m + Z`` and their log-space accept
    test; rate ``1/(4 + f_I(m))``.

    One uniform ``v`` on [-1, 1) gives the side of the mode (its sign), the
    envelope component and, within the flat part, the position (``|v|``,
    uniform on [0, 1]); an exponential is drawn only for the proposals that
    fall in the exponential tails.

    The proposer keeps one table per batch: ``log f_I - log c`` at the
    lattice offsets ``origin, origin + 1, ...`` that its rounds have
    spanned so far, ``-inf`` off the truncated support.  A round evaluates
    the log-pmf only at the points of its span that the table does not hold
    yet, at either end, in one call, and then indexes the table.  The table
    never holds more than ``MAX_ROUND`` points, and a round adds at most as
    many points as it has proposals: a round that would break either bound
    (a small round on a wide law) evaluates the log-pmf once per proposal
    and leaves the table as it is, since a table would cost it more.  So a
    batch whose rounds all extend the table evaluates each lattice point
    at most once.  Table or not, a round reads ``TruncatedTarget.log_pdf``,
    which is -inf outside ``]a, b]`` and off the base's support, so a
    proposal outside the truncated support is rejected without a test of
    its own.  For the saddle-point laws that read, and so the table's
    growth, goes through the descriptor's memo (``families._memo``); the
    target's peak has already filled it about the projected mode.
    """
    m = t.proj_mode
    log_c = min(t.log_peak, 0.0)
    c = math.exp(log_c)
    w = 1.0 + c / 2.0
    flat = w / (1.0 + w)  # the flat part's share of the envelope
    table, origin = np.empty(0), 0.0  # table[j] is at offset origin + j

    def log_ratio(k):
        """``log f_I(m + k) - log c`` at the offsets ``k``."""
        return t.log_pdf(m + k) - log_c

    def propose(work):
        nonlocal table, origin
        v, y, offs = work
        size = y.size
        # uniform(-1, 1) is -1 + 2 U, and 2 U is exact
        gen.random(size=size, out=v)
        v *= 2.0
        v -= 1.0
        np.abs(v, out=y)
        tail = np.flatnonzero(y > flat)
        # in the flat part |v| / flat is uniform on [0, 1): y = w (|v| / flat) / c
        y *= (1.0 + w) / c
        e = gen.standard_exponential(size=tail.size)
        e += w
        e /= c
        y[tail] = e
        np.add(y, 0.5, out=offs)
        np.floor(offs, out=offs)
        np.copysign(offs, v, out=offs)
        x = np.add(offs, m, out=v)
        k0, k1 = float(offs.min()), float(offs.max())
        if not table.size:
            origin = k0
        # the table grows to the offsets origin - below, ..., origin + above - 1
        below = max(origin - k0, 0.0)
        above = max(k1 - origin + 1.0, table.size)
        if below + above <= min(table.size + size, MAX_ROUND):
            # Each log-pmf value depends only on its own point, never on the
            # rest of the array, so a table entry equals the value at that
            # point in ``x``.  That includes the series loop in
            # ``families._bd0``, which stops once no element changes (far
            # points carry v = 0, so they never change): its terms share a
            # sign and shrink in magnitude, so once a term no longer changes
            # an element, no later term does.
            # The offsets are integers at most ``MAX_ROUND`` apart, so
            # ``offs - origin`` and ``origin + (offs - origin)`` are exact
            # and each proposal reads the value at its own point ``m +
            # offs``, offsets beyond 2**53 included.
            below, above = int(below), int(above)
            if below + above > table.size:
                new = log_ratio(np.concatenate((origin - np.arange(below, 0.0, -1.0),
                                                origin + np.arange(table.size, above))))
                table = np.concatenate((new[:below], table, new[below:]))
                origin -= below
            offs -= origin
            lf = table[offs.astype(np.intp)]
        else:
            lf = log_ratio(offs)
        # z = min(0, w - c y) - E is finite, so an lf of -inf rejects
        z = np.multiply(y, c, out=y)
        np.subtract(w, z, out=z)
        np.minimum(z, 0.0, out=z)
        z -= gen.standard_exponential(size=size, out=offs)
        return x, z <= lf

    return propose, 1.0 / (4.0 + c)


def _log_proposer(t: TruncatedTarget, gen: np.random.Generator):
    """Envelope proposals of log X mapped by ``exp``; rate 1/4.  Log X has the
    base's ``log_scale`` density over the target's own P(I), on ]log a, log
    b] with each finite end one ulp wider, as the two may round together; a
    proposal is accepted where the envelope test passes and its image lies in
    ]a, b]."""
    log_pdf, mode = t.base.log_scale
    ya, yb = (math.nextafter(math.log(e), w) if 0.0 < e < math.inf else w
              for e, w in ((t.interval.lower, -math.inf), (t.interval.upper, math.inf)))
    m = max(ya, min(yb, mode))
    lo = math.nextafter(ya, math.inf) if ya > -math.inf else ya  # the smallest double in ]ya, yb]
    log_peak = float(log_pdf(np.array([m]))[0]) - t.log_mass
    envelope, rate = _continuous_proposer(log_pdf, t.log_mass, m, log_peak, lo, yb, gen)

    def propose(work):
        y, accepted = envelope(work)
        with np.errstate(over="ignore"):
            x = np.exp(y, out=y)
        return x, accepted & t.interval.contains(x)

    return propose, rate


def _proposer(t: TruncatedTarget, gen: np.random.Generator):
    """``(propose, rate)`` for ``t``: log X's envelope, or the envelope of its kind."""
    if t.base.log_scale is not None:
        return _log_proposer(t, gen)
    if t.base.is_discrete:
        return _discrete_proposer(t, gen)
    lo, hi = t.support
    if -math.inf < lo == t.interval.lower:  # an open end: the smallest double in ]a, b]
        lo = math.nextafter(lo, math.inf)
    return _continuous_proposer(t.base.log_pdf, t.log_mass, t.proj_mode, t.log_peak, lo, hi, gen)


def _sample(t: TruncatedTarget, n, rng: RngLike, policy: ImputationPolicy, method: str,
            proposer, unit: str) -> SampleBatch:
    """The batch of a rejection sampler: ``n`` slots filled by ``_fill`` on
    ``proposer(t, gen)``'s ``(propose, rate)``, spending at most ``n *
    policy.max_iterations`` candidates, named ``unit`` in the error.  A
    degenerate target goes to the policy whole.
    """
    _check_size(n)
    if t.degenerate:
        error = DegenerateTargetError(
            f"log P(I) underflowed to -inf for {t.base.family_name} on "
            f"]{t.interval.lower}, {t.interval.upper}]; cannot sample under the error policy")
        return _finish(t, np.empty(n), np.arange(n), 0, policy, method, lambda i: error)
    budget = n * policy.max_iterations
    values, filled, proposals = _fill(n, budget, *proposer(t, as_generator(rng)))

    def error(i):
        return SamplingBreakdownError(
            f"variate {i} still open after the batch's budget of {budget} {unit}")

    return _finish(t, values, np.arange(filled, n), proposals, policy, method, error)


def ds_sample_batch(
    t: TruncatedTarget,
    n: int,
    rng: RngLike = None,
    policy: ImputationPolicy = DEFAULT_POLICY,
) -> SampleBatch:
    """Draw ``n`` variates from the truncated target.

    A degenerate target is handed to the imputation policy whole.  Otherwise
    the rejection rounds run on the envelope of the target's kind or, for a
    ``log_scale`` law, of log X mapped by ``exp`` (``_proposer``).  At most
    ``n * policy.max_iterations`` proposals are spent.
    """
    return _sample(t, n, rng, policy, "devroye", _proposer, "proposals")
