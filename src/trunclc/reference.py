"""Reference samplers: inverse transform and hit-or-miss.

These are the baselines the rejection sampler is measured against.  The
inverse-transform route deliberately assembles its probability argument
in linear space before inverting the base quantile, because the point of
keeping it around is to measure exactly where that pipeline breaks; a
failed inversion surfaces as :class:`TruncationOverflow` rather than
being silently repaired.

Both samplers share the rejection sampler's machinery: hit-or-miss builds
its batch through the rejection sampler's batch function with the hit-test
proposer (draws of the untruncated law, kept where they land in the
interval), and both hand their failed variates to the one imputation
policy path.
"""

from __future__ import annotations

import numpy as np

# ``truncate`` is a module attribute that perfbench's tracer swaps
from .core import TruncatedTarget, TruncationOverflow, truncate  # noqa: F401
from .devroye import (
    DEFAULT_POLICY,
    ImputationPolicy,
    RngLike,
    SampleBatch,
    _check_size,
    _finish,
    _hit_proposer,
    _sample,
    as_generator,
)


def its_sample_batch(
    t: TruncatedTarget,
    n: int,
    rng: RngLike = None,
    policy: ImputationPolicy = DEFAULT_POLICY,
) -> SampleBatch:
    """Vectorized inverse-transform batch: the truncated quantile at ``n`` uniforms.

    A variate is bad when :meth:`~trunclc.core.TruncatedTarget.invert`
    masks it: a saturated argument, or a value that is non-finite or lies
    outside ``]a, b]`` or the truncated support.  Under the ``error``
    policy the first bad variate raises :class:`TruncationOverflow`;
    otherwise bad variates are imputed and flagged.
    """
    _check_size(n)
    pp, x, bad = t.invert(as_generator(rng).random(size=n))

    def error(i):
        return TruncationOverflow(
            f"quantile route failed at variate {i}: p' = {float(pp[i])!r} -> {float(x[i])!r}"
        )

    return _finish(t, x, np.flatnonzero(bad), n, policy, "its", error)


def hit_or_miss_batch(
    t: TruncatedTarget,
    n: int,
    rng: RngLike = None,
    policy: ImputationPolicy = DEFAULT_POLICY,
) -> SampleBatch:
    """Draw from the base law until each draw lands in the interval.

    The base draws come from the untruncated rejection sampler, so failures
    here isolate the 1/P(I) cost of re-drawing rather than any quantile
    fragility.  ``trials`` records, for each variate, the base draws since
    the previous hit (for the first open slot, the draws after the last
    hit), so ``proposals == trials.sum()``.  A batch may spend at most
    ``n * policy.max_iterations`` base draws, as the other samplers may
    spend proposals; ``policy`` decides what happens to the slots still
    open then.  A degenerate target is handed to the imputation
    policy whole, with no draws.
    """
    hits, drawn = [np.empty(0, dtype=np.intp)], 0

    def recording(t, gen):
        propose, rate = _hit_proposer(t, gen, per_draw=True)

        def record(work):
            nonlocal drawn
            x, hit = propose(work)
            hits.append(drawn + np.flatnonzero(hit))
            drawn += x.size
            return x, hit

        return record, rate

    batch = _sample(t, n, rng, policy, "hit_or_miss", recording, "base draws")
    # every hit of a round is kept but the surplus of the last, so the kept
    # hits are the first ``accepts`` of them all
    filled = batch.accepts
    ends = np.concatenate(hits)[:filled] + 1
    batch.trials = np.zeros(n, dtype=np.int64)
    batch.trials[:filled] = np.diff(ends, prepend=0)
    if filled < n:
        batch.trials[filled] = batch.proposals - (ends[-1] if filled else 0)
    return batch
