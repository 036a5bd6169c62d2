"""Reference samplers: inverse transform and hit-or-miss.

These are the baselines the rejection sampler is measured against.  The
inverse-transform route deliberately assembles its probability argument
in linear space before inverting the base quantile, because the point of
keeping it around is to measure exactly where that pipeline breaks; a
failed inversion surfaces as :class:`TruncationOverflow` rather than
being silently repaired.

Both samplers share the rejection sampler's machinery: hit-or-miss runs
the round loop ``devroye._fill`` with the hit-test proposer
``devroye._hit_proposer`` over the untruncated base's proposer (the one
the rejection sampler would pick), and both hand their failed variates to
the one policy helper ``devroye._finish``.
"""

from __future__ import annotations

import numpy as np

from .core import TruncatedTarget, TruncationOverflow, truncate
from .devroye import (
    DEFAULT_POLICY,
    ImputationPolicy,
    RngLike,
    SampleBatch,
    SamplingBreakdownError,
    _degenerate_batch,
    _fill,
    _finish,
    _hit_proposer,
    _proposer,
    as_generator,
)


def its_sample_batch(
    t: TruncatedTarget,
    n: int,
    rng: RngLike = None,
    policy: ImputationPolicy = DEFAULT_POLICY,
) -> SampleBatch:
    """Vectorized inverse-transform batch: the truncated quantile at ``n`` uniforms.

    Under the ``error`` policy the first bad variate raises
    :class:`TruncationOverflow`; otherwise bad variates are imputed and
    flagged.
    """
    if n < 1:
        raise ValueError(f"batch size must be >= 1, got {n}")
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
    max_trials: int = 10_000,
    policy: ImputationPolicy = DEFAULT_POLICY,
) -> SampleBatch:
    """Draw from the base law until each draw lands in the interval.

    The base sampler is the untruncated rejection sampler, so failures
    here isolate the 1/P(I) cost of re-drawing rather than any quantile
    fragility.  ``trials`` records the base draws spent on each variate.  A
    degenerate target is handed to the imputation policy whole, with no
    draws.
    """
    if n < 1:
        raise ValueError(f"batch size must be >= 1, got {n}")
    trials = np.zeros(n, dtype=np.int64)
    if t.degenerate:
        batch = _degenerate_batch(t, n, policy, "hit_or_miss")
        batch.trials = trials
        return batch
    base = _proposer(truncate(t.base), as_generator(rng), policy.max_iterations)
    hit = _hit_proposer(base, t.interval, policy.max_iterations)

    def propose(idx):
        trials[idx] += 1
        draws, ok, _ = hit(idx)
        return draws, ok, idx.size

    def error(i):
        return SamplingBreakdownError(f"variate {i} found no hit in {max_trials} base draws")

    values, pending, total = _fill(n, max_trials, propose)
    batch = _finish(t, values, pending, total, policy, "hit_or_miss", error)
    batch.trials = trials
    return batch
