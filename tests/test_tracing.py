"""The benchmark's tracer can still patch every module attribute it wraps.

``perfbench/tracing.py`` swaps package attributes (``devroye.truncate``,
``families.log_gamma_upper_reg``, ``diagnostics.ds_sample_batch``, ...)
for timed wrappers; one the package no longer has makes ``installed``
raise.  This checks that in well under a second, next to the package's own
tests.
"""

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import tracing  # noqa: E402

from trunclc import RngStream, build_descriptor, devroye, truncate  # noqa: E402


def test_installed_enters_and_restores():
    before = devroye.ds_sample_batch
    t = truncate(build_descriptor("gamma", alpha=0.5), lower=1.0)
    plain = devroye.ds_sample_batch(t, 50, RngStream(1))
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert devroye.ds_sample_batch is not before
        traced = devroye.ds_sample_batch(t, 50, RngStream(1))
    assert devroye.ds_sample_batch is before and not tracer.active
    assert np.array_equal(plain.values, traced.values)
    assert tracer._ids["devroye.batch"] in tracer.name_id
