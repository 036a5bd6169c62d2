"""Log-space primitive tests against arbitrary-precision oracles."""

import functools
import math

import mpmath as mp
import numpy as np
import pytest
from scipy import special as sc

from trunclc.logspace import (
    _log_gamma_q_cf,
    elementwise,
    log1mexp,
    log_diff_exp,
    log_gamma_lower_reg,
    log_gamma_upper_reg,
)

mp.mp.dps = 50


class TestLogDiffExp:
    def test_full_minus_nothing(self):
        assert log_diff_exp(0.0, -math.inf) == 0.0

    def test_exact_arithmetic(self):
        got = log_diff_exp(math.log(0.75), math.log(0.25))
        assert got == pytest.approx(math.log(0.5), abs=1e-15)

    def test_deep_tail_difference(self):
        # oracle: mpmath at 50 digits, log(exp(-726) - exp(-727))
        #       = -726.45867514538708189...
        got = log_diff_exp(-726.0, -727.0)
        assert got == pytest.approx(-726.45867514538708, abs=1e-11)

    def test_equal_arguments_give_neg_inf(self):
        assert log_diff_exp(-3.5, -3.5) == -math.inf
        assert log_diff_exp(-math.inf, -math.inf) == -math.inf

    def test_domain_error(self):
        with pytest.raises(ValueError):
            log_diff_exp(-2.0, -1.0)

    def test_vectorized_matches_mpmath(self):
        la = np.array([-1.0, -10.0, -100.0, -700.0, 0.0])
        lb = la - np.array([1e-8, 0.5, 1.0, 30.0, 5.0])
        got = log_diff_exp(la, lb)
        for g, a, b in zip(got, la, lb):
            want = float(mp.log(mp.exp(mp.mpf(a)) - mp.exp(mp.mpf(b))))
            assert g == pytest.approx(want, rel=1e-13, abs=1e-13)


class TestLog1mExp:
    def test_both_branches(self):
        for z in [-1e-12, -0.1, -0.6931, -0.694, -5.0, -50.0, -700.0]:
            want = float(mp.log(1 - mp.exp(mp.mpf(z))))
            assert log1mexp(z) == pytest.approx(want, rel=1e-13)

    def test_zero_is_neg_inf(self):
        assert log1mexp(0.0) == -math.inf


class TestLogGammaRegularized:
    def test_matches_scipy_in_linear_range(self):
        for a, z in [(0.5, 1.0), (2.0, 3.0), (5.0, 20.0), (1.0, 50.0)]:
            assert log_gamma_upper_reg(a, z) == pytest.approx(
                math.log(sc.gammaincc(a, z)), rel=1e-12
            )
            assert log_gamma_lower_reg(a, z) == pytest.approx(
                math.log(sc.gammainc(a, z)), rel=1e-12
            )

    @pytest.mark.parametrize("a,z", [(2.0, 730.0), (2.0, 745.0), (0.5, 700.0),
                                     (5.0, 900.0), (100.0, 1500.0), (10000.0, 13900.0)])
    def test_upper_deep_tail_vs_mpmath(self, a, z):
        want = float(mp.log(mp.gammainc(mp.mpf(a), mp.mpf(z), mp.inf, regularized=True)))
        assert log_gamma_upper_reg(a, z) == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("a,z", [(2.0, 1e-150), (5.0, 0.1), (300.0, 10.0)])
    def test_lower_deep_tail_vs_mpmath(self, a, z):
        want = float(mp.log(mp.gammainc(mp.mpf(a), 0, mp.mpf(z), regularized=True)))
        assert log_gamma_lower_reg(a, z) == pytest.approx(want, abs=1e-9)

    def test_exponential_special_case(self):
        assert log_gamma_upper_reg(1.0, 745.0) == -745.0
        assert log_gamma_upper_reg(1.0, 3.25) == -3.25


class TestLogGammaQContinuedFraction:
    """The Legendre continued fraction for log Q(a, z) against mpmath, from
    z = 10 to 1e300, where its steps settle within an ulp of 1."""

    # the epd scans' deepest survival arguments for beta = 3/2 and beta = 3
    DEEP = {2.0 / 3.0: 4.3703136663624e16, 1.0 / 3.0: 1.0262052605931435e17}

    @pytest.mark.parametrize("a", [1.0 / 3.0, 0.5, 2.0 / 3.0, 2.0, 5.0])
    def test_matches_mpmath(self, a):
        zs = np.logspace(1.0, 300.0, 60).tolist() + [self.DEEP.get(a, 1e17)]
        for z in zs:
            want = float(mp.log(mp.gammainc(mp.mpf(a), mp.mpf(z), mp.inf, regularized=True)))
            assert _log_gamma_q_cf(a, z) == pytest.approx(want, rel=1e-15), z


class TestElementwise:
    def test_keeps_name_and_doc_but_sets_no_wrapped(self):
        # a decorated function is the function itself, not a wrapper of
        # another callable: code that unwraps, or that skips callables it
        # sees as already wrapped, must treat it as undecorated
        def double(x):
            """Twice x."""
            return 2.0 * x

        wrapped = elementwise(double)
        assert wrapped.__name__ == "double"
        assert wrapped.__qualname__ == double.__qualname__
        assert wrapped.__doc__ == "Twice x."
        assert not hasattr(wrapped, "__wrapped__")
        assert not hasattr(log1mexp, "__wrapped__")

    def test_wraps_a_callable_without_a_name(self):
        # a family builder may hand build_descriptor any callable
        halve = elementwise(functools.partial(np.multiply, 0.5))
        assert type(halve(3.0)) is float and halve(3.0) == 1.5
        assert halve(np.array([2.0, 4.0])).tolist() == [1.0, 2.0]

    def test_scalar_and_array_convention(self):
        @elementwise(at=1)
        def shift(a, x):
            return x + a

        assert type(shift(1.0, 2)) is float and shift(1.0, 2) == 3.0
        assert type(shift(1.0, np.asarray(2.0))) is float
        out = shift(1.0, [[1.0, 2.0]])
        assert isinstance(out, np.ndarray) and out.shape == (1, 2)

    @pytest.mark.parametrize("fn", [log_gamma_upper_reg, log_gamma_lower_reg])
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 300.0])
    def test_gamma_reg_array_matches_scalar_calls(self, fn, a):
        # one scipy call per array, with the continued fraction or series
        # only where it underflows: the same values as point by point
        z = np.array([-1.0, 0.0, 1e-300, 1e-150, 0.1, 3.0, 50.0, 745.0, 1500.0])
        out = fn(a, z)
        assert out.shape == z.shape and out.dtype == np.float64
        for zi, v in zip(z, out):
            s = fn(a, float(zi))
            assert type(s) is float and s == v
