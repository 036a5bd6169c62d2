"""Log-space numerical primitives.

Everything tail-related in this package flows through logarithms of
probabilities; these helpers do the few operations that are easy to get
wrong: differences of exponentials without leaving log space, and
regularized incomplete-gamma values far below the underflow threshold of
their linear-space implementations.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as sc

LOG_HALF = math.log(0.5)
LOG_2PI = math.log(2.0 * math.pi)
LINEAR_FLOOR = 1e-280  # below this a linear-space tail value has lost precision
_MAX_GAMMA_ITER = 200_000  # cap on the incomplete-gamma series and continued fraction
_CF_EPS = float(np.finfo(float).eps)  # the continued fraction stops at a step this close to 1


def elementwise(fn=None, *, at: int = 0):
    """Give an array function the package's scalar/array convention.

    ``fn`` gets its positional argument ``at`` (``at=1`` for a method or a
    function of ``(a, z)``) as a float array of at least one dimension and
    returns a float array of that shape.  Given a scalar or 0-d argument
    there, the decorated function returns a Python ``float``.
    """
    if fn is None:
        return lambda f: elementwise(f, at=at)

    def wrapper(*args, **kwargs):
        x = np.asarray(args[at], dtype=float)
        out = fn(*args[:at], np.atleast_1d(x), *args[at + 1:], **kwargs)
        return out if x.ndim else float(out[0])

    # no ``__wrapped__``: the decorated function is not a wrapper of another
    # callable to code that unwraps, or skips what is already wrapped; a
    # callable without a name (a ``functools.partial``) keeps the wrapper's
    for attr in ("__name__", "__qualname__", "__doc__"):
        setattr(wrapper, attr, getattr(fn, attr, getattr(wrapper, attr)))
    return wrapper


def _masked(x, mask, fill, f):
    """``f(x[mask])`` where ``mask`` holds, ``fill`` elsewhere; ``f(x)`` itself
    where it holds everywhere (each ``f`` returns a fresh array)."""
    if mask.all():
        return f(x)
    out = np.full(x.shape, fill)
    if mask.any():
        out[mask] = f(x[mask])
    return out


@elementwise
def log1mexp(z):
    """log(1 - exp(z)) for z <= 0, stable on both sides of log(1/2).

    Accepts scalars or arrays; returns -inf at z == 0.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(
            z < LOG_HALF,
            np.log1p(-np.exp(z)),
            np.log(-np.expm1(np.where(z < 0.0, z, -np.inf))),
        )
    return np.where(z == 0.0, -np.inf, out)


def log_diff_exp(la, lb):
    """log(exp(la) - exp(lb)) computed without leaving log space.

    Requires la >= lb elementwise; returns -inf where la == lb and la
    where lb == -inf.
    """
    la = np.asarray(la, dtype=float)
    lb = np.asarray(lb, dtype=float)
    if np.any(la < lb):
        raise ValueError("log_diff_exp requires la >= lb")
    with np.errstate(invalid="ignore"):
        out = np.where(lb == -np.inf, la, la + log1mexp(np.minimum(lb - la, 0.0)))
    return out if out.ndim else float(out)


def log_or_fallback(lin, fallback):
    """log of the linear-space values ``lin``; ``fallback(i)`` replaces the
    log of each value below :data:`LINEAR_FLOOR`."""
    low = ~(lin > LINEAR_FLOOR)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(lin)
    for i in np.flatnonzero(low):
        out[i] = fallback(i)
    return out


def _log_gamma_q_cf(a: float, z: float) -> float:
    """log Q(a, z) via the Legendre continued fraction (modified Lentz).

    Valid for z > a + 1; converges in a handful of iterations once z is
    well past a.  It stops at a step within machine epsilon of 1, as
    Numerical Recipes' ``gcf`` does (Press et al. 2007, sec. 6.2).  The
    steps can settle one ulp below 1 (1 - 1.1e-16, the doubles being twice
    as dense there), which a bound under 1.1e-16 never admits: the
    fraction would run to the cap and raise.  At ``z = inf`` it is -inf.
    """
    if z == math.inf:
        return -math.inf
    fpmin = 1e-300
    b = z + 1.0 - a
    c = 1.0 / fpmin
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_GAMMA_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < fpmin:
            d = fpmin
        c = b + an / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) <= _CF_EPS:
            break
    else:
        raise ArithmeticError(f"incomplete-gamma CF did not converge (a={a}, z={z})")
    return a * math.log(z) - z - sc.gammaln(a) + math.log(h)


def _log_gamma_p_series(a: float, z: float) -> float:
    """log P(a, z) via the ascending series, for 0 < z below a + 1."""
    term = 1.0
    total = 1.0
    ap = a
    for _ in range(_MAX_GAMMA_ITER):
        ap += 1.0
        term *= z / ap
        total += term
        if term < total * 1e-17:
            break
    else:
        raise ArithmeticError(f"incomplete-gamma series did not converge (a={a}, z={z})")
    return a * math.log(z) - z - sc.gammaln(a + 1.0) + math.log(total)


def _log_gamma_reg(a, z, lin, fallback, at_zero):
    """log of the regularized incomplete gamma ``lin`` (scipy), or of its
    log-space ``fallback(a, z)`` below the floor, at ``z > 0``; ``at_zero``
    fills ``z <= 0``."""
    out = np.full(z.shape, at_zero)
    pos = z > 0.0
    zp = z[pos]
    out[pos] = log_or_fallback(lin(a, zp), lambda i: fallback(a, float(zp[i])))
    return out


@elementwise(at=1)
def log_gamma_upper_reg(a: float, z):
    """log of the regularized upper incomplete gamma Q(a, z).

    Uses the linear-space scipy value while it carries full precision and
    switches to a log-space continued fraction deep in the right tail,
    where gammaincc underflows to zero.
    """
    if a == 1.0:
        return np.where(z > 0.0, -z, 0.0)
    return _log_gamma_reg(a, z, sc.gammaincc, _log_gamma_q_cf, 0.0)


@elementwise(at=1)
def log_gamma_lower_reg(a: float, z):
    """log of the regularized lower incomplete gamma P(a, z)."""
    if a == 1.0:
        return np.where(z > 0.0, log1mexp(np.minimum(-z, 0.0)), -np.inf)
    return _log_gamma_reg(a, z, sc.gammainc, _log_gamma_p_series, -np.inf)
