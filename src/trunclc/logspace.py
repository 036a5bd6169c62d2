"""Log-space numerical primitives.

Everything tail-related in this package flows through logarithms of
probabilities; these helpers do the few operations that are easy to get
wrong: differences of exponentials without leaving log space, and
regularized incomplete-gamma values far below the underflow threshold of
their linear-space implementations.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy import special as sc

LOG_HALF = math.log(0.5)
LOG_2PI = math.log(2.0 * math.pi)


def elementwise(fn):
    """Give an array function the package's scalar/array convention.

    ``fn`` receives its first argument as a float array of at least one
    dimension (further arguments pass through) and returns an array of
    the same shape.  The wrapped function accepts scalars or arrays; a
    scalar argument gets a Python ``float`` back.
    """

    @functools.wraps(fn)
    def wrapper(x, *args, **kwargs):
        x = np.asarray(x, dtype=float)
        out = fn(np.atleast_1d(x), *args, **kwargs)
        return out if x.ndim else float(out[0])

    return wrapper


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
    if out.ndim == 0:
        return float(out)
    return out


def _log_gamma_q_cf(a: float, z: float, max_iter: int = 200_000) -> float:
    """log Q(a, z) via the Legendre continued fraction (modified Lentz).

    Valid for z > a + 1; converges in a handful of iterations once z is
    well past a.
    """
    fpmin = 1e-300
    b = z + 1.0 - a
    c = 1.0 / fpmin
    d = 1.0 / b
    h = d
    for i in range(1, max_iter):
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
        if abs(delta - 1.0) < 1e-16:
            break
    else:
        raise ArithmeticError(f"incomplete-gamma CF did not converge (a={a}, z={z})")
    return a * math.log(z) - z - sc.gammaln(a) + math.log(h)


def _log_gamma_p_series(a: float, z: float, max_iter: int = 200_000) -> float:
    """log P(a, z) via the ascending series, for z below a + 1."""
    if z == 0.0:
        return -np.inf
    term = 1.0
    total = 1.0
    ap = a
    for _ in range(max_iter):
        ap += 1.0
        term *= z / ap
        total += term
        if term < total * 1e-17:
            break
    else:
        raise ArithmeticError(f"incomplete-gamma series did not converge (a={a}, z={z})")
    return a * math.log(z) - z - sc.gammaln(a + 1.0) + math.log(total)


def log_gamma_upper_reg(a: float, z: float) -> float:
    """log of the regularized upper incomplete gamma Q(a, z).

    Uses the linear-space scipy value while it carries full precision and
    switches to a log-space continued fraction deep in the right tail,
    where gammaincc underflows to zero.
    """
    if z <= 0.0:
        return 0.0
    if a == 1.0:
        return -z
    lin = sc.gammaincc(a, z)
    if lin > 1e-280:
        return math.log(lin)
    return _log_gamma_q_cf(a, z)


def log_gamma_lower_reg(a: float, z: float) -> float:
    """log of the regularized lower incomplete gamma P(a, z)."""
    if z <= 0.0:
        return -np.inf
    if a == 1.0:
        v = -math.expm1(-z)
        if v > 1e-280:
            return math.log(v)
        return math.log(z) + math.log1p(-z / 2.0)  # z below 1e-280: P ~ z - z^2/2
    lin = sc.gammainc(a, z)
    if lin > 1e-280:
        return math.log(lin)
    return _log_gamma_p_series(a, z)
