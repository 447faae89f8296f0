"""Regularized incomplete beta function and the Student-t CDF built on it.

The continued fraction is evaluated with the modified Lentz algorithm in
double precision.  Converged lanes are frozen so that vectorised calls give
the same digits as the scalar recurrence.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = ["betainc", "student_t_cdf"]

_EPS = 1e-15
_FPMIN = 1e-300
_MAX_ITER = 500


def _floor(v: np.ndarray, buf: np.ndarray, small: np.ndarray) -> None:
    """Raise entries of v below _FPMIN in magnitude to _FPMIN, in place;
    ``buf`` and ``small`` are scratch arrays shaped like v."""
    np.abs(v, out=buf)
    np.less(buf, _FPMIN, out=small)
    np.copyto(v, _FPMIN, where=small)


def _lentz_step(aa: np.ndarray, c: np.ndarray, d: np.ndarray, buf, small) -> None:
    """One modified Lentz update with coefficient aa, in place:
    d <- 1 / (1 + aa d) and c <- 1 + aa / c, each kept away from zero."""
    np.multiply(aa, d, out=d)
    d += 1.0
    _floor(d, buf, small)
    np.divide(aa, c, out=c)
    c += 1.0
    _floor(c, buf, small)
    np.divide(1.0, d, out=d)


def _beta_cont_frac(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """Continued fraction part of the incomplete beta integral.

    ``a`` and ``b`` are scalars, ``x`` an array whose entries satisfy
    ``x < (a + 1) / (a + b + 2)`` (the caller routes the other branch through
    the symmetry identity).  Every update is written in place into a fixed
    set of arrays shaped like ``x``, applying the recurrence's operations in
    their usual order, so the working set stays a handful of arrays.
    """
    x = np.asarray(x, dtype=float)
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    aa = np.empty_like(x)
    buf = np.empty_like(x)
    small = np.empty(x.shape, dtype=bool)
    c = np.ones_like(x)
    d = qab * x
    d /= qap
    np.subtract(1.0, d, out=d)
    _floor(d, buf, small)
    np.divide(1.0, d, out=d)
    h = d.copy()
    converged = np.zeros(x.shape, dtype=bool)
    active = np.ones(x.shape, dtype=bool)
    for it in range(1, _MAX_ITER + 1):
        m2 = 2 * it
        np.multiply(it * (b - it), x, out=aa)
        aa /= (qam + m2) * (a + m2)
        _lentz_step(aa, c, d, buf, small)
        # h <- h * d * c on the lanes still running
        np.multiply(h, d, out=buf)
        buf *= c
        np.copyto(h, buf, where=active)
        np.multiply(-(a + it) * (qab + it), x, out=aa)
        aa /= (a + m2) * (qap + m2)
        _lentz_step(aa, c, d, buf, small)
        delta = np.multiply(d, c, out=buf)
        np.multiply(h, delta, out=aa)
        np.copyto(h, aa, where=active)
        delta -= 1.0
        np.abs(delta, out=delta)
        converged |= np.less(delta, _EPS, out=small)
        if converged.all():
            break
        np.logical_not(converged, out=active)
    else:
        raise RuntimeError(
            f"incomplete beta continued fraction failed to converge (a={a}, b={b})"
        )
    return h


def _betainc_array(a: float, b: float, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    interior = (x > 0.0) & (x < 1.0)
    xi = x[interior]
    lg = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    # front is overwritten by the result, lane by lane
    front = np.exp(lg + a * np.log(xi) + b * np.log1p(-xi))
    direct = xi < (a + 1.0) / (a + b + 2.0)
    if direct.any():
        front[direct] = _beta_cont_frac(a, b, xi[direct]) * front[direct] / a
    flipped = ~direct
    if flipped.any():
        front[flipped] = 1.0 - _beta_cont_frac(b, a, 1.0 - xi[flipped]) * front[flipped] / b
    out = np.full_like(x, np.nan)  # NaN lanes stay NaN
    out[x <= 0.0] = 0.0
    out[x >= 1.0] = 1.0
    out[interior] = front
    return out


def betainc(a: float, b: float, x):
    """Regularized incomplete beta function I_x(a, b).

    Parameters
    ----------
    a, b : float
        Positive shape parameters.
    x : float or array_like
        Evaluation points in [0, 1]; NaN is rejected like any other
        point outside it.

    Returns
    -------
    float or ndarray
        I_x(a, b), accurate to roughly 1e-14 absolute.
    """
    if a <= 0.0 or b <= 0.0:
        raise ValueError("betainc requires a > 0 and b > 0")
    arr = np.asarray(x, dtype=float)
    if not np.all((arr >= 0.0) & (arr <= 1.0)):  # also rejects NaN
        raise ValueError("betainc requires 0 <= x <= 1")
    out = _betainc_array(a, b, arr)
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out


def student_t_cdf(x, dof: float, loc: float = 0.0, scale: float = 1.0):
    """CDF of the Student-t distribution with ``dof`` degrees of freedom.

    Evaluated through the regularized incomplete beta function.  The beta
    argument is always formed on its small side, so no precision is lost to
    cancellation near the centre or in the far tails, and F(x) + F(2*loc - x)
    == 1 holds to machine precision.  NaN entries of ``x`` give NaN.
    """
    if dof <= 0.0:
        raise ValueError("student_t_cdf requires dof > 0")
    if scale <= 0.0:
        raise ValueError("student_t_cdf requires scale > 0")
    z = np.atleast_1d((np.asarray(x, dtype=float) - loc) / scale)
    w = z * z
    neg = z <= 0.0
    centre = w < dof
    tail = ~centre
    # mass between -|z| and |z|; the argument w / (dof + w) stays below one
    # half, so forming it directly loses nothing
    centre_arg = w[centre] / (dof + w[centre])
    # here dof / (dof + w) is at most one half; z = +/-inf gives an argument
    # of exactly 0 and a half-tail of exactly 0
    tail_arg = dof / (dof + w[tail])
    # only the beta arguments stay alive through the continued fractions
    del z, w
    out = np.empty_like(neg, dtype=float)
    if centre.any():
        t = _betainc_array(0.5, dof / 2.0, centre_arg)
        out[centre] = np.where(neg[centre], 0.5 - 0.5 * t, 0.5 + 0.5 * t)
    if tail.any():
        half = 0.5 * _betainc_array(dof / 2.0, 0.5, tail_arg)
        out[tail] = np.where(neg[tail], half, 1.0 - half)
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return float(out[0])
    return out
