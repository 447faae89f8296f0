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


def _beta_cont_frac(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """Continued fraction part of the incomplete beta integral.

    ``a`` and ``b`` are scalars, ``x`` an array whose entries satisfy
    ``x < (a + 1) / (a + b + 2)`` (the caller routes the other branch through
    the symmetry identity).
    """
    x = np.asarray(x, dtype=float)
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = np.ones_like(x)
    d = 1.0 - qab * x / qap
    np.copyto(d, _FPMIN, where=np.abs(d) < _FPMIN)
    d = 1.0 / d
    h = d.copy()
    converged = np.zeros(x.shape, dtype=bool)
    for it in range(1, _MAX_ITER + 1):
        m2 = 2 * it
        aa = it * (b - it) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        np.copyto(d, _FPMIN, where=np.abs(d) < _FPMIN)
        c = 1.0 + aa / c
        np.copyto(c, _FPMIN, where=np.abs(c) < _FPMIN)
        d = 1.0 / d
        h = np.where(converged, h, h * d * c)
        aa = -(a + it) * (qab + it) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        np.copyto(d, _FPMIN, where=np.abs(d) < _FPMIN)
        c = 1.0 + aa / c
        np.copyto(c, _FPMIN, where=np.abs(c) < _FPMIN)
        d = 1.0 / d
        delta = d * c
        h = np.where(converged, h, h * delta)
        converged |= np.abs(delta - 1.0) < _EPS
        if converged.all():
            break
    else:
        raise RuntimeError(
            f"incomplete beta continued fraction failed to converge (a={a}, b={b})"
        )
    return h


def _betainc_array(a: float, b: float, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    out = np.full_like(x, np.nan)  # NaN lanes stay NaN
    out[x <= 0.0] = 0.0
    out[x >= 1.0] = 1.0
    interior = (x > 0.0) & (x < 1.0)
    if not interior.any():
        return out
    xi = x[interior]
    lg = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    front = np.exp(lg + a * np.log(xi) + b * np.log1p(-xi))
    direct = xi < (a + 1.0) / (a + b + 2.0)
    res = np.empty_like(xi)
    if direct.any():
        res[direct] = front[direct] * _beta_cont_frac(a, b, xi[direct]) / a
    flipped = ~direct
    if flipped.any():
        res[flipped] = 1.0 - front[flipped] * _beta_cont_frac(b, a, 1.0 - xi[flipped]) / b
    out[interior] = res
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
    z = (np.asarray(x, dtype=float) - loc) / scale
    zf = np.atleast_1d(z)
    w = zf * zf
    out = np.empty_like(w)
    centre = w < dof
    if centre.any():
        # mass between -|z| and |z|; the argument w / (dof + w) stays
        # below one half, so forming it directly loses nothing
        t = _betainc_array(0.5, dof / 2.0, w[centre] / (dof + w[centre]))
        out[centre] = np.where(zf[centre] <= 0.0, 0.5 - 0.5 * t, 0.5 + 0.5 * t)
    tail = ~centre
    if tail.any():
        # here dof / (dof + w) is at most one half; z = +/-inf gives an
        # argument of exactly 0 and a half-tail of exactly 0
        half = 0.5 * _betainc_array(dof / 2.0, 0.5, dof / (dof + w[tail]))
        out[tail] = np.where(zf[tail] <= 0.0, half, 1.0 - half)
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return float(out[0])
    return out
