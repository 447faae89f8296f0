"""Regularized incomplete beta function and the Student-t CDF built on it.

The continued fraction is evaluated with the modified Lentz algorithm in
double precision.  Converged lanes are frozen so that vectorised calls give
the same digits as the scalar recurrence.  Of the loop's five doubles per
lane, four sit in two (2, N) blocks, the Lentz terms (d, c) and the
coefficient with a scratch row (aa, buf), so one call updates or floors
both Lentz terms; the second block doubles as the floor's scratch.
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
    np.abs(v, buf)
    np.less(buf, _FPMIN, small)
    np.copyto(v, _FPMIN, where=small)


def _beta_cont_frac(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """Continued fraction part of the incomplete beta integral.

    ``a`` and ``b`` are scalars, ``x`` an array whose entries satisfy
    ``x < (a + 1) / (a + b + 2)`` (the caller routes the other branch through
    the symmetry identity).  Every update is written in place into a fixed
    set of arrays shaped like ``x``, applying the recurrence's operations in
    their usual order, so the working set stays five doubles per lane.

    The Lentz terms ``d`` and ``c`` are the two rows of one (2, ...) block,
    so each half-step adds one and applies the floor to both in one call
    each.  The coefficient ``aa`` and a scratch row ``buf`` are the rows of a
    second block, which serves as the floor's |.| scratch: both rows are dead
    by the time the floor runs.  The blocks stay separate rather than one
    (4, ...) array, since at a few thousand lanes a single block would cross
    the allocator's 128 KiB mmap threshold and raise peak RSS.  The floor's
    mask ``small`` is a (2, ...) bool block whose first row also takes the
    convergence test; a lane that passes it leaves ``active`` for good, so
    no separate converged mask is kept.
    """
    x = np.asarray(x, dtype=float)
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    # mask first: allocating (d, c) first measured about 50 KB more peak
    # RSS on the benchmark's paper_detect job
    small = np.empty((2,) + x.shape, dtype=bool)
    ab = np.empty((2,) + x.shape)
    aa, buf = ab
    cd = np.empty_like(ab)
    d, c = cd
    c.fill(1.0)
    np.multiply(qab, x, d)
    d /= qap
    np.subtract(1.0, d, d)
    _floor(cd, ab, small)  # c is 1, so only d can move
    np.divide(1.0, d, d)
    h = d.copy()
    active = np.ones(x.shape, dtype=bool)
    for it in range(1, _MAX_ITER + 1):
        m2 = 2 * it
        np.multiply(it * (b - it), x, aa)
        aa /= (qam + m2) * (a + m2)
        # d <- 1 / (1 + aa d) and c <- 1 + aa / c, each kept away from zero
        np.multiply(aa, d, d)
        np.divide(aa, c, c)
        cd += 1.0
        _floor(cd, ab, small)
        np.divide(1.0, d, d)
        # h <- h * d * c on the lanes still running
        np.multiply(h, d, buf)
        buf *= c
        np.copyto(h, buf, where=active)
        np.multiply(-(a + it) * (qab + it), x, aa)
        aa /= (a + m2) * (qap + m2)
        np.multiply(aa, d, d)
        np.divide(aa, c, c)
        cd += 1.0
        _floor(cd, ab, small)
        np.divide(1.0, d, d)
        delta = np.multiply(d, c, buf)
        np.multiply(h, delta, aa)
        np.copyto(h, aa, where=active)
        delta -= 1.0
        np.abs(delta, delta)
        # a converged lane keeps its h from here on: active and not converged
        np.greater(active, np.less(delta, _EPS, small[0]), active)
        if not active.any():
            break
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
        Finite positive shape parameters.
    x : float or array_like
        Evaluation points in [0, 1]; NaN is rejected like any other
        point outside it.

    Returns
    -------
    float or ndarray
        I_x(a, b), accurate to roughly 1e-14 absolute.
    """
    for name, v in (("a", a), ("b", b)):
        if not 0.0 < v < math.inf:  # also rejects NaN
            raise ValueError(f"betainc requires finite {name} > 0, got {v}")
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
    == 1 holds to machine precision.  NaN entries of ``x`` give NaN and
    infinite ones 0 or 1; ``dof``, ``loc`` and ``scale`` must be finite.
    """
    if not 0.0 < dof < math.inf:  # also rejects NaN
        raise ValueError(f"student_t_cdf requires finite dof > 0, got {dof}")
    if not math.isfinite(loc):
        raise ValueError(f"student_t_cdf requires finite loc, got {loc}")
    if not 0.0 < scale < math.inf:
        raise ValueError(f"student_t_cdf requires finite scale > 0, got {scale}")
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
