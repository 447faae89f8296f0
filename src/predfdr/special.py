"""Regularized incomplete beta function and the Student-t CDF built on it.

The continued fraction is evaluated with the modified Lentz algorithm in
double precision.  It owns the array of lanes it is given and freezes a
converged lane by zeroing its x, which makes every later term exactly 1, so
vectorised calls give the same digits as the scalar recurrence.  Its five
doubles per lane are x, h, the coefficient aa, which also takes delta, and
the Lentz terms (d, c), one (2, N) block, so one call updates or floors
both.  Lanes needing the same shapes share a loop.  Only the beta arguments
and the t-CDF's centre mask are held across the loops; the other masks, the
log-beta prefactors and the t-CDF's result are formed once they are done,
and a side whose every point is interior is read in place, not copied, so a
t-CDF call peaks at about 5.6 doubles a cell.
"""
from __future__ import annotations

import math
from itertools import accumulate

import numpy as np

__all__ = ["betainc", "student_t_cdf"]

_EPS = 1e-15
_FPMIN = 1e-300
_MAX_ITER = 500
# Largest t-CDF dof; betainc's largest a + b, (_MAX_DOF + 1) / 2, is the same
# rule, as the t-CDF's shapes are (1/2, dof/2).  Past it the log-beta prefactor
# cancels (TOMS 708's betaln is how to raise it)
_MAX_DOF = 2.0**19


def _floor(v: np.ndarray) -> None:
    """Raise entries of v below _FPMIN in magnitude to _FPMIN, in place.
    Its |.| scratch and mask are built per call: in the loop it runs only
    when a term needs it, which lanes routed to their small side rarely do."""
    np.copyto(v, _FPMIN, where=np.abs(v) < _FPMIN)


def _beta_cont_frac(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """Continued fraction part of the incomplete beta integral.

    ``a`` and ``b`` are scalars, ``x`` a float array whose entries satisfy
    ``x < (a + 1) / (a + b + 2)`` (the caller routes the other branch through
    the symmetry identity).  Every update is written in place into a fixed
    set of arrays shaped like ``x``, applying the recurrence's operations in
    their usual order, so the working set stays five doubles per lane.

    The function owns ``x`` and overwrites it: it freezes a converged lane
    by setting its x to 0, so from the next half-step on ``aa`` is +/-0 and
    ``d``, ``c`` and ``delta`` are exactly 1, and ``h`` is updated unmasked,
    in 24 numpy calls per iteration that needs no floor.  A NaN ``delta``
    fails ``delta < eps``: its lane keeps running.

    The Lentz terms ``d`` and ``c`` are the two rows of one (2, ...) block,
    so each half-step adds one and applies the floor to both in one call
    each.  The floor runs only when the block's minimum is not at least
    ``_FPMIN`` (some entry is below it, negative or NaN); otherwise it would
    change nothing, so one reduction stands in for it.  ``delta`` is formed
    in ``aa``, which is dead from the second half-step's last use until the
    convergence mask is turned into the next x factor.
    """
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    aa = np.empty_like(x)
    cd = np.empty((2,) + x.shape)
    d, c = cd
    c.fill(1.0)
    np.multiply(qab, x, d)
    d /= qap
    np.subtract(1.0, d, d)
    _floor(d)
    np.divide(1.0, d, d)
    h = d.copy()
    converged = np.empty(x.shape, dtype=bool)
    for it in range(1, _MAX_ITER + 1):
        m2 = 2 * it
        np.multiply(it * (b - it), x, aa)
        aa /= (qam + m2) * (a + m2)
        # d <- 1 / (1 + aa d) and c <- 1 + aa / c, each kept away from zero
        np.multiply(aa, d, d)
        np.divide(aa, c, c)
        cd += 1.0
        if not np.minimum.reduce(cd, axis=None) >= _FPMIN:
            _floor(cd)
        np.divide(1.0, d, d)
        h *= d
        h *= c
        np.multiply(-(a + it) * (qab + it), x, aa)
        aa /= (a + m2) * (qap + m2)
        np.multiply(aa, d, d)
        np.divide(aa, c, c)
        cd += 1.0
        if not np.minimum.reduce(cd, axis=None) >= _FPMIN:
            _floor(cd)
        np.divide(1.0, d, d)
        delta = np.multiply(d, c, aa)
        h *= delta
        delta -= 1.0
        np.abs(delta, delta)
        # x *= 0.0 where delta < eps, else (a NaN delta too) 1.0
        np.less(delta, _EPS, converged)
        np.logical_not(converged, aa)
        x *= aa
        if converged.all():
            break
    else:
        raise RuntimeError(
            f"incomplete beta continued fraction failed to converge (a={a}, b={b})"
        )
    return h


def _betainc_array(a: float, b: float, x, y=()) -> list:
    """[I_x(a, b), I_y(b, a)] for points in [0, 1] or NaN.  Each interior
    lane runs the continued fraction of its small side, and lanes that need
    the same shapes share one loop, so a call runs at most two.  An empty
    argument, and a side of a job with no lanes, costs no array work."""
    outs = [np.asarray(v, dtype=float) for v in (x, y)]
    jobs, lanes = [], {(a, b): [], (b, a): []}
    for i, (p, q) in enumerate(((a, b), (b, a))):
        v = outs[i]
        if not v.size:
            outs[i] = np.empty_like(v)
            continue
        interior = (v > 0.0) & (v < 1.0)
        # a 1-d view when every lane is interior (a 0-d v included), else a copy
        vi = v.reshape(-1) if interior.all() else v[interior]
        direct = vi < (p + 1.0) / (p + q + 2.0)
        # the lanes on each side: direct ones take cf(p, q), flipped ones
        # cf(q, p) through the symmetry identity; both are new arrays
        sides = []
        for key, flipped, part in (((p, q), False, vi[direct]), ((q, p), True, 1.0 - vi[~direct])):
            if part.size:
                lanes[key].append(part)
                sides.append((key, flipped))
        jobs.append((i, p, q, vi, sides))
        # the masks are rebuilt after the loops, so they are not held by them
        del interior, vi, direct, part
    runs = {}
    for key in [k for k, parts in lanes.items() if parts]:
        parts = lanes.pop(key)
        sizes = [part.size for part in parts]
        # the loop overwrites the array it is given, a new one: the lone
        # part, or the parts' concatenation, so the parts are freed before
        # it runs; popped, so the loop holds its only reference
        if len(parts) > 1:
            parts = [np.concatenate(parts)]
        cf = _beta_cont_frac(*key, parts.pop())
        runs[key] = iter([cf[end - n : end] for end, n in zip(accumulate(sizes), sizes)])
    for i, p, q, vi, sides in jobs:
        v = outs[i]
        direct = vi < (p + 1.0) / (p + q + 2.0)
        lg = math.lgamma(p + q) - math.lgamma(p) - math.lgamma(q)
        # formed after the loops, so it is not part of their working set;
        # front is overwritten by the result, lane by lane
        front = np.exp(lg + p * np.log(vi) + q * np.log1p(-vi))
        for key, flipped in sides:
            sel = ~direct if flipped else direct
            r = next(runs[key]) * front[sel] / key[0]
            front[sel] = 1.0 - r if flipped else r
        out = np.full_like(v, np.nan)  # NaN lanes stay NaN
        out[v <= 0.0] = 0.0
        out[v >= 1.0] = 1.0
        out[(v > 0.0) & (v < 1.0)] = front
        outs[i] = out
    return outs


def betainc(a: float, b: float, x):
    """Regularized incomplete beta function I_x(a, b).

    Parameters
    ----------
    a, b : float
        Finite positive shape parameters with a + b at most 2**18 + 1/2.
    x : float or array_like
        Evaluation points in [0, 1]; NaN is rejected like any other
        point outside it.

    Returns
    -------
    float or ndarray
        I_x(a, b); its worst absolute error against scipy is 5.4e-14 at
        shapes up to 60 and 6.3e-10 at a + b = 2**18 + 1/2.
    """
    for name, v in (("a", a), ("b", b)):
        if not 0.0 < v < math.inf:  # also rejects NaN
            raise ValueError(f"betainc requires finite {name} > 0, got {v}")
    if not a + b <= (_MAX_DOF + 1.0) / 2.0:
        raise ValueError(f"betainc requires a + b <= {(_MAX_DOF + 1) / 2}, got a={a}, b={b}")
    arr = np.asarray(x, dtype=float)
    if not np.all((arr >= 0.0) & (arr <= 1.0)):  # also rejects NaN
        raise ValueError("betainc requires 0 <= x <= 1")
    out = _betainc_array(a, b, arr)[0]
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
    Accuracy falls as dof grows (the log-beta prefactor cancels): the worst
    error against scipy.stats.t.cdf on x in [-40, 40] is 3.9e-12 at dof
    2**14 and 9.2e-11 at 2**19; a larger dof (3.3e-10 at 2**20) is refused.
    """
    if not 0.0 < dof <= _MAX_DOF:  # also rejects NaN
        raise ValueError(f"student_t_cdf requires finite dof in (0, {_MAX_DOF}], got {dof}")
    if not math.isfinite(loc):
        raise ValueError(f"student_t_cdf requires finite loc, got {loc}")
    if not 0.0 < scale < math.inf:
        raise ValueError(f"student_t_cdf requires finite scale > 0, got {scale}")
    # z or w = z * z may overflow to inf, a tail of exactly 0 or 1
    z = np.atleast_1d(np.asarray(x, dtype=float))
    with np.errstate(over="ignore"):
        if loc != 0.0 or scale != 1.0:  # both are exact at (0, 1): no copy then
            z = (z - loc) / scale
        w = z * z
    del z
    centre = w < dof
    # mass between -|z| and |z|; the argument w / (dof + w) stays below one
    # half, so forming it directly loses nothing
    centre_arg = w[centre] / (dof + w[centre])
    # here dof / (dof + w) is at most one half; z = +/-inf gives an argument
    # of exactly 0 and a half-tail of exactly 0
    tail_arg = dof / (dof + w[~centre])
    # only the beta arguments and the centre mask stay alive through the
    # continued fractions, and the result is allocated once they are done
    del w
    t, half = _betainc_array(0.5, dof / 2.0, centre_arg, tail_arg)
    del centre_arg, tail_arg
    # z <= 0 read off the input: z has the sign of x - loc but where it
    # underflows to 0, and there w is 0, t is 0 and both branches give 0.5
    neg = np.atleast_1d(np.asarray(x, dtype=float)) <= loc
    out = np.empty_like(neg, dtype=float)
    out[centre] = np.where(neg[centre], 0.5 - 0.5 * t, 0.5 + 0.5 * t)
    half *= 0.5
    tail = ~centre
    out[tail] = np.where(neg[tail], half, 1.0 - half)
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return float(out[0])
    return out
