"""Conjugate normal model with unknown mean and variance.

The central objects are the normal-inverse-gamma parameter vector, its closed
form update under iid normal data, and the Student-t posterior predictive
distribution whose CDF doubles as the outlier score.  Each formula is written
once, on arrays whose last axis holds one window of observations, so the
scalar API below and the rolling scorer share the same arithmetic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import special

__all__ = [
    "NigParams",
    "StudentTPredictive",
    "nig_update",
    "posterior_predictive",
    "t_cdf",
    "score",
]


@dataclass(frozen=True)
class NigParams:
    """Normal-inverse-gamma parameters (mean, mean precision scale, shape, rate)."""

    mu0: float
    nu: float
    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in (self.mu0, self.nu, self.alpha, self.beta)):
            raise ValueError("NigParams requires finite entries")
        if self.nu <= 0.0 or self.alpha <= 0.0 or self.beta <= 0.0:
            raise ValueError("NigParams requires nu, alpha, beta > 0")


@dataclass(frozen=True)
class StudentTPredictive:
    """Location-scale Student-t distribution."""

    dof: float
    loc: float
    scale: float

    def __post_init__(self) -> None:
        if not 0.0 < self.dof < math.inf:  # also rejects NaN
            raise ValueError("StudentTPredictive requires finite dof > 0")
        if self.scale <= 0.0 or not math.isfinite(self.scale):
            raise ValueError("StudentTPredictive requires finite scale > 0")


def _posterior(prior: NigParams, win: np.ndarray):
    """Conjugate update of ``prior`` on each window along the last axis of
    ``win``; returns (mu_n, nu_n, alpha_n, beta_n), the scalars shared by all
    windows and the means and rates shaped ``win.shape[:-1]``."""
    n = win.shape[-1]
    xbar = win.mean(axis=-1)
    ssd = ((win - xbar[..., None]) ** 2).sum(axis=-1)
    nu_n = prior.nu + n
    mu_n = (prior.nu * prior.mu0 + n * xbar) / nu_n
    alpha_n = prior.alpha + n / 2.0
    beta_n = prior.beta + 0.5 * ssd + (n * prior.nu / nu_n) * (xbar - prior.mu0) ** 2 / 2.0
    return mu_n, nu_n, alpha_n, beta_n


def _scale(nu, alpha, beta):
    """Predictive scale: sqrt(beta * (nu + 1) / (nu * alpha))."""
    return np.sqrt(beta * (nu + 1.0) / (nu * alpha))


def _orient(f, two_sided: bool):
    """Upper-tail score F, or |2F - 1| when two-sided."""
    return abs(2.0 * f - 1.0) if two_sided else f


def _window_z(prior: NigParams, win: np.ndarray, x: np.ndarray):
    """Standardise each x[...] against the predictive fitted on win[..., :];
    returns (z, dof), with the dof shared by all windows."""
    mu_n, nu_n, alpha_n, beta_n = _posterior(prior, win)
    return (x - mu_n) / _scale(nu_n, alpha_n, beta_n), 2.0 * alpha_n


def _z_scores(z, dof: float, two_sided: bool):
    """Scores of standardised values: the t-CDF, oriented.

    The t-CDF is looked up on :mod:`predfdr.special` at call time, so a
    replacement installed there (a tracer, a test double) sees every call.
    """
    return _orient(special.student_t_cdf(z, dof), two_sided)


def nig_update(prior: NigParams, data) -> NigParams:
    """Posterior normal-inverse-gamma parameters after observing iid data.

    An empty data sequence returns the prior unchanged.  The update is the
    standard conjugate one: the posterior mean is a precision-weighted blend
    of the prior mean and the sample mean, and the rate absorbs both the
    within-sample scatter and the prior-to-sample mean discrepancy.
    """
    x = np.asarray(data, dtype=float).reshape(-1)
    if x.size == 0:
        return prior
    if not np.all(np.isfinite(x)):
        raise ValueError("nig_update requires finite observations")
    return NigParams(*(float(v) for v in _posterior(prior, x)))


def posterior_predictive(post: NigParams) -> StudentTPredictive:
    """Student-t posterior predictive for one future observation.

    dof = 2*alpha, loc = mu0, scale^2 = beta*(nu + 1)/(nu*alpha).
    """
    return StudentTPredictive(
        2.0 * post.alpha, post.mu0, float(_scale(post.nu, post.alpha, post.beta))
    )


def t_cdf(pred: StudentTPredictive, x):
    """CDF of the predictive distribution at x (scalar or array)."""
    return special.student_t_cdf(x, pred.dof, pred.loc, pred.scale)


def score(pred: StudentTPredictive, x_star, two_sided: bool = False):
    """Outlier score of an observation against the predictive distribution.

    The default is the upper-tail orientation: the probability that the
    observation exceeds an independent future draw, i.e. the predictive CDF
    at ``x_star``.  With ``two_sided=True`` the score is |2F - 1|, large when
    the observation sits in either tail.
    """
    return _orient(t_cdf(pred, x_star), two_sided)
