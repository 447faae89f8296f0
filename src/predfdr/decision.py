"""Decision-theoretic layer: additive flagging loss, its posterior
expectation, the closed-form optimal rule, and the coupling between the loss
costs and an FDR-selected threshold."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bfdr import BfdrConfig, ScoreBatch, gbfdr

__all__ = [
    "LossParams",
    "loss_eval",
    "expected_loss",
    "bayes_rule",
    "c_algebra",
    "c_algebra_inv",
    "ORIENTATIONS",
    "orient",
    "threshold_flags",
    "bfdr_coupled_rule",
]


def _cost(value, name: str):
    """``value`` itself when it is a finite number >= 0, else a ValueError
    naming it (NaN and inf included): the one rule for the loss costs."""
    if not value >= 0.0:
        raise ValueError(f"{name} must be >= 0, not {value!r}")
    if value == math.inf:
        raise ValueError(f"{name} must be finite, not {value!r}")
    return value


@dataclass(frozen=True)
class LossParams:
    """Costs: c1 per missed outlier (on top of the foregone reward), c2 per flag."""

    c1: float
    c2: float

    def __post_init__(self) -> None:
        _cost(self.c1, "c1")
        _cost(self.c2, "c2")


def _as_bool(flags, name: str) -> np.ndarray:
    arr = np.asarray(flags)
    if arr.dtype != bool:
        arr = arr.astype(bool)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-d")
    return arr


def loss_eval(flags, outlier_truth, params: LossParams) -> float:
    """Realised loss: -1 per correctly flagged outlier, +c1 per missed
    outlier, +c2 per flag."""
    d = _as_bool(flags, "flags")
    g = _as_bool(outlier_truth, "outlier_truth")
    if d.size != g.size:
        raise ValueError("flags and truth must have equal length")
    hits = np.count_nonzero(d & g)
    misses = np.count_nonzero(~d & g)
    return -float(hits) + params.c1 * float(misses) + params.c2 * float(np.count_nonzero(d))


def expected_loss(batch: ScoreBatch, flags, params: LossParams) -> float:
    """Posterior expected loss with independent outlier probabilities r_j."""
    r = batch.scores
    d = _as_bool(flags, "flags")
    if d.size != r.size:
        raise ValueError("flags and batch must have equal length")
    df = d.astype(float)
    return float(np.sum(-df * r + params.c1 * (1.0 - df) * r + params.c2 * df))


def bayes_rule(batch: ScoreBatch, params: LossParams) -> np.ndarray:
    """Expected-loss minimiser: flag exactly when r_j > c2 / (1 + c1).

    Ties at the boundary are not flagged (either choice is optimal).
    """
    return threshold_flags(batch.scores, params.c2, params.c1, "raw_score")


def c_algebra(eta: float, c1: float) -> float:
    """Flag cost c2 that makes the optimal rule's cutoff equal eta: (1+c1)*eta."""
    c2 = (1.0 + _cost(c1, "c1")) * eta
    return _cost(c2, f"c2 = (1 + c1) * eta (eta={eta!r}, c1={c1!r})")


def c_algebra_inv(c2: float, eta: float) -> float:
    """Miss cost c1 recovered from c2 and a nonzero cutoff eta; c2 < eta
    would need c1 < 0 and is refused."""
    if eta == 0.0:
        raise ValueError("eta must be nonzero to recover c1")
    c1 = _cost(c2, "c2") / eta - 1.0
    return _cost(c1, f"c1 = c2 / eta - 1 (c2={c2!r}, eta={eta!r})")


ORIENTATIONS = ("null_score", "raw_score")


def orient(x, orientation: str):
    """Map between outlier probabilities and the selector's score space: 1 - x
    for null scores, x itself for raw scores.  Either map is its own inverse."""
    if orientation == "null_score":
        return 1.0 - x
    if orientation == "raw_score":
        return x
    raise ValueError(f"orientation must be one of {ORIENTATIONS}, not {orientation!r}")


def threshold_flags(rates, eta, c1: float = 0.0, orientation: str = "null_score") -> np.ndarray:
    """Flag rule shared by the selector-coupled rule and fixed baselines.

    ``eta`` lives in the selector's score space: a float, or an array that
    broadcasts against ``rates``.  It is mapped back to the outlier-probability
    scale (eta_r = 1 - eta under the default null-score orientation) before
    the strict comparison r > eta_r / (1 + c1).  A NaN or None threshold is
    infeasible and flags nothing, since r > NaN is False.  The miss cost c1
    must be a finite number >= 0.
    """
    _cost(c1, "c1")
    eta_r = orient(np.asarray(eta, dtype=float), orientation)
    return np.asarray(rates, dtype=float) > eta_r / (1.0 + c1)


def bfdr_coupled_rule(
    batch: ScoreBatch,
    cfg: BfdrConfig,
    c1: float = 0.0,
    orientation: str = "null_score",
) -> np.ndarray:
    """Flags from a batch of outlier probabilities via the FDR-selected
    threshold.

    Under the default orientation the selector consumes the null scores
    1 - r; the selected threshold is mapped back to the outlier scale and
    loosened by the miss cost via eta_r / (1 + c1).
    """
    r = batch.scores
    sel = gbfdr(ScoreBatch(orient(r, orientation)), cfg)
    return threshold_flags(r, sel.eta, c1, orientation)
