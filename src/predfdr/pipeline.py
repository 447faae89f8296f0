"""Rolling outlier detection over a panel of series.

Every timestep is scored against a posterior predictive fitted on a strictly
trailing window, the per-timestep score batch is thresholded by the FDR
selector (and by any fixed baselines), and flags are reduced to confusion
counts and classification metrics when truth is available.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .bfdr import BfdrConfig, ScoreBatch, _integer, _level, gbfdr
from .decision import _cost, orient, threshold_flags
from .files import as_truth
from .predictive import NigParams, _window_z, _z_scores

__all__ = [
    "DIFFUSE_PRIOR",
    "DetectConfig",
    "DetectionReport",
    "lagged_scores",
    "detect",
    "confusion_metrics",
]

# Weak prior used throughout: near-zero weight on the prior mean and a wide
# inverse-gamma on the variance.
DIFFUSE_PRIOR = NigParams(0.0, 1e-4, 0.01, 0.01)


@dataclass(frozen=True)
class DetectConfig:
    """Detection settings: selector template, miss cost, baselines, score
    orientation.

    ``bfdr.q`` is used when detect() is not given an explicit q grid.
    ``baseline_etas=None`` pairs one fixed threshold with each evaluated q.
    The prior is a scoring setting: it is passed to lagged_scores, which
    makes the scores detect() reads.
    """

    bfdr: BfdrConfig
    c1: float = 0.0
    baseline_etas: Optional[Tuple[float, ...]] = None
    orientation: str = "null_score"

    def __post_init__(self) -> None:
        _cost(self.c1, "c1")
        orient(0.0, self.orientation)  # raises on an unknown orientation
        if self.baseline_etas is not None:
            etas = tuple(_level(float(e), "baseline eta") for e in self.baseline_etas)
            object.__setattr__(self, "baseline_etas", etas)

    def levels(self, q_values: Optional[Sequence[float]] = None) -> List[BfdrConfig]:
        """One selector config per level; ``bfdr.q`` alone when no grid is given."""
        qs = q_values if q_values is not None else [self.bfdr.q]
        return [replace(self.bfdr, q=float(q)) for q in qs]


# cells standardised per t-CDF call, and window cells per moment block: bounds
# the CDF's and the moments' temporaries to a cache-sized working set
_CDF_CELLS = 2**16


def lagged_scores(
    values: np.ndarray,
    prior: NigParams = DIFFUSE_PRIOR,
    lag: int = 30,
    two_sided: bool = False,
) -> np.ndarray:
    """Score every timestep from lag onward against its trailing window.

    Column ti of the result scores original timestep t = lag + ti using the
    posterior predictive fitted on values[:, t-lag:t]; the window never
    includes the scored observation.  The result is filled in column chunks
    of about 2**16 cells.  Within a chunk, window moments are taken one
    timestep at a time over blocks of about 2**16 / lag series, so a block's
    windows stay in cache across the chunk's timesteps; each series is still
    reduced on its own, so blocking does not change a digit.  Every window
    has lag observations, so the t-CDF's dof is the same throughout and it
    runs once per chunk, in place.
    """
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 2:
        raise ValueError("values must be (series, timesteps)")
    if not np.all(np.isfinite(vals)):
        raise ValueError("values must be finite")
    m, t_len = vals.shape
    lag = _integer(lag, "lag")
    if lag >= t_len:
        raise ValueError("lag must satisfy 0 < lag < t_len")
    out = np.empty((m, t_len - lag))
    step = max(1, _CDF_CELLS // m)
    rows = max(1, _CDF_CELLS // lag)
    for c_lo in range(lag, t_len, step):
        z = out[:, c_lo - lag : c_lo + step - lag]
        for r0 in range(0, m, rows):
            block = vals[r0 : r0 + rows]
            for t in range(c_lo, c_lo + z.shape[1]):
                z[r0 : r0 + rows, t - c_lo], dof = _window_z(
                    prior, block[:, t - lag : t], block[:, t]
                )
        z[...] = _z_scores(z, dof, two_sided)
    return out


@dataclass
class DetectionReport:
    """Thresholds, flags, and (when truth is supplied) per-timestep metrics.

    Arrays indexed by evaluated q are (nq, nt); fixed-baseline arrays are
    (nb, nt).  Flag cubes are (level, series, timestep).  Confusion arrays
    hold (tp, fp, fn, tn) per level and timestep.
    """

    t_index: np.ndarray
    qs: Tuple[float, ...]
    baseline_etas: Tuple[float, ...]
    eta_s: np.ndarray
    eta_r: np.ndarray
    feasible: np.ndarray
    flags_bfdr: np.ndarray
    flags_fixed: np.ndarray
    confusion_bfdr: Optional[np.ndarray] = None
    confusion_fixed: Optional[np.ndarray] = None
    metrics_bfdr: Optional[Dict[str, np.ndarray]] = None
    metrics_fixed: Optional[Dict[str, np.ndarray]] = None


def confusion_metrics(counts: np.ndarray) -> Dict[str, np.ndarray]:
    """Metric arrays of confusion counts shaped (..., 4) = (tp, fp, fn, tn).

    Degenerate denominators: precision with zero flags is 1 (no false
    discovery was made); recall with zero true positives in the truth is 1;
    accuracy of an empty batch is 1; balanced accuracy averages only the
    defined rate halves, and is 1 when neither is defined.
    """
    tp, fp, fn, tn = np.moveaxis(np.asarray(counts), -1, 0)

    def rate(num, den):
        return np.divide(num, den, out=np.ones(np.shape(den)), where=den > 0)

    pos, neg = tp + fn, tn + fp
    recall, specificity = rate(tp, pos), rate(tn, neg)
    balanced = np.where(
        neg == 0, recall, np.where(pos == 0, specificity, (recall + specificity) / 2)
    )
    return {
        "precision": rate(tp, tp + fp),
        "recall": recall,
        "accuracy": rate(tp + tn, pos + neg),
        "balanced_accuracy": balanced,
    }


def _confusion_cube(flags: np.ndarray, truth: np.ndarray) -> np.ndarray:
    # flags (L, m, nt), truth (m, nt) -> (L, nt, 4); tp is counted one level
    # at a time and the other counts follow from the margins, so no
    # cube-sized temporary is made
    flagged = flags.sum(axis=1)
    tp = np.empty_like(flagged)
    for level, out in zip(flags, tp):
        (level & truth).sum(axis=0, out=out)
    fn = truth.sum(axis=0) - tp
    return np.stack([tp, flagged - tp, fn, truth.shape[0] - flagged - fn], axis=-1)


def detect(
    scores: np.ndarray,
    truth: Optional[np.ndarray],
    cfg: DetectConfig,
    q_values: Optional[Sequence[float]] = None,
    t_offset: int = 0,
) -> DetectionReport:
    """Threshold every timestep's score batch and evaluate the flags.

    ``scores`` is the (series, timestep) matrix from lagged_scores; ``truth``
    must be aligned to the same columns (pass None to skip metrics).  The
    selector runs once per (q, timestep) on that timestep's oriented scores,
    so no oriented copy of the whole matrix is made; the flag rule
    then runs once per method, on the whole threshold array of the selected
    levels and on that of the fixed baselines.
    """
    r = np.asarray(scores, dtype=float)
    if r.ndim != 2:
        raise ValueError("scores must be (series, timesteps)")
    nt = r.shape[1]
    if truth is not None:
        truth = np.asarray(truth)
        if truth.shape != r.shape:
            raise ValueError("truth must align with scores")
        truth = as_truth(truth, "truth")
    levels = cfg.levels(q_values)
    qs = tuple(level.q for level in levels)
    etas = cfg.baseline_etas if cfg.baseline_etas is not None else qs

    eta_s = np.empty((len(levels), nt))
    for ti in range(nt):
        batch = ScoreBatch(orient(r[:, ti], cfg.orientation))
        for qi, level in enumerate(levels):
            # an infeasible level's eta is None, which stores as NaN
            eta_s[qi, ti] = gbfdr(batch, level).eta

    flags_bfdr = threshold_flags(r, eta_s[:, None, :], cfg.c1, cfg.orientation)
    flags_fixed = threshold_flags(r, np.array(etas)[:, None, None], cfg.c1, cfg.orientation)

    report = DetectionReport(
        t_index=np.arange(nt) + t_offset,
        qs=qs,
        baseline_etas=tuple(etas),
        eta_s=eta_s,
        eta_r=orient(eta_s, cfg.orientation).copy(),
        feasible=~np.isnan(eta_s),
        flags_bfdr=flags_bfdr,
        flags_fixed=flags_fixed,
    )
    if truth is not None:
        report.confusion_bfdr = _confusion_cube(flags_bfdr, truth)
        report.confusion_fixed = _confusion_cube(flags_fixed, truth)
        report.metrics_bfdr = confusion_metrics(report.confusion_bfdr)
        report.metrics_fixed = confusion_metrics(report.confusion_fixed)
    return report
