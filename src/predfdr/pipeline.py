"""Rolling outlier detection over a panel of series.

Every timestep is scored against a posterior predictive fitted on a strictly
trailing window, the per-timestep score batch is thresholded by the FDR
selector (and by any fixed baselines), and flags are reduced to confusion
counts and classification metrics when truth is available.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .bfdr import BfdrConfig, ScoreBatch, _integer, _level, gbfdr
from .decision import _cost, orient, threshold_flags
from .files import _reject_cell, as_truth
from .predictive import NigParams, _window_z, _z_scores
from .special import _MAX_DOF

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
        b = self.bfdr  # built directly: replace() walks the fields on every call
        return [BfdrConfig(float(q), b.a, b.k, b.algorithm) for q in qs]


# Cells per t-CDF call: it peaks at about 5.6 doubles a cell, 1.5 MB at 2**15,
# within a 2 MiB L2 cache; parts of 2**16 set wide_scoring's peak memory and
# ran about 9 % slower (2 shared cores), parts of 2**14 made paper-scale
# scoring 6.5 % slower.  Window cells per moment block: blocks of 2**15 made
# wide_scoring's scoring 3-4 % slower.
_CDF_CELLS = 2**15
_MOMENT_CELLS = 2**16


def lagged_scores(
    values: np.ndarray,
    prior: NigParams = DIFFUSE_PRIOR,
    lag: int = 30,
    two_sided: bool = False,
) -> np.ndarray:
    """Score every timestep from lag onward against its trailing window.

    Column ti of the result scores original timestep t = lag + ti using the
    posterior predictive fitted on values[:, t-lag:t]; the window never
    includes the scored observation.  Window moments are taken over blocks
    of about 2**16 / lag series, one timestep at a time across every
    timestep, so a block's windows stay in cache; each series is still
    reduced on its own, so blocking does not change a digit, and centred in
    one buffer, freed before the t-CDF runs.  Every window has lag
    observations, so the t-CDF's dof is the same throughout, and it then
    runs in place over the whole result, in the fewest parts of at most
    2**15 cells, all of one size but a smaller last one, so its temporaries,
    about 5.6 doubles a cell, stay within a 2 MiB L2 cache.

    Every cell, and the prior mean, must be finite, with lag (2|x|)^2
    (nu + lag + 1) at most half the largest float, so no window's moments or
    predictive scale overflow (into a score of 0.5); a prior mean outside is
    refused with the bound, each row block is checked by its minimum and
    maximum, and a cell outside is named by its row and column, from 1.
    The prior's nu, alpha and beta each have a range too, so the predictive
    scale neither overflows (into scores of 0.5, or of 0 and 1) nor
    underflows, and alpha's keeps the t-CDF's dof, 2 alpha + lag, within the
    accuracy ceiling special sets; a field outside is refused with its range.
    """
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 2 or vals.shape[0] == 0:
        raise ValueError("values must be (series, timesteps), with at least one series")
    m, t_len = vals.shape
    lag = _integer(lag, "lag")
    if lag >= t_len:
        raise ValueError("lag must satisfy 0 < lag < t_len")
    if lag > _MAX_DOF:  # no alpha >= 0 keeps the t-CDF's dof, 2 alpha + lag, within it
        raise ValueError(f"lag must be at most 2**19 for an accurate t-CDF, got lag={lag}")
    fmax, tiny = sys.float_info.max, sys.float_info.min
    scale = f"the lag-{lag} predictive scale overflows or vanishes"
    # each prior field gets a share of the largest float, as the cells' bound
    # below gets half of it: nu keeps that bound's denominator within half,
    # beta (nu_n + 1), in the squared predictive scale's numerator, takes a
    # quarter, its denominator nu_n alpha_n stays within half, and beta >=
    # tiny alpha_n keeps the squared scale above the smallest normal float
    for name, lo, hi, why in (
        ("nu", 0.0, fmax / (16.0 * lag) - lag - 1.0, scale),
        ("alpha", 0.0, fmax / (2.0 * (prior.nu + lag)) - lag / 2.0, scale),
        ("alpha", 0.0, (_MAX_DOF - lag) / 2.0, f"the t-CDF's dof 2 alpha + {lag} loses accuracy"),
        ("beta", tiny * (prior.alpha + lag / 2.0), fmax / (4.0 * (prior.nu + lag + 1.0)), scale),
    ):
        if not lo <= getattr(prior, name) <= hi:
            raise ValueError(
                f"prior {name}={getattr(prior, name)!r} is not within [{lo!r}, {hi!r}], "
                f"outside which {why}"
            )
    bound = math.sqrt(fmax / (8.0 * lag * (prior.nu + lag + 1.0)))
    if not abs(prior.mu0) <= bound:
        raise ValueError(
            f"prior mean mu0={prior.mu0!r} is not within +-{bound!r}, "
            f"past which lag-{lag} window moments overflow"
        )
    out = np.empty((m, t_len - lag))
    rows = max(1, _MOMENT_CELLS // lag)
    buf = np.empty((min(rows, m), lag))  # every block's centred windows
    for r0 in range(0, m, rows):
        block = vals[r0 : r0 + rows]
        if not (-bound <= block.min() and block.max() <= bound):  # NaN fails too
            r, c = np.argwhere(~(np.abs(block) <= bound))[0]
            raise ValueError(
                f"values: row {r0 + r + 1}, column {c + 1}: {float(block[r, c])!r} is not a "
                f"finite number within +-{bound!r}, past which lag-{lag} window moments overflow"
            )
        win_buf = buf[: len(block)]
        for t in range(lag, t_len):
            out[r0 : r0 + rows, t - lag], dof = _window_z(
                prior, block[:, t - lag : t], block[:, t], win_buf
            )
    del buf, win_buf
    z = out.reshape(-1)
    parts = -(-z.size // _CDF_CELLS)
    part = -(-z.size // parts)
    for lo in range(0, z.size, part):
        z[lo : lo + part] = _z_scores(z[lo : lo + part], dof, two_sided)
    return out


@dataclass
class DetectionReport:
    """Thresholds, flags, and (when truth is supplied) per-timestep metrics.

    Arrays indexed by evaluated q are (nq, nt); fixed-baseline arrays are
    (nb, nt).  Flag cubes are (level, series, timestep).  Confusion arrays
    hold (tp, fp, fn, tn) per level and timestep.  As detect() builds it,
    each method's flags, confusion counts and metrics are views, the first
    nq and the last nb levels, of one array holding both methods.
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
    # flags (L, m, nt), truth (m, nt) -> (L, nt, 4).  tp counts each
    # timestep's flags at its true rows; the rest follow from the margins
    flagged = np.count_nonzero(flags, axis=1)
    tp = np.empty_like(flagged)
    for t in range(truth.shape[1]):
        tp[:, t] = np.count_nonzero(flags[:, truth[:, t], t], axis=1)
    fn = np.count_nonzero(truth, axis=0) - tp
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
    so no oriented copy of the whole matrix is made.  The selected levels and
    the fixed baselines then share one (nq + nb, 1, nt) threshold array, so
    the flag rule, the confusion counts and the metrics each run once, over
    both methods; the report holds each method's part of their results.  The
    first score outside [0, 1], row by row, is named by row and column, from 1.
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

    nq = len(levels)
    eta = np.empty((nq + len(etas), 1, nt))  # selected levels, then baselines
    eta[nq:] = np.array(etas)[:, None, None]
    eta_s = eta[:nq, 0]
    if r.size and not (r.min() >= 0.0 and r.max() <= 1.0):  # NaN fails too
        _reject_cell(r, ~((r >= 0.0) & (r <= 1.0)), "scores", "is not a score in [0, 1]")
    for ti in range(nt):
        batch = ScoreBatch(orient(r[:, ti], cfg.orientation))
        for qi, level in enumerate(levels):
            # an infeasible level's eta is None, which stores as NaN
            eta_s[qi, ti] = gbfdr(batch, level).eta
    flags = threshold_flags(r, eta, cfg.c1, cfg.orientation)

    report = DetectionReport(
        t_index=np.arange(nt) + t_offset,
        qs=qs,
        baseline_etas=tuple(etas),
        eta_s=eta_s,
        eta_r=orient(eta_s, cfg.orientation).copy(),
        feasible=~np.isnan(eta_s),
        flags_bfdr=flags[:nq],
        flags_fixed=flags[nq:],
    )
    if truth is not None:
        counts = _confusion_cube(flags, truth)
        metrics = confusion_metrics(counts)
        report.confusion_bfdr, report.confusion_fixed = counts[:nq], counts[nq:]
        report.metrics_bfdr = {name: v[:nq] for name, v in metrics.items()}
        report.metrics_fixed = {name: v[nq:] for name, v in metrics.items()}
    return report
