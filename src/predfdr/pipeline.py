"""Rolling outlier detection over a panel of series.

Every timestep is scored against a posterior predictive fitted on a strictly
trailing window, the per-timestep score batch is thresholded by the FDR
selector (and by any fixed baselines), and flags are reduced to confusion
counts and classification metrics when truth is available.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import decision
from .bfdr import BfdrConfig, ScoreBatch, gbfdr
from .decision import orient, threshold_flags
from .predictive import NigParams, _window_z, _z_scores
from .simgen import as_truth, write_rows_csv

__all__ = [
    "DIFFUSE_PRIOR",
    "DetectConfig",
    "DetectionReport",
    "lagged_scores",
    "detect",
    "confusion_metrics",
    "write_report",
]

# Weak prior used throughout: near-zero weight on the prior mean and a wide
# inverse-gamma on the variance.
DIFFUSE_PRIOR = NigParams(0.0, 1e-4, 0.01, 0.01)

METRIC_NAMES = ("precision", "recall", "accuracy", "balanced_accuracy")


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
        # raises on a bad c1 or orientation; called through the module so that
        # validation is not mistaken for detect's own use of the flag rule
        decision.threshold_flags(0.0, 0.0, self.c1, self.orientation)
        if self.baseline_etas is not None:
            etas = tuple(float(e) for e in self.baseline_etas)
            if any(not 0.0 < e < 1.0 for e in etas):
                raise ValueError("baseline etas must lie in (0, 1)")
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
    if not 0 < lag < t_len:
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


# flags.csv rows formatted per write: bounds the memory a dense level takes
_FLAG_CHUNK = 65536


def _write_flags(path: Path, report: DetectionReport) -> str:
    """flags.csv as csv.writer would write it: one row per flagged cell, by
    method, level, series, then timestep."""
    nt = report.t_index.size
    t_cells = np.array([f"{t}," for t in report.t_index.tolist()], dtype=object)
    series = report.flags_bfdr.shape[1]
    j_cells = np.array([f"{j}\r\n" for j in range(series)], dtype=object)
    with open(path, "w", newline="") as fh:
        fh.write("method,q,t,series\r\n")
        for method, levels, cube in (
            ("bfdr", report.qs, report.flags_bfdr),
            ("fixed", report.baseline_etas, report.flags_fixed),
        ):
            for level, flags in zip(levels, cube):
                head = f"{method},{level!r},"
                cells = np.flatnonzero(flags)
                for lo in range(0, cells.size, _FLAG_CHUNK):
                    j, ti = np.divmod(cells[lo : lo + _FLAG_CHUNK], nt)
                    fh.write(head + head.join((t_cells[ti] + j_cells[j]).tolist()))
    return str(path)


def write_report(report: DetectionReport, out_dir) -> dict:
    """Write thresholds.csv, flags.csv and, when metrics exist, metrics.csv
    and diff.csv.

    Rows run level by level, then by timestep; flags are written sparsely,
    one row per flagged cell, by level, series, timestep.  Differences pair
    each evaluated q with the fixed baseline of the same numeric level, when
    present.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ts = report.t_index.tolist()

    def level_rows(levels, columns, *label):
        # (t, level, *label, *cells); columns are (level, timestep) arrays
        for level, *cols in zip(levels, *(c.tolist() for c in columns)):
            level = repr(level)
            for t, *cells in zip(ts, *cols):
                yield (t, level, *label, *cells)

    def threshold_rows():
        rows = level_rows(report.qs, [report.feasible, report.eta_s, report.eta_r])
        for t, q, feas, eta_s, eta_r in rows:
            yield (t, q, eta_s, eta_r, 1) if feas else (t, q, "", "", 0)

    paths = {
        "thresholds": write_rows_csv(
            out / "thresholds.csv", ["t", "q", "eta_s", "eta_r", "feasible"], threshold_rows()
        ),
        "flags": _write_flags(out / "flags.csv", report),
    }
    if report.metrics_bfdr is not None:
        bfdr = [report.metrics_bfdr[name] for name in METRIC_NAMES]
        fixed = [report.metrics_fixed[name] for name in METRIC_NAMES]
        rows = chain(
            level_rows(report.qs, bfdr, "bfdr"), level_rows(report.baseline_etas, fixed, "fixed")
        )
        paths["metrics"] = write_rows_csv(
            out / "metrics.csv", ["t", "q", "method", *METRIC_NAMES], rows
        )
        qi = [i for i, q in enumerate(report.qs) if q in report.baseline_etas]
        bi = [report.baseline_etas.index(report.qs[i]) for i in qi]
        diffs = [b[qi] - f[bi] for b, f in zip(bfdr, fixed)]
        paths["diff"] = write_rows_csv(
            out / "diff.csv",
            ["t", "q", *[f"{n}_diff" for n in METRIC_NAMES]],
            level_rows([report.qs[i] for i in qi], diffs),
        )
    return paths
