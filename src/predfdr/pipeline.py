"""Rolling outlier detection over a panel of series.

Every timestep is scored against a posterior predictive fitted on a strictly
trailing window, the per-timestep score batch is thresholded by the FDR
selector (and by any fixed baselines), and flags are reduced to confusion
counts and classification metrics when truth is available.
"""
from __future__ import annotations

import csv
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .bfdr import BfdrConfig, ScoreBatch, ThresholdResult, gbfdr
from .decision import threshold_flags
from .predictive import NigParams, _window_scores

__all__ = [
    "DIFFUSE_PRIOR",
    "DetectConfig",
    "DetectionReport",
    "lagged_scores",
    "detect",
    "confusion_metrics",
    "metric_series",
    "write_report",
    "write_scores_csv",
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
    """

    bfdr: BfdrConfig
    prior: NigParams = DIFFUSE_PRIOR
    c1: float = 0.0
    baseline_etas: Optional[Tuple[float, ...]] = None
    orientation: str = "null_score"

    def __post_init__(self) -> None:
        if self.c1 < 0.0:
            raise ValueError("DetectConfig requires c1 >= 0")
        if self.orientation not in ("null_score", "raw_score"):
            raise ValueError("orientation must be 'null_score' or 'raw_score'")
        if self.baseline_etas is not None:
            etas = tuple(float(e) for e in self.baseline_etas)
            if any(not 0.0 < e < 1.0 for e in etas):
                raise ValueError("baseline etas must lie in (0, 1)")
            object.__setattr__(self, "baseline_etas", etas)

    def levels(self, q_values: Optional[Sequence[float]] = None) -> List[BfdrConfig]:
        """One selector config per level; ``bfdr.q`` alone when no grid is given."""
        qs = q_values if q_values is not None else [self.bfdr.q]
        return [replace(self.bfdr, q=float(q)) for q in qs]


def _run_chunked(work, lo: int, hi: int, threads: int) -> None:
    """Call work(a, b) on contiguous chunks covering [lo, hi), one chunk per
    thread; every chunk writes disjoint output columns."""
    if threads <= 1:
        work(lo, hi)
        return
    chunk = max(1, (hi - lo + threads - 1) // threads)
    bounds = [(a, min(a + chunk, hi)) for a in range(lo, hi, chunk)]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        list(ex.map(lambda b: work(*b), bounds))


def lagged_scores(
    values: np.ndarray,
    prior: NigParams = DIFFUSE_PRIOR,
    lag: int = 30,
    two_sided: bool = False,
    threads: int = 1,
) -> np.ndarray:
    """Score every timestep from lag onward against its trailing window.

    Column ti of the result scores original timestep t = lag + ti using the
    posterior predictive fitted on values[:, t-lag:t]; the window never
    includes the scored observation.
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

    def work(t_lo: int, t_hi: int) -> None:
        for t in range(t_lo, t_hi):
            out[:, t - lag] = _window_scores(prior, vals[:, t - lag : t], vals[:, t], two_sided)

    _run_chunked(work, lag, t_len, threads)
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
    m: int
    eta_s: np.ndarray
    eta_r: np.ndarray
    feasible: np.ndarray
    flags_bfdr: np.ndarray
    flags_fixed: np.ndarray
    confusion_bfdr: Optional[np.ndarray] = None
    confusion_fixed: Optional[np.ndarray] = None
    metrics_bfdr: Optional[Dict[str, np.ndarray]] = None
    metrics_fixed: Optional[Dict[str, np.ndarray]] = None


def confusion_metrics(tp: int, fp: int, fn: int, tn: int) -> Dict[str, float]:
    """Metrics with the degenerate-denominator conventions.

    Precision with zero flags is 1 (no false discovery was made); recall with
    zero true positives in the truth is 1; balanced accuracy averages only
    the defined rate halves.
    """
    total = tp + fp + fn + tn
    precision = tp / (tp + fp) if (tp + fp) > 0 else 1.0
    recall = tp / (tp + fn) if (tp + fn) > 0 else 1.0
    accuracy = (tp + tn) / total if total > 0 else 1.0
    halves = []
    if (tp + fn) > 0:
        halves.append(tp / (tp + fn))
    if (tn + fp) > 0:
        halves.append(tn / (tn + fp))
    balanced = sum(halves) / len(halves) if halves else 1.0
    return {
        "precision": precision,
        "recall": recall,
        "accuracy": accuracy,
        "balanced_accuracy": balanced,
    }


def _confusion_cube(flags: np.ndarray, truth: np.ndarray) -> np.ndarray:
    # flags (L, m, nt), truth (m, nt) -> (L, nt, 4)
    t = truth[None, :, :]
    tp = (flags & t).sum(axis=1)
    fp = (flags & ~t).sum(axis=1)
    fn = (~flags & t).sum(axis=1)
    tn = (~flags & ~t).sum(axis=1)
    return np.stack([tp, fp, fn, tn], axis=-1)


def _metric_arrays(conf: np.ndarray) -> Dict[str, np.ndarray]:
    L, nt, _ = conf.shape
    out = {name: np.empty((L, nt)) for name in METRIC_NAMES}
    for li in range(L):
        for ti in range(nt):
            mm = confusion_metrics(*conf[li, ti])
            for name in METRIC_NAMES:
                out[name][li, ti] = mm[name]
    return out


def detect(
    scores: np.ndarray,
    truth: Optional[np.ndarray],
    cfg: DetectConfig,
    q_values: Optional[Sequence[float]] = None,
    threads: int = 1,
    t_offset: int = 0,
) -> DetectionReport:
    """Threshold every timestep's score batch and evaluate the flags.

    ``scores`` is the (series, timestep) matrix from lagged_scores; ``truth``
    must be aligned to the same columns (pass None to skip metrics).  The
    selector runs once per (q, timestep) on the oriented scores; fixed
    baselines reuse the same flag rule without a selector.
    """
    r = np.asarray(scores, dtype=float)
    if r.ndim != 2:
        raise ValueError("scores must be (series, timesteps)")
    m, nt = r.shape
    if truth is not None:
        truth = np.asarray(truth).astype(bool)
        if truth.shape != r.shape:
            raise ValueError("truth must align with scores")
    levels = cfg.levels(q_values)
    qs = tuple(level.q for level in levels)
    etas = cfg.baseline_etas if cfg.baseline_etas is not None else qs
    nq, nb = len(qs), len(etas)

    sel_input = 1.0 - r if cfg.orientation == "null_score" else r
    eta_s = np.full((nq, nt), np.nan)
    feasible = np.zeros((nq, nt), dtype=bool)
    flags_bfdr = np.zeros((nq, m, nt), dtype=bool)

    def work(ti_lo: int, ti_hi: int) -> None:
        for ti in range(ti_lo, ti_hi):
            batch = ScoreBatch(sel_input[:, ti])
            r_col = r[:, ti]
            for qi, level in enumerate(levels):
                res = gbfdr(batch, level)
                if res.feasible:
                    eta_s[qi, ti] = res.eta
                    feasible[qi, ti] = True
                flags_bfdr[qi, :, ti] = threshold_flags(
                    r_col, res, cfg.c1, cfg.orientation
                )

    _run_chunked(work, 0, nt, threads)

    eta_r = 1.0 - eta_s if cfg.orientation == "null_score" else eta_s.copy()

    flags_fixed = np.zeros((nb, m, nt), dtype=bool)
    for bi, eta_b in enumerate(etas):
        fixed = ThresholdResult(eta_b, None, True)
        flags_fixed[bi] = threshold_flags(r, fixed, cfg.c1, cfg.orientation)

    report = DetectionReport(
        t_index=np.arange(nt) + t_offset,
        qs=qs,
        baseline_etas=tuple(etas),
        m=m,
        eta_s=eta_s,
        eta_r=eta_r,
        feasible=feasible,
        flags_bfdr=flags_bfdr,
        flags_fixed=flags_fixed,
    )
    if truth is not None:
        report.confusion_bfdr = _confusion_cube(flags_bfdr, truth)
        report.confusion_fixed = _confusion_cube(flags_fixed, truth)
        report.metrics_bfdr = _metric_arrays(report.confusion_bfdr)
        report.metrics_fixed = _metric_arrays(report.confusion_fixed)
    return report


def metric_series(report: DetectionReport):
    """Per-timestep metric rows plus paired selector-minus-fixed differences.

    Differences pair each evaluated q with the fixed baseline of the same
    numeric level, when present.
    """
    if report.metrics_bfdr is None:
        raise ValueError("metric_series requires a report built with truth")
    rows = []
    for qi, q in enumerate(report.qs):
        for ti, t in enumerate(report.t_index):
            row = {"t": int(t), "q": q, "method": "bfdr"}
            row.update(
                {name: report.metrics_bfdr[name][qi, ti] for name in METRIC_NAMES}
            )
            rows.append(row)
    for bi, eta in enumerate(report.baseline_etas):
        for ti, t in enumerate(report.t_index):
            row = {"t": int(t), "q": eta, "method": "fixed"}
            row.update(
                {name: report.metrics_fixed[name][bi, ti] for name in METRIC_NAMES}
            )
            rows.append(row)
    diffs = []
    for qi, q in enumerate(report.qs):
        if q not in report.baseline_etas:
            continue
        bi = report.baseline_etas.index(q)
        for ti, t in enumerate(report.t_index):
            row = {"t": int(t), "q": q}
            for name in METRIC_NAMES:
                row[f"{name}_diff"] = (
                    report.metrics_bfdr[name][qi, ti]
                    - report.metrics_fixed[name][bi, ti]
                )
            diffs.append(row)
    return rows, diffs


def write_scores_csv(scores: np.ndarray, path, t_offset: int = 0) -> None:
    header = ",".join(f"t{t_offset + i}" for i in range(scores.shape[1]))
    np.savetxt(path, scores, fmt="%.17g", delimiter=",", header=header, comments="")


def write_report(report: DetectionReport, out_dir) -> dict:
    """Write thresholds.csv, flags.csv and, when metrics exist, metrics.csv
    and diff.csv.  Flags are written sparsely, one row per flagged cell."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}

    p = out / "thresholds.csv"
    with open(p, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["t", "q", "eta_s", "eta_r", "feasible"])
        for qi, q in enumerate(report.qs):
            for ti, t in enumerate(report.t_index):
                feas = bool(report.feasible[qi, ti])
                wr.writerow(
                    [
                        int(t),
                        repr(q),
                        repr(float(report.eta_s[qi, ti])) if feas else "",
                        repr(float(report.eta_r[qi, ti])) if feas else "",
                        int(feas),
                    ]
                )
    paths["thresholds"] = str(p)

    p = out / "flags.csv"
    with open(p, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["method", "q", "t", "series"])
        for qi, q in enumerate(report.qs):
            js, tis = np.nonzero(report.flags_bfdr[qi])
            for j, ti in zip(js, tis):
                wr.writerow(["bfdr", repr(q), int(report.t_index[ti]), int(j)])
        for bi, eta in enumerate(report.baseline_etas):
            js, tis = np.nonzero(report.flags_fixed[bi])
            for j, ti in zip(js, tis):
                wr.writerow(["fixed", repr(eta), int(report.t_index[ti]), int(j)])
    paths["flags"] = str(p)

    if report.metrics_bfdr is not None:
        rows, diffs = metric_series(report)
        p = out / "metrics.csv"
        with open(p, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["t", "q", "method", *METRIC_NAMES])
            for row in rows:
                wr.writerow(
                    [row["t"], repr(row["q"]), row["method"]]
                    + [repr(float(row[name])) for name in METRIC_NAMES]
                )
        paths["metrics"] = str(p)
        p = out / "diff.csv"
        with open(p, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["t", "q", *[f"{n}_diff" for n in METRIC_NAMES]])
            for row in diffs:
                wr.writerow(
                    [row["t"], repr(row["q"])]
                    + [repr(float(row[f"{n}_diff"])) for n in METRIC_NAMES]
                )
        paths["diff"] = str(p)
    return paths
