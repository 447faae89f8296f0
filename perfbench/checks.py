"""Output checks run on every operation, outside the timed region.

Each check returns a list of failure messages; an empty list means the
operation's outputs are correct.  The references are independent of the code
under test: the selector is compared with the looped reference scan, scores
with scipy's Student-t CDF of a predictive whose conjugate update is written
out here, and flags with the rule r > eta_r / (1 + c1) evaluated here.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from predfdr.bfdr import BfdrConfig, ScoreBatch, gbfdr_looped

# Largest absolute difference accepted between a score and scipy's CDF of the
# same predictive.  The incomplete beta is accurate to about 1e-14; the window
# moments may differ in the last bits because numpy sums rows pairwise.
SCORE_TOL = 1e-10


@dataclass(frozen=True)
class Spec:
    """What a detection was asked to do, as the checks need to know it."""

    lag: int
    qs: tuple
    a: float
    k: int
    two_sided: bool
    prior: tuple  # (mu0, nu, alpha, beta)
    c1: float = 0.0


def reference_scores(values: np.ndarray, rows, cols, spec: Spec) -> np.ndarray:
    """Predictive CDF of values[rows, cols] given the spec.lag columns before."""
    # imported here so that the memory probe, which runs no checks, starts fast
    from scipy import stats

    mu0, nu, alpha, beta = spec.prior
    n = spec.lag
    rows, cols = np.asarray(rows), np.asarray(cols)
    window = values[rows[:, None], cols[:, None] - n + np.arange(n)]
    xbar = window.mean(axis=1)
    ssd = ((window - xbar[:, None]) ** 2).sum(axis=1)
    nu_n = nu + n
    mu_n = (nu * mu0 + n * xbar) / nu_n
    alpha_n = alpha + n / 2.0
    beta_n = beta + 0.5 * ssd + 0.5 * (n * nu / nu_n) * (xbar - mu0) ** 2
    scale = np.sqrt(beta_n * (nu_n + 1.0) / (nu_n * alpha_n))
    f = stats.t.cdf(values[rows, cols], df=2.0 * alpha_n, loc=mu_n, scale=scale)
    return np.abs(2.0 * f - 1.0) if spec.two_sided else f


def check_detection(
    values: np.ndarray,
    truth: Optional[np.ndarray],
    scores: np.ndarray,
    report,
    t_cols: Sequence[int],
    spec: Spec,
    rng: np.random.Generator,
    n_eta: int,
    n_score: int,
) -> list[str]:
    """Check one operation's scores, thresholds, flags and confusion counts.

    ``t_cols[ti]`` is the panel column that score column ``ti`` scores.
    """
    fails: list[str] = []
    m, nt = scores.shape
    nq = len(spec.qs)
    if report.eta_s.shape != (nq, nt) or report.flags_bfdr.shape != (nq, m, nt):
        return [f"report shape {report.flags_bfdr.shape} does not match scores {scores.shape}"]

    for _ in range(n_eta):
        qi, ti = int(rng.integers(nq)), int(rng.integers(nt))
        cfg = BfdrConfig(q=spec.qs[qi], a=spec.a, k=spec.k, algorithm="looped")
        ref = gbfdr_looped(ScoreBatch(1.0 - scores[:, ti]), cfg)
        feasible = bool(report.feasible[qi, ti])
        eta = float(report.eta_s[qi, ti])
        if feasible != ref.feasible or (
            feasible and (eta != ref.eta or round(eta * spec.k) != ref.index)
        ):
            fails.append(
                f"selector at q={spec.qs[qi]!r} t={t_cols[ti]}: eta {eta if feasible else None}"
                f" != looped reference {ref.eta}"
            )

    rows = rng.integers(m, size=n_score)
    tis = rng.integers(nt, size=n_score)
    cols = np.asarray(t_cols)[tis]
    want = reference_scores(values, rows, cols, spec)
    got = scores[rows, tis]
    err = np.abs(got - want)
    if not np.all(err <= SCORE_TOL):
        worst = int(np.argmax(err))
        fails.append(
            f"score of series {rows[worst]} at t={cols[worst]}: {got[worst]!r}"
            f" differs from scipy {want[worst]!r} by {err[worst]:.3g}"
        )

    # Infeasible cells carry eta = nan, and r > nan flags nothing.
    eta_r = 1.0 - report.eta_s
    want_flags = scores[None, :, :] > (eta_r / (1.0 + spec.c1))[:, None, :]
    if not np.array_equal(report.flags_bfdr, want_flags):
        fails.append(f"{int(np.sum(report.flags_bfdr != want_flags))} selector flags break the rule")
    cut = (1.0 - np.asarray(report.baseline_etas)) / (1.0 + spec.c1)
    want_fixed = scores[None, :, :] > cut[:, None, None]
    if not np.array_equal(report.flags_fixed, want_fixed):
        fails.append(f"{int(np.sum(report.flags_fixed != want_fixed))} baseline flags break the rule")

    if truth is not None:
        for name in ("confusion_bfdr", "confusion_fixed"):
            conf = getattr(report, name)
            if conf is None or not np.all(conf.sum(axis=-1) == m):
                fails.append(f"{name} rows do not sum to m={m}")
    return fails


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _opt_float(text: str) -> float:
    return float(text) if text else math.nan


def check_cli_outputs(out_dir: Path, scores: np.ndarray, report, lag: int) -> list[str]:
    """Parse the detect command's CSV files back and compare with the report."""
    fails: list[str] = []
    out = Path(out_dir)
    try:
        with open(out / "scores.csv") as fh:
            header = fh.readline().strip().split(",")
        parsed = np.loadtxt(out / "scores.csv", delimiter=",", skiprows=1, ndmin=2)
        if header != [f"t{lag + i}" for i in range(scores.shape[1])]:
            fails.append("scores.csv header does not name the scored timesteps")
        if not np.array_equal(parsed, scores):
            fails.append("scores.csv does not parse back to the scores")

        nq, nt = report.eta_s.shape
        thr = _read_rows(out / "thresholds.csv")
        want = [(int(t), q) for q in report.qs for t in report.t_index]
        if [(int(r["t"]), float(r["q"])) for r in thr] != want:
            fails.append("thresholds.csv rows are not one per (q, t)")
        else:
            feas = np.array([int(r["feasible"]) for r in thr], dtype=bool).reshape(nq, nt)
            eta_s = np.array([_opt_float(r["eta_s"]) for r in thr]).reshape(nq, nt)
            eta_r = np.array([_opt_float(r["eta_r"]) for r in thr]).reshape(nq, nt)
            if not (
                np.array_equal(feas, report.feasible)
                and np.array_equal(eta_s, report.eta_s, equal_nan=True)
                and np.array_equal(eta_r, report.eta_r, equal_nan=True)
            ):
                fails.append("thresholds.csv does not parse back to the report")

        got = {(r["method"], float(r["q"]), int(r["t"]), int(r["series"]))
               for r in _read_rows(out / "flags.csv")}
        want_flags = set()
        for method, levels, cube in (
            ("bfdr", report.qs, report.flags_bfdr),
            ("fixed", report.baseline_etas, report.flags_fixed),
        ):
            for li, level in enumerate(levels):
                js, tis = np.nonzero(cube[li])
                want_flags.update(
                    (method, level, int(report.t_index[ti]), int(j)) for j, ti in zip(js, tis)
                )
        if got != want_flags:
            fails.append(f"flags.csv differs from the report in {len(got ^ want_flags)} cells")

        if report.metrics_bfdr is not None:
            names = list(report.metrics_bfdr)
            rows = _read_rows(out / "metrics.csv")
            got_m = {(r["method"], float(r["q"]), int(r["t"])): [float(r[n]) for n in names]
                     for r in rows}
            want_m = {}
            for method, levels, metrics in (
                ("bfdr", report.qs, report.metrics_bfdr),
                ("fixed", report.baseline_etas, report.metrics_fixed),
            ):
                for li, level in enumerate(levels):
                    for ti, t in enumerate(report.t_index):
                        want_m[(method, level, int(t))] = [float(metrics[n][li, ti]) for n in names]
            if len(rows) != len(want_m) or got_m != want_m:
                fails.append("metrics.csv does not parse back to the report")

            got_d = {(float(r["q"]), int(r["t"])): [float(r[f"{n}_diff"]) for n in names]
                     for r in _read_rows(out / "diff.csv")}
            want_d = {}
            for qi, q in enumerate(report.qs):
                if q in report.baseline_etas:
                    bi = report.baseline_etas.index(q)
                    for ti, t in enumerate(report.t_index):
                        want_d[(q, int(t))] = [
                            float(report.metrics_bfdr[n][qi, ti] - report.metrics_fixed[n][bi, ti])
                            for n in names
                        ]
            if got_d != want_d:
                fails.append("diff.csv does not parse back to the report")
    except (OSError, ValueError, KeyError) as exc:
        fails.append(f"detect outputs unreadable: {type(exc).__name__}: {exc}")
    return fails
