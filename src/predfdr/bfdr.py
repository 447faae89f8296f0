"""Bayesian FDR threshold selection over a uniform grid.

Given a batch of null scores (one per tested item, small = more discovery
worthy), the selector returns the largest grid threshold eta whose selected
set {s_j <= eta} keeps a signed power-mean criterion negative.  The exponent
``a`` generalises the classic mean rule (a = 1); a = 0 is a sign-count rule.

Two implementations of the generalised selector are provided: a reference
scan over the grid and a vectorised form that materialises the full
score-by-grid matrix.  They must agree exactly, which constrains both to sum
identical term vectors with identical pairwise reduction order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, NamedTuple, Optional

import numpy as np

__all__ = [
    "Algorithm",
    "BfdrConfig",
    "ScoreBatch",
    "ThresholdResult",
    "CapacityError",
    "classic_bfdr",
    "gbfdr_looped",
    "gbfdr_vectorized",
    "gbfdr",
    "mc_fdr_inverse",
    "McFdrEstimate",
    "MomentDerivativeCheck",
    "moment_derivative_check",
]

Algorithm = Literal["looped", "vectorized"]

# Working-set ceiling for the vectorised selector, in bytes; covers the float
# term matrix plus the boolean mask.
DEFAULT_MAX_BYTES = 2 << 30


class CapacityError(Exception):
    """Raised when the vectorised selector would exceed its memory budget."""


class ScoreBatch:
    """Batch of per-item scores in [0, 1]."""

    __slots__ = ("scores",)

    def __init__(self, scores) -> None:
        arr = np.asarray(scores, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("ScoreBatch requires a nonempty 1-d score sequence")
        if not np.all(np.isfinite(arr)):
            raise ValueError("ScoreBatch requires finite scores")
        if np.any((arr < 0.0) | (arr > 1.0)):
            raise ValueError("ScoreBatch requires scores in [0, 1]")
        self.scores = arr

    def __len__(self) -> int:
        return self.scores.size

    def __repr__(self) -> str:
        return f"ScoreBatch(m={self.scores.size})"


@dataclass(frozen=True)
class BfdrConfig:
    """Selector settings: target level q, criterion exponent a, grid size k."""

    q: float
    a: float = 1.0
    k: int = 1000
    algorithm: Algorithm = "vectorized"

    def __post_init__(self) -> None:
        if not 0.0 < self.q < 1.0:
            raise ValueError("BfdrConfig requires 0 < q < 1")
        if self.a < 0.0 or not math.isfinite(self.a):
            raise ValueError("BfdrConfig requires a >= 0")
        if self.k < 1:
            raise ValueError("BfdrConfig requires k >= 1")
        if self.algorithm not in ("looped", "vectorized"):
            raise ValueError("algorithm must be 'looped' or 'vectorized'")


@dataclass(frozen=True)
class ThresholdResult:
    """Selected threshold: eta = index / k, or infeasible with both unset."""

    eta: Optional[float]
    index: Optional[int]
    feasible: bool


_INFEASIBLE = ThresholdResult(None, None, False)


def _signed_power(s: np.ndarray, q: float, a: float) -> np.ndarray:
    """Per-item criterion terms sign(s - q) * |s - q|**a.

    Items with s == q contribute exactly 0 for every a, including a = 0.
    """
    d = s - q
    return np.sign(d) * np.power(np.abs(d), a)


def classic_bfdr(batch: ScoreBatch, q: float, k: int) -> ThresholdResult:
    """Classic rule: largest grid eta whose nonempty selected set has mean
    score strictly below q.

    Kept as an independent mean-based implementation; agreement with the
    generalised selector at a = 1 is a tested identity, not shared code.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("classic_bfdr requires 0 < q < 1")
    if k < 1:
        raise ValueError("classic_bfdr requires k >= 1")
    s = batch.scores
    for l in range(k, -1, -1):
        eta = l / k
        mask = s <= eta
        n_sel = int(np.count_nonzero(mask))
        if n_sel == 0:
            continue
        total = float(np.sum(np.where(mask, s, 0.0)))
        if total / n_sel < q:
            return ThresholdResult(eta, l, True)
    return _INFEASIBLE


def gbfdr_looped(batch: ScoreBatch, cfg: BfdrConfig) -> ThresholdResult:
    """Reference selector: scan the grid from 1 downward, return at the first
    eta whose criterion sum is negative."""
    s = batch.scores
    w = _signed_power(s, cfg.q, cfg.a)
    k = cfg.k
    for l in range(k, -1, -1):
        eta = l / k
        crit = float(np.sum(np.where(s <= eta, w, 0.0)))
        if crit < 0.0:
            return ThresholdResult(eta, l, True)
    return _INFEASIBLE


def gbfdr_vectorized(
    batch: ScoreBatch, cfg: BfdrConfig, max_bytes: int = DEFAULT_MAX_BYTES
) -> ThresholdResult:
    """Vectorised selector over the full score-by-grid matrix.

    Replicates the scores against every grid value, masks each column by
    s_j <= eta_l, and reduces the signed-power terms per grid value.  Each
    grid value's sum is a pairwise reduction over the same m values the
    looped scan sums, so the two implementations return identical results.
    """
    s = batch.scores
    m = s.size
    k = cfg.k
    need = (k + 1) * m * (8 + 1)
    if need > max_bytes:
        raise CapacityError(
            f"grid matrix of {need} bytes exceeds budget of {max_bytes} bytes"
        )
    grid = np.arange(k + 1, dtype=float) / k
    w = _signed_power(s, cfg.q, cfg.a)
    # (k+1, m) layout: row l holds the masked terms for eta = l / k
    mask = s[None, :] <= grid[:, None]
    terms = np.where(mask, w[None, :], 0.0)
    crit = terms.sum(axis=1)
    feasible = crit < 0.0
    if not feasible.any():
        return _INFEASIBLE
    l = int(np.flatnonzero(feasible)[-1])
    return ThresholdResult(grid[l], l, True)


def gbfdr(batch: ScoreBatch, cfg: BfdrConfig) -> ThresholdResult:
    """Dispatch to the configured selector implementation."""
    if cfg.algorithm == "looped":
        return gbfdr_looped(batch, cfg)
    return gbfdr_vectorized(batch, cfg)


@dataclass(frozen=True)
class McFdrEstimate:
    """Monte Carlo estimate of the mean realized-FDR threshold."""

    mean: float
    se: float
    feasible_draws: int
    draws: int


def mc_fdr_inverse(
    rates, q: float, draws: int, k: int, seed: int = 0, chunk: int = 2000
) -> McFdrEstimate:
    """Monte Carlo oracle for the expected realized-FDR threshold.

    Each draw samples truth indicators gamma_j ~ Bernoulli(rates_j), ranks
    items by rate (equivalently by the null score 1 - rate), and finds the
    largest grid threshold whose selected set has realized false discovery
    proportion strictly below q.  Draws with no feasible nonempty selection
    are excluded from the average.
    """
    r = np.asarray(rates, dtype=float)
    if r.ndim != 1 or r.size == 0:
        raise ValueError("rates must be a nonempty 1-d sequence")
    if np.any((r < 0.0) | (r > 1.0)):
        raise ValueError("rates must lie in [0, 1]")
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    s = 1.0 - r
    grid = np.arange(k + 1, dtype=float) / k
    sel = s[:, None] <= grid[None, :]  # (m, k+1)
    counts = sel.sum(axis=0).astype(float)  # per grid value
    nonempty = counts > 0
    rng = np.random.default_rng(seed)
    # stats are computed once over all draws so the result is independent
    # of the chunk size used to bound memory
    kept: list[np.ndarray] = []
    selF = sel.astype(float)
    for start in range(0, draws, chunk):
        nd = min(chunk, draws - start)
        gamma = rng.random((nd, r.size)) < r[None, :]
        false = (~gamma).astype(float) @ selF  # (nd, k+1)
        with np.errstate(invalid="ignore", divide="ignore"):
            fdp = false / counts[None, :]
        feas = nonempty[None, :] & (fdp < q)
        any_feas = feas.any(axis=1)
        if any_feas.any():
            rev = feas[any_feas, ::-1]
            idx = k - rev.argmax(axis=1)
            kept.append(grid[idx])
    if not kept:
        return McFdrEstimate(math.nan, math.nan, 0, draws)
    etas = np.concatenate(kept)
    n_feasible = etas.size
    mean = float(np.mean(etas))
    se = math.sqrt(float(np.var(etas)) / n_feasible)
    return McFdrEstimate(mean, se, n_feasible, draws)


class MomentDerivativeCheck(NamedTuple):
    criterion: float
    derivative: float
    step: float


def moment_derivative_check(
    batch: ScoreBatch, q: float, a: float, eta: float, step: float = 1e-6
) -> MomentDerivativeCheck:
    """Criterion sum and the finite-difference derivative of the companion
    power-sum moment.

    Returns the pair (criterion, derivative) where criterion is
    sum sign(s - q)|s - q|^a over {s <= eta} and derivative is the central
    difference in q of sum |s - q|^(a+1) over the same set.  Away from kinks
    the ratio derivative / criterion equals -(a + 1).  The step is shrunk when
    q sits within one step of a selected score; q exactly at a selected score
    is rejected.
    """
    s = batch.scores
    sel = s[s <= eta]
    if sel.size:
        dmin = float(np.min(np.abs(sel - q)))
        if dmin == 0.0:
            raise ValueError("q coincides with a selected score (kink)")
        if dmin <= step:
            step = dmin / 2.0
    crit = float(np.sum(_signed_power(sel, q, a)))

    def moment(at: float) -> float:
        return float(np.sum(np.abs(sel - at) ** (a + 1.0)))

    deriv = (moment(q + step) - moment(q - step)) / (2.0 * step)
    return MomentDerivativeCheck(crit, deriv, step)

