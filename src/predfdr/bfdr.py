"""Bayesian FDR threshold selection over a uniform grid.

Given a batch of null scores (one per tested item, small = more discovery
worthy), the selector returns the largest grid threshold eta whose selected
set {s_j <= eta} keeps a signed power-mean criterion negative.  The exponent
``a`` generalises the classic mean rule (a = 1); a = 0 is a sign-count rule.

Three routes compute the generalised selector and return identical results:

- ``gbfdr_looped``, the reference scan: one masked sum per grid value from
  the top.  It defines the result and is the oracle every route is tested
  against.
- ``gbfdr_vectorized`` materialises the full score-by-grid matrix.  It sums
  the same term vectors with the same pairwise reduction, and is kept with
  the looped scan as the pair the paper's benchmark times.
- ``gbfdr_changepoint``, the production route: the selected set only changes
  where a score enters the grid, so it takes prefix sums over the sorted
  scores, and evaluates the looped scan's own masked sum only where rounding
  could flip the criterion's sign: where a prefix sum lies within one
  summation-order bound, taken once per batch, of zero.

The sort and the grid's block structure belong to the batch, not to a call:
a ``ScoreBatch`` sorts its scores once and keeps the blocks of the last grid
size asked for, so the levels ``detect`` selects on one timestep's batch
share them.

``gbfdr`` runs the route named by ``BfdrConfig.algorithm``, the change-point
route by default, which is the one the ``detect`` subcommand runs.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Literal, NamedTuple, Optional, get_args

import numpy as np

__all__ = [
    "Algorithm",
    "BfdrConfig",
    "ScoreBatch",
    "ThresholdResult",
    "CapacityError",
    "classic_bfdr",
    "gbfdr_changepoint",
    "gbfdr_looped",
    "gbfdr_vectorized",
    "gbfdr",
    "mc_fdr_inverse",
    "McFdrEstimate",
    "MomentDerivativeCheck",
    "moment_derivative_check",
]

Algorithm = Literal["changepoint", "looped", "vectorized"]
ALGORITHMS = get_args(Algorithm)

# Working-set ceiling for the vectorised selector, in bytes; covers the float
# term matrix plus the boolean mask.
DEFAULT_MAX_BYTES = 2 << 30


class CapacityError(ValueError):
    """Raised when the vectorised selector would exceed its memory budget."""


def _check_capacity(m: int, k: int) -> None:
    """CapacityError, naming the sizes, unless the vectorised selector's
    working set for m scores on a k-step grid fits in DEFAULT_MAX_BYTES."""
    need = (k + 1) * m * (8 + 1)
    if need > DEFAULT_MAX_BYTES:
        raise CapacityError(
            f"m={m}, k={k}: the vectorised selector's grid matrix of {need} bytes "
            f"exceeds its {DEFAULT_MAX_BYTES}-byte budget"
        )


class ScoreBatch:
    """Batch of per-item scores in [0, 1].

    The batch holds a read-only copy of the scores, their read-only sort by
    numpy's unstable SIMD sort (equal scores are equal values, so only a
    zero's sign may change, which no use of the sort tells apart), and the
    grid blocks of the last grid size asked for.
    """

    __slots__ = ("scores", "sorted_scores", "_blocks")

    def __init__(self, scores) -> None:
        arr = np.array(scores, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("ScoreBatch requires a nonempty 1-d score sequence")
        s = np.sort(arr)
        if not (s[0] >= 0.0 and s[-1] <= 1.0):  # NaN sorts last
            raise ValueError("ScoreBatch requires finite scores in [0, 1]")
        arr.flags.writeable = s.flags.writeable = False
        self.scores = arr
        self.sorted_scores = s
        self._blocks = None

    def grid_blocks(self, k: int):
        """Blocks of the sorted scores that enter the grid l / k together.

        Sorted score s is selected from grid index e = min{l : s <= l/k} on:
        e is ceil(s*k), stepped once up where s > e/k and once down where
        s <= (e-1)/k to match the float l / k the looped scan compares, which
        one step does for k <= 2**50 (3 k u < 1).  Returns (ends, tops): the
        last sorted position of each run of equal e, and the run's top grid
        index (the next run's e - 1, or k); from e to tops[b] the selected
        set is the sorted scores through position ends[b].
        """
        blocks = self._blocks
        if blocks is None or blocks[0] != k:
            s = self.sorted_scores
            entry = np.ceil(s * k)
            entry += s > entry / k
            entry -= s <= (entry - 1.0) / k
            ends = np.flatnonzero(np.append(entry[1:] != entry[:-1], True))
            blocks = self._blocks = (k, ends, np.append(entry[ends[1:]] - 1.0, k))
        return blocks[1:]

    def __len__(self) -> int:
        return self.scores.size

    def __repr__(self) -> str:
        return f"ScoreBatch(m={self.scores.size})"


def _integer(value, name: str, minimum: int = 1) -> int:
    """``value`` as an int >= ``minimum``, the rule of every count, size and
    seed: anything else (a float, a string or a bool too) is a ValueError
    naming the value, never truncated; numpy integers are kept as int."""
    try:
        number = operator.index(value)
    except TypeError:
        number = None
    if number is None or isinstance(value, bool):
        raise ValueError(f"expected an integer {name}, got {name}={value!r}")
    if number < minimum:
        raise ValueError(
            f"{name} must be >= {minimum}: expected {name} >= {minimum}, got {name}={number!r}"
        )
    return number


def _level(value, name: str):
    """``value`` itself when it lies in (0, 1), else a ValueError naming it
    (NaN included): the one rule for levels and thresholds."""
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie in (0, 1), got {name}={value!r}")
    return value


@dataclass(frozen=True)
class BfdrConfig:
    """Selector settings: target level q, criterion exponent a, grid size k."""

    q: float
    a: float = 1.0
    k: int = 1000
    algorithm: Algorithm = "changepoint"

    def __post_init__(self) -> None:
        _level(self.q, "q")
        if self.a < 0.0 or not math.isfinite(self.a):
            raise ValueError(f"a must be a finite number >= 0, got a={self.a!r}")
        object.__setattr__(self, "k", _integer(self.k, "k"))
        if self.k > 2**50:  # ScoreBatch.grid_blocks is exact up to here
            raise ValueError(f"k must be <= 2**50, got k={self.k!r}")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {', '.join(ALGORITHMS)}")


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
    _level(q, "q")
    k = _integer(k, "k")
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


def _masked_sum(s: np.ndarray, w: np.ndarray, eta: float) -> float:
    """Criterion at eta: the sum of the terms of the items with s <= eta."""
    return float(np.sum(np.where(s <= eta, w, 0.0)))


def gbfdr_looped(batch: ScoreBatch, cfg: BfdrConfig) -> ThresholdResult:
    """Reference selector: scan the grid from 1 downward, return at the first
    eta whose criterion sum is negative."""
    s = batch.scores
    w = _signed_power(s, cfg.q, cfg.a)
    k = cfg.k
    for l in range(k, -1, -1):
        eta = l / k
        crit = _masked_sum(s, w, eta)
        if crit < 0.0:
            return ThresholdResult(eta, l, True)
    return _INFEASIBLE


def gbfdr_vectorized(batch: ScoreBatch, cfg: BfdrConfig) -> ThresholdResult:
    """Vectorised selector over the full score-by-grid matrix.

    Replicates the scores against every grid value, masks each column by
    s_j <= eta_l, and reduces the signed-power terms per grid value.  Each
    grid value's sum is a pairwise reduction over the same m values the
    looped scan sums, so the two implementations return identical results.
    """
    s = batch.scores
    k = cfg.k
    _check_capacity(s.size, k)
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


# Unit roundoff of float64.
_U = 2.0**-53


def gbfdr_changepoint(batch: ScoreBatch, cfg: BfdrConfig) -> ThresholdResult:
    """Change-point selector, identical in result to the looped scan.

    The selected set is constant on each of the batch's grid blocks
    (``ScoreBatch.grid_blocks``), so the looped scan's masked sum is the same
    value throughout a block, and every block's criterion is a prefix sum P
    of the terms of the batch's sorted scores.  The terms are elementwise, so
    forming them on the sorted scores gives the looped scan's terms bit for
    bit.  Any two summation orders of the same n terms differ by at most
    2 gamma_(n-1) sum|w| (Higham, *Accuracy and Stability of Numerical
    Algorithms*, ch. 4).  A block's terms are a subset of the batch's, so one
    tolerance per batch, tol = 4 m u sum|d|^a with d = s - q, bounds that
    difference for every block (|w| = |d|^a, and 0 <= 1 = |d|^0 where d = 0
    and a = 0); P < -tol and P > tol fix the sign the looped scan sees, and
    only a block with |P| <= tol evaluates the looped scan's own masked sum.
    Blocks are walked from the top and the first negative one is returned at
    its largest grid index, as the looped scan would.
    """
    k = cfg.k
    ends, tops = batch.grid_blocks(k)
    # the terms _signed_power forms, bit for bit, built in place, and the sum
    # of their magnitudes
    d = batch.sorted_scores - cfg.q
    mag = np.abs(d)
    np.power(mag, cfg.a, mag)
    np.sign(d, d)
    d *= mag
    crit = d.cumsum()[ends]
    tol = 4.0 * d.size * _U * float(np.add.reduce(mag))
    w = None  # original-order terms, formed only for the exact fallback
    for b in (crit <= tol).nonzero()[0][::-1]:
        if crit[b] >= -tol:
            if w is None:
                w = _signed_power(batch.scores, cfg.q, cfg.a)
            if _masked_sum(batch.scores, w, tops[b] / k) >= 0.0:
                continue
        l = int(tops[b])
        return ThresholdResult(l / k, l, True)
    return _INFEASIBLE


def gbfdr(batch: ScoreBatch, cfg: BfdrConfig) -> ThresholdResult:
    """Dispatch to the configured selector implementation."""
    if cfg.algorithm == "changepoint":
        return gbfdr_changepoint(batch, cfg)
    if cfg.algorithm == "looped":
        return gbfdr_looped(batch, cfg)
    return gbfdr_vectorized(batch, cfg)


@dataclass(frozen=True)
class McFdrEstimate:
    """Monte Carlo estimate of the mean realized-FDR threshold, and the mean
    realized FDP over all draws at each grid value (nan where none is
    selected)."""

    mean: float
    se: float
    feasible_draws: int
    draws: int
    fdp: np.ndarray


# draws per block of the Monte Carlo oracle, which bounds its temporaries
_MC_CHUNK = 2000


def mc_fdr_inverse(rates, q: float, draws: int, k: int, seed: int = 0) -> McFdrEstimate:
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
    if not np.all((r >= 0.0) & (r <= 1.0)):  # NaN too
        raise ValueError("rates must lie in [0, 1]")
    _level(q, "q")
    k = _integer(k, "k")
    draws = _integer(draws, "draws")
    s = 1.0 - r
    grid = np.arange(k + 1, dtype=float) / k
    sel = s[:, None] <= grid[None, :]  # (m, k+1)
    counts = sel.sum(axis=0).astype(float)  # per grid value
    nonempty = counts > 0
    rng = np.random.default_rng(_integer(seed, "seed", 0))
    # stats are computed once over all draws so the result is independent
    # of the chunk size used to bound memory
    kept: list[np.ndarray] = []
    false_total = np.zeros(k + 1)  # integer counts, so exact in any order
    selF = sel.astype(float)
    for start in range(0, draws, _MC_CHUNK):
        nd = min(_MC_CHUNK, draws - start)
        gamma = rng.random((nd, r.size)) < r[None, :]
        false = (~gamma).astype(float) @ selF  # (nd, k+1)
        false_total += false.sum(axis=0)
        with np.errstate(invalid="ignore", divide="ignore"):
            fdp = false / counts[None, :]
        feas = nonempty[None, :] & (fdp < q)
        any_feas = feas.any(axis=1)
        if any_feas.any():
            rev = feas[any_feas, ::-1]
            idx = k - rev.argmax(axis=1)
            kept.append(grid[idx])
    with np.errstate(invalid="ignore", divide="ignore"):
        mean_fdp = false_total / (draws * counts)
    if not kept:
        return McFdrEstimate(math.nan, math.nan, 0, draws, mean_fdp)
    etas = np.concatenate(kept)
    n_feasible = etas.size
    mean = float(np.mean(etas))
    se = math.sqrt(float(np.var(etas)) / n_feasible)
    return McFdrEstimate(mean, se, n_feasible, draws, mean_fdp)


class MomentDerivativeCheck(NamedTuple):
    criterion: float
    derivative: float
    step: float


def moment_derivative_check(
    batch: ScoreBatch, q: float, a: float, eta: float
) -> MomentDerivativeCheck:
    """Criterion sum and the finite-difference derivative of the companion
    power-sum moment.

    Returns the pair (criterion, derivative) where criterion is
    sum sign(s - q)|s - q|^a over {s <= eta} and derivative is the central
    difference in q, with step 1e-6, of sum |s - q|^(a+1) over the same set.
    Away from kinks the ratio derivative / criterion equals -(a + 1).  The
    step is shrunk when q sits within one step of a selected score; q
    exactly at a selected score is rejected.
    """
    s = batch.scores
    sel = s[s <= eta]
    step = 1e-6
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

