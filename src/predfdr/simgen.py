"""Synthetic nonstationary series generator.

Each series follows a sinusoidal mean whose amplitude grows linearly over
the horizon, with linearly ramped inlier and outlier noise levels.  A small
Bernoulli fraction of timesteps is replaced by outliers drawn as the sum of
an inlier draw and a wider outlier draw; by default that sum keeps its
literal doubled mean, and ``recenter_outliers`` recenters it back onto the
signal for sensitivity runs.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

__all__ = ["SimSpec", "SimData", "gen_signal", "gen_data", "save_sim", "load_sim"]


@dataclass(frozen=True)
class SimSpec:
    """Simulation settings.

    mean_params is (base amplitude, amplitude growth, cycles over the
    horizon); the sd ramps are (start, end) values interpolated linearly in
    t / t_len.
    """

    m: int = 1000
    t_len: int = 2000
    lag: int = 30
    outlier_rate: float = 0.025
    mean_params: Tuple[float, float, float] = (2.0, 8.0, 4.0)
    sd_inlier_params: Tuple[float, float] = (0.5, 1.5)
    sd_outlier_params: Tuple[float, float] = (1.0, 3.0)
    recenter_outliers: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.m < 1 or self.t_len < 2:
            raise ValueError("SimSpec requires m >= 1 and t_len >= 2")
        if not 0 < self.lag < self.t_len:
            raise ValueError("SimSpec requires 0 < lag < t_len")
        if not 0.0 <= self.outlier_rate < 1.0:
            raise ValueError("SimSpec requires outlier_rate in [0, 1)")
        object.__setattr__(self, "mean_params", tuple(float(v) for v in self.mean_params))
        object.__setattr__(
            self, "sd_inlier_params", tuple(float(v) for v in self.sd_inlier_params)
        )
        object.__setattr__(
            self, "sd_outlier_params", tuple(float(v) for v in self.sd_outlier_params)
        )
        for pair in (self.sd_inlier_params, self.sd_outlier_params):
            if len(pair) != 2 or min(pair) <= 0.0:
                raise ValueError("sd ramps must be positive (start, end) pairs")
        if len(self.mean_params) != 3:
            raise ValueError("mean_params must be (base, growth, cycles)")

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "t_len": self.t_len,
            "lag": self.lag,
            "outlier_rate": self.outlier_rate,
            "mean_params": list(self.mean_params),
            "sd_inlier_params": list(self.sd_inlier_params),
            "sd_outlier_params": list(self.sd_outlier_params),
            "recenter_outliers": self.recenter_outliers,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SimSpec":
        return cls(
            m=int(d["m"]),
            t_len=int(d["t_len"]),
            lag=int(d["lag"]),
            outlier_rate=float(d["outlier_rate"]),
            mean_params=tuple(d["mean_params"]),
            sd_inlier_params=tuple(d["sd_inlier_params"]),
            sd_outlier_params=tuple(d["sd_outlier_params"]),
            recenter_outliers=bool(d["recenter_outliers"]),
            seed=int(d["seed"]),
        )


@dataclass(frozen=True)
class SimData:
    """Generated panel: values and truth are (m, t_len); signal arrays are (t_len,)."""

    spec: SimSpec
    values: np.ndarray
    truth: np.ndarray
    mu: np.ndarray
    sd_inlier: np.ndarray
    sd_outlier: np.ndarray


def gen_signal(spec: SimSpec) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic signal paths: mean curve and the two sd ramps."""
    t = np.arange(spec.t_len, dtype=float)
    frac = t / spec.t_len
    base, growth, cycles = spec.mean_params
    mu = (base + growth * frac) * np.sin(2.0 * np.pi * cycles * frac)
    lo, hi = spec.sd_inlier_params
    sd_in = lo + (hi - lo) * frac
    lo, hi = spec.sd_outlier_params
    sd_out = lo + (hi - lo) * frac
    return mu, sd_in, sd_out


def gen_data(spec: SimSpec) -> SimData:
    """Sample the panel.

    Each series gets an independent substream spawned from the spec seed, so
    results are reproducible and independent of any parallel split.  Within a
    series the draw order is: outlier indicators, inlier draws, outlier
    components.
    """
    mu, sd_in, sd_out = gen_signal(spec)
    values = np.empty((spec.m, spec.t_len))
    truth = np.empty((spec.m, spec.t_len), dtype=bool)
    streams = np.random.SeedSequence(spec.seed).spawn(spec.m)
    for j in range(spec.m):
        rng = np.random.default_rng(streams[j])
        is_out = rng.random(spec.t_len) < spec.outlier_rate
        inlier = rng.normal(mu, sd_in)
        extra = rng.normal(mu, sd_out)
        outlier = inlier + extra
        if spec.recenter_outliers:
            outlier = outlier - mu
        values[j] = np.where(is_out, outlier, inlier)
        truth[j] = is_out
    return SimData(spec, values, truth, mu, sd_in, sd_out)


def _write_matrix(path: Path, mat: np.ndarray, fmt: str) -> None:
    header = ",".join(f"t{i}" for i in range(mat.shape[1]))
    np.savetxt(path, mat, fmt=fmt, delimiter=",", header=header, comments="")


def save_sim(data: SimData, out_dir) -> dict:
    """Write data.csv (rows = series), truth.csv (0/1) and simspec.json.

    Returns the mapping of logical names to paths.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "data": out / "data.csv",
        "truth": out / "truth.csv",
        "simspec": out / "simspec.json",
    }
    _write_matrix(paths["data"], data.values, "%.17g")
    _write_matrix(paths["truth"], data.truth.astype(int), "%d")
    paths["simspec"].write_text(json.dumps(data.spec.to_dict(), indent=2) + "\n")
    return {k: str(v) for k, v in paths.items()}


def load_matrix_csv(path) -> np.ndarray:
    """Read a headered CSV matrix written by save_sim.

    Trailing empty lines are ignored.  A ragged row or a cell that is not a
    number is reported by its row and column; rows are counted from 1 below
    the header, columns from 1.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    while rows and not rows[-1]:
        rows.pop()
    if not rows:
        raise ValueError(f"empty CSV: {path}")
    body = rows[1:]
    try:
        return np.array([[float(c) for c in row] for row in body])
    except ValueError as exc:
        # located only once the fast parse has failed
        raise ValueError(f"{path}: {_first_bad_cell(body, len(rows[0])) or exc}") from None


def _first_bad_cell(body: list, width: int) -> Optional[str]:
    for r, row in enumerate(body, start=1):
        for c, cell in enumerate(row, start=1):
            try:
                float(cell)
            except ValueError:
                return f"row {r}, column {c}: {cell!r} is not a number"
        if len(row) != width:
            return (
                f"row {r}, column {min(len(row), width) + 1}: row has {len(row)} "
                f"cells, the header has {width}"
            )
    return None


def as_truth(mat: np.ndarray, path) -> np.ndarray:
    """Truth matrix as booleans; every cell must be 0 or 1."""
    bad = (mat != 0.0) & (mat != 1.0)
    if bad.any():
        r, c = np.argwhere(bad)[0]
        cell = float(mat[r, c])
        raise ValueError(f"{path}: row {r + 1}, column {c + 1}: {cell!r} is not 0 or 1")
    return mat.astype(bool)


def load_sim(sim_dir) -> SimData:
    """Reload a saved simulation directory; signal paths are recomputed."""
    d = Path(sim_dir)
    spec = SimSpec.from_dict(json.loads((d / "simspec.json").read_text()))
    values = load_matrix_csv(d / "data.csv")
    truth = as_truth(load_matrix_csv(d / "truth.csv"), d / "truth.csv")
    mu, sd_in, sd_out = gen_signal(spec)
    return SimData(spec, values, truth, mu, sd_in, sd_out)
