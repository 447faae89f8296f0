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
from dataclasses import asdict, dataclass, fields
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
        for name in ("mean_params", "sd_inlier_params", "sd_outlier_params"):
            object.__setattr__(self, name, tuple(float(v) for v in getattr(self, name)))
        for pair in (self.sd_inlier_params, self.sd_outlier_params):
            if len(pair) != 2 or min(pair) <= 0.0:
                raise ValueError("sd ramps must be positive (start, end) pairs")
        if len(self.mean_params) != 3:
            raise ValueError("mean_params must be (base, growth, cycles)")


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


def write_matrix_csv(mat: np.ndarray, path, t_offset: int = 0) -> None:
    """Write a (series, timestep) matrix as load_matrix_csv reads it: a header
    row t<t_offset>, t<t_offset + 1>, ..., then one row per series with each
    cell in %.17g (0 and 1 for bools); LF line ends."""
    header = ",".join(f"t{t_offset + i}" for i in range(mat.shape[1]))
    np.savetxt(path, mat, fmt="%.17g", delimiter=",", header=header, comments="")


def write_rows_csv(path: Path, header, rows) -> str:
    """Write a header row and then ``rows`` with csv.writer: CRLF line ends,
    floats as repr() writes them."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        wr.writerows(rows)
    return str(path)


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
    write_matrix_csv(data.values, paths["data"])
    write_matrix_csv(data.truth, paths["truth"])
    paths["simspec"].write_text(json.dumps(asdict(data.spec), indent=2) + "\n")
    return {k: str(v) for k, v in paths.items()}


# what csv.reader reads as a row of no cells, and the end of the file
_BLANK = ("", "\n", "\r", "\r\n")


def load_matrix_csv(path) -> np.ndarray:
    """Read a headered CSV matrix written by save_sim.

    A cell is a number as np.loadtxt reads one: Python's float() syntax
    (surrounding spaces, 'nan' and 'inf' included) without '_' digit
    separators or non-ASCII digits.  Trailing empty lines are ignored.  A
    missing or ragged row, a row of another width than the header, or a cell
    that is not a number is reported by its row and column; rows are counted
    from 1 below the header, columns from 1.
    """
    with open(path, newline="") as fh:
        width = len(next(csv.reader(fh), []))
        first = next(fh, "")
        last = 1  # body line number of the last non-blank line

        def body():
            nonlocal last
            yield first
            for n, line in enumerate(fh, start=2):
                if line not in _BLANK:
                    last = n
                yield line

        # a blank first body line is a missing row or no rows at all
        if first not in _BLANK:
            try:
                mat = np.loadtxt(body(), delimiter=",", ndmin=2, comments=None)
            except ValueError:
                pass
            else:
                # loadtxt skips blank lines, so fewer rows than `last` means a
                # blank line mid-file
                if mat.shape == (last, width):
                    return mat
    # the csv reader parses what loadtxt cannot (quoted cells) and names the
    # first bad cell of what neither can
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    while rows and not rows[-1]:
        rows.pop()
    if not rows:
        raise ValueError(f"empty CSV: {path}")
    if len(rows) == 1:
        raise ValueError(f"{path}: no data rows below the header")
    body = rows[1:]
    bad = _first_bad_cell(body, len(rows[0]))
    if bad:
        raise ValueError(f"{path}: {bad}")
    return np.array([[_cell_value(c) for c in row] for row in body])


def _cell_value(cell: str) -> float:
    """float(cell) under np.loadtxt's rule, which rejects '_' separators and
    non-ASCII digits that float() accepts."""
    text = cell.strip()
    if "_" in text or not text.isascii():
        raise ValueError(cell)
    return float(text)


def _first_bad_cell(body: list, width: int) -> Optional[str]:
    for r, row in enumerate(body, start=1):
        for c, cell in enumerate(row, start=1):
            try:
                _cell_value(cell)
            except ValueError:
                return f"row {r}, column {c}: {cell!r} is not a number"
        if len(row) != width:
            return (
                f"row {r}, column {min(len(row), width) + 1}: row has {len(row)} "
                f"cells, the header has {width}"
            )
    return None


def _reject_cell(mat: np.ndarray, bad: np.ndarray, path, why: str) -> None:
    """Name the first cell where ``bad`` holds, numbered as load_matrix_csv
    numbers cells."""
    if bad.any():
        r, c = np.argwhere(bad)[0]
        cell = float(mat[r, c])
        raise ValueError(f"{path}: row {r + 1}, column {c + 1}: {cell!r} {why}")


def as_truth(mat: np.ndarray, path) -> np.ndarray:
    """Truth matrix as booleans; every cell must be 0 or 1."""
    _reject_cell(mat, (mat != 0.0) & (mat != 1.0), path, "is not 0 or 1")
    return mat.astype(bool)


def as_finite(mat: np.ndarray, path) -> np.ndarray:
    """The matrix itself; every cell must be finite."""
    _reject_cell(mat, ~np.isfinite(mat), path, "is not finite")
    return mat


# accepted JSON types, by the type of a setting's default, and their name
_JSON_TYPES = {
    bool: ((bool,), "true or false"),
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
    type(None): ((str, type(None)), "a string or null"),
}


def json_type_error(value, default) -> Optional[str]:
    """Why a setting's value read from JSON does not have the type of its
    ``default``, or None when it does.

    An integer passes for a float (but true and false pass for neither), and
    a list for a tuple or list whose items each pass for its first item.
    """
    if isinstance(default, (tuple, list)):
        item = default[0]
        if isinstance(value, list) and not any(json_type_error(v, item) for v in value):
            return None
        return f"{value!r} is not a list whose items are each {_JSON_TYPES[type(item)][1]}"
    types, name = _JSON_TYPES[type(default)]
    return None if type(value) in types else f"{value!r} is not {name}"


def load_sim(sim_dir) -> SimData:
    """Reload a saved simulation directory; signal paths are recomputed."""
    d = Path(sim_dir)
    raw = json.loads((d / "simspec.json").read_text())
    keys = {f.name for f in fields(SimSpec)}
    if set(raw) != keys:
        raise ValueError(
            f"{d / 'simspec.json'}: missing keys {sorted(keys - set(raw))}, "
            f"unknown keys {sorted(set(raw) - keys)}"
        )
    for f in fields(SimSpec):
        wrong = json_type_error(raw[f.name], f.default)
        if wrong:
            raise ValueError(f"{d / 'simspec.json'}: field {f.name!r}: {wrong}")
    spec = SimSpec(**raw)
    values = load_matrix_csv(d / "data.csv")
    truth = as_truth(load_matrix_csv(d / "truth.csv"), d / "truth.csv")
    mu, sd_in, sd_out = gen_signal(spec)
    return SimData(spec, values, truth, mu, sd_in, sd_out)
