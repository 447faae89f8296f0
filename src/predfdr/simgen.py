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

from .bfdr import _integer

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
        for name, minimum in (("m", 1), ("t_len", 2), ("lag", 1), ("seed", 0)):
            object.__setattr__(self, name, _integer(getattr(self, name), name, minimum))
        if self.lag >= self.t_len:
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


# cells per block of series, in the generator and in the bool writer: bounds
# the block buffers to a cache-sized working set, as pipeline._CDF_CELLS does.
# The generator ran as fast with blocks of 2**13 to 2**16 cells, but its two
# buffers (uniforms, extra draws) put a default simulate's peak RSS about
# 0.5 MB above a per-series loop's at 2**16 and level with it at 2**15.
_BLOCK_CELLS = 2**14


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
    series the draws are, in order: t_len uniforms (a cell is an outlier when
    its uniform is below ``outlier_rate``), t_len standard normals for the
    inlier draw, and t_len standard normals for the extra outlier component.

    The streams are those of ``SeedSequence(seed).spawn(m)`` and one
    ``default_rng`` per child, but no SeedSequence or Generator is built per
    series: the children's PCG64 seeds are hashed for a block of series at a
    time (``_spawned_states``) and set in turn as the state of one reused
    PCG64, so every draw is unchanged.  numpy's ``normal(mu, sd)`` is
    ``mu + sd * standard_normal``, so the normals are drawn straight into the
    rows of ``values`` and a block buffer, and scaled and shifted in place
    once per block of about 2**14 cells; every value is bit for bit what a
    per-series ``normal(mu, sd)`` gives, and the blocks bound the working set
    beside the panel.
    """
    mu, sd_in, sd_out = gen_signal(spec)
    m, t_len = spec.m, spec.t_len
    values = np.empty((m, t_len))
    truth = np.empty((m, t_len), dtype=bool)
    seq = np.random.SeedSequence(spec.seed)
    # seeded here only to skip drawing OS entropy; its state is set per series
    bit_gen = np.random.PCG64(0)
    rng = np.random.Generator(bit_gen)
    rows = min(m, max(1, _BLOCK_CELLS // t_len))
    u_buf = np.empty((rows, t_len))
    extra_buf = np.empty_like(u_buf)
    for r0 in range(0, m, rows):
        inlier = values[r0 : r0 + rows]
        n = inlier.shape[0]
        u, extra = u_buf[:n], extra_buf[:n]
        for j, words in enumerate(_spawned_states(seq, r0, n).tolist()):
            bit_gen.state = _pcg64_state(*words)
            rng.random(out=u[j])
            rng.standard_normal(out=inlier[j])
            rng.standard_normal(out=extra[j])
        inlier *= sd_in
        inlier += mu
        # the extra draw becomes the outlier value in place
        extra *= sd_out
        extra += mu
        extra += inlier
        if spec.recenter_outliers:
            extra -= mu
        is_out = truth[r0 : r0 + n]
        np.less(u, spec.outlier_rate, out=is_out)
        np.copyto(inlier, extra, where=is_out)
    return SimData(spec, values, truth, mu, sd_in, sd_out)


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): the constants
# of its entropy mixing (A), of generate_state (B) and of its mix function
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hash_steps(init: int, mult: int, first: int, count: int):
    """The (xor, multiply) uint32 constants of ``count`` consecutive steps of
    a SeedSequence hash from step ``first``, as (count, 1) columns.

    Step s xors with init * mult**s and multiplies by init * mult**(s + 1),
    mod 2**32: the constants depend on the step count, never on the data.
    """
    consts = [init * pow(mult, s, 2**32) % 2**32 for s in range(first, first + count + 1)]
    col = np.array(consts, dtype=np.uint32)[:, None]
    return col[:-1], col[1:]


def _hash(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    value = value ^ xor
    value *= mult
    value ^= value >> 16
    return value


_GENERATE_STEPS = _hash_steps(_INIT_B, _MULT_B, 0, 8)


def _spawned_states(seq: np.random.SeedSequence, start: int, n: int) -> np.ndarray:
    """``seq.spawn(start + n)[start + j].generate_state(4, np.uint64)`` for
    j < n, as an (n, 4) uint64 array, for a ``seq`` that has no spawn key.

    A child's entropy is its parent's seed words, zero-padded to the pool
    size of 4, and then its index.  Mixing hashes a missing word as a zero,
    so the pool after the seed words is ``seq.pool`` itself; the index is then
    mixed into each of the 4 pool words, and generate_state hashes the pool
    cycled to 8 uint32 words, read in pairs as little-endian uint64.  Every
    step is one uint32 operation over the block's children.
    """
    # 4 steps fill the pool, 12 mix it, and 4 mix in each seed word beyond it
    beyond = max(0, (seq.entropy.bit_length() + 31) // 32 - 4)
    xor, mult = _hash_steps(_INIT_A, _MULT_A, 16 + 4 * beyond, 4)
    index = _hash(np.arange(start, start + n, dtype=np.uint32), xor, mult)
    pool = seq.pool[:, None] * np.uint32(_MIX_MULT_L) - index * np.uint32(_MIX_MULT_R)
    pool ^= pool >> 16
    state = _hash(pool[[0, 1, 2, 3, 0, 1, 2, 3]], *_GENERATE_STEPS).astype(np.uint64)
    return (state[1::2] << 32 | state[0::2]).T


def _pcg64_state(seed_hi: int, seed_lo: int, seq_hi: int, seq_lo: int) -> dict:
    """``PCG64.state`` after seeding from the 4 uint64 words of
    generate_state, as PCG64 seeds itself: the 128-bit initstate is words 0-1
    and initseq words 2-3, high word first."""
    inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
    state = ((inc + (seed_hi << 64 | seed_lo)) * _PCG_MULT + inc) & _MASK128
    return {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }


def write_matrix_csv(mat: np.ndarray, path, t_offset: int = 0) -> None:
    """Write a (series, timestep) matrix as load_matrix_csv reads it: a header
    row t<t_offset>, t<t_offset + 1>, ..., then one row per series with each
    cell in %.17g (0 and 1 for bools); LF line ends.

    A bool matrix is written as those 0/1 bytes built from the array, a block
    of rows of about 2**14 cells at a time, rather than formatted cell by
    cell."""
    header = ",".join(f"t{t_offset + i}" for i in range(mat.shape[1]))
    if mat.dtype != bool:
        np.savetxt(path, mat, fmt="%.17g", delimiter=",", header=header, comments="")
        return
    rows = max(1, _BLOCK_CELLS // mat.shape[1])
    # each cell is a digit and a separator: a comma, or LF after the last
    line = np.full((min(rows, mat.shape[0]), 2 * mat.shape[1]), ord(","), dtype=np.uint8)
    line[:, -1] = ord("\n")
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for r0 in range(0, mat.shape[0], rows):
            block = mat[r0 : r0 + rows]
            text = line[: block.shape[0]]
            np.add(block, ord("0"), out=text[:, ::2], dtype=np.uint8)
            fh.write(text)


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
