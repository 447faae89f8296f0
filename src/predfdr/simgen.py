"""Synthetic nonstationary series generator.

Each series follows a sinusoidal mean whose amplitude grows linearly over
the horizon, with linearly ramped inlier and outlier noise levels.  A small
Bernoulli fraction of timesteps is replaced by outliers drawn as the sum of
an inlier draw and a wider outlier draw; by default that sum keeps its
literal doubled mean, and ``recenter_outliers`` recenters it back onto the
signal for sensitivity runs.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Tuple

import numpy as np

from .bfdr import _integer
from .files import write_json, write_matrix_csv

__all__ = ["SimSpec", "SimData", "gen_signal", "gen_data", "save_sim"]


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
            params = tuple(float(v) for v in getattr(self, name))
            if not np.isfinite(params).all():
                raise ValueError(f"SimSpec requires finite {name}, got {name}={params!r}")
            object.__setattr__(self, name, params)
        for pair in (self.sd_inlier_params, self.sd_outlier_params):
            if len(pair) != 2 or min(pair) <= 0.0:
                raise ValueError("sd ramps must be positive (start, end) pairs")
        if len(self.mean_params) != 3:
            raise ValueError("mean_params must be (base, growth, cycles)")


@dataclass(frozen=True)
class SimData:
    """A panel drawn from ``spec``: values and truth are (m, t_len)."""

    spec: SimSpec
    values: np.ndarray
    truth: np.ndarray


# cells per block of series in the generator: bounds its two buffers
# (uniforms, extra draws) to a cache-sized working set.  It ran as fast with
# blocks of 2**13 to 2**16 cells, but a default simulate's peak RSS was 0.5 MB
# above a per-series loop's at 2**16 and level with it at 2**15.
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
    return SimData(spec, values, truth)


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
    write_json(paths["simspec"], asdict(data.spec))
    return {k: str(v) for k, v in paths.items()}

