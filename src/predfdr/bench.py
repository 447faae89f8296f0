"""Clock-time benchmark comparing the two selector implementations.

Every replication draws a fresh uniform score batch, runs both selectors on
the identical batch inside a monotonic-clock window that covers only the
selector call, and aborts on any disagreement between the two results.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from .bfdr import BfdrConfig, ScoreBatch, _check_capacity, _integer
from .bfdr import gbfdr_looped, gbfdr_vectorized

__all__ = ["BenchSpec", "BenchRun", "BenchReport", "run_bench", "reference_spec"]

_METHODS = ("looped", "vectorized")

# untimed calls of both selectors per grid size, read at call time
_WARMUP = 5


@dataclass(frozen=True)
class BenchSpec:
    """Benchmark settings; k_values are benchmarked in order."""

    replications: int = 100
    m: int = 1000
    a: float = 2.0
    q: float = 0.2
    k_values: Tuple[int, ...] = (10000,)
    seed: int = 0

    def __post_init__(self) -> None:
        for name, minimum in (("replications", 1), ("m", 1), ("seed", 0)):
            object.__setattr__(self, name, _integer(getattr(self, name), name, minimum))
        BfdrConfig(q=self.q, a=self.a)  # q and a follow the selector's rules
        object.__setattr__(self, "k_values", tuple(_integer(k, "k") for k in self.k_values))
        for k in self.k_values:  # the vectorised selector must fit every k
            _check_capacity(self.m, k)


def reference_spec(seed: int = 0) -> BenchSpec:
    """The headline configuration: 1500 replications at m=1000, a=2, q=0.2,
    k=10000."""
    return BenchSpec(replications=1500, m=1000, a=2.0, q=0.2, k_values=(10000,), seed=seed)


@dataclass(frozen=True)
class BenchRun:
    method: str
    k: int
    replication: int
    seconds: float
    eta_index: int  # -1 when infeasible


@dataclass
class BenchReport:
    spec: BenchSpec
    runs: List[BenchRun] = field(default_factory=list)

    def _seconds(self) -> Dict[Tuple[str, int], List[float]]:
        """(method, k) -> run times in run order; keys by k, then method."""
        secs = {(method, k): [] for k in self.spec.k_values for method in _METHODS}
        for r in self.runs:
            secs[r.method, r.k].append(r.seconds)
        return secs

    def summary(self) -> List[dict]:
        """Per (method, k): total, mean and sd of the run times."""
        out = []
        for (method, k), secs in self._seconds().items():
            n = len(secs)
            mean = sum(secs) / n
            var = sum((x - mean) ** 2 for x in secs) / (n - 1) if n > 1 else 0.0
            out.append(
                {"method": method, "k": k, "total": sum(secs), "mean": mean, "sd": math.sqrt(var)}
            )
        return out

    def median_seconds(self) -> dict:
        """(method, k) -> median run time; used for the scaling check."""
        return {key: float(np.median(secs)) for key, secs in self._seconds().items()}


def run_bench(spec: BenchSpec) -> BenchReport:
    """Run the benchmark; single-threaded, timing only the selector calls.

    The two selectors see the identical batch each replication and their
    results are compared after the timed region; any mismatch aborts the
    benchmark.
    """
    report = BenchReport(spec)
    rng = np.random.default_rng(spec.seed)
    for k in spec.k_values:
        cfg = BfdrConfig(q=spec.q, a=spec.a, k=k)
        for _ in range(_WARMUP):
            batch = ScoreBatch(rng.random(spec.m))
            gbfdr_looped(batch, cfg)
            gbfdr_vectorized(batch, cfg)
        for rep in range(spec.replications):
            batch = ScoreBatch(rng.random(spec.m))
            t0 = time.perf_counter()
            res_l = gbfdr_looped(batch, cfg)
            t1 = time.perf_counter()
            res_v = gbfdr_vectorized(batch, cfg)
            t2 = time.perf_counter()
            if (res_l.index, res_l.feasible) != (res_v.index, res_v.feasible):
                raise RuntimeError(
                    f"selector mismatch at k={k} rep={rep}: "
                    f"looped={res_l} vectorized={res_v}"
                )
            idx = res_l.index if res_l.feasible else -1
            report.runs.append(BenchRun("looped", k, rep, t1 - t0, idx))
            report.runs.append(BenchRun("vectorized", k, rep, t2 - t1, idx))
    return report
