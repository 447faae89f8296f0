"""The benchmark's workloads: set-up, the measured job, and its output checks.

All workloads are closed-loop: one caller in one process issues the next
operation only after the previous one returned, with the pipeline on one
worker thread.  Inputs come from ``simgen.gen_data`` with the run's seed.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import shutil
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from predfdr import cli, pipeline
from predfdr.bfdr import BfdrConfig
from predfdr.pipeline import DIFFUSE_PRIOR, DetectConfig
from predfdr.simgen import SimSpec, gen_data, save_sim

import checks

PAPER_LEVELS = tuple(2.0 ** -e for e in range(1, 16))
PAPER_T_LEN = 2000
PRIOR = (DIFFUSE_PRIOR.mu0, DIFFUSE_PRIOR.nu, DIFFUSE_PRIOR.alpha, DIFFUSE_PRIOR.beta)


@dataclass(frozen=True)
class Shape:
    """Input size and detection settings of one workload."""

    m: int
    lag: int
    nt: int  # timesteps scored per job
    qs: tuple
    a: float
    k: int
    two_sided: bool = False

    @property
    def spec(self) -> checks.Spec:
        return checks.Spec(self.lag, self.qs, self.a, self.k, self.two_sided, PRIOR)

    def sim(self, seed: int) -> SimSpec:
        """The first lag + nt timesteps of the paper's 2000-step panel.

        The generator stretches its mean cycles and noise ramps over t_len,
        so they are scaled down to keep a short panel's signal as slow as
        the paper's; four full cycles over a few dozen steps would put every
        scored timestep of every series in the same trough or crest.
        """
        t_len = self.lag + self.nt
        f = t_len / PAPER_T_LEN
        return SimSpec(m=self.m, t_len=t_len, lag=self.lag, seed=seed,
                       mean_params=(2.0, 8.0 * f, 4.0 * f),
                       sd_inlier_params=(0.5, 0.5 + 1.0 * f),
                       sd_outlier_params=(1.0, 1.0 + 2.0 * f))

    def detect_config(self) -> DetectConfig:
        return DetectConfig(bfdr=BfdrConfig(q=self.qs[0], a=self.a, k=self.k))


@dataclass
class Op:
    """One checked operation: a job, or one step of a stream."""

    seconds: float
    error: Optional[str] = None
    scores: Optional[np.ndarray] = None
    report: object = None
    t_cols: tuple = ()


@dataclass
class Job:
    seconds: float
    ops: list[Op] = field(default_factory=list)
    io_mb: dict = field(default_factory=dict)


def _failure(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


class Workload:
    name = ""
    why = ""
    heavy = ""  # layer the workload should load heavily
    light = ""  # layer it should load lightly
    root = "job"  # name of the span around one job
    eta_samples = 3
    score_samples = 32

    def __init__(self, shape: Shape) -> None:
        self.shape = shape

    def record(self, seed: int) -> dict:
        s = self.shape
        return {
            "workload": self.name,
            "seed": seed,
            "input": {"m": s.m, "lag": s.lag, "timesteps_per_job": s.nt, "levels": len(s.qs),
                      "a": s.a, "k": s.k, "two_sided": s.two_sided},
            "why": self.why,
            "loads_heavily": self.heavy,
            "loads_lightly": self.light,
        }

    def setup(self, seed: int, workdir: Path) -> dict:
        """Generate and write the inputs, then warm up on a one-step job."""
        workdir.mkdir(parents=True, exist_ok=True)
        data = gen_data(self.shape.sim(seed))
        np.save(workdir / "values.npy", data.values)
        np.save(workdir / "truth.npy", data.truth)
        state = self.load(workdir)
        self.warm_up(state)
        return state

    def load(self, workdir: Path) -> dict:
        return {
            "workdir": workdir,
            "values": np.load(workdir / "values.npy"),
            "truth": np.load(workdir / "truth.npy"),
        }

    def warm_up(self, state: dict) -> None:
        lag = self.shape.lag
        scores = pipeline.lagged_scores(state["values"][:, : lag + 1], prior=DIFFUSE_PRIOR, lag=lag,
                                        two_sided=self.shape.two_sided)
        pipeline.detect(scores, state["truth"][:, lag : lag + 1], self.shape.detect_config(),
                        q_values=self.shape.qs, t_offset=lag)

    def teardown(self, state: dict) -> None:
        pass

    def job(self, state: dict) -> Job:
        raise NotImplementedError

    def check(self, state: dict, op: Op, rng: np.random.Generator) -> list[str]:
        return checks.check_detection(
            state["values"], state["truth"], op.scores, op.report, op.t_cols,
            self.shape.spec, rng, self.eta_samples, self.score_samples,
        )

    def step_seconds(self, job: Job) -> list[float]:
        """Per-timestep latencies of a job: a batch job's time spread over its timesteps."""
        return [job.seconds / self.shape.nt]


class PaperDetect(Workload):
    name = "paper_detect"
    why = ("the detect command users run, on CSV files at the paper's per-timestep shape: "
           "selector-bound, with CSV load and writers behind it")
    heavy = "bfdr"
    light = "special"
    root = "cli"

    def setup(self, seed: int, workdir: Path) -> dict:
        workdir.mkdir(parents=True, exist_ok=True)
        data = gen_data(self.shape.sim(seed))
        save_sim(data, workdir / "input")
        lag = self.shape.lag
        save_sim(replace(data, values=data.values[:, : lag + 1], truth=data.truth[:, : lag + 1]),
                 workdir / "warm")
        state = self.load(workdir)
        state["values"], state["truth"] = data.values, data.truth
        self.warm_up(state)
        return state

    def load(self, workdir: Path) -> dict:
        captured: dict = {}
        originals = {name: getattr(cli, name) for name in ("lagged_scores", "detect")}

        def capture(name):
            def wrapper(*args, **kwargs):
                captured[name] = originals[name](*args, **kwargs)
                return captured[name]
            return wrapper

        # The command keeps its scores and report in memory only; these
        # pass-through wrappers keep a reference so they can be checked.
        for name in originals:
            setattr(cli, name, capture(name))
        return {"workdir": workdir, "captured": captured, "originals": originals,
                "argv": self._argv(workdir / "input", workdir / "out"),
                "warm_argv": self._argv(workdir / "warm", workdir / "warm_out")}

    def teardown(self, state: dict) -> None:
        for name, fn in state["originals"].items():
            setattr(cli, name, fn)

    def _argv(self, in_dir: Path, out_dir: Path) -> list[str]:
        s = self.shape
        argv = ["detect", "--data", str(in_dir / "data.csv"), "--truth", str(in_dir / "truth.csv"),
                "--out", str(out_dir), "--lag", str(s.lag), "--q-grid", ",".join(map(repr, s.qs)),
                "--a", repr(s.a), "--k", str(s.k), "--baseline-etas", "match"]
        if _detect_option("--threads"):
            argv += ["--threads", "1"]
        return argv

    def _run_cli(self, argv: list[str]) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def warm_up(self, state: dict) -> None:
        rc = self._run_cli(state["warm_argv"])
        if rc != 0:
            raise RuntimeError(f"warm-up detect exited with {rc}")

    def job(self, state: dict) -> Job:
        out_dir = state["workdir"] / "out"
        state["captured"].clear()
        t0 = time.perf_counter()
        try:
            rc = self._run_cli(state["argv"])
        except Exception as exc:  # a failed job is counted, and the run goes on
            shutil.rmtree(out_dir, ignore_errors=True)
            return Job(time.perf_counter() - t0, [Op(0.0, error=_failure(exc))])
        seconds = time.perf_counter() - t0
        if rc != 0:
            shutil.rmtree(out_dir, ignore_errors=True)
            return Job(seconds, [Op(seconds, error=f"detect exited with {rc}")])
        in_dir = state["workdir"] / "input"
        io_mb = {
            "load": sum((in_dir / f).stat().st_size for f in ("data.csv", "truth.csv")) / 1e6,
            "write": sum(p.stat().st_size for p in out_dir.iterdir()) / 1e6,
        }
        cap = state["captured"]
        op = Op(seconds, scores=cap["lagged_scores"], report=cap["detect"],
                t_cols=tuple(range(self.shape.lag, self.shape.lag + self.shape.nt)))
        return Job(seconds, [op], io_mb)

    def check(self, state: dict, op: Op, rng: np.random.Generator) -> list[str]:
        out_dir = state["workdir"] / "out"
        try:
            return super().check(state, op, rng) + checks.check_cli_outputs(
                out_dir, op.scores, op.report, self.shape.lag
            )
        finally:
            # the next job must write every file afresh
            shutil.rmtree(out_dir, ignore_errors=True)


class WideScoring(Workload):
    name = "wide_scoring"
    why = ("library scoring of a wide in-memory panel with a long two-sided window and one "
           "cheap level: scoring-bound, no I/O")
    heavy = "pipeline.lagged_scores"
    light = "bfdr"

    def job(self, state: dict) -> Job:
        s = self.shape
        t0 = time.perf_counter()
        try:
            scores = pipeline.lagged_scores(state["values"], prior=DIFFUSE_PRIOR, lag=s.lag,
                                            two_sided=s.two_sided)
            report = pipeline.detect(scores, state["truth"][:, s.lag :], s.detect_config(),
                                     q_values=s.qs, t_offset=s.lag)
        except Exception as exc:
            return Job(time.perf_counter() - t0, [Op(0.0, error=_failure(exc))])
        seconds = time.perf_counter() - t0
        op = Op(seconds, scores=scores, report=report, t_cols=tuple(range(s.lag, s.lag + s.nt)))
        return Job(seconds, [op])


class StreamSmall(Workload):
    name = "stream_small"
    why = ("online monitoring: one small score-and-select call per new timestep, so "
           "per-call overhead dominates and batching gains that cost latency show")
    heavy = "bfdr"
    light = "pipeline.confusion_metrics"
    eta_samples = 1
    score_samples = 8

    def job(self, state: dict) -> Job:
        s = self.shape
        cfg = s.detect_config()
        values, truth = state["values"], state["truth"]
        ops = []
        t_start = time.perf_counter()
        for t in range(s.lag, s.lag + s.nt):
            t0 = time.perf_counter()
            try:
                scores = pipeline.lagged_scores(values[:, t - s.lag : t + 1], prior=DIFFUSE_PRIOR,
                                                lag=s.lag, two_sided=s.two_sided)
                report = pipeline.detect(scores, truth[:, t : t + 1], cfg, q_values=s.qs,
                                         t_offset=t)
            except Exception as exc:
                ops.append(Op(0.0, error=_failure(exc)))
                continue
            ops.append(Op(time.perf_counter() - t0, scores=scores, report=report, t_cols=(t,)))
        return Job(time.perf_counter() - t_start, ops)

    def step_seconds(self, job: Job) -> list[float]:
        return [op.seconds for op in job.ops if op.error is None]


def _detect_option(flag: str) -> bool:
    """Whether the detect subcommand accepts ``flag``.

    ``--threads 1`` is passed only while detect has that option, so the
    benchmark keeps running on a program that drops its thread pool.
    """
    for action in cli.build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            return flag in action.choices["detect"]._option_string_actions
    return False


FULL = {
    PaperDetect: Shape(m=1000, lag=30, nt=6, qs=PAPER_LEVELS, a=2.0, k=1000),
    WideScoring: Shape(m=20000, lag=120, nt=6, qs=(2.0 ** -5,), a=2.0, k=100, two_sided=True),
    StreamSmall: Shape(m=200, lag=30, nt=60, qs=PAPER_LEVELS, a=2.0, k=1000),
}

# Small enough for the benchmark's own test to run every workload in seconds.
TINY = {
    PaperDetect: Shape(m=50, lag=10, nt=3, qs=PAPER_LEVELS[:4], a=2.0, k=50),
    WideScoring: Shape(m=300, lag=20, nt=3, qs=(2.0 ** -5,), a=2.0, k=50, two_sided=True),
    StreamSmall: Shape(m=40, lag=10, nt=4, qs=PAPER_LEVELS[:4], a=2.0, k=50),
}

NAMES = tuple(cls.name for cls in FULL)


def make(name: str, tiny: bool = False) -> Workload:
    for cls, shape in (TINY if tiny else FULL).items():
        if cls.name == name:
            return cls(shape)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
