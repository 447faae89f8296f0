"""The benchmark's own test: tiny versions of every workload.

    python3 -m pytest perfbench/test_perfbench.py -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import env

env.import_program()

import predfdr.pipeline  # noqa: E402
import predfdr.special  # noqa: E402
from predfdr.bfdr import ThresholdResult  # noqa: E402

import workloads  # noqa: E402

BENCHMARK = json.loads((env.ROOT / "BENCHMARK.json").read_text())
RUN = env.HERE / "run.py"


def run_bench(workload: str, trace: int, seed: int = 3):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=env.ROOT)


def last_json(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_prints_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    table = {line.split()[0]: line.split()[1:] for line in proc.stdout.splitlines()[:-1]
             if not line.startswith("#")}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert table[m["name"]][-1] == m["unit"]
    if not trace:
        assert table["error_rate"] == ["0", "ratio"]
        assert table["host_scale_p50"][-1] == "ratio"


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_counts_repeat_exactly_across_runs(workload):
    counts = []
    for _ in range(2):
        proc = run_bench(workload, trace=1, seed=5)
        assert proc.returncode == 0, proc.stderr
        metrics = last_json(proc)["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["bfdr.gbfdr_calls"] > 0


def wrong_selector(original):
    """Selector that returns a threshold one grid step off the right one."""

    def selector(batch, cfg):
        res = original(batch, cfg)
        index = res.index - 1 if res.feasible and res.index > 0 else cfg.k // 2
        return ThresholdResult(index / cfg.k, index, True)

    return selector


def shifted_cdf(original):
    def cdf(x, dof, *args, **kwargs):
        return np.clip(original(x, dof, *args, **kwargs) + 1e-6, 0.0, 1.0)

    return cdf


def flipped_flags(original):
    def flags(rates, result, *args, **kwargs):
        out = original(rates, result, *args, **kwargs).copy()
        out.flat[0] = not out.flat[0]
        return out

    return flags


MUTATIONS = {
    "selector": (predfdr.pipeline, "gbfdr", wrong_selector, "looped reference"),
    "t_cdf": (predfdr.special, "student_t_cdf", shifted_cdf, "differs from scipy"),
    "flags": (predfdr.pipeline, "threshold_flags", flipped_flags, "break the rule"),
}


def failures(workload: str, tmp_path: Path) -> list[str]:
    wl = workloads.make(workload, tiny=True)
    state = wl.setup(seed=2, workdir=tmp_path)
    try:
        rng = np.random.default_rng(0)
        job = wl.job(state)
        return [f for op in job.ops for f in ([op.error] if op.error else wl.check(state, op, rng))]
    finally:
        wl.teardown(state)


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_checks_pass_on_the_program(workload, tmp_path):
    assert failures(workload, tmp_path) == []


@pytest.mark.parametrize("workload", workloads.NAMES)
@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_checks_catch_a_broken_layer(workload, mutation, tmp_path, monkeypatch):
    module, attr, make_wrong, message = MUTATIONS[mutation]
    monkeypatch.setattr(module, attr, make_wrong(getattr(module, attr)))
    found = failures(workload, tmp_path)
    assert any(message in f for f in found), found


def test_fails_without_the_program(tmp_path):
    shutil.copy(env.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(env.HERE, tmp_path / env.HERE.name,
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / env.HERE.name / "run.py"), "--workload", "paper_detect",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_workload_records_match_benchmark_json():
    declared = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}
    assert declared == {cls.name: cls.why for cls in workloads.FULL}
