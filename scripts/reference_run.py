"""The paper-scale reference run, on a parent tree and on this checkout.

Each run simulates the paper's panel (``predfdr simulate --seed 0``: m=1000
series, t=2000, lag 30) and runs CLI ``detect`` on it with every other
option at its default, each in a fresh interpreter.  The two trees run in
alternating order, ``--runs`` rounds of one run each.  The report holds each
run's wall time and peak RSS, the summed wall time of the stages
``predfdr.cli`` calls, their medians per side, and a byte comparison of every
file written against the parent's first run.  Runs use relative paths, so
manifests compare too.

The two runs of a round share the host's load of the moment, so the report
also pairs them: per round, the change/parent ratio of wall time and of peak
RSS, the median of those ratios, and the number of rounds the change won.
On a shared host the per-side medians can drift by more than a change moves
them; the paired ratios resolve what those medians cannot.

    python scripts/reference_run.py --parent HEAD~1 --out BENCH_18.json

The parent tree is extracted from git (``git archive``) into ``--work``.
"""
from __future__ import annotations

import argparse
import filecmp
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

import numpy as np

CHECKOUT = Path(__file__).resolve().parents[1]
SIMULATE = ["simulate", "--out", "sim", "--seed", "0"]
DETECT = ["detect", "--data", "sim/data.csv", "--truth", "sim/truth.csv", "--out", "det"]
STAGES = ("load_matrix_csv", "lagged_scores", "detect", "write_scores_csv", "write_report")

# Runs one subcommand in this interpreter and prints its wall time, peak RSS
# and, for detect, the summed wall time of each stage predfdr.cli calls.
DRIVER = """
import json, resource, sys, time
from predfdr import cli
stages = {name: 0.0 for name in %r}

def timed(name, fn):
    def call(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            stages[name] += time.perf_counter() - t0
    return call

for name in stages:
    setattr(cli, name, timed(name, getattr(cli, name)))
t0 = time.perf_counter()
code = cli.main(sys.argv[1:])
wall = time.perf_counter() - t0
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"code": code, "wall_s": wall, "peak_rss_mb": rss, "stages_s": stages}))
""" % (STAGES,)


def _extract(rev: str, dest: Path) -> Path:
    tar = subprocess.run(
        ["git", "-C", str(CHECKOUT), "archive", rev], check=True, capture_output=True
    ).stdout
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest)
    return dest


def _run(tree: Path, cwd: Path, argv: list) -> dict:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", DRIVER, *argv], cwd=cwd, env=env, capture_output=True, text=True
    )
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv[:1])} failed in {tree}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result.pop("code") != 0:
        raise SystemExit(f"{argv[0]} exited non-zero in {tree}:\n{proc.stderr}")
    return result


def _one_run(tree: Path, cwd: Path) -> dict:
    shutil.rmtree(cwd, ignore_errors=True)
    cwd.mkdir(parents=True)
    sim = _run(tree, cwd, SIMULATE)
    det = _run(tree, cwd, DETECT)
    return {
        "wall_s": round(det["wall_s"], 3),
        "peak_rss_mb": round(det["peak_rss_mb"], 1),
        "stages_s": {k: round(v, 3) for k, v in det["stages_s"].items()},
        "simulate": {
            "wall_s": round(sim["wall_s"], 3),
            "peak_rss_mb": round(sim["peak_rss_mb"], 1),
        },
    }


def _median(runs: list) -> dict:
    def med(get, digits):
        return round(statistics.median(get(r) for r in runs), digits)

    return {
        "wall_s": med(lambda r: r["wall_s"], 3),
        "peak_rss_mb": med(lambda r: r["peak_rss_mb"], 1),
        "stages_s": {s: med(lambda r: r["stages_s"][s], 3) for s in STAGES},
        "simulate": {
            "wall_s": med(lambda r: r["simulate"]["wall_s"], 3),
            "peak_rss_mb": med(lambda r: r["simulate"]["peak_rss_mb"], 1),
        },
    }


def _paired(runs: dict) -> dict:
    """Per round, the change's wall time and peak RSS over the parent's; the
    median ratio, and the rounds the change won (a ratio below 1)."""
    paired = {}
    for key in ("wall_s", "peak_rss_mb"):
        ratios = [c[key] / p[key] for p, c in zip(runs["parent"], runs["change"])]
        paired[key] = {
            "change_over_parent": [round(r, 4) for r in ratios],
            "median_ratio": round(statistics.median(ratios), 4),
            "rounds_change_won": sum(r < 1.0 for r in ratios),
        }
    return paired


def _files(root: Path) -> list:
    return sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent tree")
    ap.add_argument("--runs", type=int, default=10, help="rounds, each one run per side")
    ap.add_argument("--work", default="reference_run.work", help="scratch directory")
    ap.add_argument("--out", default=None, help="JSON report path (default: stdout)")
    ap.add_argument("--finding", default=None, help="one-line reading of the numbers")
    args = ap.parse_args(argv)

    work = Path(args.work).resolve()
    trees = {"parent": _extract(args.parent, work / "parent-tree"), "change": CHECKOUT}
    runs = {"parent": [], "change": []}
    dirs = {"parent": [], "change": []}
    for i in range(args.runs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            cwd = work / f"{side}-{i}"
            runs[side].append(_one_run(trees[side], cwd))
            dirs[side].append(cwd)
            print(f"{side} run {i}: {runs[side][-1]}", file=sys.stderr)

    reference = dirs["parent"][0]
    names = _files(reference)
    differ = [
        f"{d.name}/{name}"
        for side in ("parent", "change")
        for d in dirs[side]
        for name in sorted(set(names) | set(_files(d)))
        if not (d / name).is_file()
        or not (reference / name).is_file()
        or not filecmp.cmp(d / name, reference / name, shallow=False)
    ]
    order = ", ".join(
        "(parent, change)" if i % 2 == 0 else "(change, parent)" for i in range(args.runs)
    )
    report = {
        "reference_run": {
            "input": "predfdr simulate --seed 0 (m=1000 series, t=2000, lag 30, rate 0.025)",
            "command": (
                "predfdr detect --data data.csv --truth truth.csv, every other option at its "
                "default (lag 30, levels 2^-1..2^-15, a=2, k=1000, match baselines)"
            ),
            "timing": (
                "wall_s is main() end to end in a fresh interpreter; each stage is the summed "
                "wall time of the calls predfdr.cli makes to it (load_matrix_csv covers "
                "data.csv and truth.csv), timed by wrapping those module attributes; "
                "peak_rss_mb is resource.getrusage(RUSAGE_SELF).ru_maxrss of that interpreter; "
                "simulate is timed the same way in an interpreter of its own"
            ),
            "host": (
                f"{os.cpu_count()} cores, Python {platform.python_version()}, "
                f"numpy {np.__version__}"
            ),
            "runs": f"{args.runs} per side, in {args.runs} rounds alternating the order ({order})",
            "paired": (
                "per round, the change's wall_s and peak_rss_mb over the parent's in the same "
                "round; the median of those ratios, and the rounds the change won (ratio < 1)"
            ),
            "outputs": (
                f"the {len(names)} files of every run (simulate's and detect's, manifests "
                "included) compared (cmp) with the parent's first run: "
                + (f"{len(differ)} differ" if differ else "all byte-identical")
            ),
            "differing_files": differ,
        },
        "paired": _paired(runs),
        "parent": {"median": _median(runs["parent"]), "runs": runs["parent"]},
        "change": {"median": _median(runs["change"]), "runs": runs["change"]},
    }
    if args.finding:
        report["reference_run"]["finding"] = args.finding
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
