"""The paper-scale reference run, on a parent tree and on this checkout.

Each run simulates the paper's panel (``predfdr simulate --seed 0``: m=1000
series, t=2000, lag 30) and runs CLI ``detect`` on it with every other
option at its default, each in a fresh interpreter.  The two trees run in
alternating order, ``--runs`` rounds of one run each.  The report holds each
run's wall time, peak RSS and minor page faults, the summed wall time of the stages
``predfdr.cli`` calls (those of ``STAGES`` the tree's ``predfdr.cli`` has),
their medians per side, and a byte comparison of every file written against
the parent's first run.  Runs use relative paths, so manifests compare too.

The two runs of a round share the host's load of the moment, so the report
also pairs them: per round, the change/parent ratio of wall time, of peak
RSS, of minor page faults and of each stage both trees time, and of ``csv_loads``, the summed
time of the ``load_*`` stages (every CSV read); the median of those ratios,
and the number of rounds the change won.
On a shared host the per-side medians can drift by more than a change moves
them; the paired ratios resolve what those medians cannot.  Each child also
times a fixed task that uses nothing of predfdr before it runs, and its
paired ratio, ``control``, shows when a whole batch's ratios shift together.
The report also records each tree's line count of ``src/predfdr/*.py``.

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
STAGES = (
    "load_matrix_csv",
    "load_truth_csv",
    "lagged_scores",
    "detect",
    "write_scores_csv",
    "write_report",
)

# A fixed task that uses nothing of predfdr, timed in each child just before
# cli.main.  Its paired ratio is the batch's control: a shift of the host's
# speed that moves every stage's ratio at once moves this one too.  Its
# arrays (64 KiB) stay below the allocator's mmap threshold, and it does not
# load numpy.random (about 5.7 MB), so the run's peak RSS does not move.
CONTROL = """
import numpy as np
x = (np.arange(2**13) * 7919 % 8191).astype(float)  # 2**13 values, scrambled
for _ in range(200):
    np.sort(x)
sum(i * i for i in range(2**20))
"""

# Runs one subcommand in this interpreter and prints its wall time, peak RSS,
# the minor page faults main() took, the control task's time and, for detect,
# the summed wall time of each stage predfdr.cli calls.
DRIVER = """
import json, resource, sys, time
from predfdr import cli
stages = {name: 0.0 for name in %r if hasattr(cli, name)}

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
exec(%r, {})
control = time.perf_counter() - t0
flt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
t0 = time.perf_counter()
code = cli.main(sys.argv[1:])
wall = time.perf_counter() - t0
usage = resource.getrusage(resource.RUSAGE_SELF)
print(json.dumps({"code": code, "wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024,
                  "minflt": usage.ru_minflt - flt, "control_s": control, "stages_s": stages}))
""" % (STAGES, CONTROL)


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
        "minflt": det["minflt"],
        "control_s": round(det["control_s"], 4),
        "stages_s": {k: round(v, 4) for k, v in det["stages_s"].items()},
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
        "minflt": med(lambda r: r["minflt"], 1),
        "control_s": med(lambda r: r["control_s"], 4),
        "stages_s": {s: med(lambda r: r["stages_s"][s], 4) for s in runs[0]["stages_s"]},
        "simulate": {
            "wall_s": med(lambda r: r["simulate"]["wall_s"], 3),
            "peak_rss_mb": med(lambda r: r["simulate"]["peak_rss_mb"], 1),
        },
    }


def _paired(runs: dict) -> dict:
    """Per round, the change's wall time, peak RSS, minor page faults and
    control time (where the runs record them) and time in each stage over
    the parent's; the median
    ratio, and the rounds the change won (a ratio below 1).  Stages are
    those both trees time, and csv_loads."""
    rounds = list(zip(runs["parent"], runs["change"]))

    def pair(get) -> dict:
        ratios = [get(c) / get(p) for p, c in rounds]
        return {
            "change_over_parent": [round(r, 4) for r in ratios],
            "median_ratio": round(statistics.median(ratios), 4),
            "rounds_change_won": sum(r < 1.0 for r in ratios),
        }

    def csv_loads(run: dict) -> float:
        return sum(v for name, v in run["stages_s"].items() if name.startswith("load_"))

    parent, change = (side["stages_s"] for side in rounds[0])
    stages = {s: pair(lambda r, s=s: r["stages_s"][s]) for s in change if s in parent}
    paired = {name: pair(lambda r, name=name: r[name]) for name in ("wall_s", "peak_rss_mb")}
    if "minflt" in rounds[0][0]:
        paired["minflt"] = pair(lambda r: r["minflt"])
    if "control_s" in rounds[0][0]:
        paired["control"] = pair(lambda r: r["control_s"])
    return {**paired, "stages_s": {**stages, "csv_loads": pair(csv_loads)}}


def _src_lines(tree: Path) -> int:
    """Lines of the tree's src/predfdr/*.py, as wc -l counts them."""
    return sum(p.read_bytes().count(b"\n") for p in (tree / "src" / "predfdr").glob("*.py"))


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
                "data.csv, and truth.csv too where the tree has no load_truth_csv), timed by "
                "wrapping those module attributes; "
                "peak_rss_mb is resource.getrusage(RUSAGE_SELF).ru_maxrss of that interpreter, "
                "and minflt the growth of its ru_minflt (minor page faults) during main(); "
                "simulate is timed the same way in an interpreter of its own"
            ),
            "host": (
                f"{os.cpu_count()} cores, Python {platform.python_version()}, "
                f"numpy {np.__version__}"
            ),
            "runs": f"{args.runs} per side, in {args.runs} rounds alternating the order ({order})",
            "control": (
                "control_s is a fixed numpy sort and Python loop that uses nothing of predfdr, "
                "timed in the detect interpreter just before main(); its paired ratio shows a "
                "shift of the host's speed that moves every stage's ratio at once"
            ),
            "paired": (
                "per round, the change's wall_s, peak_rss_mb, minflt, control_s and time in each "
                "stage both trees time over the parent's in the same round (csv_loads sums the "
                "load_* stages, every CSV read); the median of those ratios, and the rounds the "
                "change won (ratio < 1)"
            ),
            "outputs": (
                f"the {len(names)} files of every run (simulate's and detect's, manifests "
                "included) compared (cmp) with the parent's first run: "
                + (f"{len(differ)} differ" if differ else "all byte-identical")
            ),
            "differing_files": differ,
            "src_lines": {side: _src_lines(tree) for side, tree in trees.items()},
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
