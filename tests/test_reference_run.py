"""The paired ratios, line counts and stage names of scripts/reference_run.py."""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from predfdr import cli

path = Path(__file__).resolve().parents[1] / "scripts" / "reference_run.py"
spec = importlib.util.spec_from_file_location("reference_run", path)
reference_run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(reference_run)


def run(wall, rss, **stages):
    return {"wall_s": wall, "peak_rss_mb": rss, "stages_s": stages}


def test_paired_ratios_cover_every_stage_both_trees_time():
    # the parent reads truth.csv inside load_matrix_csv, the change in a stage
    # of its own: each common stage is paired, and csv_loads sums the loads
    runs = {
        "parent": [
            run(4.0, 100.0, load_matrix_csv=1.0, detect=2.0),
            run(5.0, 100.0, load_matrix_csv=1.0, detect=4.0),
        ],
        "change": [
            run(3.0, 100.0, load_matrix_csv=0.5, load_truth_csv=0.25, detect=1.0),
            run(6.0, 90.0, load_matrix_csv=0.5, load_truth_csv=0.75, detect=4.0),
        ],
    }
    paired = reference_run._paired(runs)
    assert paired["wall_s"] == {
        "change_over_parent": [0.75, 1.2],
        "median_ratio": pytest.approx(0.975),
        "rounds_change_won": 1,
    }
    assert paired["peak_rss_mb"]["change_over_parent"] == [1.0, 0.9]
    assert paired["peak_rss_mb"]["rounds_change_won"] == 1
    stages = paired["stages_s"]
    assert list(stages) == ["load_matrix_csv", "detect", "csv_loads"]
    assert stages["load_matrix_csv"]["change_over_parent"] == [0.5, 0.5]
    assert stages["detect"]["change_over_parent"] == [0.5, 1.0]
    assert stages["detect"]["rounds_change_won"] == 1
    assert stages["csv_loads"]["change_over_parent"] == [0.75, 1.25]


def test_paired_control_ratio():
    # the control task's time pairs like a stage, as paired.control
    runs = {
        "parent": [dict(run(4.0, 100.0, load_matrix_csv=1.0), control_s=0.2),
                   dict(run(5.0, 100.0, load_matrix_csv=1.0), control_s=0.4)],
        "change": [dict(run(3.0, 100.0, load_matrix_csv=1.0), control_s=0.3),
                   dict(run(6.0, 90.0, load_matrix_csv=1.0), control_s=0.2)],
    }
    paired = reference_run._paired(runs)
    assert paired["control"] == {
        "change_over_parent": [1.5, 0.5],
        "median_ratio": 1.0,
        "rounds_change_won": 1,
    }
    assert list(paired) == ["wall_s", "peak_rss_mb", "control", "stages_s"]


def test_paired_minor_page_fault_ratio():
    # each run's minor page faults pair like its peak RSS, as paired.minflt,
    # and the per-side median holds them too
    runs = {
        "parent": [dict(run(4.0, 100.0, load_matrix_csv=1.0), minflt=800, control_s=0.2),
                   dict(run(5.0, 100.0, load_matrix_csv=1.0), minflt=700, control_s=0.2)],
        "change": [dict(run(3.0, 100.0, load_matrix_csv=1.0), minflt=200, control_s=0.2),
                   dict(run(6.0, 90.0, load_matrix_csv=1.0), minflt=875, control_s=0.2)],
    }
    paired = reference_run._paired(runs)
    assert paired["minflt"] == {
        "change_over_parent": [0.25, 1.25],
        "median_ratio": 0.75,
        "rounds_change_won": 1,
    }
    assert list(paired) == ["wall_s", "peak_rss_mb", "minflt", "control", "stages_s"]
    for side in runs.values():
        for r in side:
            r["simulate"] = {"wall_s": 1.0, "peak_rss_mb": 50.0}
    assert reference_run._median(runs["parent"])["minflt"] == 750.0


def test_each_child_times_a_control_task_that_uses_nothing_of_predfdr(tmp_path):
    # in a fresh interpreter the task imports no predfdr module; each child
    # reports its time next to the subcommand's
    probe = reference_run.CONTROL + "import sys\nprint([m for m in sys.modules if 'predfdr' in m])"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
    env = {**os.environ, "PYTHONPATH": str(path.parents[1] / "src")}
    argv = ["simulate", "--out", "sim", "--m", "3", "--t", "12", "--lag", "4"]
    proc = subprocess.run([sys.executable, "-c", reference_run.DRIVER, *argv], cwd=tmp_path,
                          env=env, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["code"] == 0 and result["control_s"] > 0.0
    # the subcommand's minor page faults are recorded beside its peak RSS
    assert isinstance(result["minflt"], int) and result["minflt"] >= 0


def test_src_lines_count_each_tree_s_package_modules(tmp_path):
    # every line of src/predfdr/*.py, a last line without LF uncounted as
    # wc -l does; nothing outside the package's own directory counts
    parent, change = tmp_path / "parent", tmp_path / "change"
    for tree, texts in ((parent, ["a\nb\n", "c\n"]), (change, ["a\n", "b\nc"])):
        pkg = tree / "src" / "predfdr"
        (pkg / "sub").mkdir(parents=True)
        for i, text in enumerate(texts):
            (pkg / f"m{i}.py").write_text(text)
        (pkg / "sub" / "deep.py").write_text("x\n" * 5)
        (pkg / "notes.txt").write_text("y\n" * 7)
        (tree / "scripts").mkdir()
        (tree / "scripts" / "run.py").write_text("z\n" * 3)
    assert reference_run._src_lines(parent) == 3
    assert reference_run._src_lines(change) == 2


def test_every_stage_is_a_callable_of_predfdr_cli():
    # the driver times only the STAGES names predfdr.cli has, and skips the
    # rest silently, so a renamed stage would drop out of the record
    for name in reference_run.STAGES:
        assert callable(getattr(cli, name, None)), name
