"""The paired ratios of scripts/reference_run.py."""
import importlib.util
from pathlib import Path

import pytest

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
