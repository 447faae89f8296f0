"""Command line surface: grid parsing, subcommand runs, manifests, exit codes."""
import json
import os
import re

import numpy as np
import pytest

from predfdr.cli import build_parser, main, parse_level_grid


def run_simulate(out, extra=()):
    argv = [
        "simulate",
        "--out",
        str(out),
        "--m",
        "15",
        "--t",
        "50",
        "--lag",
        "8",
        "--rate",
        "0.1",
        "--seed",
        "3",
    ]
    argv.extend(extra)
    return main(argv)


# ------------------------------------------------------------- grid parsing


def test_parse_level_grid_range():
    assert parse_level_grid("2^-1..2^-4") == [0.5, 0.25, 0.125, 0.0625]


def test_parse_level_grid_descending_range():
    assert parse_level_grid("2^-4..2^-1") == [0.0625, 0.125, 0.25, 0.5]


def test_parse_level_grid_commas_and_powers():
    assert parse_level_grid("0.3,0.05") == [0.3, 0.05]
    assert parse_level_grid("2^-3") == [0.125]
    assert parse_level_grid("10^-2,0.5") == [0.01, 0.5]


def test_parse_level_grid_errors():
    with pytest.raises(ValueError):
        parse_level_grid("2^-1..3^-5")  # mixed bases
    with pytest.raises(ValueError):
        parse_level_grid("0.1..0.5")  # ranges need explicit powers
    # every message names the option and the text that failed
    for spec, expect in [
        ("2^-1..2^-1.5", "--q-grid '2^-1..2^-1.5': '-1.5' is not an integer"),
        ("2^-1..2^-3..2^-4", "--q-grid '2^-1..2^-3..2^-4': a range is two base^exponent"),
        ("0.1,abc", "--q-grid '0.1,abc': 'abc' is not a number"),
    ]:
        with pytest.raises(ValueError, match=re.escape(expect)):
            parse_level_grid(spec)
    with pytest.raises(ValueError, match=re.escape("--baseline-etas '2^x': 'x' is not a number")):
        parse_level_grid("2^x", "--baseline-etas")


# ---------------------------------------------------------------- simulate


def test_simulate_writes_panel(tmp_path, capsys):
    assert run_simulate(tmp_path) == 0
    for name in ("data.csv", "truth.csv", "simspec.json", "manifest.json"):
        assert (tmp_path / name).exists()
    spec = json.loads((tmp_path / "simspec.json").read_text())
    assert spec["m"] == 15 and spec["t_len"] == 50
    out = capsys.readouterr().out
    assert "wrote" in out


def test_simulate_manifest_is_replayable(tmp_path):
    first = tmp_path / "a"
    second = tmp_path / "b"
    assert run_simulate(first) == 0
    manifest = json.loads((first / "manifest.json").read_text())
    assert manifest["subcommand"] == "simulate"
    assert sorted(manifest) == ["config", "outputs", "subcommand", "tool", "version"]
    # replay into a fresh directory and compare bytes
    manifest["config"]["out"] = str(second)
    replay = tmp_path / "replay.json"
    replay.write_text(json.dumps(manifest))
    assert main(["simulate", "--from-manifest", str(replay)]) == 0
    assert (second / "data.csv").read_bytes() == (first / "data.csv").read_bytes()
    assert (second / "truth.csv").read_bytes() == (first / "truth.csv").read_bytes()


def test_simulate_honours_out_env(tmp_path, monkeypatch):
    monkeypatch.setenv("PREDFDR_OUT", str(tmp_path))
    argv = ["simulate", "--m", "5", "--t", "30", "--lag", "5", "--seed", "1"]
    assert main(argv) == 0
    assert (tmp_path / "data.csv").exists()


# ------------------------------------------------------------------- detect


def detect_argv(data_dir, out, extra=()):
    argv = [
        "detect",
        "--data",
        str(data_dir / "data.csv"),
        "--truth",
        str(data_dir / "truth.csv"),
        "--out",
        str(out),
        "--lag",
        "8",
        "--q-grid",
        "2^-1..2^-4",
        "--k",
        "100",
        "--threads",
        "2",
    ]
    argv.extend(extra)
    return argv


def test_detect_end_to_end(tmp_path, capsys):
    sim = tmp_path / "sim"
    out = tmp_path / "det"
    assert run_simulate(sim) == 0
    assert main(detect_argv(sim, out)) == 0
    for name in (
        "scores.csv",
        "thresholds.csv",
        "flags.csv",
        "metrics.csv",
        "diff.csv",
        "manifest.json",
    ):
        assert (out / name).exists()
    assert "scored 42 timesteps x 15 series" in capsys.readouterr().out
    scores = np.loadtxt(out / "scores.csv", delimiter=",", skiprows=1)
    assert scores.shape == (15, 42)
    assert np.all((scores >= 0.0) & (scores <= 1.0))


def test_detect_without_truth_warns_and_skips_metrics(tmp_path, capsys):
    sim = tmp_path / "sim"
    out = tmp_path / "det"
    assert run_simulate(sim) == 0
    argv = detect_argv(sim, out)
    ix = argv.index("--truth")
    del argv[ix : ix + 2]
    assert main(argv) == 0
    err = capsys.readouterr().err
    assert "no truth supplied" in err
    assert not (out / "metrics.csv").exists()
    assert (out / "thresholds.csv").exists()


def test_detect_replay_from_manifest_is_byte_identical(tmp_path):
    sim = tmp_path / "sim"
    out1 = tmp_path / "d1"
    assert run_simulate(sim) == 0
    assert main(detect_argv(sim, out1)) == 0
    manifest = json.loads((out1 / "manifest.json").read_text())
    replay = tmp_path / "replay.json"
    # manifests written while detect had --algorithm carry that key; every
    # route gave the same thresholds, so replay ignores it
    for i, extra in enumerate(({}, {"algorithm": "vectorized"})):
        out2 = tmp_path / f"d{i + 2}"
        manifest["config"].update(extra, out=str(out2))
        replay.write_text(json.dumps(manifest))
        assert main(["detect", "--from-manifest", str(replay)]) == 0
        for name in ("scores.csv", "thresholds.csv", "flags.csv", "metrics.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_detect_requires_data(tmp_path, capsys):
    assert main(["detect", "--out", str(tmp_path)]) == 1
    assert "error" in capsys.readouterr().err


def test_detect_missing_file_is_usage_error(tmp_path):
    assert (
        main(["detect", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
        == 1
    )


def test_detect_mismatched_truth_shape(tmp_path):
    sim = tmp_path / "sim"
    other = tmp_path / "other"
    assert run_simulate(sim) == 0
    assert main(["simulate", "--out", str(other), "--m", "4", "--t", "50"]) == 0
    argv = detect_argv(sim, tmp_path / "det")
    argv[argv.index("--truth") + 1] = str(other / "truth.csv")
    assert main(argv) == 1


@pytest.mark.parametrize(
    "option, grid, expect",
    [
        pytest.param("--q-grid", ",", "--q-grid", id=","),
        pytest.param("--q-grid", "0.25,1.5", "q=1.5", id="0.25,1.5"),
        pytest.param(
            "--q-grid", "2^-1..2^-1.5", "--q-grid '2^-1..2^-1.5': '-1.5' is not an integer",
            id="2^-1..2^-1.5",
        ),
        pytest.param(
            "--q-grid", "2^-1..2^-3..2^-4", "--q-grid '2^-1..2^-3..2^-4': a range is two",
            id="2^-1..2^-3..2^-4",
        ),
        pytest.param(
            "--q-grid", "0.1,abc", "--q-grid '0.1,abc': 'abc' is not a number", id="0.1,abc"
        ),
        pytest.param(
            "--baseline-etas", "2^x", "--baseline-etas '2^x': 'x' is not a number",
            id="baseline-etas=2^x",
        ),
        pytest.param(
            "--prior", "0,x,1,1", "--prior '0,x,1,1': 'x' is not a number", id="prior=0,x,1,1"
        ),
    ],
)
def test_detect_bad_level_grid_fails_before_scoring(
    tmp_path, capsys, monkeypatch, option, grid, expect
):
    sim = tmp_path / "sim"
    assert run_simulate(sim) == 0

    def no_scoring(*args, **kwargs):
        raise AssertionError("scored before the levels were checked")

    monkeypatch.setattr("predfdr.cli.lagged_scores", no_scoring)
    argv = detect_argv(sim, tmp_path / "det")
    if option in argv:
        argv[argv.index(option) + 1] = grid
    else:
        argv.extend([option, grid])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert expect in err
    assert not (tmp_path / "det").exists()


@pytest.mark.parametrize("cell", ["0.5", "7", "nan"])
def test_detect_rejects_non_binary_truth(tmp_path, capsys, cell):
    sim = tmp_path / "sim"
    assert run_simulate(sim) == 0
    lines = (sim / "truth.csv").read_text().splitlines()
    row = lines[3].split(",")
    row[5] = cell
    lines[3] = ",".join(row)
    (sim / "truth.csv").write_text("\n".join(lines) + "\n")
    assert main(detect_argv(sim, tmp_path / "det")) == 1
    err = capsys.readouterr().err
    assert "row 3, column 6" in err and "not 0 or 1" in err


def test_detect_threads_default_follows_affinity(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert build_parser().parse_args(["detect"]).threads == 1
    # where affinity is unknown, every host CPU counts
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert build_parser().parse_args(["detect"]).threads == 8


# -------------------------------------------------------------------- bench


def test_bench_cli_smoke(tmp_path, capsys):
    argv = [
        "bench",
        "--out",
        str(tmp_path),
        "--replications",
        "4",
        "--m",
        "30",
        "--k",
        "20,40",
        "--seed",
        "2",
    ]
    assert main(argv) == 0
    assert (tmp_path / "bench.csv").exists()
    assert (tmp_path / "bench_summary.csv").exists()
    out = capsys.readouterr().out
    assert "looped" in out and "vectorized" in out
    argv[argv.index("--k") + 1] = "10,x"
    assert main(argv) == 1
    assert "--k '10,x': 'x' is not an integer" in capsys.readouterr().err


# ----------------------------------------------------------------- validate


def test_validate_quick_passes(capsys):
    assert main(["validate", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln]
    assert lines and all(ln.startswith("PASS") for ln in lines)


# --------------------------------------------------------------- exit codes


def test_no_subcommand_is_usage_error():
    assert main([]) == 1


def test_unknown_flag_is_usage_error(capsys):
    assert main(["simulate", "--definitely-not-a-flag"]) == 1
    err = capsys.readouterr().err
    assert "predfdr: error: " in err and "--definitely-not-a-flag" in err
    assert main(["simulate", "--prior", "0"]) == 1  # a detect option
    assert "--prior 0" in capsys.readouterr().err


def test_bad_grid_spec_is_usage_error(tmp_path, capsys):
    sim = tmp_path / "sim"
    assert run_simulate(sim) == 0
    argv = detect_argv(sim, tmp_path / "det")
    argv[argv.index("--q-grid") + 1] = "2^-1..7^-9"
    assert main(argv) == 1
    assert "error" in capsys.readouterr().err


def test_version_exits_cleanly(capsys):
    assert main(["--version"]) == 0
    capsys.readouterr()
