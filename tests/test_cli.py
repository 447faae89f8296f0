"""Command line surface: grid parsing, subcommand runs, manifests, exit codes."""
import json
import re

import numpy as np
import pytest

from predfdr.bench import BenchSpec, reference_spec
from predfdr.bfdr import BfdrConfig
from predfdr.cli import _config_from_args, _spec, build_parser, main, parse_level_grid
from predfdr.pipeline import DIFFUSE_PRIOR, DetectConfig
from predfdr.predictive import NigParams
from predfdr.simgen import SimSpec


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
    # manifests written while detect had --algorithm or --threads carry
    # those keys; every route and thread count gave the same outputs, so
    # replay ignores them
    old = ({"algorithm": "vectorized"}, {"threads": 2}, {"algorithm": "looped", "threads": 1})
    for i, extra in enumerate(({}, *old)):
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
        pytest.param("--c1", "nan", "c1 must be >= 0, not nan", id="c1=nan"),
        pytest.param("--c1", "-1", "c1 must be >= 0, not -1.0", id="c1=-1"),
    ],
)
def test_detect_bad_level_grid_fails_before_scoring(
    tmp_path, capsys, monkeypatch, option, grid, expect
):
    sim = tmp_path / "sim"
    assert run_simulate(sim) == 0

    def no_scoring(*args, **kwargs):
        raise AssertionError("scored before the levels were checked")

    def no_input(*args, **kwargs):
        raise AssertionError("read input before the settings were checked")

    monkeypatch.setattr("predfdr.cli.lagged_scores", no_scoring)
    monkeypatch.setattr("predfdr.cli.load_matrix_csv", no_input)
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


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_detect_names_non_finite_data_cell(tmp_path, capsys, monkeypatch, cell):
    sim = tmp_path / "sim"
    assert run_simulate(sim) == 0
    lines = (sim / "data.csv").read_text().splitlines()
    row = lines[4].split(",")
    row[17] = cell
    lines[4] = ",".join(row)
    (sim / "data.csv").write_text("\n".join(lines) + "\n")

    def no_scoring(*args, **kwargs):
        raise AssertionError("scored a panel with a non-finite cell")

    monkeypatch.setattr("predfdr.cli.lagged_scores", no_scoring)
    assert main(detect_argv(sim, tmp_path / "det")) == 1
    err = capsys.readouterr().err
    assert f"error: {sim / 'data.csv'}: row 4, column 18: {cell} is not finite" in err
    assert not (tmp_path / "det").exists()


def test_detect_threads_is_usage_error(tmp_path, capsys):
    # the pipeline runs on one thread; the option is gone, not ignored
    sim = tmp_path / "sim"
    assert run_simulate(sim) == 0
    assert main(detect_argv(sim, tmp_path / "det", ["--threads", "2"])) == 1
    err = capsys.readouterr().err
    assert "predfdr: error: " in err and "--threads 2" in err
    assert not (tmp_path / "det").exists()


# ---------------------------------------------------------------- manifests


def test_manifest_config_frozen(tmp_path):
    # old manifests replay only while every key keeps its name and order
    sim = tmp_path / "sim"
    extra = ["--mean-params", "1,2,3", "--sd-inlier", "0.25,1", "--sd-outlier", "2,4"]
    assert run_simulate(sim, extra) == 0
    extra = ["--prior", "0,0.001,0.5,0.5", "--c1", "0.3", "--two-sided"]
    assert main(detect_argv(sim, tmp_path / "det", extra)) == 0
    argv = ["bench", "--out", str(tmp_path / "bench"), "--replications", "2", "--m", "20"]
    assert main([*argv, "--k", "20,40", "--seed", "2"]) == 0
    config = {
        sub: json.loads((tmp_path / sub / "manifest.json").read_text())["config"]
        for sub in ("sim", "det", "bench")
    }
    assert " ".join(config["sim"]) == (
        "out m t_len lag rate seed mean_params sd_inlier sd_outlier recenter"
    )
    assert " ".join(config["det"]) == (
        "out data truth lag prior q_values a k c1 baseline_etas orientation two_sided"
    )
    assert " ".join(config["bench"]) == "out replications m a q k_values seed paper"
    assert config["sim"]["mean_params"] == [1.0, 2.0, 3.0]
    assert config["sim"]["sd_inlier"] == [0.25, 1.0]
    assert config["sim"]["sd_outlier"] == [2.0, 4.0]
    assert config["det"]["prior"] == [0.0, 0.001, 0.5, 0.5]
    assert config["det"]["q_values"] == [0.5, 0.25, 0.125, 0.0625]
    assert config["bench"]["k_values"] == [20, 40]


def test_cli_defaults_are_the_librarys(capsys):
    # each default is declared once, by the library: a changed library
    # default changes the CLI's, and the specs are built as the runs build them
    parser = build_parser()
    config = {
        sub: _config_from_args(parser.parse_args([sub])) for sub in ("simulate", "detect", "bench")
    }
    assert _spec(SimSpec, config["simulate"]) == SimSpec()
    assert _spec(BenchSpec, config["bench"]) == BenchSpec()
    det = config["detect"]
    assert NigParams(*det["prior"]) == DIFFUSE_PRIOR
    assert (det["k"], det["c1"], det["orientation"]) == (
        BfdrConfig.k, DetectConfig.c1, DetectConfig.orientation
    )
    assert det["lag"] == config["simulate"]["lag"] == SimSpec.lag
    ref = reference_spec()
    assert main(["bench", "--help"]) == 0
    assert (
        f"reference configuration: {ref.replications} replications, m={ref.m}, "
        f"a={ref.a:g}, q={ref.q:g}, k={ref.k_values[0]}"
    ) in " ".join(capsys.readouterr().out.split())


def test_replay_rejects_other_subcommand_or_options(tmp_path, capsys):
    # a replay that ran another subcommand, or dropped a typed option, would
    # exit 0 having done something other than what was asked
    sim = tmp_path / "sim"
    assert run_simulate(sim) == 0
    before = (sim / "data.csv").stat().st_mtime_ns
    manifest = str(sim / "manifest.json")
    assert main(["detect", "--from-manifest", manifest]) == 1
    assert f"--from-manifest {manifest} replays simulate" in capsys.readouterr().err
    for extra in (["--m", "3"], [f"--out={tmp_path / 'elsewhere'}"]):
        assert main(["simulate", "--from-manifest", manifest, *extra]) == 1
        assert f"got simulate {extra[0].partition('=')[0]}" in capsys.readouterr().err
    assert (sim / "data.csv").stat().st_mtime_ns == before
    assert not (tmp_path / "elsewhere").exists()
    # the option itself may be abbreviated or joined to its value
    assert main(["simulate", f"--from-manifest={manifest}"]) == 0
    assert main(["simulate", "--from-man", manifest]) == 0


@pytest.mark.parametrize(
    "edit, named",
    [
        (lambda m: m["config"].pop("rate"), "missing keys ['rate']"),
        (lambda m: m["config"].update(m="5"), "field 'm': '5' is not an integer"),
        (lambda m: m["config"].update(bogus=1), "unknown keys ['bogus']"),
        (
            lambda m: m["config"].update(recenter="yes"),
            "field 'recenter': 'yes' is not true or false",
        ),
        (
            lambda m: m["config"].update(mean_params=[1, 2]),
            "field 'mean_params': --mean-params expects 3 comma-separated values",
        ),
        (lambda m: m.update(config=[1, 2]), "not a manifest with a subcommand and a config"),
        (lambda m: m.pop("subcommand"), "not a manifest with a subcommand and a config"),
    ],
)
def test_replay_rejects_bad_config(tmp_path, capsys, edit, named):
    # a hand-edited manifest fails by the key, before anything runs
    sim = tmp_path / "sim"
    assert run_simulate(sim) == 0
    manifest = json.loads((sim / "manifest.json").read_text())
    manifest["config"]["out"] = str(tmp_path / "again")
    edit(manifest)
    replay = tmp_path / "replay.json"
    replay.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["simulate", "--from-manifest", str(replay)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: --from-manifest {replay}: ")
    assert named in err
    assert not (tmp_path / "again").exists()


@pytest.mark.parametrize("subcommand", ["simulate", "bench", "validate"])
def test_negative_seed_names_the_option(tmp_path, capsys, subcommand):
    # numpy's own error, "expected non-negative integer", named no option
    out = [] if subcommand == "validate" else ["--out", str(tmp_path / "out")]
    assert main([subcommand, *out, "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: --seed -1: the seed must be a non-negative integer\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--m", "3", "--t", "20", "--lag", "2"],
        ["bench", "--replications", "1", "--m", "5", "--k", "10"],
    ],
    ids=["simulate", "bench"],
)
def test_replayed_negative_seed_names_the_option(tmp_path, capsys, argv):
    assert main([*argv, "--out", str(tmp_path / "first")]) == 0
    manifest = json.loads((tmp_path / "first" / "manifest.json").read_text())
    manifest["config"].update(out=str(tmp_path / "again"), seed=-1)
    replay = tmp_path / "replay.json"
    replay.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main([argv[0], "--from-manifest", str(replay)]) == 1
    assert capsys.readouterr().err == "error: --seed -1: the seed must be a non-negative integer\n"
    assert not (tmp_path / "again").exists()


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


def test_bench_beyond_the_selector_budget_is_invalid_input(tmp_path, capsys):
    # it used to end in an uncaught CapacityError traceback
    out = tmp_path / "bench"
    argv = ["bench", "--out", str(out), "--m", "100000", "--k", "100000", "--replications", "1"]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error: m=100000, k=100000: the vectorised selector's grid matrix of 90000900000 "
        "bytes exceeds its 2147483648-byte budget\n"
    )
    assert not out.exists()


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
