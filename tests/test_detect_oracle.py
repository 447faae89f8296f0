"""An end-to-end oracle for the detect command.

A reference detect written from the definitions, using none of the
package's pipeline or file code: each score from nig_update,
posterior_predictive and scipy's t CDF; each threshold from gbfdr_looped on
the scores the command wrote; flags, confusion counts and metrics from
Python loops; the report files from csv.writer.  Hypothesis draws small
panels, with ties and constant windows, and the selector, flag and baseline
settings the command takes, and runs them through cli.main.
"""
import csv
import io
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from predfdr import cli
from predfdr.bfdr import BfdrConfig, ScoreBatch, gbfdr_looped
from predfdr.predictive import NigParams, nig_update, posterior_predictive

LEVELS = (0.5, 0.3, 0.25, 0.1, 0.05, 2.0**-5)
PRIORS = ((0.0, 1e-4, 0.01, 0.01), (1.0, 2.0, 3.0, 0.5))
METRICS = ("precision", "recall", "accuracy", "balanced_accuracy")


@st.composite
def cases(draw):
    m, lag, nt = draw(st.integers(1, 12)), draw(st.integers(1, 5)), draw(st.integers(1, 8))
    # small integers give ties and, over short windows, constant ones
    cell = st.one_of(st.integers(-2, 2).map(float), st.floats(-50.0, 50.0))
    row = st.one_of(
        st.lists(cell, min_size=lag + nt, max_size=lag + nt),
        cell.map(lambda v: [v] * (lag + nt)),
    )
    values = np.array(draw(st.lists(row, min_size=m, max_size=m)))
    truth = draw(st.one_of(st.none(), st.lists(st.booleans(), min_size=values.size,
                                               max_size=values.size)))
    levels = st.lists(st.sampled_from(LEVELS), min_size=1, max_size=4, unique=True)
    return {
        "values": values,
        "truth": None if truth is None else np.reshape(truth, values.shape),
        "lag": lag,
        "prior": draw(st.sampled_from(PRIORS)),
        "two_sided": draw(st.booleans()),
        "orientation": draw(st.sampled_from(["null_score", "raw_score"])),
        "c1": draw(st.sampled_from([0.0, 0.5, 3.0])),
        "a": draw(st.sampled_from([0.0, 1.0, 2.0])),
        "k": draw(st.sampled_from([1, 2, 7, 1000])),
        "qs": draw(levels),
        "baselines": draw(st.one_of(st.just("match"), levels)),
    }


def _write_matrix(path: Path, mat, cell) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(f"t{i}" for i in range(mat.shape[1])) + "\n")
        for row in mat.tolist():
            fh.write(",".join(cell(v) for v in row) + "\n")


def _csv_bytes(header, rows) -> bytes:
    buf = io.StringIO(newline="")
    wr = csv.writer(buf)
    wr.writerow(header)
    wr.writerows(rows)
    return buf.getvalue().encode()


def _rate(num: int, den: int) -> float:
    return num / den if den > 0 else 1.0


def _metrics(flags, truth):
    """Precision, recall, accuracy and balanced accuracy of one timestep's
    flags, with README's values for zero denominators."""
    tp = sum(f and g for f, g in zip(flags, truth))
    fp = sum(f and not g for f, g in zip(flags, truth))
    fn = sum(g and not f for f, g in zip(flags, truth))
    tn = sum(not f and not g for f, g in zip(flags, truth))
    pos, neg = tp + fn, tn + fp
    recall, specificity = _rate(tp, pos), _rate(tn, neg)
    if neg == 0:
        balanced = recall
    elif pos == 0:
        balanced = specificity
    else:
        balanced = (recall + specificity) / 2
    return [_rate(tp, tp + fp), recall, _rate(tp + tn, pos + neg), balanced]


def _reference_scores(values, prior: NigParams, lag: int, two_sided: bool):
    m, t_len = values.shape
    want = np.empty((m, t_len - lag))
    for j in range(m):
        for t in range(lag, t_len):
            pred = posterior_predictive(nig_update(prior, values[j, t - lag : t]))
            f = stats.t.cdf(values[j, t], pred.dof, pred.loc, pred.scale)
            want[j, t - lag] = abs(2.0 * f - 1.0) if two_sided else f
    return want


def _reference_report(r, truth, case) -> dict:
    """Every report file's bytes from the written scores ``r``, (series,
    timestep), and the truth aligned to them."""
    m, nt = r.shape
    r = r.tolist()
    lag, c1 = case["lag"], case["c1"]
    flip = case["orientation"] == "null_score"

    def orient(x):
        return 1.0 - x if flip else x

    ts = [lag + ti for ti in range(nt)]
    qs = case["qs"]
    bases = qs if case["baselines"] == "match" else case["baselines"]
    # eta per (level, timestep), None where infeasible
    etas = [
        [gbfdr_looped(ScoreBatch([orient(r[j][ti]) for j in range(m)]),
                      BfdrConfig(q, case["a"], case["k"])).eta for ti in range(nt)]
        for q in qs
    ]
    thresholds = [
        (t, repr(q), e, orient(e), 1) if e is not None else (t, repr(q), "", "", 0)
        for q, row in zip(qs, etas)
        for t, e in zip(ts, row)
    ]
    methods = [("bfdr", qs, etas), ("fixed", bases, [[b] * nt for b in bases])]
    flags = {
        (method, li): [
            [e is not None and r[j][ti] > orient(e) / (1.0 + c1) for ti, e in enumerate(row)]
            for j in range(m)
        ]
        for method, levels, level_etas in methods
        for li, row in enumerate(level_etas)
    }
    flag_rows = [
        (method, level, ts[ti], j)
        for method, levels, _ in methods
        for li, level in enumerate(levels)
        for j in range(m)
        for ti in range(nt)
        if flags[method, li][j][ti]
    ]
    files = {
        "thresholds.csv": _csv_bytes(["t", "q", "eta_s", "eta_r", "feasible"], thresholds),
        "flags.csv": _csv_bytes(["method", "q", "t", "series"], flag_rows),
    }
    if truth is None:
        return files
    metrics = {
        (method, li): [
            _metrics([flags[method, li][j][ti] for j in range(m)], truth[:, ti].tolist())
            for ti in range(nt)
        ]
        for method, levels, _ in methods
        for li in range(len(levels))
    }
    metric_rows = [
        (t, repr(level), method, *cells)
        for method, levels, _ in methods
        for li, level in enumerate(levels)
        for t, cells in zip(ts, metrics[method, li])
    ]
    diff_rows = [
        (t, repr(q), *[b - f for b, f in zip(mb, mf)])
        for qi, q in enumerate(qs)
        if q in bases
        for t, mb, mf in zip(ts, metrics["bfdr", qi], metrics["fixed", bases.index(q)])
    ]
    files["metrics.csv"] = _csv_bytes(["t", "q", "method", *METRICS], metric_rows)
    files["diff.csv"] = _csv_bytes(["t", "q", *[f"{n}_diff" for n in METRICS]], diff_rows)
    return files


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cases())
def test_detect_matches_the_reference_built_from_the_definitions(case):
    values, truth, lag = case["values"], case["truth"], case["lag"]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        _write_matrix(tmp / "data.csv", values, lambda v: "%.17g" % v)
        argv = [
            "detect", "--data", str(tmp / "data.csv"), "--out", str(tmp / "out"),
            "--lag", str(lag), "--prior", ",".join(map(repr, case["prior"])),
            "--q-grid", ",".join(map(repr, case["qs"])), "--a", repr(case["a"]),
            "--k", str(case["k"]), "--c1", repr(case["c1"]),
            "--orientation", case["orientation"],
            "--baseline-etas", case["baselines"] if case["baselines"] == "match"
            else ",".join(map(repr, case["baselines"])),
        ]
        if truth is not None:
            _write_matrix(tmp / "truth.csv", truth, lambda v: "1" if v else "0")
            argv += ["--truth", str(tmp / "truth.csv")]
        if case["two_sided"]:
            argv.append("--two-sided")
        assert cli.main(argv) == 0
        out = tmp / "out"
        got = {p.name: p.read_bytes() for p in out.iterdir()}

    # scores: the written bytes are %.17g of what they parse to, and that is
    # the reference's score to 1e-12
    lines = got.pop("scores.csv").decode().split("\n")
    t_len = values.shape[1]
    assert lines[0] == ",".join(f"t{t}" for t in range(lag, t_len)) and lines[-1] == ""
    r = np.array([[float(c) for c in line.split(",")] for line in lines[1:-1]])
    assert [",".join("%.17g" % v for v in row) for row in r.tolist()] == lines[1:-1]
    want = _reference_scores(values, NigParams(*case["prior"]), lag, case["two_sided"])
    assert r.shape == want.shape
    assert np.abs(r - want).max() <= 1e-12

    # the report: byte for byte, from the scores the command wrote
    del got["manifest.json"]
    aligned = None if truth is None else truth[:, lag:]
    expect = _reference_report(r, aligned, case)
    assert sorted(got) == sorted(expect)
    for name in expect:
        assert got[name] == expect[name], name
