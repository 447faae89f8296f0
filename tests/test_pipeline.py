"""Rolling scorer and the per-timestep thresholding pipeline."""
import collections
import csv
import importlib.util
import itertools
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from predfdr import files, pipeline, special
from predfdr.bfdr import BfdrConfig, ScoreBatch, gbfdr
from predfdr.decision import ORIENTATIONS, bfdr_coupled_rule
from predfdr.pipeline import (
    DIFFUSE_PRIOR,
    DetectConfig,
    DetectionReport,
    confusion_metrics,
    detect,
    lagged_scores,
)
from predfdr.files import write_matrix_csv, write_report
from predfdr.predictive import (
    NigParams,
    _window_z,
    _z_scores,
    nig_update,
    posterior_predictive,
    score,
)
from predfdr.simgen import SimSpec, gen_data


@pytest.fixture(scope="module")
def panel():
    data = gen_data(SimSpec(m=12, t_len=60, lag=8, outlier_rate=0.1, seed=5))
    return data


# -------------------------------------------------------------- lagged scores


def test_lagged_scores_match_composed_route(panel):
    # the rolling scorer and the scalar API share one kernel, so they agree
    # to the last bit
    for lag, two_sided in ((8, False), (8, True), (30, False), (30, True)):
        scores = lagged_scores(panel.values, DIFFUSE_PRIOR, lag, two_sided=two_sided)
        assert scores.shape == (12, 60 - lag)
        expect = np.empty_like(scores)
        for j in range(12):
            for ti in range(60 - lag):
                t = lag + ti
                post = nig_update(DIFFUSE_PRIOR, panel.values[j, t - lag : t])
                pred = posterior_predictive(post)
                expect[j, ti] = score(pred, panel.values[j, t], two_sided=two_sided)
        assert np.array_equal(scores, expect), (lag, two_sided)


@pytest.mark.parametrize("two_sided", [False, True])
def test_lagged_scores_chunks_match_per_column_scores(panel, monkeypatch, two_sided):
    # 36 cells make 3-column chunks over 12 series, so the 52 columns end on
    # a 1-column chunk
    lag = 8
    cells = []
    cdf = special.student_t_cdf
    monkeypatch.setattr(pipeline, "_CDF_CELLS", 36)
    monkeypatch.setattr(
        special, "student_t_cdf", lambda z, *a: cells.append(np.size(z)) or cdf(z, *a)
    )
    scores = lagged_scores(panel.values, DIFFUSE_PRIOR, lag, two_sided=two_sided)
    assert cells == [36] * 17 + [12]
    monkeypatch.setattr(special, "student_t_cdf", cdf)
    expect = np.empty_like(scores)
    for t in range(lag, 60):
        expect[:, t - lag] = _z_scores(
            *_window_z(DIFFUSE_PRIOR, panel.values[:, t - lag : t], panel.values[:, t]), two_sided
        )
    assert np.array_equal(scores, expect)


@pytest.mark.parametrize("tail", [1, 2])
@pytest.mark.parametrize("two_sided", [False, True])
def test_lagged_scores_row_blocks_cover_every_series_once(monkeypatch, two_sided, tail):
    # 36 cells and lag 8 make moment blocks of 4 series, so 12 + tail series
    # end on a partial block of tail; 36 // 13 and 36 // 14 make 2-column
    # chunks
    lag = 8
    m = 12 + tail
    vals = np.ascontiguousarray(
        gen_data(SimSpec(m=m, t_len=40, lag=lag, outlier_rate=0.1, seed=9)).values
    )
    start = vals.__array_interface__["data"][0]
    blocks = {}
    window_z = pipeline._window_z

    def spy(prior, win, x):
        # x is vals[r0:r1, t]: its offset in vals gives the first series and t
        r0, t = divmod((x.__array_interface__["data"][0] - start) // vals.itemsize, 40)
        blocks.setdefault(t, []).append((r0, r0 + x.size))
        return window_z(prior, win, x)

    monkeypatch.setattr(pipeline, "_CDF_CELLS", 36)
    monkeypatch.setattr(pipeline, "_window_z", spy)
    scores = lagged_scores(vals, DIFFUSE_PRIOR, lag, two_sided=two_sided)
    assert sorted(blocks) == list(range(lag, 40))
    assert all(b == [(0, 4), (4, 8), (8, 12), (12, m)] for b in blocks.values())
    expect = np.empty_like(scores)
    for t in range(lag, 40):
        expect[:, t - lag] = _z_scores(
            *_window_z(DIFFUSE_PRIOR, vals[:, t - lag : t], vals[:, t]), two_sided
        )
    assert scores.tobytes() == expect.tobytes()


def test_lagged_scores_window_excludes_current():
    # a huge spike at t must not contaminate its own window
    vals = np.zeros((1, 20))
    vals[0, :] = np.linspace(-0.5, 0.5, 20)
    vals[0, 15] = 500.0
    scores = lagged_scores(vals, DIFFUSE_PRIOR, lag=10)
    assert scores[0, 5] > 0.999999


def test_lagged_scores_two_sided(panel):
    one = lagged_scores(panel.values, DIFFUSE_PRIOR, 8, two_sided=False)
    two = lagged_scores(panel.values, DIFFUSE_PRIOR, 8, two_sided=True)
    assert np.allclose(two, np.abs(2.0 * one - 1.0), atol=1e-15)


def test_lagged_scores_in_unit_interval(panel):
    s = lagged_scores(panel.values, DIFFUSE_PRIOR, 8)
    assert np.all((s >= 0.0) & (s <= 1.0))


def test_lagged_scores_validation():
    with pytest.raises(ValueError):
        lagged_scores(np.zeros(5), DIFFUSE_PRIOR, 2)
    with pytest.raises(ValueError):
        lagged_scores(np.zeros((2, 5)), DIFFUSE_PRIOR, 5)
    bad = np.zeros((2, 5))
    bad[0, 0] = np.inf
    with pytest.raises(ValueError):
        lagged_scores(bad, DIFFUSE_PRIOR, 2)
    # a lag of 2.5 used to fail with a TypeError, and True ran as lag 1
    for lag in (2.5, True):
        with pytest.raises(ValueError, match=re.escape(f"integer lag, got lag={lag!r}")):
            lagged_scores(np.zeros((2, 5)), DIFFUSE_PRIOR, lag)


def test_custom_prior_changes_scores(panel):
    weak = lagged_scores(panel.values, DIFFUSE_PRIOR, 8)
    strong = lagged_scores(panel.values, NigParams(0.0, 50.0, 20.0, 20.0), 8)
    assert not np.allclose(weak, strong)


# ------------------------------------------------------------------- metrics


def test_confusion_metrics_frozen():
    m = confusion_metrics(np.array([2, 1, 1, 6]))
    assert m["precision"] == pytest.approx(2.0 / 3.0)
    assert m["recall"] == pytest.approx(2.0 / 3.0)
    assert m["accuracy"] == pytest.approx(0.8)
    assert m["balanced_accuracy"] == pytest.approx((2.0 / 3.0 + 6.0 / 7.0) / 2.0)


def test_confusion_metrics_degenerate_conventions():
    # no flags made: vacuous precision
    assert confusion_metrics(np.array([0, 0, 3, 7]))["precision"] == 1.0
    # nothing to find: vacuous recall, balanced falls back to specificity
    none = confusion_metrics(np.array([0, 2, 0, 8]))
    assert none["recall"] == 1.0
    assert none["balanced_accuracy"] == pytest.approx(0.8)
    assert confusion_metrics(np.array([0, 0, 0, 0]))["accuracy"] == 1.0


def test_confusion_metrics_arrays_equal_scalar_formulas():
    counts = np.array(
        [c for c in itertools.product(range(7), repeat=4) if sum(c) <= 6]
    )
    got = confusion_metrics(counts)
    for i, (tp, fp, fn, tn) in enumerate(counts.tolist()):
        halves = []
        if tp + fn > 0:
            halves.append(tp / (tp + fn))
        if tn + fp > 0:
            halves.append(tn / (tn + fp))
        want = {
            "precision": tp / (tp + fp) if tp + fp > 0 else 1.0,
            "recall": tp / (tp + fn) if tp + fn > 0 else 1.0,
            "accuracy": (tp + tn) / (tp + fp + fn + tn) if tp + fp + fn + tn > 0 else 1.0,
            "balanced_accuracy": sum(halves) / len(halves) if halves else 1.0,
        }
        assert {name: got[name][i] for name in want} == want, (tp, fp, fn, tn)


# -------------------------------------------------------------------- detect


@pytest.mark.parametrize("orientation", ORIENTATIONS)
def test_detect_matches_coupled_rule(panel, orientation):
    scores = lagged_scores(panel.values, DIFFUSE_PRIOR, 8)
    truth = panel.truth[:, 8:]
    cfg = DetectConfig(bfdr=BfdrConfig(q=0.5, a=2.0, k=200), c1=0.2, orientation=orientation)
    qs = (0.3, 0.05)
    rep = detect(scores, truth, cfg, q_values=qs, t_offset=8)
    assert rep.qs == qs
    assert rep.baseline_etas == qs  # default pairs one baseline per q
    null = orientation == "null_score"
    for qi, q in enumerate(qs):
        cfg_q = BfdrConfig(q=q, a=2.0, k=200)
        for ti in range(scores.shape[1]):
            batch = ScoreBatch(scores[:, ti])
            expect = bfdr_coupled_rule(batch, cfg_q, c1=0.2, orientation=orientation)
            assert np.array_equal(rep.flags_bfdr[qi, :, ti], expect)
            res = gbfdr(ScoreBatch(1.0 - scores[:, ti] if null else scores[:, ti]), cfg_q)
            assert rep.feasible[qi, ti] == res.feasible
            if res.feasible:
                assert rep.eta_s[qi, ti] == res.eta
                assert rep.eta_r[qi, ti] == (1.0 - res.eta if null else res.eta)
    assert rep.feasible.any() and rep.flags_bfdr.any()
    # each baseline against the scalar rule r > eta_r / (1 + c1), cell by cell
    for bi, eta in enumerate(qs):
        cutoff = (1.0 - eta if null else eta) / (1.0 + 0.2)
        expect = [[r > cutoff for r in row] for row in scores.tolist()]
        assert rep.flags_fixed[bi].tolist() == expect
    assert rep.flags_fixed.any()


def test_detect_fixed_baselines(panel):
    scores = lagged_scores(panel.values, DIFFUSE_PRIOR, 8)
    cfg = DetectConfig(
        bfdr=BfdrConfig(q=0.5, a=1.0, k=50), baseline_etas=(0.9, 0.99)
    )
    rep = detect(scores, None, cfg, q_values=(0.2,))
    assert rep.flags_fixed.shape == (2, 12, 52)
    for bi, eta in enumerate((0.9, 0.99)):
        expect = scores > (1.0 - eta)
        assert np.array_equal(rep.flags_fixed[bi], expect)
    # without truth no metric block is produced
    assert rep.metrics_bfdr is None


def test_detect_t_index_offset(panel):
    scores = lagged_scores(panel.values, DIFFUSE_PRIOR, 8)
    rep = detect(scores, None, DetectConfig(bfdr=BfdrConfig(q=0.2)), t_offset=8)
    assert rep.t_index[0] == 8
    assert rep.t_index[-1] == 59


def test_detect_config_rejects_bad_miss_cost():
    # c1 is checked by the cost rule the flag rule uses
    for c1 in (-2.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="c1 must be >= 0"):
            DetectConfig(bfdr=BfdrConfig(q=0.2), c1=c1)
    with pytest.raises(ValueError, match="orientation must be"):
        DetectConfig(bfdr=BfdrConfig(q=0.2), orientation="sideways")


def test_detect_holds_no_copy_of_the_scores():
    # one level, no truth: beyond its input, detect holds the two bool flag
    # cubes (2 bytes a cell) and per-batch arrays, not a copy of the scores
    scores = np.random.default_rng(3).random((400, 500))
    cfg = DetectConfig(bfdr=BfdrConfig(q=0.2, k=100))
    tracemalloc.start()
    try:
        detect(scores, None, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * scores.size


def test_detect_calls_what_perfbench_hooks(panel, monkeypatch):
    # perfbench traces a run by replacing the module attributes in its HOOKS
    # table, and skips one that is missing; so each must exist, and detect
    # must reach the selector, flag rule and metrics through pipeline's
    # globals, the selector once per (level, timestep)
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look it up
    spec.loader.exec_module(spans)
    for mod_name, attr, _, _ in spans.HOOKS:
        assert callable(getattr(importlib.import_module(mod_name), attr, None)), (mod_name, attr)
    calls = collections.Counter()
    for name in ("gbfdr", "threshold_flags", "confusion_metrics"):
        fn = getattr(pipeline, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(pipeline, name, counted)
    scores = lagged_scores(panel.values, DIFFUSE_PRIOR, 8)
    cfg = DetectConfig(bfdr=BfdrConfig(q=0.2, k=100))
    detect(scores, panel.truth[:, 8:], cfg, q_values=(0.3, 0.1, 0.05))
    assert calls == {"gbfdr": 3 * scores.shape[1], "threshold_flags": 2, "confusion_metrics": 2}


def test_detect_config_has_no_prior():
    # the prior reaches the scores only through lagged_scores
    with pytest.raises(TypeError):
        DetectConfig(bfdr=BfdrConfig(q=0.2), prior=DIFFUSE_PRIOR)


def test_detect_shape_errors(panel):
    scores = lagged_scores(panel.values, DIFFUSE_PRIOR, 8)
    cfg = DetectConfig(bfdr=BfdrConfig(q=0.2))
    with pytest.raises(ValueError):
        detect(scores[0], None, cfg)
    with pytest.raises(ValueError):
        detect(scores, panel.truth, cfg)  # unaligned truth
    # truth cells other than 0 and 1 are named by row and column
    for bad in (0.5, 7.0, np.nan):
        truth = panel.truth[:, 8:].astype(float)
        truth[3, 5] = bad
        with pytest.raises(ValueError, match=f"row 4, column 6: {bad!r} is not 0 or 1"):
            detect(scores, truth, cfg)


def test_detect_infeasible_column_flags_nothing():
    scores = np.full((5, 3), 0.5)
    cfg = DetectConfig(bfdr=BfdrConfig(q=0.01, a=1.0, k=100))
    rep = detect(scores, None, cfg)
    assert not rep.feasible.any()
    assert not rep.flags_bfdr.any()
    assert np.isnan(rep.eta_s).all()


@st.composite
def small_panels(draw):
    """Score panels of up to 40 series and 4 timesteps, rounded so that ties
    occur, with the selector's a and k."""
    m, nt = draw(st.integers(1, 40)), draw(st.integers(1, 4))
    decimals = draw(st.sampled_from([1, 2]))
    cells = st.floats(0.0, 1.0).map(lambda v: round(v, decimals))
    scores = draw(st.lists(cells, min_size=m * nt, max_size=m * nt))
    a = draw(st.sampled_from([0.0, 1.0, 2.0]))
    k = draw(st.sampled_from([1, 10, 1000]))
    return np.reshape(scores, (m, nt)), BfdrConfig(q=0.5, a=a, k=k)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    small_panels(),
    st.sampled_from(ORIENTATIONS),
    st.lists(st.floats(1e-3, 0.999), min_size=2, max_size=5, unique=True).map(sorted),
    st.lists(st.floats(0.0, 3.0), min_size=2, max_size=2).map(sorted),
)
def test_detect_flags_monotone_in_q_and_c1(case, orientation, qs, c1s):
    scores, bfdr = case
    lo, hi = (
        detect(scores, None, DetectConfig(bfdr, c1=c1, orientation=orientation), q_values=qs)
        for c1 in c1s
    )
    # eta_s never decreases as q grows; an infeasible cell is below every eta
    eta_s = np.where(lo.feasible, lo.eta_s, -np.inf)
    assert np.all(eta_s[:-1] <= eta_s[1:])
    smaller_q, larger_q = lo.flags_bfdr[:-1], lo.flags_bfdr[1:]
    if orientation == "null_score":
        # a looser null-score threshold flags a superset
        assert not np.any(smaller_q & ~larger_q)
    else:
        # a higher raw threshold flags a subset, where both levels are feasible
        both = (lo.feasible[:-1] & lo.feasible[1:])[:, None, :]
        assert not np.any(both & larger_q & ~smaller_q)
    # a larger miss cost lowers every cutoff, for both methods
    assert not np.any(lo.flags_bfdr & ~hi.flags_bfdr)
    assert not np.any(lo.flags_fixed & ~hi.flags_fixed)


def test_detect_confusion_counts(panel):
    scores = lagged_scores(panel.values, DIFFUSE_PRIOR, 8)
    truth = panel.truth[:, 8:]
    cfg = DetectConfig(bfdr=BfdrConfig(q=0.5, a=2.0, k=100))
    rep = detect(scores, truth, cfg, q_values=(0.2,))
    conf = rep.confusion_bfdr[0]
    for ti in (0, 17, 51):
        flags = rep.flags_bfdr[0, :, ti]
        t = truth[:, ti]
        assert conf[ti, 0] == np.sum(flags & t)
        assert conf[ti, 1] == np.sum(flags & ~t)
        assert conf[ti, 2] == np.sum(~flags & t)
        assert conf[ti, 3] == np.sum(~flags & ~t)
    assert conf.sum(axis=-1).max() == 12  # counts partition the panel


@pytest.mark.parametrize("levels", [0, 3])
@pytest.mark.parametrize("fill", ["random", "all_true", "all_false"])
@pytest.mark.parametrize("truth_fill", ["random", "all_true", "all_false"])
def test_confusion_cube_matches_four_cube_form(fill, truth_fill, levels):
    # counts from tp and the margins equal the four masked-cube sums exactly,
    # dtype included
    rng = np.random.default_rng(11)

    def cube(kind, shape):
        if kind == "random":
            return rng.random(shape) < 0.3
        return np.full(shape, kind == "all_true")

    flags, truth = cube(fill, (levels, 17, 9)), cube(truth_fill, (17, 9))
    pairs = ((flags, truth), (flags, ~truth), (~flags, truth), (~flags, ~truth))
    expect = np.stack([(f & t).sum(axis=1) for f, t in pairs], axis=-1)
    got = pipeline._confusion_cube(flags, truth)
    assert got.dtype == expect.dtype
    assert np.array_equal(got, expect)


# ------------------------------------------------------------------ file IO


def test_write_scores_csv_header(tmp_path):
    # a header t<offset+i>, %.17g values, LF line ends
    p = tmp_path / "scores.csv"
    write_matrix_csv(np.array([[0.25, 0.1], [1.0, 0.0]]), p, t_offset=30)
    assert p.read_bytes() == b"t30,t31\n0.25,0.10000000000000001\n1,0\n"


def test_write_report_files(tmp_path, panel):
    scores = lagged_scores(panel.values, DIFFUSE_PRIOR, 8)
    truth = panel.truth[:, 8:]
    cfg = DetectConfig(bfdr=BfdrConfig(q=0.5, a=2.0, k=100))
    rep = detect(scores, truth, cfg, q_values=(0.3, 0.05), t_offset=8)
    paths = write_report(rep, tmp_path)
    assert set(paths) == {"thresholds", "flags", "metrics", "diff"}

    with open(paths["thresholds"]) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 52
    for row in rows:
        if row["feasible"] == "0":
            assert row["eta_s"] == "" and row["eta_r"] == ""
        else:
            eta_s = float(row["eta_s"])
            assert 0.0 <= eta_s <= 1.0
            assert float(row["eta_r"]) == pytest.approx(1.0 - eta_s)

    with open(paths["flags"]) as fh:
        flag_rows = list(csv.DictReader(fh))
    expect = int(rep.flags_bfdr.sum() + rep.flags_fixed.sum())
    assert len(flag_rows) == expect

    with open(paths["metrics"]) as fh:
        metric_rows = list(csv.DictReader(fh))
    assert len(metric_rows) == 4 * 52
    assert {r["method"] for r in metric_rows} == {"bfdr", "fixed"}

    with open(paths["diff"]) as fh:
        diff_rows = list(csv.DictReader(fh))
    assert len(diff_rows) == 2 * 52  # both q levels match their baselines


def test_metric_series_pairing(tmp_path, panel):
    scores = lagged_scores(panel.values, DIFFUSE_PRIOR, 8)
    truth = panel.truth[:, 8:]
    cfg = DetectConfig(bfdr=BfdrConfig(q=0.5, a=2.0, k=100), baseline_etas=(0.3, 0.7))
    rep = detect(scores, truth, cfg, q_values=(0.3, 0.1))
    paths = write_report(rep, tmp_path / "paired")
    with open(paths["metrics"]) as fh:
        assert len(list(csv.DictReader(fh))) == (2 + 2) * 52
    with open(paths["diff"]) as fh:
        diff_rows = list(csv.DictReader(fh))
    # only q=0.3 has a matching baseline level
    assert len(diff_rows) == 52
    assert all(row["q"] == "0.3" for row in diff_rows)
    # without truth there is nothing to pair: no metrics, no differences
    rep_nometrics = detect(scores, None, cfg, q_values=(0.3,))
    paths = write_report(rep_nometrics, tmp_path / "nometrics")
    assert set(paths) == {"thresholds", "flags"}


def _tiny_report():
    # levels 0.3 and 2**-15 at t = 4, 5, 6 over 2 series; (0.3, t=5) is
    # infeasible, of the baselines (0.3, 0.7) only 0.3 pairs with a level,
    # and baseline 0.7's flags list series 0 at t=6 before series 1 at t=5
    eta_s = np.array([[0.25, np.nan, 0.1 + 0.2], [2.0**-16, 0.0, 1e-05]])
    flags = lambda cells: np.array(cells, dtype=bool)  # noqa: E731
    return DetectionReport(
        t_index=np.arange(3) + 4,
        qs=(0.3, 2.0**-15),
        baseline_etas=(0.3, 0.7),
        eta_s=eta_s,
        eta_r=1.0 - eta_s,
        feasible=~np.isnan(eta_s),
        flags_bfdr=flags([[[1, 0, 1], [0, 0, 1]], [[0, 0, 0], [1, 0, 0]]]),
        flags_fixed=flags([[[1, 1, 0], [0, 0, 0]], [[0, 0, 1], [0, 1, 0]]]),
        metrics_bfdr={
            "precision": np.array([[2 / 3, 1.0, 0.5], [1.0, 0.1, 0.0]]),
            "recall": np.array([[1.0, 0.25, 1 / 3], [0.0, 1.0, 0.75]]),
            "accuracy": np.array([[0.5, 0.5, 1.0], [0.1 + 0.2, 1.0, 0.5]]),
            "balanced_accuracy": np.array([[0.75, 0.625, 1.0], [0.5, 0.5, 0.5]]),
        },
        metrics_fixed={
            "precision": np.array([[0.5, 0.5, 1.0], [1.0, 0.0, 0.25]]),
            "recall": np.array([[0.5, 1.0, 0.0], [1.0, 1.0, 1.0]]),
            "accuracy": np.array([[1.0, 0.0, 0.5], [0.5, 0.5, 0.5]]),
            "balanced_accuracy": np.array([[0.5, 0.5, 0.5], [0.75, 0.75, 0.75]]),
        },
    )


def test_write_report_frozen_bytes(tmp_path):
    paths = write_report(_tiny_report(), tmp_path)
    got = {name: Path(path).read_bytes() for name, path in paths.items()}
    assert got == {
        "thresholds": b"t,q,eta_s,eta_r,feasible\r\n"
        b"4,0.3,0.25,0.75,1\r\n"
        b"5,0.3,,,0\r\n"
        b"6,0.3,0.30000000000000004,0.7,1\r\n"
        b"4,3.0517578125e-05,1.52587890625e-05,0.9999847412109375,1\r\n"
        b"5,3.0517578125e-05,0.0,1.0,1\r\n"
        b"6,3.0517578125e-05,1e-05,0.99999,1\r\n",
        "flags": b"method,q,t,series\r\n"
        b"bfdr,0.3,4,0\r\n"
        b"bfdr,0.3,6,0\r\n"
        b"bfdr,0.3,6,1\r\n"
        b"bfdr,3.0517578125e-05,4,1\r\n"
        b"fixed,0.3,4,0\r\n"
        b"fixed,0.3,5,0\r\n"
        b"fixed,0.7,6,0\r\n"
        b"fixed,0.7,5,1\r\n",
        "metrics": b"t,q,method,precision,recall,accuracy,balanced_accuracy\r\n"
        b"4,0.3,bfdr,0.6666666666666666,1.0,0.5,0.75\r\n"
        b"5,0.3,bfdr,1.0,0.25,0.5,0.625\r\n"
        b"6,0.3,bfdr,0.5,0.3333333333333333,1.0,1.0\r\n"
        b"4,3.0517578125e-05,bfdr,1.0,0.0,0.30000000000000004,0.5\r\n"
        b"5,3.0517578125e-05,bfdr,0.1,1.0,1.0,0.5\r\n"
        b"6,3.0517578125e-05,bfdr,0.0,0.75,0.5,0.5\r\n"
        b"4,0.3,fixed,0.5,0.5,1.0,0.5\r\n"
        b"5,0.3,fixed,0.5,1.0,0.0,0.5\r\n"
        b"6,0.3,fixed,1.0,0.0,0.5,0.5\r\n"
        b"4,0.7,fixed,1.0,1.0,0.5,0.75\r\n"
        b"5,0.7,fixed,0.0,1.0,0.5,0.75\r\n"
        b"6,0.7,fixed,0.25,1.0,0.5,0.75\r\n",
        "diff": b"t,q,precision_diff,recall_diff,accuracy_diff,balanced_accuracy_diff\r\n"
        b"4,0.3,0.16666666666666663,0.5,-0.5,0.25\r\n"
        b"5,0.3,0.5,-0.75,0.5,0.125\r\n"
        b"6,0.3,-0.5,0.3333333333333333,0.5,0.5\r\n",
    }


def test_flags_csv_matches_csv_writer(tmp_path):
    # flags.csv is formatted by hand, in chunks of rows; csv.writer over one
    # row per flagged cell, by method, level, series, then timestep, is the
    # reference
    rng = np.random.default_rng(7)
    m, nt, t_offset = 1000, 70, 30
    density = np.array([0.0, 1.0, 0.3, 0.01])[:, None, None]
    # an empty level, an all-flagged one of 70000 rows, a dense and a sparse one
    flags_bfdr = rng.random((4, m, nt)) < density
    flags_fixed = rng.random((3, m, nt)) < 0.05
    eta_s = np.full((4, nt), 0.1)
    report = DetectionReport(
        t_index=np.arange(nt) + t_offset,
        qs=(0.5, 2.0**-3, 2.0**-15, 0.1 + 0.2),
        baseline_etas=(0.5, 2.0**-3, 0.01),
        eta_s=eta_s,
        eta_r=1.0 - eta_s,
        feasible=np.ones((4, nt), dtype=bool),
        flags_bfdr=flags_bfdr,
        flags_fixed=flags_fixed,
    )
    with open(tmp_path / "reference.csv", "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["method", "q", "t", "series"])
        for method, levels, cube in (
            ("bfdr", report.qs, flags_bfdr),
            ("fixed", report.baseline_etas, flags_fixed),
        ):
            for level, flags in zip(levels, cube):
                for j, ti in zip(*np.nonzero(flags)):
                    wr.writerow([method, repr(level), int(ti) + t_offset, int(j)])
    paths = write_report(report, tmp_path)
    got = Path(paths["flags"]).read_bytes()
    assert b"bfdr,3.0517578125e-05," in got
    assert got == (tmp_path / "reference.csv").read_bytes()


@pytest.mark.parametrize("chunk", [1, 69, 140, 141, 980])
def test_flags_csv_bytes_do_not_depend_on_row_blocks(tmp_path, monkeypatch, chunk):
    # each level is walked in blocks of max(1, chunk // nt) series: one series
    # (also when a series alone exceeds the chunk), two, and fourteen, a
    # ragged split of the 30 series; a block with no flags writes nothing
    rng = np.random.default_rng(3)
    m, nt = 30, 70
    flags_bfdr = rng.random((3, m, nt)) < np.array([0.0, 0.2, 1.0])[:, None, None]
    flags_bfdr[1, 5:17] = False
    eta_s = np.full((3, nt), 0.1)
    report = DetectionReport(
        t_index=np.arange(nt) + 8,
        qs=(0.5, 2.0**-3, 2.0**-15),
        baseline_etas=(0.5, 0.01),
        eta_s=eta_s,
        eta_r=1.0 - eta_s,
        feasible=np.ones((3, nt), dtype=bool),
        flags_bfdr=flags_bfdr,
        flags_fixed=rng.random((2, m, nt)) < 0.05,
    )
    whole = Path(write_report(report, tmp_path / "whole")["flags"]).read_bytes()
    monkeypatch.setattr(files, "_WRITE_CELLS", chunk)
    blocks = Path(write_report(report, tmp_path / "blocks")["flags"]).read_bytes()
    assert blocks == whole


def test_write_report_without_truth(tmp_path, panel):
    scores = lagged_scores(panel.values, DIFFUSE_PRIOR, 8)
    rep = detect(scores, None, DetectConfig(bfdr=BfdrConfig(q=0.2)))
    paths = write_report(rep, tmp_path)
    assert set(paths) == {"thresholds", "flags"}
