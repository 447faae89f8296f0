"""Rolling scorer and the per-timestep thresholding pipeline."""
import collections
import csv
import importlib.util
import itertools
import math
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
from predfdr.decision import ORIENTATIONS, bfdr_coupled_rule, threshold_flags
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
    _posterior,
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
    # the t-CDF runs over the 12 x 52 = 624 standardised cells in row-major
    # order: 36 cells per call allow 18 parts, so 17 of 35 cells and a last
    # one of 29, which cover every cell once
    lag = 8
    parts = []
    cdf = special.student_t_cdf
    monkeypatch.setattr(pipeline, "_CDF_CELLS", 36)
    monkeypatch.setattr(
        special, "student_t_cdf", lambda z, *a: parts.append(np.array(z)) or cdf(z, *a)
    )
    scores = lagged_scores(panel.values, DIFFUSE_PRIOR, lag, two_sided=two_sided)
    assert [p.size for p in parts] == [35] * 17 + [29]
    monkeypatch.setattr(special, "student_t_cdf", cdf)
    z = np.empty_like(scores)
    expect = np.empty_like(scores)
    for t in range(lag, 60):
        z[:, t - lag], dof = _window_z(
            DIFFUSE_PRIOR, panel.values[:, t - lag : t], panel.values[:, t]
        )
        expect[:, t - lag] = _z_scores(z[:, t - lag], dof, two_sided)
    assert np.concatenate(parts).tobytes() == z.tobytes()
    assert np.array_equal(scores, expect)


@pytest.mark.parametrize("tail", [1, 2])
@pytest.mark.parametrize("two_sided", [False, True])
def test_lagged_scores_row_blocks_cover_every_series_once(monkeypatch, two_sided, tail):
    # 36 window cells and lag 8 make moment blocks of 4 series, so 12 + tail
    # series end on a partial block of tail
    lag = 8
    m = 12 + tail
    vals = np.ascontiguousarray(
        gen_data(SimSpec(m=m, t_len=40, lag=lag, outlier_rate=0.1, seed=9)).values
    )
    start = vals.__array_interface__["data"][0]
    blocks = {}
    window_z = pipeline._window_z

    def spy(prior, win, x, buf):
        # x is vals[r0:r1, t]: its offset in vals gives the first series and t
        r0, t = divmod((x.__array_interface__["data"][0] - start) // vals.itemsize, 40)
        blocks.setdefault(t, []).append((r0, r0 + x.size))
        return window_z(prior, win, x, buf)

    monkeypatch.setattr(pipeline, "_MOMENT_CELLS", 36)
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
    # a panel of no series used to divide by zero
    with pytest.raises(ValueError, match="at least one series"):
        lagged_scores(np.zeros((0, 5)), DIFFUSE_PRIOR, 2)
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


@pytest.mark.parametrize("lag", [1, 2, 30])
@pytest.mark.parametrize("prior", [DIFFUSE_PRIOR, NigParams(5.0, 50.0, 20.0, 20.0)])
def test_lagged_scores_refuse_cells_whose_moments_overflow(lag, prior):
    # a 1e200 cell used to overflow its windows' moments, with every score
    # whose window held it exactly 0.5; cells up to the bound score as the
    # same panel scaled by 2**-500 (exact) does, and one ulp past it is named
    bound = math.sqrt(np.finfo(float).max / (8.0 * lag * (prior.nu + lag + 1.0)))
    t = lag + 4
    vals = np.array([np.where(np.arange(t) % 2, bound, -bound), np.full(t, -bound)])
    vals[1, lag] = bound
    small = NigParams(prior.mu0 * 2.0**-500, prior.nu, prior.alpha, prior.beta * 2.0**-1000)
    got = lagged_scores(vals, prior, lag)
    assert np.array_equal(got, lagged_scores(vals * 2.0**-500, small, lag))
    assert (got != 0.5).all()
    for cell in (np.nextafter(bound, np.inf), -1e200, np.nan, np.inf):
        bad = vals.copy()
        bad[1, 2] = cell
        named = f"values: row 2, column 3: {float(cell)!r} is not a finite number within"
        with pytest.raises(ValueError, match=re.escape(named)):
            lagged_scores(bad, prior, lag)


def test_lagged_scores_check_each_row_block(monkeypatch):
    # blocks of one series: the bad cell of the third is named by its own row
    monkeypatch.setattr(pipeline, "_MOMENT_CELLS", 2)
    vals = np.zeros((4, 5))
    vals[2, 4] = 1e200
    with pytest.raises(ValueError, match=re.escape("values: row 3, column 5: 1e+200 ")):
        lagged_scores(vals, DIFFUSE_PRIOR, 2)


@pytest.mark.parametrize("lag", [1, 3, 30])
@pytest.mark.parametrize("prior", [DIFFUSE_PRIOR, NigParams(5.0, 50.0, 20.0, 20.0)])
def test_lagged_scores_refuse_a_prior_mean_whose_moments_overflow(lag, prior):
    # a prior mean of 1e160 at lag 3 used to overflow (xbar - mu0)**2, with
    # every score exactly 0.5; cells at +bound score against a mean at -bound
    # with no warning, and the next float past the bound is refused
    bound = math.sqrt(np.finfo(float).max / (8.0 * lag * (prior.nu + lag + 1.0)))
    vals = np.full((2, lag + 3), bound)
    edge = NigParams(-bound, prior.nu, prior.alpha, prior.beta)
    got = lagged_scores(vals, edge, lag)
    assert np.isfinite(got).all() and (got != 0.5).all()
    for mu0 in (np.nextafter(bound, np.inf), -np.nextafter(bound, np.inf), 1e160):
        far = NigParams(float(mu0), prior.nu, prior.alpha, prior.beta)
        named = f"prior mean mu0={float(mu0)!r} is not within +-{bound!r}"
        with pytest.raises(ValueError, match=re.escape(named)):
            lagged_scores(np.zeros((2, lag + 3)), far, lag)


@pytest.mark.parametrize(
    "prior, field",
    [
        (NigParams(0.0, 1e-4, 0.01, 1e307), "beta"),  # scored every cell exactly 0.5
        (NigParams(0.0, 1e300, 1e300, 0.01), "alpha"),  # scored only 0 and 1, dividing by 0
        (NigParams(0.0, 1e308, 0.01, 0.01), "nu"),  # blamed a data cell "within +-0.0"
    ],
)
def test_lagged_scores_refuse_a_prior_whose_predictive_scale_overflows(prior, field):
    vals = np.random.default_rng(0).standard_normal((3, 40))
    named = f"prior {field}={getattr(prior, field)!r} is not within ["
    with pytest.raises(ValueError, match=re.escape(named)) as err:
        lagged_scores(vals, prior, 30)
    assert "outside which the lag-30 predictive scale overflows" in str(err.value)


def _prior_ranges(nu, alpha, lag):
    # the ranges lagged_scores gives nu, alpha and beta
    fmax, tiny = sys.float_info.max, sys.float_info.min
    return {
        "nu": (0.0, fmax / (16.0 * lag) - lag - 1.0),
        "alpha": (0.0, min(fmax / (2.0 * (nu + lag)) - lag / 2.0, 2.0**18 - lag / 2.0)),
        "beta": (tiny * (alpha + lag / 2.0), fmax / (4.0 * (nu + lag + 1.0))),
    }


@pytest.mark.parametrize("lag", [1, 2, 30])
@pytest.mark.parametrize("field, end", [("nu", 1), ("alpha", 1), ("beta", 0), ("beta", 1)])
def test_lagged_scores_take_prior_fields_at_their_bounds(lag, field, end):
    # one field at an end of its range, the prior mean at -B and cells at
    # +-B: the widest spread, the largest mean gap, and a constant window at
    # the mean (the smallest scale) scoring a cell 2B away; no warning, every
    # score in [0, 1].  alpha's upper end is taken with nu = 1e300, where
    # the scale allows about 1e8 and the t-CDF's dof cap, 2**18 - lag/2, is
    # the end.  One float further out is refused.
    nu = 1e300 if field == "alpha" else DIFFUSE_PRIOR.nu
    fields = {"nu": nu, "alpha": DIFFUSE_PRIOR.alpha, "beta": DIFFUSE_PRIOR.beta}
    fields[field] = _prior_ranges(nu, fields["alpha"], lag)[field][end]
    bound = math.sqrt(sys.float_info.max / (8.0 * lag * (fields["nu"] + lag + 1.0)))
    prior = NigParams(-bound, **fields)
    t = lag + 3
    vals = np.array([np.where(np.arange(t) % 2, bound, -bound), np.full(t, -bound),
                     np.full(t, bound)])
    vals[1, lag:] = bound
    got = lagged_scores(vals, prior, lag)
    assert ((got >= 0.0) & (got <= 1.0)).all()
    edge = fields[field]
    fields[field] = float(np.nextafter(edge, np.inf if end else 0.0))
    with pytest.raises(ValueError, match=re.escape(f"prior {field}={fields[field]!r} is not")):
        lagged_scores(vals, NigParams(-bound, **fields), lag)


@pytest.mark.parametrize("lag", [1, 30])
def test_lagged_scores_keep_the_t_cdf_dof_within_its_accuracy(lag):
    # at alpha = 2**18 - lag/2 the dof, 2 alpha + lag, is 2**19 and the
    # scores stay within 1e-10 of scipy's; the next float is refused, naming
    # the t-CDF's accuracy.  alpha = 1e8 was off by 2.2e-8
    from scipy import stats

    vals = np.random.default_rng(0).standard_normal((3, 40))
    cap = 2.0**18 - lag / 2.0
    prior = NigParams(0.0, 1e-4, cap, cap)
    got = lagged_scores(vals, prior, lag)
    want = np.empty_like(got)
    for t in range(lag, 40):
        for j in range(3):
            pred = posterior_predictive(nig_update(prior, vals[j, t - lag : t]))
            want[j, t - lag] = stats.t.cdf(vals[j, t], pred.dof, pred.loc, pred.scale)
    assert np.abs(got - want).max() <= 1e-10
    for alpha in (float(np.nextafter(cap, np.inf)), 1e8):
        named = f"prior alpha={alpha!r} is not within [0.0, {cap!r}], outside which "
        with pytest.raises(ValueError, match=re.escape(named)) as err:
            lagged_scores(vals, NigParams(0.0, 1e-4, alpha, alpha), lag)
        assert f"outside which the t-CDF's dof 2 alpha + {lag} loses accuracy" in str(err.value)


def test_lagged_scores_refuse_a_lag_past_the_t_cdf_dof_cap():
    # a lag past 2**19 leaves no alpha >= 0 within the dof cap
    vals = np.zeros((1, 2**19 + 2))
    named = "lag must be at most 2**19 for an accurate t-CDF, got lag=524289"
    with pytest.raises(ValueError, match=re.escape(named)):
        lagged_scores(vals, DIFFUSE_PRIOR, 2**19 + 1)


def test_lagged_scores_working_set_is_bounded(monkeypatch):
    # moment blocks of 2184 and 1912 series share one (2184, 30) buffer for
    # their centred windows, freed before the t-CDF runs; the t-CDF holds
    # about 7.9 doubles a cell: parts of 2**15 cells peak near 2.2 MB above
    # the result on this 2**17-cell panel, where parts of 2**16 peaked near
    # 5.4 MB, and the t-CDF with its result allocated before its continued
    # fraction near 2.7 MB
    vals = np.random.default_rng(5).standard_normal((4096, 62))
    tracemalloc.start()
    try:
        scores = lagged_scores(vals, DIFFUSE_PRIOR, 30, two_sided=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert scores.size == 2**17
    assert peak - scores.nbytes < 9 * 8 * 2**15
    # with the t-CDF left out, the moments hold one window buffer and
    # per-block vectors
    monkeypatch.setattr(pipeline, "_z_scores", lambda z, dof, two_sided: z)
    tracemalloc.start()
    try:
        z = lagged_scores(vals, DIFFUSE_PRIOR, 30, two_sided=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - z.nbytes < 1.5 * 8 * 2184 * 30


@pytest.mark.parametrize(
    "lag, m, cells",
    [(1, 3, 2**16), (6, 3, 2**16), (1, 13, 4), (6, 13, 24)],
    ids=["lag1-one-block", "lag6-one-block", "lag1-partial-block", "lag6-partial-block"],
)
def test_window_buffer_gives_the_allocating_formula_s_bytes(monkeypatch, lag, m, cells):
    # every block's centred windows go through one (min(rows, m), lag)
    # buffer, a partial last block through its first rows; the scores, and
    # each window's posterior, keep the bytes of the allocating formula and
    # of nig_update, and neither the values nor the standardised cells the
    # t-CDF is given change under it
    vals = gen_data(SimSpec(m=m, t_len=30, lag=lag, outlier_rate=0.1, seed=13)).values
    before = vals.copy()
    bufs = set()
    window_z = pipeline._window_z

    def spy(prior, win, x, buf):
        assert buf.shape == win.shape and buf.flags.c_contiguous
        bufs.add(buf.__array_interface__["data"][0])
        return window_z(prior, win, x, buf)

    cdf = special.student_t_cdf

    def untouched(z, *args):
        z_before = z.copy()
        out = cdf(z, *args)
        assert z.tobytes() == z_before.tobytes()
        return out

    monkeypatch.setattr(pipeline, "_MOMENT_CELLS", cells)
    monkeypatch.setattr(pipeline, "_window_z", spy)
    monkeypatch.setattr(special, "student_t_cdf", untouched)
    scores = lagged_scores(vals, DIFFUSE_PRIOR, lag)
    assert vals.tobytes() == before.tobytes()
    assert len(bufs) == 1
    expect = np.empty_like(scores)
    buf = np.full((m, lag), np.nan)
    for t in range(lag, 30):
        win = vals[:, t - lag : t]
        expect[:, t - lag] = _z_scores(*_window_z(DIFFUSE_PRIOR, win, vals[:, t]), False)
        mu, nu, alpha, beta = _posterior(DIFFUSE_PRIOR, win, buf)
        assert [mu.tobytes(), beta.tobytes()] == [
            v.tobytes() for v in _posterior(DIFFUSE_PRIOR, win)[::3]
        ]
        for j in range(m):
            assert nig_update(DIFFUSE_PRIOR, win[j]) == NigParams(
                float(mu[j]), nu, alpha, float(beta[j])
            )
    assert scores.tobytes() == expect.tobytes()


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
    with pytest.raises(ValueError, match="c1 must be finite, not inf"):
        DetectConfig(bfdr=BfdrConfig(q=0.2), c1=np.inf)
    with pytest.raises(ValueError, match="orientation must be"):
        DetectConfig(bfdr=BfdrConfig(q=0.2), orientation="sideways")


@pytest.mark.parametrize("orientation", ["null_score", "raw_score"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5, 1.5, -1e-17, 1.0 + 2**-52])
def test_detect_names_a_bad_score_by_row_and_column(orientation, bad):
    # used to say only "ScoreBatch requires finite scores in [0, 1]"; -1e-17
    # oriented as a null score is 1 - x = 1.0, which the selector would take
    scores = np.random.default_rng(4).random((5, 4))
    scores[2, 1] = bad
    cfg = DetectConfig(bfdr=BfdrConfig(q=0.2, k=10), orientation=orientation)
    named = f"scores: row 3, column 2: {bad!r} is not a score in [0, 1]"
    with pytest.raises(ValueError, match=re.escape(named)):
        detect(scores, None, cfg)


@pytest.mark.parametrize("orientation", ["null_score", "raw_score"])
def test_detect_names_the_first_bad_score_row_by_row(orientation):
    # cells are numbered as load_matrix_csv and as_finite number them: the
    # bad cell in the earlier row is named, though its timestep is later
    scores = np.random.default_rng(5).random((5, 8))
    scores[0, 5], scores[3, 1] = -0.25, 2.0
    cfg = DetectConfig(bfdr=BfdrConfig(q=0.2, k=10), orientation=orientation)
    named = "scores: row 1, column 6: -0.25 is not a score in [0, 1]"
    with pytest.raises(ValueError, match=re.escape(named)):
        detect(scores, None, cfg)


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
    # globals, the selector once per (level, timestep) and the flag rule and
    # metrics once, over both methods
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
    assert calls == {"gbfdr": 3 * scores.shape[1], "threshold_flags": 1, "confusion_metrics": 1}


@pytest.mark.parametrize(
    "m, nt, qs, baselines, orientation, c1, with_truth",
    [
        (12, 52, (0.3, 0.1, 0.05), (0.2,), "null_score", 0.0, True),  # nb != nq
        (12, 52, (0.3, 0.1), None, "null_score", 0.0, False),  # no truth
        (12, 1, (0.3,), (0.2, 0.4, 0.01), "null_score", 0.0, True),  # nt = 1
        (1, 52, (0.3, 0.1), None, "null_score", 0.0, True),  # m = 1
        (12, 52, (0.3, 0.1), (0.5,), "raw_score", 0.0, True),
        (12, 52, (0.3, 0.1), None, "null_score", 0.7, True),  # c1 > 0
    ],
)
def test_detect_report_views_equal_per_method_passes(
    panel, m, nt, qs, baselines, orientation, c1, with_truth
):
    # detect runs the flag rule, the confusion counts and the metrics once
    # over both methods; each method's views equal a pass of its own
    scores = lagged_scores(panel.values, DIFFUSE_PRIOR, 8)[:m, :nt]
    truth = panel.truth[:m, 8 : 8 + nt] if with_truth else None
    cfg = DetectConfig(bfdr=BfdrConfig(q=0.2, a=2.0, k=100), c1=c1, baseline_etas=baselines,
                       orientation=orientation)
    rep = detect(scores, truth, cfg, q_values=qs)
    etas = np.array(baselines if baselines is not None else qs)
    for flags, eta, counts, metrics in (
        (rep.flags_bfdr, rep.eta_s[:, None, :], rep.confusion_bfdr, rep.metrics_bfdr),
        (rep.flags_fixed, etas[:, None, None], rep.confusion_fixed, rep.metrics_fixed),
    ):
        want = threshold_flags(scores, eta, c1, orientation)
        assert flags.shape == (len(eta), m, nt) and flags.dtype == want.dtype
        assert np.array_equal(flags, want)
        if truth is None:
            assert counts is None and metrics is None
            continue
        want_counts = pipeline._confusion_cube(want, truth)
        assert counts.dtype == want_counts.dtype and np.array_equal(counts, want_counts)
        want_metrics = confusion_metrics(want_counts)
        assert list(metrics) == list(want_metrics)
        for name, v in want_metrics.items():
            assert metrics[name].shape == v.shape and metrics[name].tobytes() == v.tobytes()


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

    for nt in (9, 0):
        flags, truth = cube(fill, (levels, 17, nt)), cube(truth_fill, (17, nt))
        pairs = ((flags, truth), (flags, ~truth), (~flags, truth), (~flags, ~truth))
        expect = np.stack([(f & t).sum(axis=1) for f, t in pairs], axis=-1)
        got = pipeline._confusion_cube(flags, truth)
        assert got.dtype == expect.dtype
        assert np.array_equal(got, expect)


def test_confusion_cube_working_set_is_bounded():
    # counting each timestep's true rows holds one level x true-rows gather
    # at a time: its peak above the (30, 300, 4) result stays within twice
    # the result, where gathering every level's true cells at once did not
    rng = np.random.default_rng(8)
    flags = rng.random((30, 1000, 300)) < 0.3
    truth = rng.random((1000, 300)) < 0.025
    tracemalloc.start()
    try:
        got = pipeline._confusion_cube(flags, truth)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.shape == (30, 300, 4)
    assert peak - got.nbytes <= 2 * got.nbytes


@pytest.mark.parametrize("levels, m, nt", [(1, 17, 9), (3, 1, 9), (3, 17, 1), (1, 1, 1)])
def test_confusion_cube_on_edge_shapes(levels, m, nt):
    # one level, one series, one timestep; timestep 0 has every cell true and
    # the last none (the only timestep is all true, or m = 1 all one kind)
    rng = np.random.default_rng(levels * 100 + m * 10 + nt)
    flags = rng.random((levels, m, nt)) < 0.4
    truth = rng.random((m, nt)) < 0.5
    truth[:, 0] = True
    if nt > 1:
        truth[:, -1] = False
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
