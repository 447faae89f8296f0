"""Loss accounting, the closed-form optimal rule, and threshold coupling."""
import re

import numpy as np
import pytest

from predfdr.bfdr import BfdrConfig, ScoreBatch, gbfdr
from predfdr.decision import (
    ORIENTATIONS,
    LossParams,
    bayes_rule,
    bfdr_coupled_rule,
    c_algebra,
    c_algebra_inv,
    expected_loss,
    loss_eval,
    orient,
    threshold_flags,
)


def test_loss_params_validation():
    with pytest.raises(ValueError):
        LossParams(-0.1, 0.5)
    with pytest.raises(ValueError):
        LossParams(0.1, -0.5)
    for c1 in (-2.0, -1.0, np.nan):
        with pytest.raises(ValueError):
            LossParams(c1, 0.5)
    with pytest.raises(ValueError):
        LossParams(0.1, np.nan)


def test_infinite_costs_are_rejected():
    # LossParams(c1=inf, c2=0.5) used to build, and loss_eval then returned
    # nan: inf times zero misses; threshold_flags with c1 = inf flagged
    # every rate above 0
    for c1, c2, name in ((np.inf, 0.5, "c1"), (0.5, np.inf, "c2")):
        with pytest.raises(ValueError, match=f"{name} must be finite, not inf"):
            LossParams(c1, c2)
    rates = np.array([0.1, 0.5, 0.9])
    with pytest.raises(ValueError, match="c1 must be finite, not inf"):
        threshold_flags(rates, 0.7, c1=np.inf)
    with pytest.raises(ValueError, match="c1 must be finite, not inf"):
        bfdr_coupled_rule(ScoreBatch(rates), BfdrConfig(q=0.2, k=10), c1=np.inf)


def test_loss_eval_hand_case():
    # one hit (-1), one miss (+2), two flags (+0.5 each)
    flags = [True, False, True, False]
    truth = [True, True, False, False]
    assert loss_eval(flags, truth, LossParams(2.0, 0.5)) == pytest.approx(2.0)


def test_loss_eval_no_flags():
    truth = [True, False, True]
    assert loss_eval([False] * 3, truth, LossParams(1.5, 0.2)) == pytest.approx(3.0)


def test_loss_eval_shape_errors():
    with pytest.raises(ValueError):
        loss_eval([True], [True, False], LossParams(1.0, 1.0))
    with pytest.raises(ValueError):
        loss_eval([[True]], [True], LossParams(1.0, 1.0))


def test_expected_loss_hand_case():
    batch = ScoreBatch([0.9, 0.2])
    params = LossParams(1.0, 0.4)
    # flag first only: -0.9 + 0.4 + c1 * 0.2
    assert expected_loss(batch, [True, False], params) == pytest.approx(-0.3)


def test_expected_loss_is_mean_realised_loss():
    rng = np.random.default_rng(55)
    r = rng.random(8)
    batch = ScoreBatch(r)
    flags = rng.random(8) < 0.5
    params = LossParams(1.7, 0.3)
    draws = 200_000
    gamma = rng.random((draws, 8)) < r[None, :]
    realised = np.array([loss_eval(flags, g, params) for g in gamma[:2000]])
    # cheap exact route for the full sample
    hits = (gamma & flags[None, :]).sum(axis=1)
    misses = (gamma & ~flags[None, :]).sum(axis=1)
    losses = -hits + params.c1 * misses + params.c2 * flags.sum()
    assert np.allclose(realised, losses[:2000])
    se = losses.std(ddof=1) / np.sqrt(draws)
    assert expected_loss(batch, flags, params) == pytest.approx(
        losses.mean(), abs=4.0 * se
    )


def test_bayes_rule_cutoff():
    batch = ScoreBatch([0.1, 0.5, 0.8])
    params = LossParams(0.0, 0.5)
    assert bayes_rule(batch, params).tolist() == [False, False, True]
    # boundary score is left unflagged
    assert bayes_rule(ScoreBatch([0.5]), params).tolist() == [False]


def test_bayes_rule_minimises_over_all_flag_vectors():
    rng = np.random.default_rng(101)
    m = 10
    subsets = (np.arange(2**m)[:, None] >> np.arange(m)[None, :]) & 1
    subsets = subsets.astype(bool)
    for _ in range(25):
        r = rng.random(m)
        params = LossParams(float(rng.uniform(0.0, 2.0)), float(rng.uniform(0.0, 1.5)))
        # matrix form of the expected loss, one row per candidate rule
        losses = (
            subsets @ (-r) + params.c1 * (~subsets) @ r + params.c2 * subsets.sum(axis=1)
        )
        best = losses.min()
        opt = bayes_rule(ScoreBatch(r), params)
        assert expected_loss(ScoreBatch(r), opt, params) == pytest.approx(best, abs=1e-10)


def test_boundary_tie_is_loss_neutral():
    params = LossParams(1.0, 0.8)  # cutoff 0.4
    batch = ScoreBatch([0.4])
    assert expected_loss(batch, [True], params) == pytest.approx(
        expected_loss(batch, [False], params)
    )


def test_c_algebra_roundtrip():
    assert c_algebra(0.25, 0.0) == pytest.approx(0.25)
    assert c_algebra(0.25, 3.0) == pytest.approx(1.0)
    for eta in (0.1, 0.5, 0.9):
        for c1 in (0.0, 0.7, 2.5):
            assert c_algebra_inv(c_algebra(eta, c1), eta) == pytest.approx(c1, abs=1e-12)
    with pytest.raises(ValueError):
        c_algebra_inv(0.5, 0.0)
    for c1 in (-1.0, np.nan):
        with pytest.raises(ValueError):
            c_algebra(0.5, c1)


@pytest.mark.parametrize(
    "algebra, args, named",
    [
        # c2 < eta would need c1 < 0
        (c_algebra_inv, (0.2, 0.5), "c1 = c2 / eta - 1 (c2=0.2, eta=0.5) must be >= 0, not -0.6"),
        (c_algebra_inv, (-1.0, 0.5), "c2 must be >= 0, not -1.0"),
        (c_algebra_inv, (0.5, -0.5), "(c2=0.5, eta=-0.5) must be >= 0, not -2.0"),
        (c_algebra_inv, (0.5, 1e-320), "(c2=0.5, eta=1e-320) must be finite, not inf"),
        (c_algebra, (np.nan, 0.5), "c2 = (1 + c1) * eta (eta=nan, c1=0.5) must be >= 0, not nan"),
        (c_algebra, (-0.5, 0.5), "(eta=-0.5, c1=0.5) must be >= 0, not -0.75"),
        (c_algebra, (np.inf, 0.5), "(eta=inf, c1=0.5) must be finite, not inf"),
    ],
)
def test_c_algebra_returns_only_finite_costs(algebra, args, named):
    # each used to return a cost LossParams rejects: -0.6, -3.0, -2.0, inf,
    # nan, -0.75, inf
    with pytest.raises(ValueError, match=re.escape(named)):
        algebra(*args)


def test_threshold_flags_null_score_mapping():
    rates = np.array([0.05, 0.35, 0.95])
    eta = 0.7  # null-score eta -> rate cutoff 0.3
    assert threshold_flags(rates, eta).tolist() == [False, True, True]
    assert threshold_flags(rates, eta, orientation="raw_score").tolist() == [
        False,
        False,
        True,
    ]


def test_threshold_flags_miss_cost_loosens_cutoff():
    rates = np.array([0.2, 0.25, 0.4])
    strict = threshold_flags(rates, 0.7, c1=0.0)
    loose = threshold_flags(rates, 0.7, c1=0.5)  # cutoff 0.3 / 1.5 = 0.2
    assert strict.sum() <= loose.sum()
    assert loose.tolist() == [False, True, True]


def test_threshold_flags_infeasible_flags_nothing():
    # an infeasible selector result carries eta None; an infeasible cell of a
    # threshold array is NaN
    rates = np.linspace(0.0, 1.0, 9)
    for eta in (None, np.nan):
        for orientation in ORIENTATIONS:
            out = threshold_flags(rates, eta, c1=0.5, orientation=orientation)
            assert out.shape == rates.shape
            assert not out.any()


def test_threshold_flags_threshold_array():
    # a (2, 1) threshold array against 3 rates gives one row of flags per
    # threshold; the NaN row is infeasible and flags nothing
    rates = np.array([0.05, 0.35, 0.95])
    out = threshold_flags(rates, np.array([[0.7], [np.nan]]))
    assert out.tolist() == [[False, True, True], [False, False, False]]


def test_threshold_flags_bad_orientation():
    with pytest.raises(ValueError, match="orientation must be"):
        threshold_flags(np.array([0.5]), 0.5, orientation="x")
    with pytest.raises(ValueError, match="orientation must be"):
        threshold_flags(np.array([0.5]), None, orientation="x")


@pytest.mark.parametrize("c1", [-2.0, -1.0, np.nan])
def test_negative_or_nan_miss_cost_is_rejected(c1):
    # -2 would flag every rate, -1 divides by zero, NaN would flag nothing
    rates = np.array([0.1, 0.5, 0.9])
    with pytest.raises(ValueError, match="c1 must be >= 0"):
        threshold_flags(rates, 0.7, c1=c1)
    with pytest.raises(ValueError, match="c1 must be >= 0"):
        threshold_flags(rates, None, c1=c1)
    with pytest.raises(ValueError, match="c1 must be >= 0"):
        bfdr_coupled_rule(ScoreBatch(rates), BfdrConfig(q=0.2, k=10), c1=c1)


def test_orient_is_its_own_inverse():
    x = np.array([0.0, 0.25, 0.7, 1.0])
    assert orient(x, "null_score").tolist() == [1.0, 0.75, 1.0 - 0.7, 0.0]
    assert orient(x, "raw_score") is x
    for name in ORIENTATIONS:
        assert np.array_equal(orient(orient(x, name), name), x)
    with pytest.raises(ValueError, match="orientation must be"):
        orient(x, "sideways")


def test_coupled_rule_is_selector_plus_flag_rule():
    rng = np.random.default_rng(202)
    cfg = BfdrConfig(q=0.2, a=2.0, k=100)
    for _ in range(20):
        r = rng.random(50)
        got = bfdr_coupled_rule(ScoreBatch(r), cfg, c1=0.3)
        sel = gbfdr(ScoreBatch(1.0 - r), cfg)
        expect = threshold_flags(r, sel.eta, c1=0.3)
        assert np.array_equal(got, expect)


def test_coupled_rule_equals_bayes_at_selected_cost():
    # flags from the selected threshold coincide with the optimal rule whose
    # flag cost equals the mapped threshold
    rng = np.random.default_rng(203)
    cfg = BfdrConfig(q=0.3, a=1.0, k=50)
    r = rng.random(80)
    sel = gbfdr(ScoreBatch(1.0 - r), cfg)
    assert sel.feasible
    eta_r = 1.0 - sel.eta
    for c1 in (0.0, 0.8):
        coupled = bfdr_coupled_rule(ScoreBatch(r), cfg, c1=c1)
        via_bayes = bayes_rule(ScoreBatch(r), LossParams(c1, eta_r))
        assert np.array_equal(coupled, via_bayes)


def test_coupled_rule_raw_orientation():
    rng = np.random.default_rng(204)
    r = rng.random(60)
    cfg = BfdrConfig(q=0.2, a=1.0, k=100)
    got = bfdr_coupled_rule(ScoreBatch(r), cfg, orientation="raw_score")
    sel = gbfdr(ScoreBatch(r), cfg)
    assert np.array_equal(got, threshold_flags(r, sel.eta, orientation="raw_score"))
    with pytest.raises(ValueError):
        bfdr_coupled_rule(ScoreBatch(r), cfg, orientation="sideways")
