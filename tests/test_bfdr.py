"""Threshold selector behaviour: frozen cases, route equivalence, MC oracle."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from predfdr import bfdr
from predfdr.bfdr import (
    BfdrConfig,
    CapacityError,
    ScoreBatch,
    ThresholdResult,
    classic_bfdr,
    gbfdr,
    gbfdr_changepoint,
    gbfdr_looped,
    gbfdr_vectorized,
    mc_fdr_inverse,
    moment_derivative_check,
)


def as_tuple(res: ThresholdResult):
    return (res.eta, res.index, res.feasible)


# ------------------------------------------------------------ construction


def test_score_batch_validation():
    with pytest.raises(ValueError):
        ScoreBatch([])
    with pytest.raises(ValueError):
        ScoreBatch([[0.1, 0.2]])
    with pytest.raises(ValueError):
        ScoreBatch([0.1, np.nan])
    with pytest.raises(ValueError):
        ScoreBatch([0.1, 1.2])
    with pytest.raises(ValueError):
        ScoreBatch([-0.01])
    b = ScoreBatch([0.0, 0.5, 1.0])
    assert len(b) == 3
    assert "m=3" in repr(b)


def test_bfdr_config_validation():
    with pytest.raises(ValueError):
        BfdrConfig(q=0.0)
    with pytest.raises(ValueError):
        BfdrConfig(q=1.0)
    with pytest.raises(ValueError):
        BfdrConfig(q=0.1, a=-0.5)
    with pytest.raises(ValueError):
        BfdrConfig(q=0.1, k=0)
    with pytest.raises(ValueError):
        BfdrConfig(q=0.1, algorithm="magic")


# ------------------------------------------------------------- frozen cases


def test_classic_frozen_case():
    # means over nested selections: {.1,.3} -> .2 < .3; adding .5 hits the level
    batch = ScoreBatch([0.1, 0.3, 0.5, 0.9])
    res = classic_bfdr(batch, q=0.3, k=10)
    assert as_tuple(res) == (0.4, 4, True)


def test_generalized_frozen_case_a2():
    batch = ScoreBatch([0.1, 0.3, 0.5, 0.9])
    res = gbfdr_looped(batch, BfdrConfig(q=0.3, a=2.0, k=10))
    # at eta=0.5 the +-0.04 terms cancel exactly; 0.4 is the largest negative
    assert as_tuple(res) == (0.4, 4, True)


def test_sign_count_rule_frozen_case():
    batch = ScoreBatch([0.05, 0.15, 0.25])
    res = gbfdr_looped(batch, BfdrConfig(q=0.1, a=0.0, k=20))
    assert as_tuple(res) == (0.1, 2, True)


def test_infeasible_batch():
    batch = ScoreBatch([0.9, 0.95])
    for a in (0.0, 1.0, 2.0):
        res = gbfdr(batch, BfdrConfig(q=0.1, a=a, k=50))
        assert as_tuple(res) == (None, None, False)
    assert as_tuple(classic_bfdr(batch, 0.1, 50)) == (None, None, False)


def test_score_equal_to_q_contributes_zero():
    # a=0 must not count sign(0) items either way
    batch = ScoreBatch([0.2, 0.2, 0.1])
    res = gbfdr_looped(batch, BfdrConfig(q=0.2, a=0.0, k=10))
    assert as_tuple(res) == (1.0, 10, True)


def test_eta_is_index_over_k():
    rng = np.random.default_rng(1)
    for _ in range(50):
        k = int(rng.integers(2, 300))
        batch = ScoreBatch(rng.random(int(rng.integers(1, 60))))
        res = gbfdr(batch, BfdrConfig(q=0.25, a=1.0, k=k))
        if res.feasible:
            assert res.eta == res.index / k


# ------------------------------------------------------- route equivalence


def test_looped_vectorized_identical():
    rng = np.random.default_rng(77)
    for _ in range(300):
        m = int(rng.choice([1, 7, 80, 600]))
        batch = ScoreBatch(rng.random(m))
        cfg = BfdrConfig(
            q=float(rng.choice([0.3, 0.1, 2.0**-9])),
            a=float(rng.choice([0.0, 0.5, 1.0, 2.0, 3.0])),
            k=int(rng.choice([17, 100, 1000])),
        )
        assert as_tuple(gbfdr_looped(batch, cfg)) == as_tuple(gbfdr_vectorized(batch, cfg))


def test_classic_matches_a1_on_continuous_scores():
    rng = np.random.default_rng(78)
    for _ in range(300):
        batch = ScoreBatch(rng.random(int(rng.integers(1, 400))))
        q = float(rng.uniform(0.02, 0.6))
        k = int(rng.integers(5, 400))
        assert as_tuple(classic_bfdr(batch, q, k)) == as_tuple(
            gbfdr_looped(batch, BfdrConfig(q=q, a=1.0, k=k))
        )


@st.composite
def adversarial_batches(draw):
    """Batches built to sit on the selector's boundaries: scores on grid
    points and one ulp above them, scores equal to q, all-equal batches,
    batches symmetric about q, m = 1 and k = 1."""
    k = draw(st.sampled_from([1, 2, 3, 10, 100, 1000]) | st.integers(1, 2000))
    q = draw(st.sampled_from([0.5, 0.25, 0.2, 0.1, 2.0**-10]) | st.floats(1e-6, 1.0 - 1e-6))
    a = draw(st.sampled_from([0.0, 1.0, 2.0]))
    on_grid = st.integers(0, k).map(lambda l: l / k)
    cell = st.one_of(
        on_grid,
        on_grid.map(lambda v: min(float(np.nextafter(v, 2.0)), 1.0)),
        st.just(q),
        st.floats(0.0, 1.0),
    )
    symmetric = st.lists(st.floats(0.0, min(q, 1.0 - q)), min_size=1, max_size=20).map(
        lambda d: [q + x for x in d] + [q - x for x in d]
    )
    scores = draw(
        st.one_of(
            st.lists(cell, min_size=1, max_size=40),
            cell.flatmap(lambda v: st.lists(st.just(v), min_size=1, max_size=40)),
            symmetric,
        )
    )
    return ScoreBatch(np.clip(scores, 0.0, 1.0)), BfdrConfig(q=q, a=a, k=k)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(adversarial_batches())
def test_all_routes_identical_on_adversarial_batches(case):
    batch, cfg = case
    want = as_tuple(gbfdr_looped(batch, cfg))
    assert as_tuple(gbfdr_vectorized(batch, cfg)) == want
    assert as_tuple(gbfdr_changepoint(batch, cfg)) == want


def test_changepoint_exact_fallback_decides_cancelling_batch(monkeypatch):
    # s = q +- d cancels: the sorted prefix sum of all 16 terms is -5.6e-17
    # while the looped scan's masked sum is +2.8e-17, so only the exact
    # fallback rejects eta = 1 the way the looped scan does
    q = 0.25
    d = np.arange(1, 9) / 100
    batch = ScoreBatch(np.concatenate([q + d, q - d]))
    cfg = BfdrConfig(q=q, a=1.0, k=100)
    calls = []
    exact = bfdr._masked_sum
    monkeypatch.setattr(bfdr, "_masked_sum", lambda *args: calls.append(args) or exact(*args))
    res = gbfdr_changepoint(batch, cfg)
    assert calls
    assert as_tuple(res) == as_tuple(gbfdr_looped(batch, cfg)) == (0.32, 32, True)


def test_dispatch_honours_algorithm():
    batch = ScoreBatch([0.1, 0.6])
    assert BfdrConfig(q=0.3).algorithm == "changepoint"
    results = {
        as_tuple(gbfdr(batch, BfdrConfig(q=0.3, a=1.0, k=10, algorithm=alg)))
        for alg in ("changepoint", "looped", "vectorized")
    }
    assert len(results) == 1


def test_vectorized_capacity_guard():
    batch = ScoreBatch(np.linspace(0.0, 1.0, 100))
    with pytest.raises(CapacityError):
        gbfdr_vectorized(batch, BfdrConfig(q=0.2, k=1000), max_bytes=1000)


def test_threshold_monotone_in_q():
    # a more tolerant target can only loosen the selected threshold
    rng = np.random.default_rng(15)
    for _ in range(60):
        batch = ScoreBatch(rng.random(40))
        a = float(rng.choice([0.0, 1.0, 2.0]))
        lo = gbfdr(batch, BfdrConfig(q=0.05, a=a, k=200))
        hi = gbfdr(batch, BfdrConfig(q=0.3, a=a, k=200))
        if lo.feasible:
            assert hi.feasible and hi.eta >= lo.eta


# ------------------------------------------------------------ MC threshold


def test_mc_fdr_certain_outliers():
    # every item is truly an outlier, so any selection has zero FDP
    est = mc_fdr_inverse(np.ones(20), q=0.2, draws=500, k=10, seed=3)
    assert est.mean == 1.0
    assert est.se == 0.0
    assert est.feasible_draws == 500


def test_mc_fdr_certain_nulls():
    est = mc_fdr_inverse(np.zeros(20), q=0.2, draws=300, k=10, seed=3)
    assert est.feasible_draws == 0
    assert np.isnan(est.mean)


def test_mc_fdr_chunk_invariance():
    rates = np.random.default_rng(5).random(30)
    a = mc_fdr_inverse(rates, 0.25, draws=400, k=20, seed=9, chunk=7)
    b = mc_fdr_inverse(rates, 0.25, draws=400, k=20, seed=9, chunk=400)
    assert (a.mean, a.se, a.feasible_draws) == (b.mean, b.se, b.feasible_draws)


def test_mc_fdr_tracks_deterministic_on_coarse_grid():
    rng = np.random.default_rng(31)
    rates = rng.random(50)
    det = classic_bfdr(ScoreBatch(1.0 - rates), 0.2, 20)
    est = mc_fdr_inverse(rates, 0.2, draws=8000, k=20, seed=4)
    assert det.feasible
    assert abs(est.mean - det.eta) <= 3.0 * est.se + 1.0 / 20.0


def test_mc_fdr_validation():
    with pytest.raises(ValueError):
        mc_fdr_inverse([], 0.2, 10, 10)
    with pytest.raises(ValueError):
        mc_fdr_inverse([0.5, 1.4], 0.2, 10, 10)
    with pytest.raises(ValueError):
        mc_fdr_inverse([0.5], 1.2, 10, 10)


# ----------------------------------------------------- derivative identity


def test_moment_derivative_frozen_case():
    chk = moment_derivative_check(ScoreBatch([0.3]), q=0.1, a=1.0, eta=1.0)
    assert chk.criterion == pytest.approx(0.2, rel=1e-12)
    assert chk.derivative == pytest.approx(-0.4, rel=1e-6)


def test_moment_derivative_ratio():
    rng = np.random.default_rng(90)
    done = 0
    while done < 40:
        batch = ScoreBatch(rng.random(int(rng.integers(3, 50))))
        q = float(rng.uniform(0.05, 0.5))
        a = float(rng.choice([0.0, 0.5, 1.0, 2.0, 3.0]))
        chk = moment_derivative_check(batch, q, a, eta=float(rng.uniform(0.3, 1.0)))
        if abs(chk.criterion) < 1e-3:
            continue
        assert chk.derivative / chk.criterion == pytest.approx(-(a + 1.0), rel=1e-5)
        done += 1


def test_moment_derivative_kink_rejected():
    with pytest.raises(ValueError):
        moment_derivative_check(ScoreBatch([0.2, 0.5]), q=0.2, a=1.0, eta=1.0)


def test_moment_derivative_step_shrinks_near_kink():
    chk = moment_derivative_check(
        ScoreBatch([0.2, 0.6]), q=0.2 + 1e-8, a=1.0, eta=1.0, step=1e-6
    )
    assert chk.step == pytest.approx(5e-9)
    assert chk.derivative / chk.criterion == pytest.approx(-2.0, rel=1e-4)
