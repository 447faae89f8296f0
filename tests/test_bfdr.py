"""Threshold selector behaviour: frozen cases, route equivalence, MC oracle."""
import re

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
from predfdr.pipeline import DetectConfig


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
    # an exponent that is not a finite number >= 0 is named by its value
    for a in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ValueError, match=re.escape(f"got a={a!r}")):
            BfdrConfig(q=0.1, a=a)
    with pytest.raises(ValueError):
        BfdrConfig(q=0.1, k=0)
    with pytest.raises(ValueError):
        BfdrConfig(q=0.1, algorithm="magic")


@pytest.mark.parametrize("k", [2.5, 10.0, "10", None])
def test_bfdr_config_rejects_non_integer_k(k):
    # k = 2.5 would build the grid 0, 0.4, 0.8, 1.2 and return eta = 0.8
    with pytest.raises(ValueError, match="integer k"):
        BfdrConfig(q=0.3, k=k)


def test_bfdr_config_accepts_numpy_integer_k():
    cfg = BfdrConfig(q=0.3, k=np.int64(10))
    assert cfg.k == 10 and type(cfg.k) is int
    assert as_tuple(gbfdr(ScoreBatch([0.1, 0.3, 0.5, 0.9]), cfg)) == (0.4, 4, True)


@pytest.mark.parametrize("k", [2.5, 10.0, "10", True])
@pytest.mark.parametrize(
    "use",
    [
        lambda k: BfdrConfig(q=0.3, k=k),
        lambda k: classic_bfdr(ScoreBatch([0.1, 0.3, 0.5, 0.9]), 0.3, k),
        lambda k: mc_fdr_inverse([0.2, 0.7], 0.2, draws=10, k=k),
    ],
    ids=["BfdrConfig", "classic_bfdr", "mc_fdr_inverse"],
)
def test_every_grid_size_is_an_integer(use, k):
    # k = 2.5 used to fail in range() in classic_bfdr and with an IndexError
    # in mc_fdr_inverse; a bool is not a grid size either
    with pytest.raises(ValueError, match=f"integer k, got k={re.escape(repr(k))}$"):
        use(k)


@pytest.mark.parametrize("q", [0.0, 1.0, float("nan")])
@pytest.mark.parametrize(
    "use, name",
    [
        (lambda q: BfdrConfig(q=q), "q"),
        (lambda q: classic_bfdr(ScoreBatch([0.1, 0.3, 0.5, 0.9]), q, 10), "q"),
        (lambda q: mc_fdr_inverse([0.2, 0.7], q, draws=10, k=10), "q"),
        (lambda q: DetectConfig(BfdrConfig(q=0.2), baseline_etas=(0.1, q)), "baseline eta"),
    ],
    ids=["BfdrConfig", "classic_bfdr", "mc_fdr_inverse", "DetectConfig"],
)
def test_every_level_lies_strictly_between_0_and_1(use, name, q):
    # each owner used to word its own message, and two did not name the value
    named = f"{name} must lie in (0, 1), got {name}={q!r}"
    with pytest.raises(ValueError, match=re.escape(named)):
        use(q)


def test_score_batch_keeps_its_own_read_only_scores():
    src = np.array([0.1, 0.3, 0.5, 0.9])
    batch = ScoreBatch(src)
    cfg = BfdrConfig(q=0.3, a=1.0, k=10)
    before = as_tuple(gbfdr_changepoint(batch, cfg))
    src[:] = 0.0
    assert np.array_equal(batch.scores, [0.1, 0.3, 0.5, 0.9])
    assert as_tuple(gbfdr_changepoint(batch, cfg)) == before == (0.4, 4, True)
    with pytest.raises(ValueError):
        batch.scores[0] = 0.0
    with pytest.raises(ValueError):
        batch.sorted_scores()[0] = 0.0


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


def assert_sorted_permutation(sorted_scores, scores):
    # ascending and the same multiset of values; a zero may come back with
    # either sign (the SIMD sort's min and max of -0.0 and 0.0 return one
    # operand for both), which compares equal, and every other score keeps
    # its bits
    assert np.all(sorted_scores[1:] >= sorted_scores[:-1])
    want = np.array(sorted(scores), dtype=float)
    assert np.array_equal(sorted_scores, want)
    nonzero = want != 0.0
    assert sorted_scores[nonzero].tobytes() == want[nonzero].tobytes()


def test_signed_zeros_and_ties_select_as_looped():
    # the sort may hand back a zero with either sign; the selector must not
    # tell -0.0 from 0.0, nor mishandle repeated scores and those equal to q
    q = 0.25
    rng = np.random.default_rng(3)
    pool = np.array([0.0, -0.0, q, q, 0.125, 0.5, 0.75, 1.0])
    for size in (1, 2, 5, 17, 64, 300):
        scores = rng.choice(pool, size)
        batch = ScoreBatch(scores)
        assert_sorted_permutation(batch.sorted_scores(), scores)
        for k in (1, 4, 8, 100, 1000):
            for a in (0.0, 0.5, 1.0, 2.0):
                cfg = BfdrConfig(q=q, a=a, k=k)
                want = as_tuple(gbfdr_looped(ScoreBatch(scores), cfg))
                assert as_tuple(gbfdr_changepoint(batch, cfg)) == want, (size, k, a)


@st.composite
def shared_batch_levels(draw):
    """Scores with ties, signed zeros and scores on two grids, several (q, a)
    levels including q at a score and a = 0, and the grid sizes k1, k2, k1 to
    select in turn."""
    grid_size = st.sampled_from([1, 2, 3, 10, 100, 1000]) | st.integers(1, 2000)
    k1, k2 = draw(grid_size), draw(grid_size)
    on_grid = st.sampled_from([k1, k2]).flatmap(lambda k: st.integers(0, k).map(lambda l: l / k))
    pool = draw(st.lists(on_grid | st.floats(0.0, 1.0) | st.just(-0.0), min_size=1, max_size=6))
    scores = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))
    q = st.sampled_from([0.5, 0.25, 0.1, 2.0**-10]) | st.floats(1e-6, 1.0 - 1e-6)
    inside = [v for v in pool if 0.0 < v < 1.0]
    if inside:
        q = q | st.sampled_from(inside)
    a = st.sampled_from([0.0, 1.0, 2.0]) | st.floats(0.0, 4.0)
    levels = draw(st.lists(st.tuples(q, a), min_size=1, max_size=4))
    return scores, levels, (k1, k2, k1)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(shared_batch_levels())
def test_shared_batch_selects_as_fresh_batches(case):
    # one batch serves every level and grid size in turn, so each selection
    # reads the sort and blocks an earlier call left in the batch
    scores, levels, ks = case
    shared = ScoreBatch(scores)
    assert_sorted_permutation(shared.sorted_scores(), scores)
    for k in ks:
        for q, a in levels:
            cfg = BfdrConfig(q=q, a=a, k=k)
            want = as_tuple(gbfdr_looped(ScoreBatch(scores), cfg))
            assert as_tuple(gbfdr_changepoint(shared, cfg)) == want, (k, q, a)


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


def test_changepoint_exact_fallback_sums_in_original_order(monkeypatch):
    # below 0.95 the four scores q +- .15, q +- .19 cancel: their sorted
    # prefix sum is 0.0, while the looped scan's masked sum over the batch in
    # its own order is -2.8e-17, so eta = 0.94 is feasible only when the
    # fallback masks the original-order scores and terms, not sorted ones
    q = 0.2
    batch = ScoreBatch(np.concatenate([[0.95], q + np.array([15, -15, -19, 19]) / 100]))
    cfg = BfdrConfig(q=q, a=1.0, k=100)
    calls = []
    exact = bfdr._masked_sum
    monkeypatch.setattr(bfdr, "_masked_sum", lambda *args: calls.append(args) or exact(*args))
    res = gbfdr_changepoint(batch, cfg)
    assert len(calls) == 1
    assert as_tuple(res) == as_tuple(gbfdr_looped(batch, cfg)) == (0.94, 94, True)


def test_dispatch_honours_algorithm():
    batch = ScoreBatch([0.1, 0.6])
    assert BfdrConfig(q=0.3).algorithm == "changepoint"
    results = {
        as_tuple(gbfdr(batch, BfdrConfig(q=0.3, a=1.0, k=10, algorithm=alg)))
        for alg in ("changepoint", "looped", "vectorized")
    }
    assert len(results) == 1


def test_vectorized_capacity_guard(monkeypatch):
    # the guard reads the budget at call time, before any array is built
    monkeypatch.setattr(bfdr, "DEFAULT_MAX_BYTES", 1000)
    batch = ScoreBatch(np.linspace(0.0, 1.0, 100))
    with pytest.raises(CapacityError):
        gbfdr_vectorized(batch, BfdrConfig(q=0.2, k=1000))


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


def test_mc_fdr_chunk_invariance(monkeypatch):
    rates = np.random.default_rng(5).random(30)
    monkeypatch.setattr(bfdr, "_MC_CHUNK", 7)
    a = mc_fdr_inverse(rates, 0.25, draws=400, k=20, seed=9)
    monkeypatch.setattr(bfdr, "_MC_CHUNK", 400)
    b = mc_fdr_inverse(rates, 0.25, draws=400, k=20, seed=9)
    assert (a.mean, a.se, a.feasible_draws) == (b.mean, b.se, b.feasible_draws)
    assert np.array_equal(a.fdp, b.fdp, equal_nan=True)


def test_mc_fdr_mean_fdp_per_grid_value():
    # null scores 1 - rate = [1, 0, 0, 1]: grid values 0 .. 0.75 select the
    # two certain outliers, and 1 selects all four, two of them false
    est = mc_fdr_inverse([0.0, 1.0, 1.0, 0.0], q=0.2, draws=30, k=4, seed=1)
    assert est.fdp.tolist() == [0.0, 0.0, 0.0, 0.0, 0.5]
    # a grid value that selects nothing has no FDP
    est = mc_fdr_inverse([0.3], q=0.2, draws=30, k=4, seed=1)
    assert np.isnan(est.fdp[:3]).all() and np.isfinite(est.fdp[3:]).all()


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


@pytest.mark.parametrize(
    "kwargs, name",
    [({"k": 0}, "k"), ({"k": -3}, "k"), ({"draws": 0}, "draws")],
)
def test_mc_fdr_rejects_counts_below_one(kwargs, name):
    # k = 0 used to divide by zero into a NaN mean
    args = {"rates": [0.2, 0.7], "q": 0.2, "draws": 10, "k": 10, **kwargs}
    with pytest.raises(ValueError, match=f"^{name} must be >= 1"):
        mc_fdr_inverse(**args)


@pytest.mark.parametrize(
    "kwargs, named",
    [
        ({"draws": 2.5}, "integer draws, got draws=2.5"),
        ({"draws": True}, "integer draws, got draws=True"),
        ({"seed": 1.5}, "integer seed, got seed=1.5"),
        ({"seed": -1}, "seed >= 0, got seed=-1"),
    ],
)
def test_mc_fdr_draws_and_seed_follow_the_integer_rule(kwargs, named):
    # draws = 2.5 and seed = 1.5 used to fail with a TypeError, draws = True
    # ran one draw, and seed = -1 failed with numpy's message
    args = {"rates": [0.2, 0.7], "q": 0.2, "draws": 10, "k": 10, **kwargs}
    with pytest.raises(ValueError, match=re.escape(named)):
        mc_fdr_inverse(**args)


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
    chk = moment_derivative_check(ScoreBatch([0.2, 0.6]), q=0.2 + 1e-8, a=1.0, eta=1.0)
    assert chk.step == pytest.approx(5e-9)
    assert chk.derivative / chk.criterion == pytest.approx(-2.0, rel=1e-4)
