"""Acceptance gate: nine headline behaviours, one test and one verdict each.

Every test prints a single summary line with the measured quantities (shown
with ``pytest -s`` and on failure); tolerances are stated inline and are not
derived from the implementation under test.
"""
import math
import time

import numpy as np
import pytest
from scipy import integrate

from predfdr.bench import BenchSpec, reference_spec, run_bench
from predfdr.bfdr import (
    BfdrConfig,
    ScoreBatch,
    classic_bfdr,
    gbfdr_changepoint,
    gbfdr_looped,
    gbfdr_vectorized,
    mc_fdr_inverse,
    moment_derivative_check,
)
from predfdr.decision import LossParams, bayes_rule, bfdr_coupled_rule, expected_loss
from predfdr.pipeline import DIFFUSE_PRIOR, DetectConfig, detect, lagged_scores
from predfdr.predictive import NigParams, nig_update
from predfdr.simgen import SimSpec, gen_data
from predfdr.special import student_t_cdf

SEED = 20260823


def result_tuple(res):
    return (res.eta, res.index, res.feasible)


def test_criterion_1_selector_routes_identical():
    """Looped, vectorised and change-point selectors agree exactly on 1000+
    random batches."""
    rng = np.random.default_rng(SEED)
    combos = [
        (m, a, q, k)
        for m in (10, 1000)
        for a in (0.0, 0.5, 1.0, 2.0)
        for q in (0.2, 0.05, 2.0**-10)
        for k in (100, 1000)
    ]
    t0 = time.perf_counter()
    checked = 0
    feasible = 0
    for _ in range(21):
        for m, a, q, k in combos:
            batch = ScoreBatch(rng.random(m))
            cfg = BfdrConfig(q=q, a=a, k=k)
            rl = gbfdr_looped(batch, cfg)
            rv = gbfdr_vectorized(batch, cfg)
            rc = gbfdr_changepoint(batch, cfg)
            assert result_tuple(rl) == result_tuple(rv), (m, a, q, k)
            assert result_tuple(rl) == result_tuple(rc), (m, a, q, k)
            checked += 1
            feasible += rl.feasible
    dt = time.perf_counter() - t0
    assert checked >= 1000
    assert dt < 120.0
    print(
        f"criterion 1 PASS: {checked} batches bit-identical across routes "
        f"({feasible} feasible) in {dt:.1f}s"
    )


def test_criterion_2_classic_rule_is_exponent_one():
    """The independent mean-rule implementation equals the a=1 selector."""
    rng = np.random.default_rng(SEED + 1)
    t0 = time.perf_counter()
    checked = 0
    for _ in range(84):
        for m in (10, 1000):
            for q in (0.2, 0.05, 2.0**-10):
                for k in (100, 1000):
                    batch = ScoreBatch(rng.random(m))
                    rc = classic_bfdr(batch, q, k)
                    rg = gbfdr_looped(batch, BfdrConfig(q=q, a=1.0, k=k))
                    assert result_tuple(rc) == result_tuple(rg), (m, q, k)
                    checked += 1
    dt = time.perf_counter() - t0
    assert checked >= 1000
    print(f"criterion 2 PASS: classic == a=1 on {checked} batches in {dt:.1f}s")


def test_criterion_3_mc_threshold_tracks_deterministic():
    """Monte Carlo realized-FDP threshold matches the mean rule on a coarse
    grid within 3 SE plus one grid step."""
    rng = np.random.default_rng(SEED)
    rates = rng.random(50)
    q, k = 0.2, 20
    det = classic_bfdr(ScoreBatch(1.0 - rates), q, k)
    assert det.feasible
    t0 = time.perf_counter()
    est = mc_fdr_inverse(rates, q, draws=20000, k=k, seed=0)
    dt = time.perf_counter() - t0
    gap = abs(est.mean - det.eta)
    tol = 3.0 * est.se + 1.0 / k
    assert est.feasible_draws >= 19000  # near-total feasibility at this level
    assert gap <= tol
    assert dt < 60.0
    print(
        f"criterion 3 PASS: |mc {est.mean:.4f} - det {det.eta:.4f}| = {gap:.4f} "
        f"<= {tol:.4f} ({est.feasible_draws}/20000 feasible draws, k={k}) in {dt:.1f}s"
    )


def test_criterion_4_moment_derivative_identity():
    """d/dq of the companion power-sum moment equals -(a+1) times the
    selection criterion, to 1e-5 relative, away from kinks."""
    rng = np.random.default_rng(SEED)
    checked = 0
    worst = 0.0
    while checked < 200:
        m = int(rng.integers(3, 60))
        s = rng.random(m)
        q = float(rng.uniform(0.05, 0.5))
        a = float(rng.choice([0.0, 0.5, 1.0, 2.0, 3.0]))
        eta = float(rng.uniform(0.2, 1.0))
        # identity is stated away from kinks; near-kink cases also spoil the
        # finite difference for fractional exponents
        if np.min(np.abs(s[s <= eta] - q), initial=1.0) < 1e-3:
            continue
        chk = moment_derivative_check(ScoreBatch(s), q, a, eta)
        if abs(chk.criterion) < 0.05:
            continue
        rel = abs(chk.derivative / chk.criterion + (a + 1.0)) / (a + 1.0)
        worst = max(worst, rel)
        checked += 1
    assert worst < 1e-5
    print(f"criterion 4 PASS: ratio = -(a+1) on {checked} cases, worst rel {worst:.2e}")


def test_criterion_5_flag_rule_minimises_expected_loss():
    """The closed-form rule attains the brute-force minimum over all 2^12
    flag vectors on 100 random instances."""
    rng = np.random.default_rng(SEED)
    m = 12
    subsets = ((np.arange(2**m)[:, None] >> np.arange(m)[None, :]) & 1).astype(bool)
    sizes = subsets.sum(axis=1)
    worst = 0.0
    for _ in range(100):
        r = rng.random(m)
        c1 = float(rng.uniform(0.0, 2.0))
        c2 = float(rng.uniform(0.0, 1.5))
        params = LossParams(c1, c2)
        losses = subsets @ (-r) + c1 * (~subsets) @ r + c2 * sizes
        best = float(losses.min())
        opt_loss = expected_loss(ScoreBatch(r), bayes_rule(ScoreBatch(r), params), params)
        worst = max(worst, opt_loss - best)
        assert opt_loss <= best + 1e-10
    print(f"criterion 5 PASS: optimal rule within {worst:.2e} of 4096-vector minimum")


def test_criterion_6_simulation_study():
    """Paper-scale synthetic panel: contamination counts, pooled non-inferior
    precision/recall at small q, and a level with high balanced accuracy."""
    t0 = time.perf_counter()
    spec = SimSpec()  # m=1000, t_len=2000, seed=0
    data = gen_data(spec)
    counts = data.truth.sum(axis=0)[spec.lag :]
    cov = float(np.mean((counts >= 15) & (counts <= 35)))

    scores = lagged_scores(data.values, DIFFUSE_PRIOR, spec.lag, threads=4)
    qs = [2.0**-v for v in range(1, 16)]
    cfg = DetectConfig(bfdr=BfdrConfig(q=qs[0], a=2.0, k=1000))
    rep = detect(
        scores, data.truth[:, spec.lag :], cfg, q_values=qs, threads=4, t_offset=spec.lag
    )
    dt = time.perf_counter() - t0

    # (a) the generator hits its nominal contamination band
    assert cov >= 0.95

    # (b) pooled over q <= 2^-6, the selector-coupled rule is non-inferior to
    # the matched fixed baselines on both precision and recall in >= 70% of
    # (q, t) cells
    lo = qs.index(2.0**-6)
    P, R = rep.metrics_bfdr["precision"], rep.metrics_bfdr["recall"]
    Pf, Rf = rep.metrics_fixed["precision"], rep.metrics_fixed["recall"]
    frac_p = float(np.mean(P[lo:] >= Pf[lo:]))
    frac_r = float(np.mean(R[lo:] >= Rf[lo:]))
    strict_p = float(np.mean(P[lo:] > Pf[lo:]))
    strict_r = float(np.mean(R[lo:] > Rf[lo:]))
    assert frac_p >= 0.70
    assert frac_r >= 0.70

    # (c) some level keeps balanced accuracy >= 0.5 almost everywhere while
    # peaking >= 0.85
    BA = rep.metrics_bfdr["balanced_accuracy"]
    winners = [
        (q, float(np.mean(BA[qi] >= 0.5)), float(BA[qi].max()))
        for qi, q in enumerate(qs)
        if np.mean(BA[qi] >= 0.5) >= 0.95 and BA[qi].max() >= 0.85
    ]
    assert winners, "no level reached the balanced-accuracy bar"

    assert dt < 900.0
    q_star, f_star, m_star = winners[0]
    print(
        f"criterion 6 PASS: coverage {cov:.3f}; pooled P>= {frac_p:.3f} "
        f"R>= {frac_r:.3f} (strict {strict_p:.3f}/{strict_r:.3f}); "
        f"q={q_star:.2e} has BA>=.5 on {f_star:.3f} with max {m_star:.3f}; {dt:.0f}s"
    )


def test_criterion_7_cdf_quadrature_and_conjugacy():
    """Predictive CDF matches direct density quadrature to 1e-10 on a 50-point
    lattice; sequential and batch updates agree to 1e-12 relative."""

    def pdf(u, dof):
        c = math.exp(math.lgamma((dof + 1) / 2.0) - math.lgamma(dof / 2.0))
        c /= math.sqrt(dof * math.pi)
        return c * (1.0 + u * u / dof) ** (-(dof + 1) / 2.0)

    dofs = (1.0, 2.5, 8.0, 30.02, 120.0)
    xs = (-6.0, -3.1, -1.4, -0.5, 0.0, 0.4, 1.1, 2.2, 3.8, 7.5)
    worst_cdf = 0.0
    n_points = 0
    # integrate the nearer tail; crossing the bulk of the mass ruins the
    # quadrature error estimate
    for dof in dofs:
        for x in xs:
            if x <= 0.0:
                val, err = integrate.quad(
                    pdf, -np.inf, x, args=(dof,), limit=300, epsabs=1e-13, epsrel=1e-13
                )
            else:
                tail, err = integrate.quad(
                    pdf, x, np.inf, args=(dof,), limit=300, epsabs=1e-13, epsrel=1e-13
                )
                val = 1.0 - tail
            assert err < 1e-12
            worst_cdf = max(worst_cdf, abs(student_t_cdf(x, dof) - val))
            n_points += 1
    assert n_points == 50
    assert worst_cdf < 1e-10

    rng = np.random.default_rng(SEED)
    worst_conj = 0.0
    for _ in range(100):
        prior = NigParams(
            float(rng.normal()),
            float(rng.uniform(0.05, 5.0)),
            float(rng.uniform(0.3, 5.0)),
            float(rng.uniform(0.3, 5.0)),
        )
        data = rng.normal(size=int(rng.integers(1, 40)))
        batch = nig_update(prior, data)
        seq = prior
        for x in data:
            seq = nig_update(seq, [x])
        for got, want in (
            (seq.mu0, batch.mu0),
            (seq.nu, batch.nu),
            (seq.alpha, batch.alpha),
            (seq.beta, batch.beta),
        ):
            denom = max(abs(want), 1.0)
            worst_conj = max(worst_conj, abs(got - want) / denom)
    assert worst_conj < 1e-12
    print(
        f"criterion 7 PASS: CDF vs quadrature worst {worst_cdf:.2e} on 50 points; "
        f"conjugacy worst rel {worst_conj:.2e}"
    )


def test_criterion_8_benchmark_reference_and_scaling():
    """The reference benchmark completes with zero selector mismatches and
    both implementations scale near-linearly in the grid size."""
    t0 = time.perf_counter()
    ref = run_bench(reference_spec(seed=0))  # raises on any mismatch
    ref_dt = time.perf_counter() - t0
    summary = {row["method"]: row for row in ref.summary()}
    assert len(ref.runs) == 2 * 1500
    assert all(row["mean"] > 0.0 for row in summary.values())

    sweep = run_bench(
        BenchSpec(
            replications=15,
            m=1000,
            a=2.0,
            q=0.2,
            k_values=(100, 500, 1000, 5000, 10000, 50000),
            seed=1,
            warmup=3,
        )
    )
    med = sweep.median_seconds()
    ks = np.array([100, 500, 1000, 5000, 10000, 50000], dtype=float)
    slopes = {}
    for method in ("looped", "vectorized"):
        ts = np.array([med[(method, int(k))] for k in ks])
        slopes[method] = float(np.polyfit(np.log(ks), np.log(ts), 1)[0])
        assert 0.7 <= slopes[method] <= 1.3, (method, slopes[method])
    print(
        "criterion 8 PASS: reference 1500 reps clean in "
        f"{ref_dt:.0f}s (means looped {summary['looped']['mean']*1e3:.1f}ms, "
        f"vectorized {summary['vectorized']['mean']*1e3:.1f}ms); "
        f"slopes looped {slopes['looped']:.2f}, vectorized {slopes['vectorized']:.2f}"
    )


def test_criterion_9_null_panel_fdp_control():
    """On a stationary null panel the coupled rule's realized false discovery
    proportion stays at the nominal level within binomial slack."""
    t0 = time.perf_counter()
    spec = SimSpec(
        m=1000,
        t_len=2000,
        lag=30,
        outlier_rate=0.0,
        mean_params=(0.0, 0.0, 1.0),
        sd_inlier_params=(1.0, 1.0),
        sd_outlier_params=(1.0, 1.0),
        seed=0,
    )
    data = gen_data(spec)
    vals = data.values
    scores = lagged_scores(vals, DIFFUSE_PRIOR, spec.lag, threads=4)
    q = 0.1
    cfg = BfdrConfig(q=q, a=1.0, k=1000)
    fdps = []
    for ti in range(scores.shape[1] - 1):
        flags = bfdr_coupled_rule(ScoreBatch(scores[:, ti]), cfg)
        n_sel = int(flags.sum())
        if n_sel == 0:
            continue
        # realized outcome of the upper-tail score: did the next observation
        # stay below the flagged one
        gamma = vals[:, spec.lag + ti] > vals[:, spec.lag + ti + 1]
        fdps.append(float(np.sum(flags & ~gamma)) / n_sel)
    fdps = np.asarray(fdps)
    n = fdps.size
    assert n >= 1000  # the check must not pass vacuously
    bound = q + 3.0 * math.sqrt(q * (1.0 - q) / n)
    mean_fdp = float(fdps.mean())
    dt = time.perf_counter() - t0
    assert mean_fdp <= bound
    print(
        f"criterion 9 PASS: mean FDP {mean_fdp:.4f} <= {bound:.4f} "
        f"over {n} nonempty flag sets in {dt:.0f}s"
    )
