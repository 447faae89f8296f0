"""Conjugate update, posterior predictive, and outlier scores."""
import math

import numpy as np
import pytest

from predfdr.predictive import (
    NigParams,
    StudentTPredictive,
    nig_update,
    posterior_predictive,
    score,
    t_cdf,
)


# ---------------------------------------------------------------- NIG update


def test_nig_update_diffuse_prior_frozen():
    post = nig_update(NigParams(0.0, 1e-4, 0.01, 0.01), [1.0, 2.0, 3.0])
    assert post.mu0 == pytest.approx(1.9999333355554814, rel=1e-14)
    assert post.nu == pytest.approx(3.0001, rel=1e-14)
    assert post.alpha == pytest.approx(1.51, rel=1e-14)
    assert post.beta == pytest.approx(1.0101999933335555, rel=1e-14)


def test_nig_update_constant_data_frozen():
    # four repeats of the prior mean: only nu and alpha move
    post = nig_update(NigParams(5.0, 10.0, 2.0, 2.0), [5.0, 5.0, 5.0, 5.0])
    assert (post.mu0, post.nu, post.alpha, post.beta) == (5.0, 14.0, 4.0, 2.0)


def test_nig_update_empty_returns_prior():
    prior = NigParams(1.0, 2.0, 3.0, 4.0)
    assert nig_update(prior, []) is prior


def test_nig_update_rejects_nonfinite():
    with pytest.raises(ValueError):
        nig_update(NigParams(0.0, 1.0, 1.0, 1.0), [1.0, np.nan])


def test_nig_params_validation():
    with pytest.raises(ValueError):
        NigParams(0.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        NigParams(0.0, 1.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        NigParams(math.inf, 1.0, 1.0, 1.0)


def test_sequential_equals_batch_update():
    rng = np.random.default_rng(123)
    for _ in range(40):
        prior = NigParams(
            float(rng.normal()),
            float(rng.uniform(0.05, 4.0)),
            float(rng.uniform(0.3, 5.0)),
            float(rng.uniform(0.3, 5.0)),
        )
        data = rng.normal(size=int(rng.integers(1, 30)))
        batch = nig_update(prior, data)
        seq = prior
        for x in data:
            seq = nig_update(seq, [x])
        assert seq.mu0 == pytest.approx(batch.mu0, rel=1e-12, abs=1e-12)
        assert seq.nu == pytest.approx(batch.nu, rel=1e-12)
        assert seq.alpha == pytest.approx(batch.alpha, rel=1e-12)
        assert seq.beta == pytest.approx(batch.beta, rel=1e-12)


def test_posterior_moments_against_grid_bayes():
    # discretize (mu, s2), weight prior density by the likelihood, and compare
    # the resulting posterior mean of mu and of s2 with the closed form
    prior = NigParams(0.5, 2.0, 4.0, 3.0)
    data = np.array([0.2, 1.1, -0.4, 0.9, 0.6])
    post = nig_update(prior, data)

    mus = np.linspace(-4.0, 5.0, 901)
    s2s = np.linspace(0.02, 12.0, 1201)
    mu_g, s2_g = np.meshgrid(mus, s2s, indexing="ij")
    log_prior = (
        -(prior.alpha + 1.5) * np.log(s2_g)
        - prior.beta / s2_g
        - prior.nu * (mu_g - prior.mu0) ** 2 / (2.0 * s2_g)
    )
    log_lik = -data.size / 2.0 * np.log(s2_g) - (
        ((data[None, None, :] - mu_g[..., None]) ** 2).sum(axis=-1) / (2.0 * s2_g)
    )
    w = np.exp(log_prior + log_lik - (log_prior + log_lik).max())
    w /= w.sum()
    e_mu = float((w * mu_g).sum())
    e_s2 = float((w * s2_g).sum())
    assert e_mu == pytest.approx(post.mu0, abs=2e-3)
    assert e_s2 == pytest.approx(post.beta / (post.alpha - 1.0), rel=2e-2)


# ------------------------------------------------------- posterior predictive


def test_posterior_predictive_frozen():
    pred = posterior_predictive(NigParams(5.0, 14.0, 4.0, 2.0))
    assert pred.dof == 8.0
    assert pred.loc == 5.0
    assert pred.scale == pytest.approx(math.sqrt(30.0 / 56.0), rel=1e-15)


def test_predictive_scale_widens_small_nu():
    narrow = posterior_predictive(NigParams(0.0, 50.0, 3.0, 3.0))
    wide = posterior_predictive(NigParams(0.0, 0.5, 3.0, 3.0))
    assert wide.scale > narrow.scale


def test_student_t_predictive_validation():
    with pytest.raises(ValueError):
        StudentTPredictive(0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        StudentTPredictive(2.0, 0.0, 0.0)
    for dof in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite dof"):
            StudentTPredictive(dof, 0.0, 1.0)


def test_t_cdf_refuses_a_dof_past_the_accuracy_ceiling():
    # a prior alpha of 1e8 gives dof 2e8 + 30, where the t-CDF was off
    # scipy.stats.t.cdf by 1.8e-8; the predictive path inherits its refusal
    data = np.random.default_rng(0).normal(size=30)
    pred = posterior_predictive(nig_update(NigParams(0.0, 1e-4, 1e8, 1e8), data))
    with pytest.raises(ValueError, match=r"finite dof in \(0, 524288.0\], got 200000030.0"):
        t_cdf(pred, 1.0)
    with pytest.raises(ValueError, match="finite dof"):
        score(pred, 1.0)


def test_predictive_cdf_monte_carlo_oracle():
    # sample (mu, s2) from the posterior, then x | mu, s2; the predictive CDF
    # must match the empirical CDF within binomial error
    rng = np.random.default_rng(2024)
    prior = NigParams(0.0, 1.0, 3.0, 2.0)
    post = nig_update(prior, rng.normal(size=25))
    pred = posterior_predictive(post)
    n = 400_000
    s2 = post.beta / rng.gamma(post.alpha, 1.0, size=n)
    mu = rng.normal(post.mu0, np.sqrt(s2 / post.nu))
    x = rng.normal(mu, np.sqrt(s2))
    for c in (-1.0, 0.3, 1.5):
        p_hat = float(np.mean(x <= c))
        p = t_cdf(pred, c)
        se = math.sqrt(p * (1.0 - p) / n)
        assert abs(p_hat - p) < 4.0 * se + 1e-4


def test_score_orientations():
    pred = StudentTPredictive(6.0, 0.0, 1.0)
    assert score(pred, 0.0) == pytest.approx(0.5, abs=1e-14)
    assert score(pred, 0.0, two_sided=True) == pytest.approx(0.0, abs=1e-13)
    assert score(pred, 8.0) > 0.99
    assert score(pred, -8.0, two_sided=True) > 0.99
    # two-sided score is symmetric in the deviation
    assert score(pred, 1.3, two_sided=True) == pytest.approx(
        score(pred, -1.3, two_sided=True), abs=1e-14
    )


def test_score_array_input():
    pred = StudentTPredictive(4.0, 1.0, 0.5)
    xs = np.array([0.0, 1.0, 2.0])
    one = score(pred, xs)
    two = score(pred, xs, two_sided=True)
    assert one.shape == xs.shape
    assert np.allclose(two, np.abs(2.0 * one - 1.0))
