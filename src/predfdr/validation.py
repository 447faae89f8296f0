"""Self-contained property checks exposed through the command line.

Each check returns a named pass/fail result with a short diagnostic; the
quick tier finishes in well under a minute, the full tier adds the larger
Monte Carlo comparisons.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from .bfdr import (
    BfdrConfig,
    ScoreBatch,
    _integer,
    classic_bfdr,
    gbfdr_changepoint,
    gbfdr_looped,
    gbfdr_vectorized,
    mc_fdr_inverse,
    moment_derivative_check,
)
from .decision import LossParams, bayes_rule, expected_loss
from .predictive import NigParams, nig_update, posterior_predictive, t_cdf
from .special import student_t_cdf

__all__ = ["CheckResult", "run_checks"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check_selector_equivalence(rng, n_batches: int) -> CheckResult:
    # every level runs on the same batch, sorted once when it was built, so
    # after the first the change-point route reads the grid blocks it cached
    levels = (0.2, 0.05, 2.0**-8)
    for i in range(n_batches):
        m = int(rng.choice([5, 50, 500]))
        batch = ScoreBatch(rng.random(m))
        a = float(rng.choice([0.0, 0.5, 1.0, 2.0]))
        k = int(rng.choice([50, 500]))
        for q in levels:
            cfg = BfdrConfig(q=q, a=a, k=k)
            r1 = gbfdr_looped(batch, cfg)
            for route in (gbfdr_vectorized, gbfdr_changepoint):
                r2 = route(batch, cfg)
                if r2 != r1:
                    return CheckResult(
                        "selector_equivalence",
                        False,
                        f"mismatch on batch {i}, q={q}: looped {r1} vs {route.__name__} {r2}",
                    )
    return CheckResult(
        "selector_equivalence",
        True,
        f"{n_batches} batches x {len(levels)} levels identical across 3 routes",
    )

def _check_classic_reduction(rng, n_batches: int) -> CheckResult:
    for i in range(n_batches):
        m = int(rng.choice([5, 50, 500]))
        s = rng.random(m)
        q = float(rng.choice([0.3, 0.1, 0.02]))
        k = int(rng.choice([20, 200]))
        batch = ScoreBatch(s)
        r1 = classic_bfdr(batch, q, k)
        r2 = gbfdr_looped(batch, BfdrConfig(q=q, a=1.0, k=k))
        if (r1.index, r1.feasible) != (r2.index, r2.feasible):
            return CheckResult(
                "classic_reduction", False, f"mismatch on batch {i}: {r1} vs {r2}"
            )
    return CheckResult("classic_reduction", True, f"{n_batches} batches identical")


def _check_moment_identity(rng, n_cases: int) -> CheckResult:
    worst = 0.0
    for _ in range(n_cases):
        m = int(rng.integers(3, 40))
        s = rng.random(m)
        q = float(rng.uniform(0.05, 0.5))
        a = float(rng.choice([0.0, 0.5, 1.0, 2.0, 3.0]))
        eta = float(rng.uniform(0.3, 1.0))
        # the identity only holds away from kinks; a score within ~1e-3 of q
        # also ruins the central difference for fractional exponents
        if np.min(np.abs(s[s <= eta] - q), initial=1.0) < 1e-3:
            continue
        crit, deriv, _ = moment_derivative_check(ScoreBatch(s), q, a, eta)
        if abs(crit) < 1e-3:
            continue
        rel = abs(deriv - (-(a + 1.0) * crit)) / abs((a + 1.0) * crit)
        worst = max(worst, rel)
    ok = worst < 1e-5
    return CheckResult("moment_identity", ok, f"worst relative error {worst:.2e}")


def _check_mc_fdr(rng, draws: int) -> CheckResult:
    # the mean realized FDP at a fixed threshold estimates, without bias, the
    # Bayesian FDR of the set it selects (its mean null score 1 - rate); a
    # draw's false count is a sum of independent Bernoullis, so se is exact
    m, q, k = 50, 0.2, 20
    rates = rng.random(m)
    null = 1.0 - rates
    det = classic_bfdr(ScoreBatch(null), q, k)
    est = mc_fdr_inverse(rates, q, draws=draws, k=k, seed=int(rng.integers(2**31)))
    if not det.feasible:
        return CheckResult("mc_fdr_inverse", False, "degenerate configuration")
    sel = null[null <= det.eta]
    bfdr = float(np.mean(sel))
    se = math.sqrt(float(np.sum(sel * (1.0 - sel))) / draws) / sel.size
    gap = abs(float(est.fdp[det.index]) - bfdr)
    return CheckResult(
        "mc_fdr_inverse",
        gap <= 3.0 * se,
        f"|mc FDP - BFDR| at eta={det.eta:g} = {gap:.2e}, 3se = {3.0 * se:.2e}",
    )


def _check_bayes_rule(rng, n_cases: int) -> CheckResult:
    for _ in range(n_cases):
        m = 10
        r = rng.random(m)
        params = LossParams(float(rng.uniform(0, 2)), float(rng.uniform(0, 1.5)))
        batch = ScoreBatch(r)
        best = None
        for code in range(2**m):
            flags = np.array([(code >> j) & 1 for j in range(m)], dtype=bool)
            val = expected_loss(batch, flags, params)
            best = val if best is None or val < best else best
        achieved = expected_loss(batch, bayes_rule(batch, params), params)
        if achieved > best + 1e-9:
            return CheckResult(
                "bayes_rule_optimality", False, f"gap {achieved - best:.2e}"
            )
    return CheckResult("bayes_rule_optimality", True, f"{n_cases} instances optimal")


def _check_conjugacy(rng, n_cases: int) -> CheckResult:
    worst = 0.0
    for _ in range(n_cases):
        prior = NigParams(
            float(rng.normal()), float(rng.uniform(0.1, 5)),
            float(rng.uniform(0.5, 4)), float(rng.uniform(0.5, 4)),
        )
        x = rng.normal(size=int(rng.integers(2, 40)))
        cut = int(rng.integers(1, x.size))
        seq = nig_update(nig_update(prior, x[:cut]), x[cut:])
        bat = nig_update(prior, x)
        # the posterior mean averages mu0 and the data and can cancel to
        # near 0, so its gap is relative to the largest input it averages;
        # nu, alpha and beta are sums of positive terms and cannot cancel
        scales = (max(abs(prior.mu0), float(np.max(np.abs(x)))), bat.nu, bat.alpha, bat.beta)
        for f, g, scale in zip(
            (seq.mu0, seq.nu, seq.alpha, seq.beta), (bat.mu0, bat.nu, bat.alpha, bat.beta), scales
        ):
            worst = max(worst, abs(f - g) / scale)
    ok = worst < 1e-12
    return CheckResult("conjugacy_sequential", ok, f"worst relative gap {worst:.2e}")


def _check_t_cdf_basic(rng, n_points: int) -> CheckResult:
    # closed forms: Cauchy at 1 is 3/4; symmetry and monotonicity elsewhere
    if abs(student_t_cdf(1.0, 1.0) - 0.75) > 1e-12:
        return CheckResult("t_cdf_basic", False, "Cauchy quartile failed")
    worst = 0.0
    for _ in range(n_points):
        dof = float(rng.uniform(0.5, 200))
        x = float(rng.normal() * 3)
        s = student_t_cdf(x, dof) + student_t_cdf(-x, dof)
        worst = max(worst, abs(s - 1.0))
    ok = worst < 1e-12
    return CheckResult("t_cdf_basic", ok, f"worst symmetry defect {worst:.2e}")


def _check_predictive_mc(rng, draws: int) -> CheckResult:
    prior = NigParams(0.0, 1.0, 3.0, 2.0)
    post = nig_update(prior, rng.normal(size=25))
    pred = posterior_predictive(post)
    x = pred.loc + 0.7 * pred.scale
    sigma2 = post.beta / rng.gamma(post.alpha, 1.0, size=draws)
    mu = rng.normal(post.mu0, np.sqrt(sigma2 / post.nu))
    draws_x = rng.normal(mu, np.sqrt(sigma2))
    p_hat = float(np.mean(draws_x <= x))
    p = t_cdf(pred, x)
    se = math.sqrt(p * (1 - p) / draws)
    gap = abs(p_hat - p)
    return CheckResult(
        "predictive_mc", gap <= 3 * se + 1e-12, f"|mc - cdf| = {gap:.2e}, 3se = {3*se:.2e}"
    )


def run_checks(full: bool = False, seed: int = 0) -> List[CheckResult]:
    checks = [
        (_check_selector_equivalence, 300 if full else 100),
        (_check_classic_reduction, 300 if full else 100),
        (_check_moment_identity, 200),
        (_check_mc_fdr, 20000 if full else 3000),
        (_check_bayes_rule, 5 if full else 2),
        (_check_conjugacy, 200),
        (_check_t_cdf_basic, 200),
    ]
    if full:
        checks.append((_check_predictive_mc, 1_000_000))
    # each check draws from its own stream, spawned from the seed, so what
    # one check draws moves no other check's inputs
    streams = np.random.SeedSequence(_integer(seed, "seed", 0)).spawn(len(checks))
    return [check(np.random.default_rng(s), n) for (check, n), s in zip(checks, streams)]
