"""Accuracy and invariance tests for the incomplete beta and Student-t CDF."""
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import integrate, special, stats

from predfdr import pipeline
from predfdr import special as kernel
from predfdr.special import betainc, student_t_cdf


def test_betainc_endpoints_exact():
    assert betainc(2.0, 3.0, 0.0) == 0.0
    assert betainc(2.0, 3.0, 1.0) == 1.0


def test_betainc_half_symmetric_shapes():
    # I_{1/2}(a, a) = 1/2 for any a
    for a in (0.5, 1.0, 3.7, 40.0):
        assert betainc(a, a, 0.5) == pytest.approx(0.5, abs=1e-13)


def test_betainc_closed_form_a1():
    # I_x(1, b) = 1 - (1-x)^b
    rng = np.random.default_rng(7)
    for _ in range(50):
        b = float(rng.uniform(0.2, 8.0))
        x = float(rng.uniform(0.0, 1.0))
        assert betainc(1.0, b, x) == pytest.approx(1.0 - (1.0 - x) ** b, abs=2e-14)


def test_betainc_against_scipy():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(400):
        a = float(rng.uniform(0.05, 60.0))
        b = float(rng.uniform(0.05, 60.0))
        x = float(rng.uniform(0.0, 1.0))
        worst = max(worst, abs(betainc(a, b, x) - special.betainc(a, b, x)))
    assert worst < 5e-12


def test_betainc_complement_identity():
    rng = np.random.default_rng(3)
    for _ in range(100):
        a = float(rng.uniform(0.1, 20.0))
        b = float(rng.uniform(0.1, 20.0))
        x = float(rng.uniform(0.0, 1.0))
        assert betainc(a, b, x) + betainc(b, a, 1.0 - x) == pytest.approx(1.0, abs=1e-12)


def test_betainc_vector_matches_scalar():
    rng = np.random.default_rng(11)
    x = rng.uniform(0.0, 1.0, size=200)
    vec = betainc(2.5, 0.5, x)
    scal = np.array([betainc(2.5, 0.5, float(v)) for v in x])
    # vectorised lanes freeze on convergence, so digits must agree exactly
    assert np.array_equal(vec, scal)


def test_betainc_domain_errors():
    with pytest.raises(ValueError):
        betainc(0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        betainc(1.0, -2.0, 0.5)
    with pytest.raises(ValueError):
        betainc(1.0, 1.0, 1.5)
    with pytest.raises(ValueError):
        betainc(1.0, 1.0, -0.1)
    # non-finite shapes are named, not run to a failed convergence or a warning
    for a, b, name in [
        (math.nan, 1.0, "a"), (math.inf, 1.0, "a"), (1.0, math.nan, "b"), (1.0, math.inf, "b"),
    ]:
        with pytest.raises(ValueError, match=f"finite {name} > 0"):
            betainc(a, b, 0.5)
    # past a + b = 2**18 + 1/2 the log-beta prefactor cancels: (0.5, 5e7) was
    # off by 1.8e-8 and (1e8, 1e8) failed to converge; both name the shapes
    for a, b, x in [(0.5, 5e7, 1e-8), (1e8, 1e8, 0.50001)]:
        with pytest.raises(ValueError, match=re.escape(f"a + b <= 262144.5, got a={a}, b={b}")):
            betainc(a, b, x)


def test_betainc_rejects_nan():
    with pytest.raises(ValueError):
        betainc(2.0, 3.0, math.nan)
    with pytest.raises(ValueError):
        betainc(2.0, 3.0, np.array([0.2, np.nan, 0.7]))


def _lentz_lane(a, b, x):
    """The modified Lentz recurrence for one lane in Python floats, each
    operation in the kernel's order; returns (value, floored), where floored
    says whether the first denominator was raised to the floor."""
    fpmin, eps = 1e-300, 1e-15

    def floor(v):
        return fpmin if abs(v) < fpmin else v

    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    floored = abs(d) < fpmin
    d = 1.0 / floor(d)
    h = d
    for it in range(1, 501):
        m2 = 2 * it
        aa = it * (b - it) * x / ((qam + m2) * (a + m2))
        d = floor(aa * d + 1.0)
        c = floor(aa / c + 1.0)
        d = 1.0 / d
        h = h * d * c
        aa = -(a + it) * (qab + it) * x / ((a + m2) * (qap + m2))
        d = floor(aa * d + 1.0)
        c = floor(aa / c + 1.0)
        d = 1.0 / d
        delta = d * c
        h = h * delta
        if abs(delta - 1.0) < eps:
            return h, floored
    raise AssertionError("oracle did not converge")


def _assert_kernel_matches_oracle(a, b, x):
    x = np.asarray(x, dtype=float)
    # the kernel overwrites the lanes it is given, so it gets a copy
    got = kernel._beta_cont_frac(a, b, x.copy())
    want = np.array([_lentz_lane(a, b, float(v))[0] for v in x.ravel()]).reshape(x.shape)
    assert got.shape == x.shape
    # bit for bit, so a reordered operation anywhere in the kernel shows
    assert got.tobytes() == want.tobytes(), (a, b)


@pytest.mark.parametrize(
    "a, b",
    [
        # both orientations at the t-CDF shapes the benchmarks score
        (0.5, 15.01), (15.01, 0.5), (0.5, 60.01), (60.01, 0.5),
        (1.0, 3.0), (2.5, 0.5), (0.05, 7.3), (40.0, 40.0), (1e-3, 1e-3),
    ],
)
def test_beta_cont_frac_matches_lane_oracle(a, b):
    rng = np.random.default_rng(int(a * 1000 + b))
    bound = (a + 1.0) / (a + b + 2.0)
    edges = [0.0, 5e-324, 1e-300, 1e-12, bound * 0.5, np.nextafter(bound, 0.0)]
    x = np.concatenate([edges, rng.uniform(0.0, bound, size=1000)])
    _assert_kernel_matches_oracle(a, b, x)
    _assert_kernel_matches_oracle(a, b, x[3:4])  # one lane
    panel = rng.uniform(0.0, bound, size=(24, 18))
    _assert_kernel_matches_oracle(a, b, panel[::3, 1::2])  # 2-d strided view


def test_beta_cont_frac_floors_a_zero_first_denominator():
    # a=1, b=3: 1 - (a+b) x / (a+1) is exactly 0 at x = 1/2
    x = np.array([0.1, 0.5, 0.3])
    assert [_lentz_lane(1.0, 3.0, v)[1] for v in x] == [False, True, False]
    _assert_kernel_matches_oracle(1.0, 3.0, x)
    assert np.isfinite(kernel._beta_cont_frac(1.0, 3.0, x.copy())).all()


def test_beta_cont_frac_runs_the_exact_floor_where_a_term_goes_negative(monkeypatch):
    # past the routing bound (a=1, b=3: x > 1/3) the Lentz terms go negative,
    # so the loop's check fails and the exact floor runs; a lane past it
    # floors the whole block, and every lane still matches the oracle
    calls = []
    floor = kernel._floor
    monkeypatch.setattr(kernel, "_floor", lambda *args: calls.append(1) or floor(*args))
    past = np.linspace(0.5, 1.0, 41)[1:-1]
    within = np.linspace(0.0, 0.3, 40)
    _assert_kernel_matches_oracle(1.0, 3.0, past)
    assert len(calls) > 1  # the floor before the loop always runs
    calls.clear()
    _assert_kernel_matches_oracle(1.0, 3.0, np.concatenate([within, past[::7]]))
    assert len(calls) > 1
    calls.clear()
    _assert_kernel_matches_oracle(1.0, 3.0, within)
    assert len(calls) == 1  # no term in the loop needed the floor


def test_t_cdf_cauchy_quartiles():
    # dof=1 is Cauchy: F(0)=1/2, F(1)=3/4, F(-1)=1/4
    assert student_t_cdf(0.0, 1.0) == pytest.approx(0.5, abs=1e-15)
    assert student_t_cdf(1.0, 1.0) == pytest.approx(0.75, abs=1e-13)
    assert student_t_cdf(-1.0, 1.0) == pytest.approx(0.25, abs=1e-13)


def test_t_cdf_dof2_closed_form():
    # F(x) = 1/2 + x / (2 sqrt(2 + x^2)) at dof=2
    for x in (0.0, 0.8, -1.7, 4.2):
        expect = 0.5 + x / (2.0 * math.sqrt(2.0 + x * x))
        assert student_t_cdf(x, 2.0) == pytest.approx(expect, abs=1e-13)


def test_t_cdf_against_scipy():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(300):
        dof = float(rng.uniform(0.5, 500.0))
        loc = float(rng.normal(0.0, 3.0))
        scale = float(rng.uniform(0.1, 4.0))
        x = float(loc + scale * rng.normal(0.0, 3.0))
        got = student_t_cdf(x, dof, loc, scale)
        ref = stats.t.cdf(x, dof, loc=loc, scale=scale)
        worst = max(worst, abs(got - ref))
    assert worst < 1e-11


def test_t_cdf_quadrature_oracle():
    # independent route: integrate the density rather than call a CDF
    def pdf(u, dof):
        c = math.exp(math.lgamma((dof + 1) / 2.0) - math.lgamma(dof / 2.0))
        c /= math.sqrt(dof * math.pi)
        return c * (1.0 + u * u / dof) ** (-(dof + 1) / 2.0)

    # integrate the nearer tail; the far side carries almost all the mass
    # and ruins the quadrature error estimate
    for dof in (1.0, 3.5, 29.0):
        for x in (-2.4, -0.3, 0.9, 3.1):
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
            assert student_t_cdf(x, dof) == pytest.approx(val, abs=1e-10)


def test_t_cdf_symmetry():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(200):
        dof = float(rng.uniform(0.3, 300.0))
        loc = float(rng.normal())
        scale = float(rng.uniform(0.2, 5.0))
        d = float(rng.uniform(0.0, 8.0))
        tot = student_t_cdf(loc + d, dof, loc, scale) + student_t_cdf(loc - d, dof, loc, scale)
        worst = max(worst, abs(tot - 1.0))
    assert worst < 1e-14


def test_t_cdf_monotone_and_bounded():
    xs = np.linspace(-30.0, 30.0, 401)
    f = student_t_cdf(xs, 4.0, loc=1.0, scale=2.0)
    assert np.all(np.diff(f) >= 0.0)
    assert np.all((f >= 0.0) & (f <= 1.0))


def test_t_cdf_infinite_tails():
    assert student_t_cdf(-np.inf, 3.0) == 0.0
    assert student_t_cdf(np.inf, 3.0) == 1.0


def test_t_cdf_huge_arguments_give_exact_tails_without_warning():
    # beyond |z| of about 1.3e154 z * z overflows to inf, and past 1.8e308 so
    # does z itself; the tail branch maps either to exactly 0 or 1
    big = np.array([1e200, -1e200, 1e300, -1e300, 1.7e308, -1.7e308])
    want = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for loc, scale in [(0.0, 1.0), (3.0, 2.5), (-1e10, 0.25)]:
            assert student_t_cdf(big, 3.0, loc, scale).tobytes() == want.tobytes()
            for v, w in zip(big.tolist(), want.tolist()):
                assert student_t_cdf(v, 3.0, loc, scale) == w


def test_callers_inputs_are_left_untouched(monkeypatch):
    # the continued fraction overwrites the lanes it is given, so it must
    # only ever get an array built for it: a lone part itself, or the
    # parts' concatenation; at loc 0 and scale 1 the t-CDF standardises
    # nothing, and when every lane is interior betainc takes no copy of its
    # points, so both then work on views of the input
    loops = []
    cont_frac = kernel._beta_cont_frac

    def spied(a, b, v):
        assert not np.shares_memory(v, x)
        loops.append((a, b))
        return cont_frac(a, b, v)

    monkeypatch.setattr(kernel, "_beta_cont_frac", spied)
    rng = np.random.default_rng(21)
    panel = rng.standard_t(5.0, size=(30, 20)) * 2.0
    # the two one-part paths of the t-CDF: every lane central and on the
    # direct side, and every lane in the tails
    for x, want in (
        (panel.ravel(), None),
        (np.array(1.7), None),
        (panel[::3, 1::2], None),
        (panel * 1e-3, [(0.5, 2.5)]),
        (panel[::3, 1::2] * 1e3, [(2.5, 0.5)]),
    ):
        for loc, scale in ((0.2, 1.5), (0.0, 1.0)):
            before = x.copy()
            loops.clear()
            student_t_cdf(x, 5.0, loc, scale)
            assert x.tobytes() == before.tobytes()
            assert want is None or loops == want
    # betainc(2.5, 0.5) routes points below 3.5 / 5 = 0.7 directly: each
    # side's loop then gets its lone part, with every lane direct, every
    # lane flipped, or both
    probs = rng.uniform(0.0, 1.0, size=(30, 20))
    mixed = probs.copy()
    mixed[::7, ::3] = 0.0
    mixed[1::7, ::3] = 1.0
    direct = probs * 0.6
    flipped = 0.75 + 0.2 * probs
    for x, want in (
        (probs.ravel(), [(2.5, 0.5), (0.5, 2.5)]),
        (np.array(0.3), [(2.5, 0.5)]),
        (probs[::3, 1::2], [(2.5, 0.5), (0.5, 2.5)]),
        (mixed, [(2.5, 0.5), (0.5, 2.5)]),
        (np.array(1.0), []),
        (direct, [(2.5, 0.5)]),
        (direct[::3, 1::2], [(2.5, 0.5)]),
        (flipped, [(0.5, 2.5)]),
        (flipped[::3, 1::2], [(0.5, 2.5)]),
        (np.array(0.9), [(0.5, 2.5)]),
    ):
        before = x.copy()
        loops.clear()
        betainc(2.5, 0.5, x)
        assert x.tobytes() == before.tobytes()
        assert loops == want


def test_t_cdf_at_loc_0_and_scale_1_matches_the_standardised_route():
    # x - 0 and x / 1 are exact, so skipping them changes no digit: (2x) / 2
    # is x again; and betainc gives the same digits, and a float for a 0-d
    # point, whether or not every lane is interior
    rng = np.random.default_rng(23)
    x = np.concatenate([rng.standard_t(5.0, size=500) * 3.0, [0.0, -0.0, np.inf, -np.inf]])
    assert student_t_cdf(x, 5.0).tobytes() == student_t_cdf(x * 2.0, 5.0, 0.0, 2.0).tobytes()
    probs = rng.uniform(0.0, 1.0, size=500)
    whole = betainc(2.5, 0.5, probs)
    assert betainc(2.5, 0.5, np.append(probs, [0.0, 1.0]))[:-2].tobytes() == whole.tobytes()
    for point, want in ((probs[0], whole[0]), (0.0, 0.0), (1.0, 1.0)):
        got = betainc(2.5, 0.5, np.array(point))
        assert type(got) is float and got == want


def test_t_cdf_reads_each_lane_s_side_off_its_input():
    # the side is taken as x <= loc once the continued fractions are done:
    # (x - loc) / scale has that sign but where it underflows to 0, and
    # there the lane is central with an argument of 0, which gives exactly
    # one half on either side
    tiny = np.array([5e-324, -5e-324, 1e-323, -1e-323, 0.0, -0.0])
    assert student_t_cdf(tiny, 5.0, 0.0, 4.0).tolist() == [0.5] * 6
    near = np.array([np.nextafter(0.7, 1.0), np.nextafter(0.7, 0.0), 0.7])
    assert student_t_cdf(near, 5.0, 0.7, 1e-300).tolist() == [1.0, 0.0, 0.5]


def test_t_cdf_runs_one_continued_fraction_per_shape_pair(monkeypatch):
    # centre lanes below the symmetry bound run cf(1/2, dof/2); centre lanes
    # above it and tail lanes both run cf(dof/2, 1/2), in one loop
    dof = 30.02
    x = np.array([0.3, -0.2, 1.0, 2.5, -3.0, 4.9, 9.0, -40.0, 0.0, np.inf, -np.inf])
    w = x * x
    centre = w < dof
    centre_arg = w[centre] / (dof + w[centre])
    tail_arg = dof / (dof + w[~centre])
    flipped = centre_arg >= 1.5 / (dof / 2.0 + 2.5)
    assert flipped.any() and (~flipped).any() and (~centre).any()
    # each branch on its own, as separate calls
    t = kernel._betainc_array(0.5, dof / 2.0, centre_arg)[0]
    half = 0.5 * kernel._betainc_array(dof / 2.0, 0.5, tail_arg)[0]
    want = np.empty_like(x)
    want[centre] = np.where(x[centre] <= 0.0, 0.5 - 0.5 * t, 0.5 + 0.5 * t)
    want[~centre] = np.where(x[~centre] <= 0.0, half, 1.0 - half)
    calls = []
    cont_frac = kernel._beta_cont_frac

    def counted(a, b, v):
        calls.append((a, b))
        return cont_frac(a, b, v)

    monkeypatch.setattr(kernel, "_beta_cont_frac", counted)
    got = student_t_cdf(x, dof)
    assert sorted(calls) == [(0.5, dof / 2.0), (dof / 2.0, 0.5)]
    assert got.tobytes() == want.tobytes()


def test_empty_sides_run_no_continued_fraction(monkeypatch):
    # no tail lanes, and every centre lane on the direct side: one loop,
    # and an empty argument gives an empty result of its shape
    calls = []
    cont_frac = kernel._beta_cont_frac

    def counted(a, b, v):
        calls.append((a, b))
        return cont_frac(a, b, v)

    monkeypatch.setattr(kernel, "_beta_cont_frac", counted)
    x = np.array([0.3, -0.2, 1.0])
    assert student_t_cdf(x, 30.02) == pytest.approx(stats.t.cdf(x, 30.02), abs=1e-14)
    assert calls == [(0.5, 15.01)]
    calls.clear()
    assert student_t_cdf(np.array([]), 30.02).shape == (0,)
    assert betainc(2.0, 3.0, np.empty((0, 3))).shape == (0, 3)
    assert calls == []


def test_t_cdf_scalar_and_array_agree():
    xs = np.array([-1.2, 0.0, 2.5])
    arr = student_t_cdf(xs, 7.0, loc=0.5, scale=1.5)
    for i, x in enumerate(xs):
        assert arr[i] == student_t_cdf(float(x), 7.0, loc=0.5, scale=1.5)


def test_t_cdf_nan_in_nan_out(monkeypatch):
    # NaN lanes must come out NaN, never as whatever an output buffer held.
    # The heap mostly recycles a buffer that already holds NaN in the same
    # lanes, so fresh buffers are poisoned with a finite value to make an
    # unwritten lane show on every call.
    empty_like = np.empty_like

    def poisoned(*args, **kwargs):
        out = empty_like(*args, **kwargs)
        out.fill(0.25)
        return out

    monkeypatch.setattr(np, "empty_like", poisoned)
    rng = np.random.default_rng(17)
    x = rng.standard_t(7.0, size=8192) * 3.0
    nan = rng.random(x.size) < 0.3
    x[nan] = np.nan
    for _ in range(50):
        got = student_t_cdf(x, 7.0)
        assert np.isnan(got[nan]).all()
        assert np.isfinite(got[~nan]).all()
    assert math.isnan(student_t_cdf(math.nan, 7.0))


def test_t_cdf_working_set_is_bounded():
    # the scorer calls the CDF on parts of pipeline._CDF_CELLS cells (2**15),
    # so its temporaries count against peak memory; the allocating form
    # peaked near 16 doubles per cell, the in-place one near 9.9, with the
    # result and the log-beta prefactors formed after the continued fraction
    # 7.9, and with the loop overwriting the lanes it is given, its delta in
    # the coefficient's array and no mask held across it, about 5.6
    x = np.random.default_rng(4).standard_t(30.0, size=pipeline._CDF_CELLS) * 1.2
    tracemalloc.start()
    try:
        student_t_cdf(x, 30.02)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6.5 * 8 * x.size


def test_t_cdf_parameter_errors():
    with pytest.raises(ValueError):
        student_t_cdf(0.0, 0.0)
    with pytest.raises(ValueError):
        student_t_cdf(0.0, 2.0, scale=0.0)
    # an infinite dof would give 0.5 at x=1, not the normal limit 0.841, and
    # a NaN parameter would give NaN; both are named instead, as is a dof past
    # the accuracy ceiling 2**19 (1e16 gave 0.50000001)
    for kwargs, name in [
        ({"dof": math.inf}, "dof"), ({"dof": math.nan}, "dof"),
        ({"dof": 2.0**19 * (1 + 2**-52)}, "dof"), ({"dof": 1e16}, "dof"),
        ({"dof": 2.0, "loc": math.nan}, "loc"), ({"dof": 2.0, "loc": -math.inf}, "loc"),
        ({"dof": 2.0, "scale": math.nan}, "scale"), ({"dof": 2.0, "scale": math.inf}, "scale"),
    ]:
        with pytest.raises(ValueError, match=f"finite {name}"):
            student_t_cdf(1.0, **kwargs)
        with pytest.raises(ValueError, match=f"finite {name}"):
            student_t_cdf(np.array([-1.0, 1.0]), **kwargs)
