"""Synthetic panel generator: determinism, signal shapes, contamination, IO."""
import json
import math

import numpy as np
import pytest

from predfdr.simgen import (
    SimData,
    SimSpec,
    gen_data,
    gen_signal,
    load_matrix_csv,
    load_sim,
    save_sim,
)


def small_spec(**kw):
    base = dict(m=20, t_len=80, lag=10, seed=42)
    base.update(kw)
    return SimSpec(**base)


def test_spec_validation():
    with pytest.raises(ValueError):
        SimSpec(m=0)
    with pytest.raises(ValueError):
        SimSpec(t_len=1)
    with pytest.raises(ValueError):
        SimSpec(lag=2000, t_len=2000)
    with pytest.raises(ValueError):
        SimSpec(outlier_rate=1.0)
    with pytest.raises(ValueError):
        SimSpec(outlier_rate=-0.1)
    with pytest.raises(ValueError):
        SimSpec(sd_inlier_params=(0.0, 1.0))
    with pytest.raises(ValueError):
        SimSpec(mean_params=(1.0, 2.0))
    # rate 0 is a legal null panel
    assert SimSpec(outlier_rate=0.0).outlier_rate == 0.0


def test_spec_dict_roundtrip():
    spec = small_spec(outlier_rate=0.1, recenter_outliers=True)
    again = SimSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert again == spec


def test_signal_closed_forms():
    spec = small_spec(mean_params=(2.0, 8.0, 4.0), sd_inlier_params=(0.5, 1.5))
    mu, sd_in, sd_out = gen_signal(spec)
    assert mu.shape == (80,)
    assert mu[0] == 0.0  # sin(0)
    t = 13
    frac = t / 80.0
    expect = (2.0 + 8.0 * frac) * math.sin(2.0 * math.pi * 4.0 * frac)
    assert mu[t] == pytest.approx(expect, rel=1e-14)
    assert sd_in[0] == 0.5
    assert sd_in[-1] == pytest.approx(0.5 + 1.0 * (79 / 80.0))
    assert np.all(np.diff(sd_out) > 0.0)


def test_same_seed_reproduces():
    a = gen_data(small_spec())
    b = gen_data(small_spec())
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.truth, b.truth)


def test_different_seed_differs():
    a = gen_data(small_spec(seed=1))
    b = gen_data(small_spec(seed=2))
    assert not np.array_equal(a.values, b.values)


def test_series_prefix_stable_under_m():
    # substreams are spawned per series, so the first series do not depend on m
    a = gen_data(small_spec(m=3))
    b = gen_data(small_spec(m=8))
    assert np.array_equal(a.values, b.values[:3])
    assert np.array_equal(a.truth, b.truth[:3])


def test_null_panel_has_no_outliers():
    data = gen_data(small_spec(outlier_rate=0.0))
    assert not data.truth.any()


def test_contamination_rate_matches():
    spec = SimSpec(m=400, t_len=400, lag=10, outlier_rate=0.05, seed=7)
    data = gen_data(spec)
    rate = data.truth.mean()
    se = math.sqrt(0.05 * 0.95 / data.truth.size)
    assert abs(rate - 0.05) < 4.0 * se


def test_recenter_shifts_outlier_cells_by_mu():
    base = small_spec(outlier_rate=0.3)
    lit = gen_data(base)
    rec = gen_data(SimSpec.from_dict({**base.to_dict(), "recenter_outliers": True}))
    assert np.array_equal(lit.truth, rec.truth)
    diff = lit.values - rec.values
    mu_row = np.broadcast_to(lit.mu, lit.values.shape)
    # identical streams: cells differ exactly by the signal, only where outlying
    assert np.allclose(diff[lit.truth], mu_row[lit.truth], rtol=0.0, atol=1e-12)
    assert np.all(diff[~lit.truth] == 0.0)


def test_literal_outliers_are_mean_shifted():
    # at a fixed late timestep the contaminated cells should scatter around
    # twice the signal, the clean cells around the signal itself
    spec = SimSpec(
        m=4000,
        t_len=40,
        lag=5,
        outlier_rate=0.5,
        mean_params=(6.0, 0.0, 0.25),
        sd_inlier_params=(0.5, 0.5),
        sd_outlier_params=(1.0, 1.0),
        seed=11,
    )
    data = gen_data(spec)
    t = 20  # quarter cycle: sin peak
    mu_t = data.mu[t]
    assert mu_t == pytest.approx(6.0 * math.sin(math.pi / 4.0), rel=1e-12)
    out_mean = data.values[data.truth[:, t], t].mean()
    in_mean = data.values[~data.truth[:, t], t].mean()
    assert out_mean == pytest.approx(2.0 * mu_t, abs=0.1)
    assert in_mean == pytest.approx(mu_t, abs=0.05)


def test_save_load_roundtrip(tmp_path):
    data = gen_data(small_spec(outlier_rate=0.1))
    paths = save_sim(data, tmp_path)
    assert set(paths) == {"data", "truth", "simspec"}
    again = load_sim(tmp_path)
    assert again.spec == data.spec
    assert np.array_equal(again.values, data.values)  # %.17g is lossless
    assert np.array_equal(again.truth, data.truth)
    assert np.allclose(again.mu, data.mu)


def test_load_matrix_csv_empty_file(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("")
    with pytest.raises(ValueError):
        load_matrix_csv(p)


def test_load_matrix_csv_ignores_trailing_empty_lines(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("t0,t1\n1,2\n3,4\n\n\n")
    assert np.array_equal(load_matrix_csv(p), [[1.0, 2.0], [3.0, 4.0]])


@pytest.mark.parametrize(
    "body, where",
    [
        ("1,2,3\n4,5\n", "row 2, column 3"),
        ("1,2,3\n4,5,6,7\n", "row 2, column 4"),
        ("1,2,3\n4,x,6\n", "row 2, column 2: 'x' is not a number"),
        ("1,2,3\n\n4,5,6\n", "row 2, column 1"),
        ("\n1,2,3\n", "row 1, column 1: row has 0 cells, the header has 3"),
        ("1,2\n3,4,5\n", "row 1, column 3: row has 2 cells, the header has 3"),
    ],
)
def test_load_matrix_csv_names_first_bad_cell(tmp_path, body, where):
    p = tmp_path / "x.csv"
    p.write_text("t0,t1,t2\n" + body)
    with pytest.raises(ValueError, match=where):
        load_matrix_csv(p)


def test_sim_data_shapes():
    data = gen_data(small_spec())
    assert isinstance(data, SimData)
    assert data.values.shape == (20, 80)
    assert data.truth.shape == (20, 80)
    assert data.truth.dtype == bool
    assert data.mu.shape == (80,)
