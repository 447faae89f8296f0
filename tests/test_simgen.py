"""Synthetic panel generator: determinism, signal shapes, contamination, IO."""
import ast
import io
import json
import math
import re
import tracemalloc
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

from predfdr import files, simgen
from predfdr.files import as_truth, load_matrix_csv, load_truth_csv, write_matrix_csv
from predfdr.simgen import SimData, SimSpec, gen_data, gen_signal, save_sim


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


@pytest.mark.parametrize(
    "kw, named",
    [
        ({"m": 20.0}, "integer m, got m=20.0"),
        ({"t_len": "80"}, "integer t_len, got t_len='80'"),
        ({"lag": 1.5}, "integer lag, got lag=1.5"),
        ({"seed": True}, "integer seed, got seed=True"),
        ({"seed": 3.0}, "integer seed, got seed=3.0"),
        ({"seed": -1}, "seed >= 0, got seed=-1"),
    ],
)
def test_spec_rejects_non_integer_sizes_and_bad_seeds(kw, named):
    with pytest.raises(ValueError, match=re.escape(named)):
        small_spec(**kw)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize(
    "field, params",
    [
        ("mean_params", [1.0, None, 1.0]),
        ("sd_inlier_params", [None, 1.0]),
        ("sd_outlier_params", [1.0, None]),
    ],
)
def test_spec_rejects_non_finite_signal_parameters(field, params, bad):
    # a NaN made every cell of the panel NaN, and an infinite ramp end made
    # gen_signal warn of an invalid value
    params = tuple(bad if v is None else v for v in params)
    with pytest.raises(ValueError, match=re.escape(f"finite {field}, got {field}={params!r}")):
        small_spec(**{field: params})


def test_spec_keeps_numpy_integers_as_int():
    spec = small_spec(m=np.int64(20), seed=np.uint32(42))
    assert spec == small_spec() and type(spec.m) is int and type(spec.seed) is int


def test_spec_dict_roundtrip():
    spec = small_spec(outlier_rate=0.1, recenter_outliers=True)
    again = SimSpec(**json.loads(json.dumps(asdict(spec))))
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


def per_series_normal_draws(spec):
    """The generator as one rng.normal(mu, sd) loop per series: uniforms,
    then inlier normals, then extra normals."""
    mu, sd_in, sd_out = gen_signal(spec)
    values = np.empty((spec.m, spec.t_len))
    truth = np.empty((spec.m, spec.t_len), dtype=bool)
    for j, stream in enumerate(np.random.SeedSequence(spec.seed).spawn(spec.m)):
        rng = np.random.default_rng(stream)
        is_out = rng.random(spec.t_len) < spec.outlier_rate
        inlier = rng.normal(mu, sd_in)
        outlier = inlier + rng.normal(mu, sd_out)
        if spec.recenter_outliers:
            outlier = outlier - mu
        values[j] = np.where(is_out, outlier, inlier)
        truth[j] = is_out
    return values, truth


@pytest.mark.parametrize(
    "block_cells",
    [1, 3 * 80, 10**6],
    ids=["one-row", "partial-last-block", "more-rows-than-m"],
)
@pytest.mark.parametrize(
    "kw",
    [
        {},
        {"recenter_outliers": True, "outlier_rate": 0.3},
        {"outlier_rate": 0.0},
        {"seed": 2**130 + 7},
    ],
    ids=["default", "recentered", "no-outliers", "multi-word-seed"],
)
def test_gen_data_matches_per_series_normal_draws(monkeypatch, block_cells, kw):
    # 20 series of 80 steps: blocks of 1 row, of 3 rows (the last has 2), or
    # one block of every row
    monkeypatch.setattr(simgen, "_BLOCK_CELLS", block_cells)
    spec = small_spec(**kw)
    data = gen_data(spec)
    values, truth = per_series_normal_draws(spec)
    assert data.values.tobytes() == values.tobytes()
    assert np.array_equal(data.truth, truth)


@pytest.mark.parametrize("seed", [0, 1, 2**32 + 5, 2**130 + 7])
def test_spawned_states_match_seed_sequence_children(seed):
    # 4 seed words or fewer are zero-padded to the pool; 2**130 + 7 has a
    # fifth word, mixed in after the pool like the child index
    children = np.random.SeedSequence(seed).spawn(30)
    want = np.array([child.generate_state(4, np.uint64) for child in children])
    seq = np.random.SeedSequence(seed)
    got = np.concatenate([simgen._spawned_states(seq, 0, 11), simgen._spawned_states(seq, 11, 19)])
    assert got.dtype == np.uint64
    assert np.array_equal(got, want)


@pytest.mark.parametrize("seed", [0, 2**70 + 3])
def test_reused_pcg64_state_matches_default_rng(seed):
    children = np.random.SeedSequence(seed).spawn(8)
    bit_gen = np.random.PCG64(0)
    rng = np.random.Generator(bit_gen)
    states = simgen._spawned_states(np.random.SeedSequence(seed), 5, 3).tolist()
    for child, words in zip(children[5:], states):
        rng.integers(2**32, dtype=np.uint32)  # leaves half a draw buffered
        bit_gen.state = simgen._pcg64_state(*words)
        want = np.random.default_rng(child)
        assert bit_gen.state == want.bit_generator.state
        assert rng.random(5).tobytes() == want.random(5).tobytes()


def test_gen_data_working_set_is_bounded():
    # beside the panel (8 + 1 bytes a cell), the generator holds two block
    # buffers of _BLOCK_CELLS doubles and the seeds of one block of series
    # (81 series here): about 0.34 MB against a bound of 0.52 MB.  A
    # whole-panel version holds two more panel-sized arrays (14 MB)
    spec = SimSpec(m=4000, t_len=200, lag=10)
    gen_data(small_spec())  # numpy's first-call allocations are not the generator's
    tracemalloc.start()
    try:
        gen_data(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - 9 * spec.m * spec.t_len < 4 * 8 * simgen._BLOCK_CELLS


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
    rec = gen_data(replace(base, recenter_outliers=True))
    assert np.array_equal(lit.truth, rec.truth)
    diff = lit.values - rec.values
    mu_row = np.broadcast_to(gen_signal(base)[0], lit.values.shape)
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
    mu_t = gen_signal(spec)[0][t]
    assert mu_t == pytest.approx(6.0 * math.sin(math.pi / 4.0), rel=1e-12)
    out_mean = data.values[data.truth[:, t], t].mean()
    in_mean = data.values[~data.truth[:, t], t].mean()
    assert out_mean == pytest.approx(2.0 * mu_t, abs=0.1)
    assert in_mean == pytest.approx(mu_t, abs=0.05)


def test_save_load_roundtrip(tmp_path):
    # a saved panel is rebuilt from its simspec.json alone: the rebuild is
    # what data.csv and truth.csv hold, bit for bit (%.17g is lossless)
    recentered = SimSpec(
        m=40,
        t_len=300,
        lag=7,
        outlier_rate=0.3,
        mean_params=(-1.5, 6.0, 2.5),
        sd_inlier_params=(2.0, 0.25),
        sd_outlier_params=(0.5, 4.0),
        recenter_outliers=True,
        seed=2**40 + 3,
    )
    for out, spec in ((tmp_path / "default", SimSpec()), (tmp_path / "recentered", recentered)):
        paths = save_sim(gen_data(spec), out)
        assert set(paths) == {"data", "truth", "simspec"}
        again = gen_data(SimSpec(**files.read_json(out / "simspec.json")))
        assert again.spec == spec
        assert again.values.tobytes() == load_matrix_csv(out / "data.csv").tobytes()
        assert again.truth.astype(float).tobytes() == load_matrix_csv(out / "truth.csv").tobytes()


def test_save_sim_exact_bytes(tmp_path):
    # a header t0..t{T-1}, %.17g values, 0/1 truth, LF line ends
    data = replace(
        gen_data(SimSpec(m=2, t_len=3, lag=1)),
        values=np.array([[0.5, -2.0, 1e20], [0.1, 0.0, -1.5e-7]]),
        truth=np.array([[True, False, False], [False, False, True]]),
    )
    paths = save_sim(data, tmp_path)
    with open(paths["data"], "rb") as fh:
        assert fh.read() == (
            b"t0,t1,t2\n0.5,-2,1e+20\n0.10000000000000001,0,-1.4999999999999999e-07\n"
        )
    with open(paths["truth"], "rb") as fh:
        assert fh.read() == b"t0,t1,t2\n1,0,0\n0,0,1\n"


@pytest.mark.parametrize(
    "shape, block_cells",
    [
        ((1, 9), 15),
        ((9, 1), 15),
        ((7, 5), 15),
        ((2 * (files._WRITE_CELLS // 100) + 1, 100), files._WRITE_CELLS),
    ],
    ids=["one-row", "one-column", "partial-last-block", "default-blocks"],
)
def test_bool_matrix_bytes_match_savetxt(tmp_path, monkeypatch, shape, block_cells):
    # the bool writer builds 0/1 rows in blocks of block_cells // columns rows:
    # 3 rows a block for 5 columns; at the default, two full blocks and one row
    monkeypatch.setattr(files, "_WRITE_CELLS", block_cells)
    mat = np.random.default_rng(5).random(shape) < 0.3
    write_matrix_csv(mat, tmp_path / "truth.csv", t_offset=4)
    want = io.BytesIO()
    header = ",".join(f"t{4 + i}" for i in range(shape[1]))
    np.savetxt(want, mat, fmt="%.17g", delimiter=",", header=header, comments="")
    assert (tmp_path / "truth.csv").read_bytes() == want.getvalue()


@pytest.mark.parametrize(
    "shape, block_cells",
    [((1, 1), None), ((1, 7), None), ((7, 1), None), ((9, 5), None), ((9, 5), 4), ((9, 5), 15)],
    ids=["1x1", "one-row", "one-column", "one-block", "row-blocks", "partial-last-block"],
)
def test_float_matrix_bytes_match_savetxt(tmp_path, monkeypatch, shape, block_cells):
    # the float writer formats blocks of max(1, block_cells // columns) rows
    # by one % operation: one row a block for 5 columns at 4 cells, three
    # rows and a last block of none at 15
    if block_cells is not None:
        monkeypatch.setattr(files, "_FORMAT_CELLS", block_cells)
    edge = [-0.0, 0.0, 1.0, 5e-324, 2.0**-1060, -2.2250738585072014e-308, 0.1, -1e300,
            np.nextafter(1.0, 0.0), np.inf, -np.inf, np.nan, 123456789012345678.0]
    rng = np.random.default_rng(len(edge) * shape[0] + shape[1])
    mat = rng.normal(size=shape) * 10.0 ** rng.integers(-30, 30, size=shape)
    flat = mat.reshape(-1)
    flat[: len(edge)] = edge[: flat.size]
    write_matrix_csv(mat, tmp_path / "scores.csv", t_offset=30)
    want = io.BytesIO()
    header = ",".join(f"t{30 + i}" for i in range(shape[1]))
    np.savetxt(want, mat, fmt="%.17g", delimiter=",", header=header, comments="")
    assert (tmp_path / "scores.csv").read_bytes() == want.getvalue()


def read_either(read, path):
    """What ``read`` returns, or the type and text of what it raises."""
    try:
        return read(path)
    except Exception as exc:
        return type(exc), str(exc)


def assert_same_truth(got, want, name):
    if isinstance(want, tuple):
        assert got == want, name
    else:
        assert isinstance(got, np.ndarray), (name, got)
        assert (got.dtype, got.shape, got.flags.c_contiguous) == (want.dtype, want.shape, True)
        assert np.array_equal(got, want), name


def truth_files():
    """The bytes write_matrix_csv writes for a 4 x 3 bool matrix, each of its
    bytes changed to each of a few others, and other layouts of it."""
    mat = np.array([[1, 0, 0], [0, 1, 1], [0, 0, 0], [1, 1, 1]], dtype=bool)
    buf = io.BytesIO()
    np.savetxt(buf, mat, fmt="%.17g", delimiter=",", header="t5,t6,t7", comments="")
    base = buf.getvalue()
    head, body = base.split(b"\n", 1)
    yield "layout", base
    for i in range(len(base)):
        for b in b"012,\n\r\" x\x00\xff":
            if base[i] != b:
                yield f"byte-{i}={b}", base[:i] + bytes([b]) + base[i + 1 :]
    yield "crlf", base.replace(b"\n", b"\r\n")
    yield "no-final-lf", base[:-1]
    yield "cell-2", base.replace(b"1,1,1", b"1,2,1")
    yield "quoted-header", b'"t5",t6,t7\n' + body
    yield "quoted-comma-header", b'"t5,t6",t7\n' + body
    yield "empty-header", b"\n" + body
    yield "bom", b"\xef\xbb\xbf" + base
    yield "blank-line-mid", base.replace(b"0,1,1\n", b"0,1,1\n\n")
    yield "blank-line-end", base + b"\n"
    yield "blank-lines-end", base + b"\n\n\n"
    yield "header-only", head + b"\n"
    yield "header-no-lf", head
    yield "empty", b""
    yield "one-column", b"t0\n1\n0\n"
    yield "narrow-rows", head + b"\n1,0\n0,1\n1,1\n"
    yield "wide-rows", b"t0,t1\n1,0,1\n0,1,0\n"


def test_truth_reader_equals_the_general_route(tmp_path):
    # every file gives the matrix as_truth(load_matrix_csv(...)) gives, or
    # its error; the writer's own layout is read as bytes
    path = tmp_path / "truth.csv"
    for name, data in truth_files():
        path.write_bytes(data)
        want = read_either(lambda p: as_truth(load_matrix_csv(p), p), path)
        assert_same_truth(read_either(load_truth_csv, path), want, name)


def test_truth_reader_reads_the_writers_layout_as_bytes(tmp_path, monkeypatch):
    mat = np.random.default_rng(2).random((37, 11)) < 0.3
    write_matrix_csv(mat, tmp_path / "truth.csv", t_offset=3)

    def no_parse(*args):
        raise AssertionError("parsed the writer's layout as text")

    monkeypatch.setattr(files, "load_matrix_csv", no_parse)
    got = load_truth_csv(tmp_path / "truth.csv")
    assert got.dtype == bool and np.array_equal(got, mat)


def test_as_truth_keeps_a_bool_matrix_and_checks_numbers(tmp_path):
    # a bool matrix is truth as it is, with no check and no copy
    b = np.array([[True, False], [False, True]])
    assert as_truth(b, "truth") is b
    got = as_truth(np.array([[1.0, 0.0], [0.0, 1.0]]), "truth")
    assert got.dtype == bool and np.array_equal(got, b)
    with pytest.raises(ValueError, match=re.escape("truth: row 2, column 1: 0.5 is not 0 or 1")):
        as_truth(np.array([[1.0, 0.0], [0.5, 1.0]]), "truth")


def check_simspec(path):
    # the rule load_sim applied to a saved simspec.json before the rebuild
    # gen_data(SimSpec(**read_json(path))) replaced it: the keys of SimSpec's
    # fields, each typed like its default. files.check_settings keeps it.
    defaults = {f.name: f.default for f in fields(SimSpec)}
    files.check_settings(files.read_json(path), defaults, path)


def edited_simspec(tmp_path, edit):
    save_sim(gen_data(small_spec()), tmp_path)
    path = tmp_path / "simspec.json"
    d = json.loads(path.read_text())
    check_simspec(path)  # the saved spec passes as written
    edit(d)
    path.write_text(json.dumps(d))
    return path


@pytest.mark.parametrize(
    "edit, named",
    [
        (lambda d: d.pop("sd_outlier_params"), "missing keys ['sd_outlier_params']"),
        (lambda d: d.update(rate=0.1), "unknown keys ['rate']"),
    ],
)
def test_load_sim_rejects_missing_or_unknown_spec_key(tmp_path, edit, named):
    # a missing key must not fall back to its default, or the signal would
    # come from a spec the data was not drawn from
    path = edited_simspec(tmp_path, edit)
    with pytest.raises(ValueError, match=re.escape(f"{path}: missing keys")) as err:
        check_simspec(path)
    assert named in str(err.value)


@pytest.mark.parametrize("field, value, named", [("m", "3", "field 'm': '3' is not an integer")])
def test_load_sim_rejects_mistyped_spec_value(tmp_path, field, value, named):
    path = edited_simspec(tmp_path, lambda d: d.update({field: value}))
    with pytest.raises(ValueError, match=re.escape(f"{path}: {named}")):
        check_simspec(path)


def test_load_sim_rejects_a_spec_that_is_not_an_object(tmp_path):
    # check_settings has no branch for a non-object any more: a JSON list is
    # refused by the keys rule, as a set of unknown keys
    save_sim(gen_data(small_spec()), tmp_path)
    path = tmp_path / "simspec.json"
    path.write_text("[3, 4]\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: missing keys")) as err:
        check_simspec(path)
    assert "unknown keys [3, 4]" in str(err.value)


def test_files_is_a_leaf_and_the_only_module_that_imports_csv_or_json():
    # every file format lives in predfdr.files, which needs nothing else of
    # the package
    imports = {}
    for path in sorted(Path(files.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imports[path.stem] = {
            (getattr(node, "level", 0), getattr(node, "module", None) or alias.name)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
    formats = {name for name, mods in imports.items() if mods & {(0, "csv"), (0, "json")}}
    assert formats == {"files"}
    assert all(level == 0 for level, _ in imports["files"])


def test_load_matrix_csv_empty_file(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("")
    with pytest.raises(ValueError):
        load_matrix_csv(p)


def test_load_matrix_csv_ignores_trailing_empty_lines(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("t0,t1\n1,2\n3,4\n\n\n")
    assert np.array_equal(load_matrix_csv(p), [[1.0, 2.0], [3.0, 4.0]])


@pytest.mark.parametrize("body", ["", "\n\n"])
def test_load_matrix_csv_header_only_has_no_data_rows(tmp_path, body):
    p = tmp_path / "x.csv"
    p.write_text("t0,t1\n" + body)
    with pytest.raises(ValueError, match=re.escape(f"{p}: no data rows")):
        load_matrix_csv(p)


def test_load_matrix_csv_reads_what_csv_reads(tmp_path):
    # CRLF row ends, spaces around cells, nan and inf, a last row without a
    # row end, and quoted cells, which only the csv reader parses
    p = tmp_path / "x.csv"
    p.write_bytes(b"t0,t1,t2\r\n 1.5 ,-2e-3,nan\r\n-inf,\t7,3\r\n\r\n")
    got = load_matrix_csv(p)
    assert np.array_equal(got, [[1.5, -2e-3, np.nan], [-np.inf, 7.0, 3.0]], equal_nan=True)
    p.write_text('t0,t1\n"1",2\n3,"4.5"')
    assert np.array_equal(load_matrix_csv(p), [[1.0, 2.0], [3.0, 4.5]])
    p.write_text("t0\n1\n2\n")
    assert load_matrix_csv(p).shape == (2, 1)


@pytest.mark.parametrize(
    "body, where",
    [
        ("1,2,3\n4,5\n", "row 2, column 3"),
        ("1,2,3\n4,5,6,7\n", "row 2, column 4"),
        ("1,2,3\n4,x,6\n", "row 2, column 2: 'x' is not a number"),
        ("1,2,3\n4,5,6#x\n", "row 2, column 3: '6#x' is not a number"),
        ("1,2,3\n\n4,5,6\n", "row 2, column 1"),
        ("\n1,2,3\n", "row 1, column 1: row has 0 cells, the header has 3"),
        ("1,2\n3,4,5\n", "row 1, column 3: row has 2 cells, the header has 3"),
        # every row narrower, or wider, than the header
        ("1,2\n3,4\n", "row 1, column 3: row has 2 cells, the header has 3"),
        ("1,2,3,4\n5,6,7,8\n", "row 1, column 4: row has 4 cells, the header has 3"),
        # float() reads both cells; np.loadtxt reads neither
        ("1,2,3\n4,1_000,6\n", "row 2, column 2: '1_000' is not a number"),
        ("1,2,3\n4,5,\u0661\n", "row 2, column 3: '\u0661' is not a number"),
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
    # the signal is not stored: gen_signal(spec) rebuilds it
    assert [f.name for f in fields(SimData)] == ["spec", "values", "truth"]

