"""Benchmark harness: bookkeeping, determinism of results, CSV output."""
import csv
import re

import pytest

from predfdr.bench import (
    BenchReport,
    BenchRun,
    BenchSpec,
    reference_spec,
    run_bench,
)
from predfdr.bfdr import CapacityError
from predfdr.files import write_bench_csv


def tiny_spec(**kw):
    base = dict(replications=6, m=40, a=2.0, q=0.2, k_values=(20, 50), seed=0, warmup=1)
    base.update(kw)
    return BenchSpec(**base)


def test_spec_rejects_a_grid_beyond_the_vectorised_budget():
    # every k is run by the vectorised selector, so a spec whose grid matrix
    # cannot fit fails when it is built, not after the looped runs
    expect = (
        "m=100000, k=100000: the vectorised selector's grid matrix of 90000900000 bytes "
        "exceeds its 2147483648-byte budget"
    )
    with pytest.raises(CapacityError, match=re.escape(expect)):
        BenchSpec(m=100000, k_values=(10, 100000))
    assert issubclass(CapacityError, ValueError)


def test_spec_validation():
    with pytest.raises(ValueError):
        BenchSpec(replications=0)
    with pytest.raises(ValueError):
        BenchSpec(m=0)
    with pytest.raises(ValueError):
        BenchSpec(k_values=(0,))
    assert BenchSpec(k_values=[10, 20]).k_values == (10, 20)
    # a fractional k is not truncated to an integer grid
    with pytest.raises(ValueError, match="integer k, got k=2.5"):
        BenchSpec(k_values=(10, 2.5))
    # every count and the seed follow the integer rule, and q and a the
    # selector's rules, when the spec is built: the first three counts were
    # accepted, run_bench died on seed = -1 with numpy's message, and a bad q
    # or a failed only in run_bench
    for kw, named in [
        ({"replications": 1.5}, "integer replications, got replications=1.5"),
        ({"m": 2.5}, "integer m, got m=2.5"),
        ({"warmup": 0.5}, "integer warmup, got warmup=0.5"),
        ({"seed": -1}, "seed >= 0, got seed=-1"),
        ({"q": 1.5}, "q must lie in (0, 1), got q=1.5"),
        ({"q": 0.0}, "q must lie in (0, 1), got q=0.0"),
        ({"a": -1}, "got a=-1"),
        ({"a": float("nan")}, "got a=nan"),
    ]:
        with pytest.raises(ValueError, match=re.escape(named)):
            tiny_spec(**kw)


def test_reference_spec_frozen():
    spec = reference_spec(seed=3)
    assert spec.replications == 1500
    assert spec.m == 1000
    assert spec.a == 2.0
    assert spec.q == 0.2
    assert spec.k_values == (10000,)
    assert spec.seed == 3


def test_run_bench_bookkeeping():
    spec = tiny_spec()
    rep = run_bench(spec)
    assert len(rep.runs) == 2 * 6 * 2  # methods x replications x k values
    assert all(r.seconds >= 0.0 for r in rep.runs)
    by_key = {}
    for r in rep.runs:
        by_key.setdefault((r.k, r.replication), []).append(r.eta_index)
    # both methods agreed on every replication (the run would abort otherwise)
    assert all(len(set(v)) == 1 for v in by_key.values())


def test_run_bench_results_deterministic():
    a = run_bench(tiny_spec())
    b = run_bench(tiny_spec())
    idx_a = [(r.method, r.k, r.replication, r.eta_index) for r in a.runs]
    idx_b = [(r.method, r.k, r.replication, r.eta_index) for r in b.runs]
    assert idx_a == idx_b


def test_summary_totals():
    rep = run_bench(tiny_spec())
    rows = rep.summary()
    assert len(rows) == 4
    for row in rows:
        secs = [
            r.seconds for r in rep.runs if r.method == row["method"] and r.k == row["k"]
        ]
        assert row["total"] == pytest.approx(sum(secs))
        assert row["mean"] == pytest.approx(sum(secs) / len(secs))
        assert row["sd"] >= 0.0


def test_median_seconds_keys():
    rep = run_bench(tiny_spec())
    med = rep.median_seconds()
    assert set(med) == {(m, k) for m in ("looped", "vectorized") for k in (20, 50)}
    assert all(v > 0.0 for v in med.values())


def test_write_bench_csv(tmp_path):
    rep = run_bench(tiny_spec())
    paths = write_bench_csv(rep, tmp_path)
    with open(paths["bench"]) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(rep.runs)
    assert {r["method"] for r in rows} == {"looped", "vectorized"}
    with open(paths["summary"]) as fh:
        srows = list(csv.DictReader(fh))
    assert len(srows) == 4
    assert all(float(r["mean"]) > 0.0 for r in srows)


def fixed_report():
    # two replications per (method, k), with fixed run times
    secs = {
        ("looped", 10): (0.25, 0.5),
        ("vectorized", 10): (0.1, 0.2),
        ("looped", 20): (1.0, 3.0),
        ("vectorized", 20): (0.125, 0.125),
    }
    runs = [
        BenchRun(method, k, rep, secs[method, k][rep], 3 if k == 10 else -1)
        for k in (10, 20)
        for rep in range(2)
        for method in ("looped", "vectorized")
    ]
    return BenchReport(BenchSpec(replications=2, m=5, k_values=(10, 20)), runs)


def test_write_bench_csv_exact_bytes(tmp_path):
    # repr floats, CRLF line ends; runs in run order, summary by k then method
    paths = write_bench_csv(fixed_report(), tmp_path)
    with open(paths["bench"], "rb") as fh:
        assert fh.read() == (
            b"method,k,replication,seconds,eta_index\r\n"
            b"looped,10,0,0.25,3\r\n"
            b"vectorized,10,0,0.1,3\r\n"
            b"looped,10,1,0.5,3\r\n"
            b"vectorized,10,1,0.2,3\r\n"
            b"looped,20,0,1.0,-1\r\n"
            b"vectorized,20,0,0.125,-1\r\n"
            b"looped,20,1,3.0,-1\r\n"
            b"vectorized,20,1,0.125,-1\r\n"
        )
    with open(paths["summary"], "rb") as fh:
        assert fh.read() == (
            b"method,k,total,mean,sd\r\n"
            b"looped,10,0.75,0.375,0.1767766952966369\r\n"
            b"vectorized,10,0.30000000000000004,0.15000000000000002,0.07071067811865477\r\n"
            b"looped,20,4.0,2.0,1.4142135623730951\r\n"
            b"vectorized,20,0.25,0.125,0.0\r\n"
        )


def test_median_seconds_fixed_runs():
    assert fixed_report().median_seconds() == {
        ("looped", 10): 0.375,
        ("vectorized", 10): 0.15000000000000002,
        ("looped", 20): 2.0,
        ("vectorized", 20): 0.125,
    }
