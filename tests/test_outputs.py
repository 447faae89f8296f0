"""Every file ``simulate`` and ``detect`` write, pinned by its sha256.

A small panel is simulated and then detected three ways, from a temporary
working directory with relative paths, so that the manifests (which record
the paths) hash alike on every run.  A change that moves one of these hashes
changes what the program writes.

The hashes were recorded under numpy ``NUMPY_VERSION``.  numpy's SIMD exp,
log and sin may differ by an ulp between CPU dispatch targets, so a mismatch
prints the numpy version and the SIMD targets of this run: a host that
differs there may write other digits without any regression.
"""
import hashlib
from pathlib import Path

import numpy as np

from predfdr.cli import main

NUMPY_VERSION = "2.4.6"

DATA = ["--data", "sim/data.csv"]
TRUTH = ["--truth", "sim/truth.csv"]
RUNS = [
    ["simulate", "--out", "sim", "--m", "60", "--t", "240", "--lag", "30", "--seed", "3"],
    ["detect", *DATA, *TRUTH, "--out", "default"],
    [
        "detect", *DATA, *TRUTH, "--out", "two_sided", "--two-sided", "--c1", "0.5",
        "--orientation", "raw_score", "--baseline-etas", "0.01,0.05,2^-3",
    ],
    ["detect", *DATA, "--out", "no_truth"],
]

SHA256 = {
    "default/diff.csv": "557ff5693d710e14b06305f04fa5cbc7def41e9a39ef43b271b3f1d589a398f0",
    "default/flags.csv": "a2ffe36d751763736c973f1bf7560d992984dfc90c446fcabc426dd1a62c6a25",
    "default/manifest.json": "0270ccf8ac9dffb2bcff30d36a8a46fc0945ea18abcb103a0de35cc681e6ca72",
    "default/metrics.csv": "7c368fb3914872533701f05461c18710f982bc5e44a550a212573add6f6a607d",
    "default/scores.csv": "ac1342f08b3b2e12cceafe7b454408faa8bdcbb5138612dabe3572fa08b6684a",
    "default/thresholds.csv": "64d8ef3300cc0fa636e5422f1c01700763ed4907cfd81da58e9647dbd7ede4fa",
    "no_truth/flags.csv": "a2ffe36d751763736c973f1bf7560d992984dfc90c446fcabc426dd1a62c6a25",
    "no_truth/manifest.json": "e7e53d1fb42f985d4d0f93208c33199a116cbd187d8c37bfefb9050f6aadffa8",
    "no_truth/scores.csv": "ac1342f08b3b2e12cceafe7b454408faa8bdcbb5138612dabe3572fa08b6684a",
    "no_truth/thresholds.csv": "64d8ef3300cc0fa636e5422f1c01700763ed4907cfd81da58e9647dbd7ede4fa",
    "sim/data.csv": "7a43f97af82a81926486bb4880ca1a2f2e7e39796ac27304e4aad61792e14ba7",
    "sim/manifest.json": "6218a09de068f1c7f5c15fdf9c933d2891c490011dec40d1353792fb1df766c6",
    "sim/simspec.json": "71810f4c55b965af697fb77981d78b556d74d2afbc44eb98bf93741035dac60d",
    "sim/truth.csv": "173ef0a9ddec08f995af390d0e2d12310a77569ca3c0baa4a5facfd758a031ec",
    "two_sided/diff.csv": "a5af9ebaf06364d9dfcb7c03afd2f0ba71fa9f6cded6cfa06b0d14ba552b3d2c",
    "two_sided/flags.csv": "1a30c599f70ef6a086bb38232121d0a6df3fc1486d395b6c3212edfa2a24d9d5",
    "two_sided/manifest.json": "413f42217ce5eb19ad24f42719596dd6b4c78c81e0ae006445e3fb88cbf51176",
    "two_sided/metrics.csv": "22974bdb2702a025ac433ffdce54d98107a7a7a1599c258c8dcb0dd16da3c486",
    "two_sided/scores.csv": "9db3dbbb23872b711905736566fe6024c945770724f7a87ca11cf8c55fdc9279",
    "two_sided/thresholds.csv": "547d90a69721b06f062ee571bcd805ed5b86c6f9165634ab7504b20818c4b3cc",
}


def _simd_targets() -> str:
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    found = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    return f"baseline {umath.__cpu_baseline__}, dispatched {found}"


def test_every_output_file_is_byte_identical(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for argv in RUNS:
        assert main(argv) == 0, capsys.readouterr().err
    got = {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.rglob("*"))
        if path.is_file()
    }
    assert got == SHA256, (
        f"outputs differ from the hashes recorded under numpy {NUMPY_VERSION}; "
        f"this run: numpy {np.__version__}, SIMD {_simd_targets()}"
    )
