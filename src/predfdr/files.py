"""Every file predfdr reads or writes: CSV matrices and reports, and JSON
settings with the checks on what is read back.  A leaf module: it imports
nothing from the rest of the package."""
from __future__ import annotations

import csv
import json
from itertools import chain
from pathlib import Path
from typing import Optional

import numpy as np

METRIC_NAMES = ("precision", "recall", "accuracy", "balanced_accuracy")

# cells per block of rows in the writers that build bytes from an array (truth.csv
# and flags.csv): bounds a dense block's buffers, and does not change the bytes
_WRITE_CELLS = 2**16


def write_matrix_csv(mat: np.ndarray, path, t_offset: int = 0) -> None:
    """Write a (series, timestep) matrix as load_matrix_csv reads it: a header
    row t<t_offset>, t<t_offset + 1>, ..., then one row per series with each
    cell in %.17g (0 and 1 for bools); LF line ends.

    A bool matrix is written as those 0/1 bytes built from the array, a block
    of rows of about 2**16 cells at a time, rather than formatted cell by
    cell."""
    header = ",".join(f"t{t_offset + i}" for i in range(mat.shape[1]))
    if mat.dtype != bool:
        np.savetxt(path, mat, fmt="%.17g", delimiter=",", header=header, comments="")
        return
    rows = max(1, _WRITE_CELLS // mat.shape[1])
    # each cell is a digit and a separator: a comma, or LF after the last
    line = np.full((min(rows, mat.shape[0]), 2 * mat.shape[1]), ord(","), dtype=np.uint8)
    line[:, -1] = ord("\n")
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for r0 in range(0, mat.shape[0], rows):
            block = mat[r0 : r0 + rows]
            text = line[: block.shape[0]]
            np.add(block, ord("0"), out=text[:, ::2], dtype=np.uint8)
            fh.write(text)


def write_rows_csv(path: Path, header, rows) -> str:
    """Write a header row and then ``rows`` with csv.writer: CRLF line ends,
    floats as repr() writes them."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        wr.writerows(rows)
    return str(path)


# what csv.reader reads as a row of no cells, and the end of the file
_BLANK = ("", "\n", "\r", "\r\n")


def load_matrix_csv(path) -> np.ndarray:
    """Read a headered CSV matrix written by write_matrix_csv.

    A cell is a number as np.loadtxt reads one: Python's float() syntax
    (surrounding spaces, 'nan' and 'inf' included) without '_' digit
    separators or non-ASCII digits.  Trailing empty lines are ignored.  A
    missing or ragged row, a row of another width than the header, or a cell
    that is not a number is reported by its row and column; rows are counted
    from 1 below the header, columns from 1.
    """
    with open(path, newline="") as fh:
        width = len(next(csv.reader(fh), []))
        first = next(fh, "")
        last = 1  # body line number of the last non-blank line

        def body():
            nonlocal last
            yield first
            for n, line in enumerate(fh, start=2):
                if line not in _BLANK:
                    last = n
                yield line

        # a blank first body line is a missing row or no rows at all
        if first not in _BLANK:
            try:
                mat = np.loadtxt(body(), delimiter=",", ndmin=2, comments=None)
            except ValueError:
                pass
            else:
                # loadtxt skips blank lines, so fewer rows than `last` means a
                # blank line mid-file
                if mat.shape == (last, width):
                    return mat
    # the csv reader parses what loadtxt cannot (quoted cells) and names the
    # first bad cell of what neither can
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    while rows and not rows[-1]:
        rows.pop()
    if not rows:
        raise ValueError(f"empty CSV: {path}")
    if len(rows) == 1:
        raise ValueError(f"{path}: no data rows below the header")
    for r, row in enumerate(rows[1:], start=1):
        for c, cell in enumerate(row, start=1):
            try:
                _cell_value(cell)
            except ValueError:
                raise ValueError(f"{path}: row {r}, column {c}: {cell!r} is not a number") from None
        if len(row) != width:
            raise ValueError(
                f"{path}: row {r}, column {min(len(row), width) + 1}: row has {len(row)} "
                f"cells, the header has {width}"
            )
    return np.array([[_cell_value(c) for c in row] for row in rows[1:]])


def _cell_value(cell: str) -> float:
    """float(cell) under np.loadtxt's rule, which rejects '_' separators and
    non-ASCII digits that float() accepts."""
    text = cell.strip()
    if "_" in text or not text.isascii():
        raise ValueError(cell)
    return float(text)


def _reject_cell(mat: np.ndarray, bad: np.ndarray, path, why: str) -> None:
    """Name the first cell where ``bad`` holds, as load_matrix_csv numbers cells."""
    if bad.any():
        r, c = np.argwhere(bad)[0]
        cell = float(mat[r, c])
        raise ValueError(f"{path}: row {r + 1}, column {c + 1}: {cell!r} {why}")


def as_truth(mat: np.ndarray, path) -> np.ndarray:
    """Truth as booleans: a bool matrix as it is, else every cell must be 0 or 1."""
    if mat.dtype == bool:
        return mat
    _reject_cell(mat, (mat != 0.0) & (mat != 1.0), path, "is not 0 or 1")
    return mat.astype(bool)


def as_finite(mat: np.ndarray, path) -> np.ndarray:
    """The matrix itself; every cell must be finite."""
    _reject_cell(mat, ~np.isfinite(mat), path, "is not finite")
    return mat


def read_json(path):
    """The JSON value in the file at ``path``; bad JSON is a ValueError."""
    return json.loads(Path(path).read_text())


def write_json(path, value) -> None:
    """Write ``value`` as JSON indented by 2, with a final newline."""
    Path(path).write_text(json.dumps(value, indent=2) + "\n")


# accepted JSON types, by the type of a setting's default, and their name
_JSON_TYPES = {
    bool: ((bool,), "true or false"),
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
    type(None): ((str, type(None)), "a string or null"),
}


def json_type_error(value, default) -> Optional[str]:
    """Why ``value`` read from JSON is not typed like ``default``, or None.

    An integer passes for a float (but true and false pass for neither), and
    a list for a tuple or list whose items each pass for its first item.
    """
    if isinstance(default, (tuple, list)):
        item = default[0]
        if isinstance(value, list) and not any(json_type_error(v, item) for v in value):
            return None
        return f"{value!r} is not a list whose items are each {_JSON_TYPES[type(item)][1]}"
    types, name = _JSON_TYPES[type(default)]
    return None if type(value) in types else f"{value!r} is not {name}"


def check_settings(settings, defaults: dict, source) -> None:
    """Settings read from JSON must be an object with the keys of ``defaults``,
    each typed like its default; else a ValueError naming ``source`` and the key."""
    if not isinstance(settings, dict):
        raise ValueError(f"{source}: {settings!r} is not a JSON object")
    if set(settings) != set(defaults):
        raise ValueError(
            f"{source}: missing keys {sorted(set(defaults) - set(settings))}, "
            f"unknown keys {sorted(set(settings) - set(defaults))}"
        )
    for key, default in defaults.items():
        wrong = json_type_error(settings[key], default)
        if wrong:
            raise ValueError(f"{source}: field {key!r}: {wrong}")


def _write_flags(path: Path, report) -> str:
    """flags.csv as csv.writer would write it: one row per flagged cell, by
    method, level, series, then timestep."""
    nt = report.t_index.size
    t_cells = np.array([f"{t}," for t in report.t_index.tolist()], dtype=object)
    series = report.flags_bfdr.shape[1]
    j_cells = np.array([f"{j}\r\n" for j in range(series)], dtype=object)
    rows = max(1, _WRITE_CELLS // max(nt, 1))
    with open(path, "w", newline="") as fh:
        fh.write("method,q,t,series\r\n")
        for method, levels, cube in (
            ("bfdr", report.qs, report.flags_bfdr),
            ("fixed", report.baseline_etas, report.flags_fixed),
        ):
            for level, flags in zip(levels, cube):
                head = f"{method},{level!r},"
                for lo in range(0, series, rows):
                    j, ti = np.divmod(np.flatnonzero(flags[lo : lo + rows]), nt)
                    if j.size:
                        fh.write(head + head.join((t_cells[ti] + j_cells[lo + j]).tolist()))
    return str(path)


def write_report(report, out_dir) -> dict:
    """Write a pipeline.DetectionReport as thresholds.csv, flags.csv and,
    when metrics exist, metrics.csv and diff.csv.

    Rows run level by level, then by timestep; flags are written sparsely,
    one row per flagged cell, by level, series, timestep.  Differences pair
    each evaluated q with the fixed baseline of the same numeric level, when
    present.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ts = report.t_index.tolist()

    def level_rows(levels, columns, *label):
        # (t, level, *label, *cells); columns are (level, timestep) arrays
        for level, *cols in zip(levels, *(c.tolist() for c in columns)):
            level = repr(level)
            for t, *cells in zip(ts, *cols):
                yield (t, level, *label, *cells)

    def threshold_rows():
        rows = level_rows(report.qs, [report.feasible, report.eta_s, report.eta_r])
        for t, q, feas, eta_s, eta_r in rows:
            yield (t, q, eta_s, eta_r, 1) if feas else (t, q, "", "", 0)

    paths = {
        "thresholds": write_rows_csv(
            out / "thresholds.csv", ["t", "q", "eta_s", "eta_r", "feasible"], threshold_rows()
        ),
        "flags": _write_flags(out / "flags.csv", report),
    }
    if report.metrics_bfdr is not None:
        bfdr = [report.metrics_bfdr[name] for name in METRIC_NAMES]
        fixed = [report.metrics_fixed[name] for name in METRIC_NAMES]
        rows = chain(
            level_rows(report.qs, bfdr, "bfdr"), level_rows(report.baseline_etas, fixed, "fixed")
        )
        paths["metrics"] = write_rows_csv(
            out / "metrics.csv", ["t", "q", "method", *METRIC_NAMES], rows
        )
        qi = [i for i, q in enumerate(report.qs) if q in report.baseline_etas]
        bi = [report.baseline_etas.index(report.qs[i]) for i in qi]
        diffs = [b[qi] - f[bi] for b, f in zip(bfdr, fixed)]
        paths["diff"] = write_rows_csv(
            out / "diff.csv",
            ["t", "q", *[f"{n}_diff" for n in METRIC_NAMES]],
            level_rows([report.qs[i] for i in qi], diffs),
        )
    return paths


def write_bench_csv(report, out_dir) -> dict:
    """Write a bench.BenchReport as bench.csv (per run) and bench_summary.csv
    (per method and k); floats are written as repr() writes them."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    runs = ["method", "k", "replication", "seconds", "eta_index"]
    summary = ["method", "k", "total", "mean", "sd"]
    run_rows = ([getattr(r, c) for c in runs] for r in report.runs)
    summary_rows = ([row[c] for c in summary] for row in report.summary())
    return {
        "bench": write_rows_csv(out / "bench.csv", runs, run_rows),
        "summary": write_rows_csv(out / "bench_summary.csv", summary, summary_rows),
    }
