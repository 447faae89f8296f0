"""Command-line entry points: simulate, detect, bench, validate.

Every data-producing subcommand writes a manifest.json next to its outputs
holding the fully resolved configuration; --from-manifest replays it.
Exit codes: 0 success, 1 invalid input, 2 internal property failure.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import astuple, fields
from pathlib import Path

from . import __version__
from .bfdr import BfdrConfig
from .bench import BenchSpec, reference_spec, run_bench
from .decision import ORIENTATIONS
from .files import as_finite, as_truth, check_settings, load_matrix_csv, read_json
# the matrix writer keeps the name perfbench/spans.py hooks
from .files import write_bench_csv, write_json, write_matrix_csv as write_scores_csv, write_report
from .pipeline import DIFFUSE_PRIOR, DetectConfig, detect, lagged_scores
from .predictive import NigParams
from .simgen import SimSpec, gen_data, save_sim
from .validation import run_checks

OUT_ENV = "PREDFDR_OUT"


def _number(tok: str, option: str, text: str, kind=float):
    """kind(tok), or a ValueError naming the option and the text it came from."""
    try:
        return kind(tok)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"{option} {text!r}: {tok.strip()!r} is not {what}") from None


def _number_list(text: str, option: str, kind=float) -> list:
    return [_number(tok, option, text, kind) for tok in text.split(",")]


def parse_level_grid(spec: str, option: str = "--q-grid"):
    """Parse a threshold grid: '2^-1..2^-15', '2^-3', or comma floats.

    Errors name ``option`` and the text that failed to parse.
    """
    spec = spec.strip()

    def power(tok: str, kind=float):
        base, _, expo = tok.partition("^")
        return _number(base, option, spec), _number(expo, option, spec, kind)

    def one(tok: str) -> float:
        if "^" not in tok:
            return _number(tok, option, spec)
        base, expo = power(tok)
        return base ** expo

    if ".." in spec:
        ends = spec.split("..")
        if len(ends) != 2 or any("^" not in tok for tok in ends):
            raise ValueError(f"{option} {spec!r}: a range is two base^exponent endpoints")
        (b1, e1), (b2, e2) = (power(tok, int) for tok in ends)
        if b1 != b2:
            raise ValueError(f"{option} {spec!r}: range endpoints must share a base")
        step = 1 if e2 >= e1 else -1
        return [b1 ** e for e in range(e1, e2 + step, step)]
    return [one(tok) for tok in spec.split(",") if tok.strip()]


def _text(values) -> str:
    """A sequence as the comma-separated text its option parses back."""
    return ",".join(map(repr, values))


def _parse_pair(text: str, n: int, name: str) -> list:
    parts = _number_list(text, name)
    if len(parts) != n:
        raise ValueError(f"{name} expects {n} comma-separated values")
    return parts


class _Parser(argparse.ArgumentParser):
    # usage problems are invalid input, not internal failures
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _write_manifest(out_dir: Path, subcommand: str, config: dict, outputs: dict) -> None:
    manifest = {
        "tool": "predfdr",
        "version": __version__,
        "subcommand": subcommand,
        "config": config,
        "outputs": sorted(outputs),
    }
    write_json(out_dir / "manifest.json", manifest)


# the spec field of each option whose dest is not the field's name
_SPEC_FIELDS = {
    "rate": "outlier_rate",
    "sd_inlier": "sd_inlier_params",
    "sd_outlier": "sd_outlier_params",
    "recenter": "recenter_outliers",
}


def _spec(cls, config: dict, **given):
    """``cls`` built from the config's options that name its fields, and ``given``."""
    names = {f.name for f in fields(cls)}
    settings = {_SPEC_FIELDS.get(key, key): value for key, value in config.items()}
    return cls(**{key: value for key, value in {**settings, **given}.items() if key in names})


def _run_simulate(config: dict) -> int:
    out = Path(config["out"])
    paths = save_sim(gen_data(_spec(SimSpec, config)), out)
    _write_manifest(out, "simulate", config, paths)
    print(f"wrote {', '.join(sorted(paths))} to {out}")
    return 0


def _run_detect(config: dict) -> int:
    if not config["data"]:
        raise ValueError("detect requires --data (or --from-manifest)")
    out = Path(config["out"])
    lag = config["lag"]
    prior = NigParams(*config["prior"])
    qs = config["q_values"]
    if not qs:
        raise ValueError("--q-grid gives no levels")
    etas = config["baseline_etas"]
    base = None if etas == "match" else tuple(parse_level_grid(etas, "--baseline-etas"))
    cfg = _spec(DetectConfig, config, bfdr=_spec(BfdrConfig, config, q=qs[0]), baseline_etas=base)
    # every level's selector settings are checked before any input is read
    cfg.levels(qs)
    values = as_finite(load_matrix_csv(config["data"]), config["data"])
    truth = None
    if config["truth"]:
        truth = load_matrix_csv(config["truth"])
        if truth.shape != values.shape:
            raise ValueError("truth matrix must match data shape")
        truth = as_truth(truth, config["truth"])
    else:
        print("no truth supplied; metrics.csv and diff.csv will be skipped", file=sys.stderr)
    scores = lagged_scores(values, prior, lag, two_sided=config["two_sided"])
    truth_aligned = truth[:, lag:] if truth is not None else None
    report = detect(scores, truth_aligned, cfg, q_values=qs, t_offset=lag)
    out.mkdir(parents=True, exist_ok=True)
    write_scores_csv(scores, out / "scores.csv", t_offset=lag)
    paths = write_report(report, out)
    paths["scores"] = str(out / "scores.csv")
    _write_manifest(out, "detect", config, paths)
    print(f"scored {scores.shape[1]} timesteps x {scores.shape[0]} series; wrote {out}")
    return 0


def _run_bench(config: dict) -> int:
    out = Path(config["out"])
    spec = reference_spec(seed=config["seed"]) if config["paper"] else _spec(BenchSpec, config)
    report = run_bench(spec)
    paths = write_bench_csv(report, out)
    _write_manifest(out, "bench", config, paths)
    for row in report.summary():
        print(
            f"{row['method']:>10s} k={row['k']:>6d} "
            f"total={row['total']:.3f}s mean={row['mean']:.6f}s sd={row['sd']:.6f}s"
        )
    return 0


def _run_validate(config: dict) -> int:
    results = run_checks(full=config["full"], seed=config["seed"])
    failed = False
    for res in results:
        mark = "PASS" if res.passed else "FAIL"
        print(f"{mark} {res.name}: {res.detail}")
        failed |= not res.passed
    return 2 if failed else 0


def build_parser() -> _Parser:
    parser = _Parser(prog="predfdr", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    # every data-producing subcommand writes to --out and can replay a manifest
    outputs = argparse.ArgumentParser(add_help=False)
    outputs.add_argument("--out", default=os.environ.get(OUT_ENV, "."))
    outputs.add_argument("--from-manifest", default=None)

    # an option the library has a default for reads it from the library
    p = sub.add_parser("simulate", help="generate a synthetic panel", parents=[outputs])
    p.add_argument("--m", type=int, default=SimSpec.m)
    p.add_argument("--t", dest="t_len", type=int, default=SimSpec.t_len)
    p.add_argument("--lag", type=int, default=SimSpec.lag)
    p.add_argument("--rate", type=float, default=SimSpec.outlier_rate)
    p.add_argument("--seed", type=int, default=SimSpec.seed)
    p.add_argument("--mean-params", default=_text(SimSpec.mean_params), help="base,growth,cycles")
    p.add_argument("--sd-inlier", default=_text(SimSpec.sd_inlier_params), help="start,end")
    p.add_argument("--sd-outlier", default=_text(SimSpec.sd_outlier_params), help="start,end")
    p.add_argument(
        "--recenter", action="store_true", default=SimSpec.recenter_outliers,
        help="recenter outlier draws onto the signal mean",
    )

    p = sub.add_parser("detect", help="score a panel and select thresholds", parents=[outputs])
    p.add_argument("--data", required=False)
    p.add_argument("--truth", default=None)
    p.add_argument("--lag", type=int, default=SimSpec.lag)
    p.add_argument("--prior", default=_text(astuple(DIFFUSE_PRIOR)), help="mu0,nu,alpha,beta")
    p.add_argument("--q-grid", dest="q_values", metavar="Q_GRID", default="2^-1..2^-15")
    p.add_argument("--a", type=float, default=2.0)
    p.add_argument("--k", type=int, default=BfdrConfig.k)
    p.add_argument("--c1", type=float, default=DetectConfig.c1)
    p.add_argument("--baseline-etas", default="match", help="'match' or a grid spec")
    p.add_argument("--orientation", choices=ORIENTATIONS, default=DetectConfig.orientation)
    p.add_argument("--two-sided", action="store_true")

    p = sub.add_parser("bench", help="time the two selector implementations", parents=[outputs])
    p.add_argument("--replications", type=int, default=BenchSpec.replications)
    p.add_argument("--m", type=int, default=BenchSpec.m)
    p.add_argument("--a", type=float, default=BenchSpec.a)
    p.add_argument("--q", type=float, default=BenchSpec.q)
    p.add_argument(
        "--k", dest="k_values", metavar="K", default=_text(BenchSpec.k_values),
        help="comma-separated grid sizes",
    )
    p.add_argument("--seed", type=int, default=BenchSpec.seed)
    ref = reference_spec()
    p.add_argument(
        "--paper", action="store_true",
        help=f"reference configuration: {ref.replications} replications, m={ref.m}, "
        f"a={ref.a:g}, q={ref.q:g}, k={_text(ref.k_values)}",
    )

    p = sub.add_parser("validate", help="run the property-check suites")
    p.add_argument("--full", action="store_true")
    p.add_argument("--seed", type=int, default=0)

    return parser


# Parsers of the text options, by dest; every other value is kept as parsed.
_TEXT_OPTIONS = {
    "mean_params": lambda text: _parse_pair(text, 3, "--mean-params"),
    "sd_inlier": lambda text: _parse_pair(text, 2, "--sd-inlier"),
    "sd_outlier": lambda text: _parse_pair(text, 2, "--sd-outlier"),
    "prior": lambda text: _parse_pair(text, 4, "--prior"),
    "q_values": parse_level_grid,
    "k_values": lambda text: _number_list(text, "--k", int),
}


def _config_from_args(args: argparse.Namespace) -> dict:
    """The resolved configuration: every option in declaration order."""
    return {
        key: _TEXT_OPTIONS[key](value) if key in _TEXT_OPTIONS else value
        for key, value in vars(args).items()
        if key not in ("subcommand", "from_manifest")
    }


# keys of options since removed, which replay ignores: every selector route,
# and every thread count, gave byte-identical outputs
_RETIRED_KEYS = {"detect": {"algorithm", "threads"}}


def _replayed_config(
    parser: argparse.ArgumentParser, args: argparse.Namespace, argv: list
) -> dict:
    """The manifest's config, replayed by the subcommand it records and
    with no other option typed.

    Its keys must be the subcommand's options, and each value must have the
    type that parsing its option gives.
    """
    source = f"--from-manifest {args.from_manifest}"
    manifest = read_json(args.from_manifest)
    if not (
        isinstance(manifest, dict)
        and "subcommand" in manifest
        and isinstance(manifest.get("config"), dict)
    ):
        raise ValueError(f"{source}: not a manifest with a subcommand and a config object")
    typed = {tok.partition("=")[0] for tok in argv[1:] if tok.startswith("--")}
    others = sorted(tok for tok in typed if not "--from-manifest".startswith(tok))
    if others or manifest["subcommand"] != args.subcommand:
        raise ValueError(
            f"{source} replays {manifest['subcommand']} "
            f"with no other option; got {' '.join([args.subcommand, *others])}"
        )
    defaults = _config_from_args(parser.parse_args([args.subcommand]))
    config = {
        key: value
        for key, value in manifest["config"].items()
        if key not in _RETIRED_KEYS.get(args.subcommand, ())
    }
    check_settings(config, defaults, source)
    for key in sorted(config.keys() & _TEXT_OPTIONS.keys()):
        # the option's own parser checks the count and integer items
        try:
            config[key] = _TEXT_OPTIONS[key](_text(config[key]))
        except ValueError as exc:
            raise ValueError(f"{source}: field {key!r}: {exc}") from None
    return config


_RUNNERS = {
    "simulate": _run_simulate,
    "detect": _run_detect,
    "bench": _run_bench,
    "validate": _run_validate,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        args = parser.parse_args(argv)
        if getattr(args, "from_manifest", None):
            config = _replayed_config(parser, args, argv)
        else:
            config = _config_from_args(args)
        if config.get("seed", 0) < 0:
            raise ValueError(f"--seed {config['seed']}: the seed must be a non-negative integer")
        return _RUNNERS[args.subcommand](config)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"internal failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
