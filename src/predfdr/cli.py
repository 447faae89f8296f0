"""Command-line entry points: simulate, detect, bench, validate.

Every data-producing subcommand writes a manifest.json next to its outputs
holding the fully resolved configuration; --from-manifest replays it.
Exit codes: 0 success, 1 invalid input, 2 internal property failure.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .bfdr import BfdrConfig
from .bench import BenchSpec, reference_spec, run_bench, write_bench_csv
from .decision import ORIENTATIONS
from .pipeline import DetectConfig, detect, lagged_scores, write_report, write_scores_csv
from .predictive import NigParams
from .simgen import SimSpec, as_truth, gen_data, load_matrix_csv, save_sim
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


def _parse_pair(text: str, n: int, name: str):
    parts = _number_list(text, name)
    if len(parts) != n:
        raise ValueError(f"{name} expects {n} comma-separated values")
    return tuple(parts)


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
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _run_simulate(config: dict) -> int:
    out = Path(config["out"])
    spec = SimSpec(
        m=config["m"],
        t_len=config["t_len"],
        lag=config["lag"],
        outlier_rate=config["rate"],
        mean_params=tuple(config["mean_params"]),
        sd_inlier_params=tuple(config["sd_inlier"]),
        sd_outlier_params=tuple(config["sd_outlier"]),
        recenter_outliers=config["recenter"],
        seed=config["seed"],
    )
    paths = save_sim(gen_data(spec), out)
    _write_manifest(out, "simulate", config, paths)
    print(f"wrote {', '.join(sorted(paths))} to {out}")
    return 0


def _run_detect(config: dict) -> int:
    out = Path(config["out"])
    lag = config["lag"]
    prior = NigParams(*config["prior"])
    qs = config["q_values"]
    if not qs:
        raise ValueError("--q-grid gives no levels")
    base = (
        None
        if config["baseline_etas"] == "match"
        else tuple(parse_level_grid(config["baseline_etas"], "--baseline-etas"))
    )
    cfg = DetectConfig(
        bfdr=BfdrConfig(q=qs[0], a=config["a"], k=config["k"]),
        prior=prior,
        c1=config["c1"],
        baseline_etas=base,
        orientation=config["orientation"],
    )
    # every level's selector settings are checked before any input is read
    cfg.levels(qs)
    values = load_matrix_csv(config["data"])
    truth = None
    if config["truth"]:
        truth = load_matrix_csv(config["truth"])
        if truth.shape != values.shape:
            raise ValueError("truth matrix must match data shape")
        truth = as_truth(truth, config["truth"])
    else:
        print("no truth supplied; metrics.csv and diff.csv will be skipped", file=sys.stderr)
    scores = lagged_scores(
        values, prior, lag, two_sided=config["two_sided"], threads=config["threads"]
    )
    truth_aligned = truth[:, lag:] if truth is not None else None
    report = detect(
        scores, truth_aligned, cfg, q_values=qs, threads=config["threads"], t_offset=lag
    )
    out.mkdir(parents=True, exist_ok=True)
    write_scores_csv(scores, out / "scores.csv", t_offset=lag)
    paths = write_report(report, out)
    paths["scores"] = str(out / "scores.csv")
    _write_manifest(out, "detect", config, paths)
    print(f"scored {scores.shape[1]} timesteps x {scores.shape[0]} series; wrote {out}")
    return 0


def _run_bench(config: dict) -> int:
    out = Path(config["out"])
    if config["paper"]:
        spec = reference_spec(seed=config["seed"])
    else:
        spec = BenchSpec(
            replications=config["replications"],
            m=config["m"],
            a=config["a"],
            q=config["q"],
            k_values=tuple(config["k_values"]),
            seed=config["seed"],
        )
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


def _usable_cpus() -> int:
    """CPUs this process may run on; every host CPU where affinity is unknown."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def build_parser() -> _Parser:
    parser = _Parser(prog="predfdr", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    default_out = os.environ.get(OUT_ENV, ".")

    p = sub.add_parser("simulate", help="generate a synthetic panel", parents=[])
    p.add_argument("--out", default=default_out)
    p.add_argument("--m", type=int, default=1000)
    p.add_argument("--t", dest="t_len", type=int, default=2000)
    p.add_argument("--lag", type=int, default=30)
    p.add_argument("--rate", type=float, default=0.025)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mean-params", default="2,8,4", help="base,growth,cycles")
    p.add_argument("--sd-inlier", default="0.5,1.5", help="start,end")
    p.add_argument("--sd-outlier", default="1,3", help="start,end")
    p.add_argument(
        "--recenter",
        action="store_true",
        help="recenter outlier draws onto the signal mean",
    )
    p.add_argument("--from-manifest", default=None)

    p = sub.add_parser("detect", help="score a panel and select thresholds")
    p.add_argument("--data", required=False)
    p.add_argument("--truth", default=None)
    p.add_argument("--out", default=default_out)
    p.add_argument("--lag", type=int, default=30)
    p.add_argument("--prior", default="0,0.0001,0.01,0.01", help="mu0,nu,alpha,beta")
    p.add_argument("--q-grid", default="2^-1..2^-15")
    p.add_argument("--a", type=float, default=2.0)
    p.add_argument("--k", type=int, default=1000)
    p.add_argument("--c1", type=float, default=0.0)
    p.add_argument("--baseline-etas", default="match", help="'match' or a grid spec")
    p.add_argument("--orientation", choices=ORIENTATIONS, default="null_score")
    p.add_argument("--two-sided", action="store_true")
    p.add_argument("--threads", type=int, default=_usable_cpus())
    p.add_argument("--from-manifest", default=None)

    p = sub.add_parser("bench", help="time the two selector implementations")
    p.add_argument("--out", default=default_out)
    p.add_argument("--replications", type=int, default=100)
    p.add_argument("--m", type=int, default=1000)
    p.add_argument("--a", type=float, default=2.0)
    p.add_argument("--q", type=float, default=0.2)
    p.add_argument("--k", default="10000", help="comma-separated grid sizes")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--paper",
        action="store_true",
        help="reference configuration: 1500 replications, m=1000, a=2, q=0.2, k=10000",
    )
    p.add_argument("--from-manifest", default=None)

    p = sub.add_parser("validate", help="run the property-check suites")
    p.add_argument("--full", action="store_true")
    p.add_argument("--seed", type=int, default=0)

    return parser


def _config_from_args(args: argparse.Namespace) -> dict:
    if args.subcommand == "simulate":
        return {
            "out": args.out,
            "m": args.m,
            "t_len": args.t_len,
            "lag": args.lag,
            "rate": args.rate,
            "seed": args.seed,
            "mean_params": list(_parse_pair(args.mean_params, 3, "--mean-params")),
            "sd_inlier": list(_parse_pair(args.sd_inlier, 2, "--sd-inlier")),
            "sd_outlier": list(_parse_pair(args.sd_outlier, 2, "--sd-outlier")),
            "recenter": bool(args.recenter),
        }
    if args.subcommand == "detect":
        if not args.data:
            raise ValueError("detect requires --data (or --from-manifest)")
        return {
            "out": args.out,
            "data": args.data,
            "truth": args.truth,
            "lag": args.lag,
            "prior": list(_parse_pair(args.prior, 4, "--prior")),
            "q_values": parse_level_grid(args.q_grid),
            "a": args.a,
            "k": args.k,
            "c1": args.c1,
            "baseline_etas": args.baseline_etas,
            "orientation": args.orientation,
            "two_sided": bool(args.two_sided),
            "threads": args.threads,
        }
    if args.subcommand == "bench":
        return {
            "out": args.out,
            "replications": args.replications,
            "m": args.m,
            "a": args.a,
            "q": args.q,
            "k_values": _number_list(str(args.k), "--k", int),
            "seed": args.seed,
            "paper": bool(args.paper),
        }
    return {"full": bool(args.full), "seed": args.seed}


_RUNNERS = {
    "simulate": _run_simulate,
    "detect": _run_detect,
    "bench": _run_bench,
    "validate": _run_validate,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "from_manifest", None):
            manifest = json.loads(Path(args.from_manifest).read_text())
            sub = manifest["subcommand"]
            config = manifest["config"]
        else:
            sub = args.subcommand
            config = _config_from_args(args)
        return _RUNNERS[sub](config)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"internal failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
