"""predfdr benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Sets up the workload's inputs from the seed, runs its job back to back for S
seconds, checks every operation's outputs outside the timed region, and
prints a table of metrics followed, as the last line, by one JSON object with
the keys correct, attempted, failed and metrics.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 every other job runs with timing
wrappers around predfdr's layers and the metrics are the per-layer ones.
End-to-end times are scaled by the host's speed around each interval
(``hostspeed.py``); the table also prints the wall times they came from.
Run from the root of a checkout that holds ``src/predfdr``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import env

SETUP_REPS = 3
IMPORT_REPS = 5
PROBE_TIMEOUT_S = 150

# Per-layer metrics reported on every workload, in BENCHMARK.json order.
# Counts are per job; times are per job, medians over the traced jobs.
LAYER_METRICS = (
    ("bfdr.gbfdr_s", "s"),
    ("bfdr.gbfdr_calls", "count"),
    ("bfdr.gbfdr_us_p50", "us"),
    ("bfdr.infeasible_cells", "count"),
    ("bfdr.capacity_errors", "count"),
    ("special.student_t_cdf_s", "s"),
    ("special.student_t_cdf_calls", "count"),
    ("special.student_t_cdf_cells", "count"),
    ("special.student_t_cdf_us_per_cell", "us"),
    ("pipeline.lagged_scores_s", "s"),
    ("pipeline.lagged_scores_self_s", "s"),
    ("decision.threshold_flags_s", "s"),
    ("decision.threshold_flags_calls", "count"),
    ("decision.flags_bfdr", "count"),
    ("decision.flags_fixed", "count"),
    ("pipeline.confusion_metrics_s", "s"),
    ("pipeline.confusion_metrics_calls", "count"),
    ("pipeline.detect_s", "s"),
    ("pipeline.detect_self_s", "s"),
    ("trace.job_s", "s"),
    ("trace.overhead_pct", "%"),
)
# Layers only the detect command reaches; on the library workloads their
# spans never fire and the table shows them as absent.
CLI_LAYER_METRICS = (
    ("pipeline.write_report_s", "s"),
    ("pipeline.write_scores_csv_s", "s"),
    ("pipeline.write_mb", "MB"),
    ("simgen.load_matrix_csv_s", "s"),
    ("simgen.load_mb", "MB"),
    ("cli.self_s", "s"),
)
END_TO_END = (
    ("setup_s", "s"),
    ("job_s", "s"),
    ("step_ms_p50", "ms"),
    ("step_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
)
# Counts that must repeat exactly between jobs on the same inputs.
EXACT_COUNTS = tuple(name for name, unit in LAYER_METRICS if unit == "count")


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small inputs, for the benchmark's own test")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def start_probe(workload: str, workdir: Path, tiny: bool) -> subprocess.Popen:
    """Start the memory probe while this process is still small.

    A child inherits its parent's peak RSS at fork time, so the probe is
    started before numpy is imported here; it waits on stdin until the inputs
    are written.
    """
    cmd = [sys.executable, str(env.HERE / "rss_probe.py"), workload, str(workdir)]
    if tiny:
        cmd.append("--tiny")
    return subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


def peak_rss_mb(probe: subprocess.Popen) -> float:
    """Peak RSS growth of one job in the probe process, set-up excluded."""
    out, err = probe.communicate("go\n", timeout=PROBE_TIMEOUT_S)
    if probe.returncode != 0:
        raise RuntimeError(f"memory probe failed ({probe.returncode}): {err.strip()}")
    return float(json.loads(out.strip().splitlines()[-1])["peak_rss_mb"])


def layer_metrics(tracer, traced_jobs) -> tuple[dict, list]:
    """Per-layer values (medians over traced jobs) and the per-job counts."""
    import spans

    totals = spans.run_totals(tracer.spans)
    per_job = []
    for job_id, job in traced_jobs:
        r = totals[job_id]
        reports = [op.report for op in job.ops if op.error is None]
        row = {
            "bfdr.gbfdr_s": r["total"].get("bfdr.gbfdr"),
            "bfdr.gbfdr_calls": r["calls"].get("bfdr.gbfdr"),
            "bfdr.infeasible_cells": sum(int((~rep.feasible).sum()) for rep in reports),
            "bfdr.capacity_errors": r["errors"].get("bfdr.gbfdr:CapacityError", 0)
            if "bfdr.gbfdr" in r["calls"] else None,
            "special.student_t_cdf_s": r["total"].get("special.student_t_cdf"),
            "special.student_t_cdf_calls": r["calls"].get("special.student_t_cdf"),
            "special.student_t_cdf_cells": r["cells"].get("special.student_t_cdf"),
            "pipeline.lagged_scores_s": r["total"].get("pipeline.lagged_scores"),
            "pipeline.lagged_scores_self_s": r["self"].get("pipeline.lagged_scores"),
            "decision.threshold_flags_s": r["total"].get("decision.threshold_flags"),
            "decision.threshold_flags_calls": r["calls"].get("decision.threshold_flags"),
            "decision.flags_bfdr": sum(int(rep.flags_bfdr.sum()) for rep in reports),
            "decision.flags_fixed": sum(int(rep.flags_fixed.sum()) for rep in reports),
            "pipeline.confusion_metrics_s": r["total"].get("pipeline.confusion_metrics"),
            "pipeline.confusion_metrics_calls": r["calls"].get("pipeline.confusion_metrics"),
            "pipeline.detect_s": r["total"].get("pipeline.detect"),
            "pipeline.detect_self_s": r["self"].get("pipeline.detect"),
            "trace.job_s": job.seconds,
            "pipeline.write_report_s": r["total"].get("pipeline.write_report"),
            "pipeline.write_scores_csv_s": r["total"].get("pipeline.write_scores_csv"),
            "pipeline.write_mb": job.io_mb.get("write") if "pipeline.write_report" in r["calls"] else None,
            "simgen.load_matrix_csv_s": r["total"].get("simgen.load_matrix_csv"),
            "simgen.load_mb": job.io_mb.get("load") if "simgen.load_matrix_csv" in r["calls"] else None,
            "cli.self_s": r["self"].get("cli"),
        }
        t_s, cells = row["special.student_t_cdf_s"], row["special.student_t_cdf_cells"]
        row["special.student_t_cdf_us_per_cell"] = t_s / cells * 1e6 if cells else None
        per_job.append(row)

    values = {}
    for name in per_job[0]:
        column = [row[name] for row in per_job]
        # a span that never fired leaves its metric absent, never 0
        if any(v is None for v in column):
            continue
        values[name] = column[0] if name in EXACT_COUNTS else statistics.median(column)
    gbfdr = spans.durations(tracer.spans, "bfdr.gbfdr")
    if gbfdr:
        values["bfdr.gbfdr_us_p50"] = statistics.median(gbfdr) * 1e6
    counts = [{n: row[n] for n in EXACT_COUNTS if n in row} for row in per_job]
    return values, counts


def main(argv=None) -> int:
    args = parse_args(argv)
    workdir = env.HERE / ".work" / f"{args.workload}-{os.getpid()}"
    probe = None
    try:
        env.pin_threads()
        if not args.trace:
            probe = start_probe(args.workload, workdir, args.tiny)
        return measure(args, workdir, probe)
    except env.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if probe is not None and probe.poll() is None:
            probe.kill()
            probe.communicate()
        shutil.rmtree(workdir, ignore_errors=True)


def traced_job(tracer, wl, state, job_id: int):
    tracer.run_id = job_id
    tracer.install()
    try:
        return tracer.call(wl.root, wl.job, (state,))
    finally:
        tracer.uninstall()


def run_jobs(wl, state, seconds: float, tracer, rng, host):
    """Run jobs back to back for ``seconds`` and check every operation.

    With a tracer every other job is traced, so that a traced run also
    measures its own untraced job time.  Returns (jobs, each job's host-speed
    scale, traced job ids, attempted, failed).
    """
    jobs, scales, traced_ids = [], [], []
    attempted = failed = 0
    min_jobs = 2 if tracer else 1
    deadline = time.perf_counter() + seconds
    while len(jobs) < min_jobs or time.perf_counter() < deadline:
        job_id = len(jobs)
        if tracer and job_id % 2 == 1:
            job, _, factor = host.timed(traced_job, tracer, wl, state, job_id)
            traced_ids.append(job_id)
        else:
            job, _, factor = host.timed(wl.job, state)
        jobs.append(job)
        scales.append(factor)
        for op in job.ops:
            attempted += 1
            fails = [op.error] if op.error else wl.check(state, op, rng)
            if fails:
                failed += 1
                if failed <= 5:
                    print(f"# FAILED job {job_id}: " + "; ".join(fails), file=sys.stderr)
    return jobs, scales, traced_ids, attempted, failed


def measure(args, workdir: Path, probe) -> int:
    env.import_program()

    import numpy as np
    import hostspeed
    import spans
    import workloads

    try:
        wl = workloads.make(args.workload, tiny=args.tiny)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    host = hostspeed.HostSpeed()
    import_wall = [env.fresh_import_s() for _ in range(IMPORT_REPS)]
    print("# environment " + json.dumps(env.describe()))
    print("# workload " + json.dumps(wl.record(args.seed)))

    state = None
    try:
        setup_wall, setup_scaled = [], []
        for _ in range(SETUP_REPS):
            if state is not None:
                wl.teardown(state)
                state = None
            state, seconds, factor = host.timed(wl.setup, args.seed, workdir)
            setup_wall.append(seconds)
            setup_scaled.append(seconds * factor)
        tracer = spans.Tracer() if args.trace else None
        rng = np.random.default_rng([args.seed, 7])
        jobs, scales, traced_ids, attempted, failed = run_jobs(
            wl, state, args.seconds, tracer, rng, host)
    finally:
        if state is not None:
            wl.teardown(state)

    table = []
    if args.trace:
        traced = set(traced_ids)
        metrics, counts = layer_metrics(tracer, [(i, jobs[i]) for i in traced_ids])
        untraced_s = statistics.median(j.seconds for i, j in enumerate(jobs) if i not in traced)
        metrics["trace.overhead_pct"] = (metrics["trace.job_s"] / untraced_s - 1.0) * 100.0
        repeat = all(c == counts[0] for c in counts)
        if not repeat:
            print("# FAILED exact counts differ between traced jobs", file=sys.stderr)
        correct = failed == 0 and repeat
        trace_path = env.HERE / ".work" / f"trace-{wl.name}-seed{args.seed}.json"
        tracer.write(trace_path)
        print(f"# spans written to {trace_path.relative_to(env.ROOT)}")
        table += [("traced_jobs", len(traced), "count"),
                  ("untraced_jobs", len(jobs) - len(traced), "count"),
                  ("counts_repeat_exactly", int(repeat), "bool")]
        table += [(n, metrics.get(n, "absent"), u) for n, u in LAYER_METRICS + CLI_LAYER_METRICS]
        result = {n: {"value": metrics[n], "unit": u} for n, u in LAYER_METRICS if n in metrics}
    else:
        steps = np.array([s * f for job, f in zip(jobs, scales) for s in wl.step_seconds(job)])
        metrics = {
            # A child process disturbs the reference pass right after it, so the
            # imports take the run's median factor instead of their own brackets.
            "setup_s": statistics.median(import_wall) * statistics.median(scales)
            + statistics.median(setup_scaled),
            "job_s": statistics.median(j.seconds * f for j, f in zip(jobs, scales)),
            "step_ms_p50": float(np.percentile(steps, 50)) * 1e3,
            "step_ms_p90": float(np.percentile(steps, 90)) * 1e3,
            "peak_rss_mb": peak_rss_mb(probe),
        }
        correct = failed == 0
        result = {n: {"value": metrics[n], "unit": u} for n, u in END_TO_END}
        table += [(n, metrics[n], u) for n, u in END_TO_END]
        table += [("error_rate", failed / attempted, "ratio"), ("jobs", len(jobs), "count"),
                  ("step_samples", len(steps), "count"),
                  ("host_scale_p50", statistics.median(scales), "ratio"),
                  ("host_scale_min", min(scales), "ratio"),
                  ("host_scale_max", max(scales), "ratio"),
                  ("setup_wall_s", statistics.median(import_wall)
                   + statistics.median(setup_wall), "s"),
                  ("import_wall_s", statistics.median(import_wall), "s"),
                  ("job_wall_s", statistics.median(j.seconds for j in jobs), "s"),
                  ("job_wall_s_min", min(j.seconds for j in jobs), "s")]
    table += [("attempted", attempted, "count"), ("failed", failed, "count")]
    for name, value, unit in table:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{name:36s} {shown:>14s} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
