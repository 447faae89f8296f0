"""Peak RSS of one job in a fresh process.

    python3 perfbench/rss_probe.py WORKLOAD WORKDIR [--tiny]

Waits for "go" on stdin, then loads the inputs that the benchmark's set-up
wrote to WORKDIR, runs the workload's job once, and prints {"peak_rss_mb": ...}: the growth of the
process's peak resident set during the job, so that the interpreter, the
imports and the loaded inputs are excluded.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

import env


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="perfbench/rss_probe.py")
    p.add_argument("workload")
    p.add_argument("workdir", type=Path)
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args(argv)
    if sys.stdin.readline().strip() != "go":
        return 1
    env.pin_threads()
    env.import_program()
    import workloads

    wl = workloads.make(args.workload, tiny=args.tiny)
    state = wl.load(args.workdir)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    job = wl.job(state)
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    wl.teardown(state)
    errors = [op.error for op in job.ops if op.error]
    if errors:
        print(f"error: {errors[0]}", file=sys.stderr)
        return 1
    # ru_maxrss is in KiB on Linux
    print(json.dumps({"peak_rss_mb": (after - before) / 1024.0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
