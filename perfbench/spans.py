"""Spans recorded around calls into predfdr's layers, from outside the program.

A traced run replaces the module attributes that callers look up (for example
``predfdr.pipeline.gbfdr``, which ``detect`` calls through its module globals)
with timing wrappers, and restores them afterwards.  Spans stay in memory as
(name, start, end, parent, run id) and are written out when the run ends.
"""
from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

# (module, attribute, span name, cell counter).  Each attribute is the name a
# caller looks up at call time: the CLI imported its library functions into
# its own namespace, detect() reaches the selector and flag rule through
# pipeline's globals, and lagged_scores() imports student_t_cdf from special
# on every call.
HOOKS = (
    ("predfdr.cli", "load_matrix_csv", "simgen.load_matrix_csv", None),
    ("predfdr.cli", "lagged_scores", "pipeline.lagged_scores", None),
    ("predfdr.cli", "detect", "pipeline.detect", None),
    ("predfdr.cli", "write_scores_csv", "pipeline.write_scores_csv", None),
    ("predfdr.cli", "write_report", "pipeline.write_report", None),
    ("predfdr.pipeline", "lagged_scores", "pipeline.lagged_scores", None),
    ("predfdr.pipeline", "detect", "pipeline.detect", None),
    ("predfdr.pipeline", "gbfdr", "bfdr.gbfdr", None),
    ("predfdr.pipeline", "threshold_flags", "decision.threshold_flags", None),
    ("predfdr.pipeline", "confusion_metrics", "pipeline.confusion_metrics", None),
    ("predfdr.special", "student_t_cdf", "special.student_t_cdf", lambda args: np.size(args[0])),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 at the root
    run_id: int
    error: Optional[str] = None
    cells: int = 0


class Tracer:
    """In-memory span recorder; one per run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run_id = -1
        self._local = threading.local()
        self._patches: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args=(), kwargs=None, cells: int = 0):
        """Run fn(*args, **kwargs) inside a span named ``name``."""
        stack = self._stack()
        idx = len(self.spans)
        span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id, cells=cells)
        self.spans.append(span)
        stack.append(idx)
        span.start = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def install(self) -> None:
        """Wrap every hooked attribute that exists in the loaded program."""
        for mod_name, attr, name, counter in HOOKS:
            module = importlib.import_module(mod_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            setattr(module, attr, self._wrap(original, name, counter))
            self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, fn: Callable, name: str, counter) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            cells = counter(args) if counter else 0
            return self.call(name, fn, args, kwargs, cells)

        return traced

    def write(self, path) -> None:
        rows = [
            [s.name, s.start, s.end, s.parent, s.run_id, s.error, s.cells]
            for s in self.spans
        ]
        fields = ["name", "start", "end", "parent", "run_id", "error", "cells"]
        with open(path, "w") as fh:
            json.dump({"fields": fields, "spans": rows}, fh)


def run_totals(spans: list[Span]) -> dict[int, dict]:
    """Per run id: total time, self time, call and cell counts per span name.

    Self time is a span's duration minus the durations of its direct
    children; spans run on one thread, so children never overlap.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    runs: dict[int, dict] = defaultdict(
        lambda: {"total": defaultdict(float), "self": defaultdict(float),
                 "calls": defaultdict(int), "cells": defaultdict(int),
                 "errors": defaultdict(int)}
    )
    for i, s in enumerate(spans):
        r = runs[s.run_id]
        dur = s.end - s.start
        r["total"][s.name] += dur
        r["self"][s.name] += dur - child[i]
        r["calls"][s.name] += 1
        r["cells"][s.name] += s.cells
        if s.error:
            r["errors"][f"{s.name}:{s.error}"] += 1
    return runs


def durations(spans: list[Span], name: str) -> list[float]:
    return [s.end - s.start for s in spans if s.name == name]
