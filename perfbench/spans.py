"""Span tracer for the traced benchmark run.

``Tracer.install`` replaces the public functions of the hlcast layers with
timing wrappers, on the defining module and on every hlcast module that
imported the name, so nested calls give nested spans. A span is
``[name, start, end, parent index, operation id, ok]``; spans stay in memory
and are summarised or written out when the run ends. Only the standard
library is imported here: the CLI runner loads this module before hlcast.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import time

# Span name -> the (module, function) pairs it times.
LAYER_FUNCTIONS = {
    "timeseries.align": [("hlcast.timeseries", "align")],
    "timeseries.csv_read": [
        ("hlcast.timeseries", "read_series_csv"),
        ("hlcast.timeseries", "read_frame_csv"),
    ],
    "timeseries.csv_write": [
        ("hlcast.timeseries", "write_series_csv"),
        ("hlcast.timeseries", "write_frame_csv"),
    ],
    "lti.hlc_series": [("hlcast.lti", "hlc_series")],
    "regress.design_matrix": [("hlcast.regress", "design_matrix")],
    "regress.ols_fit": [("hlcast.regress", "ols_fit")],
    "regress.predict": [("hlcast.regress", "predict")],
    "regress.ecm_fit": [("hlcast.regress", "ecm_fit")],
    "regress.ecm_forecast": [("hlcast.regress", "ecm_forecast")],
    "regress.lag_scan": [("hlcast.regress", "lag_scan")],
    "backtest.build_features": [("hlcast.backtest", "build_features")],
    "backtest.run_grid": [("hlcast.backtest", "run_grid")],
    "backtest.evaluate": [("hlcast.backtest", "evaluate")],
    "backtest.emit_plot_data": [("hlcast.backtest", "emit_plot_data")],
    "config.load_config": [("hlcast.config", "load_config")],
}
# Span name -> (module, class, method) for methods.
LAYER_METHODS = {"backtest.report_json": ("hlcast.backtest", "BacktestReport", "to_json")}

# Function -> (count name, amount added per successful call).
COUNTERS = {
    "ols_fit": ("regress.design_cells", lambda a: a[0].matrix.shape[0] * a[0].matrix.shape[1]),
    "read_series_csv": ("timeseries.csv_bytes", lambda a: os.path.getsize(a[0])),
    "read_frame_csv": ("timeseries.csv_bytes", lambda a: os.path.getsize(a[0])),
    "write_series_csv": ("timeseries.csv_bytes", lambda a: os.path.getsize(a[1])),
    "write_frame_csv": ("timeseries.csv_bytes", lambda a: os.path.getsize(a[1])),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, int]] = {}
        self.op: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op, False]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield
            rec[5] = True
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                key, amount = counter
                op = self.counts.setdefault(self.op, {})
                op[key] = op.get(key, 0) + amount(args)
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer function of the hlcast modules imported so far."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "hlcast"]
        for name, targets in LAYER_FUNCTIONS.items():
            for module_name, attr in targets:
                if module_name not in sys.modules:
                    continue
                original = getattr(sys.modules[module_name], attr)
                wrapper = self._wrap(name, original, COUNTERS.get(attr))
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapper)
                            self._patched.append((m, key, original))
        for name, (module_name, cls_name, method) in LAYER_METHODS.items():
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = vars(cls)[method]
            setattr(cls, method, self._wrap(name, original))
            self._patched.append((cls, method, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def dump(self, path: str, **extra) -> None:
        doc = {
            "spans": self.spans,
            "counts": [[op, k, v] for op, c in self.counts.items() for k, v in c.items()],
            **extra,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def per_op(spans: list[list], counts: dict) -> dict:
    """Self time, calls and failures per span name, and counts, by operation.

    A span's self time is its duration minus its child spans' durations;
    ``total_ms`` is its whole duration. ``root_ms`` holds the durations of
    the operation's outermost spans; their sum equals the sum of all its
    self times.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, op, ok in spans:
        if parent is not None:
            child[parent] += end - start
    ops: dict = {}

    def entry(op) -> dict:
        return ops.setdefault(
            op,
            {"self_ms": {}, "total_ms": {}, "calls": {}, "failed": {}, "counts": {}, "root_ms": {}},
        )

    for i, (name, start, end, parent, op, ok) in enumerate(spans):
        o = entry(op)
        o["self_ms"][name] = o["self_ms"].get(name, 0.0) + (end - start - child[i]) * 1e3
        o["total_ms"][name] = o["total_ms"].get(name, 0.0) + (end - start) * 1e3
        o["calls"][name] = o["calls"].get(name, 0) + 1
        o["failed"][name] = o["failed"].get(name, 0) + (not ok)
        if parent is None:
            o["root_ms"][name] = o["root_ms"].get(name, 0.0) + (end - start) * 1e3
    for op, c in counts.items():
        entry(op)["counts"].update(c)
    return ops


def load_dump(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    counts: dict = {}
    for op, key, value in doc["counts"]:
        counts.setdefault(op, {})[key] = value
    doc["counts"] = counts
    return doc
