"""Span tracer that wraps `cit`'s functions from outside the package.

`src/` imports names with ``from .x import y``, so a function is looked up
in the namespace of the module that calls it, not the module that defines
it.  `Tracer.install` therefore walks every ``cit.*`` module and replaces
each public ``cit`` function bound there (whatever module defined it) with
a wrapper that records one span: layer, function, start, end and parent.
Spans stay in memory until the traced pass ends; `layer_metrics` turns
them into per-layer counts and times.  `uninstall` restores every binding.

Layers are the package's modules, with `dist_core` and `testers` split by
the kind of work (see `layer_of`).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time

MODULES = (
    "cli",
    "harness",
    "testers",
    "instances",
    "dist_core",
    "flattening",
    "poly_estimator",
    "seeding",
)

#: private functions wrapped as well: one power-grid cell is one harness probe
EXTRA = {"harness": ("_run_cell",)}

_DIST_CORE_SPLIT = {
    "poissonized_count_tensor": "dist_core.sample",
    "sample_poissonized": "dist_core.sample",
    "sample_fixed": "dist_core.sample",
    "read_sample_file": "dist_core.io",
    "write_sample_file": "dist_core.io",
    "read_distribution_file": "dist_core.io",
    "write_distribution_file": "dist_core.io",
    "counts_from_samples": "dist_core.counts",
}
_TESTERS_SPLIT = {
    "binary_bin_statistics": "testers.kernel",
    "calibrate_threshold": "testers.calibrate",
}

#: every layer a span can belong to, in report order
LAYERS = (
    "cli",
    "harness",
    "testers",
    "testers.kernel",
    "testers.calibrate",
    "instances",
    "seeding",
    "dist_core",
    "dist_core.sample",
    "dist_core.io",
    "dist_core.counts",
    "flattening",
    "poly_estimator",
)

_TESTER_ENTRIES = ("run_tester", "test_binary", "test_general", "test_cmi")


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _tester_bins(args: tuple, kwargs: dict) -> int:
    """Number of z bins of a tester call's input (distribution or sample array)."""
    dims = getattr(_arg(args, kwargs, 0, "source"), "dims", None)
    if dims is None:
        dims = _arg(args, kwargs, 2, "dims")
    return int(dims[2])


def _verdict_summary(v) -> tuple[int, int, int]:
    """(active bins, samples drawn, samples the bin estimators used)."""
    return len(v.per_bin), int(v.M_drawn), sum(int(row[1]) for row in v.per_bin)


def _file_size(args: tuple, kwargs: dict) -> int:
    return os.path.getsize(_arg(args, kwargs, 0, "path"))


_ARG_SUMMARY = {
    "make_instance": lambda args, kwargs: _arg(args, kwargs, 0, "spec"),
    "read_sample_file": _file_size,
    "read_distribution_file": _file_size,
    **{name: _tester_bins for name in _TESTER_ENTRIES},
}
_RESULT_SUMMARY = {
    "dist_core.sample": lambda out: int(out[0]) if isinstance(out, tuple) else len(out),
    **{name: _verdict_summary for name in _TESTER_ENTRIES},
}


def layer_of(module: str, name: str) -> str:
    """Layer of the function `name` defined in ``cit.<module>``."""
    if module == "dist_core":
        return _DIST_CORE_SPLIT.get(name, "dist_core")
    if module == "testers":
        return _TESTERS_SPLIT.get(name, "testers")
    return module


class Tracer:
    """Records spans for calls into wrapped ``cit`` functions.

    A span is ``[layer, name, start, end, parent, arg, result]``; `parent`
    is the index of the enclosing span or -1.  `arg` and `result` hold
    small summaries (see `_ARG_SUMMARY`, `_RESULT_SUMMARY`), taken after
    the span ends and only for spans entered from another layer.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for short in MODULES:
            mod = importlib.import_module(f"cit.{short}")
            for attr, value in list(vars(mod).items()):
                if not inspect.isfunction(value):
                    continue
                home = getattr(value, "__module__", "") or ""
                if not home.startswith("cit."):
                    continue
                home_short = home[len("cit."):]
                public = not value.__name__.startswith("_")
                if not public and value.__name__ not in EXTRA.get(home_short, ()):
                    continue
                layer = layer_of(home_short, value.__name__)
                self._saved.append((mod, attr, value))
                setattr(mod, attr, self._wrap(layer, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, layer: str, fn):
        name = fn.__name__
        on_arg = _ARG_SUMMARY.get(name)
        on_result = _RESULT_SUMMARY.get(layer, _RESULT_SUMMARY.get(name))
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            outer = parent < 0 or spans[parent][0] != layer
            span = [layer, name, 0.0, 0.0, parent, None, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[2] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if outer and on_arg is not None:
                span[5] = on_arg(args, kwargs)
            if outer and on_result is not None:
                span[6] = on_result(out)
            return out

        return wrapper

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def layer_metrics(spans: list[list], wall_s: float) -> dict[str, float]:
    """Per-layer counts and times for one traced pass of `wall_s` seconds.

    For each layer: ``calls`` counts spans entered from another layer,
    ``busy_s`` sums their durations (nested calls of the same layer are not
    counted twice), and ``self_s`` is the layer's time minus the part its
    child spans cover.  The self times of all layers plus
    ``trace.unattributed_s`` (pass time no span covers) equal ``wall_s``.
    """
    child_time = [0.0] * len(spans)
    top_time = 0.0
    for layer, name, start, end, parent, arg, result in spans:
        if parent < 0:
            top_time += end - start
        else:
            child_time[parent] += end - start
    calls = dict.fromkeys(LAYERS, 0)
    busy = dict.fromkeys(LAYERS, 0.0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    specs = []
    drawn = bytes_read = bins_total = bins_active = m_drawn = sigma_used = probes = 0
    for i, (layer, name, start, end, parent, arg, result) in enumerate(spans):
        self_s[layer] += end - start - child_time[i]
        if name == "_run_cell" or (
            name == "calibrate_threshold" and parent >= 0 and spans[parent][1] == "find_min_m"
        ):
            probes += 1
        if parent >= 0 and spans[parent][0] == layer:
            continue
        calls[layer] += 1
        busy[layer] += end - start
        if name == "make_instance":
            specs.append(arg)
        elif layer == "dist_core.sample":
            drawn += result
        elif layer == "dist_core.io" and arg is not None:
            bytes_read += arg
        elif name in _TESTER_ENTRIES:
            bins_total += arg
            bins_active += result[0]
            m_drawn += result[1]
            sigma_used += result[2]

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.busy_s"] = busy[layer]
        out[f"{layer}.self_s"] = self_s[layer]
    out["instances.distinct_frac"] = len(set(specs)) / len(specs) if specs else 0.0
    out["dist_core.samples_drawn"] = drawn
    out["dist_core.io.bytes_read"] = bytes_read
    out["testers.active_bin_frac"] = bins_active / bins_total if bins_total else 0.0
    out["testers.samples_used_frac"] = sigma_used / m_drawn if m_drawn else 0.0
    out["harness.probes"] = probes
    out["trace.wall_s"] = wall_s
    out["trace.unattributed_s"] = wall_s - top_time
    return out
