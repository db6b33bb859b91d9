"""Spans around the calls into qdeph's layers, recorded from outside the package.

``Tracer.install()`` replaces each public function listed in LAYERS by a
wrapper that records a span, in every qdeph module that holds a binding to
it: ``from .x import y`` copies the binding, so patching only the defining
module would miss, say, ``model.big_f`` or ``solver.build_kernel_table``.
Calls a module makes to its own functions go through its globals, so they
are seen too (``big_f`` -> ``kernel_sin``).

Each thread keeps its own span stack. A span opened on a thread whose stack
is empty (a sweep worker) is attached to the innermost open span of the
thread that opened the operation, so worker spans land under their op's
``cli.run_sweep`` span. A layer's self time is its span's duration minus the
union of its children's intervals (children on two threads may overlap).

While a span of a layer in RSS_LAYERS is open, a sampler thread reads the
resident set every few milliseconds; ``rss_rise`` is the highest sample (or
end value) minus the value at entry. Short allocations between samples can
be missed.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import os
import threading
import time
from pathlib import Path

import numpy as np

# (module, function) -> layer
LAYERS = {
    ("spectral", "integrate_oscillatory"): "spectral.scalar",
    ("spectral", "oscillatory_grid"): "spectral.grid",
    **{("kernels", f): "kernels.scalar" for f in (
        "phi", "gamma_vac", "gamma_th", "kernel_sin", "kernel_cos_th",
        "drive", "decoherence_rate")},
    ("kernels", "big_f"): "kernels.big_f",
    ("kernels", "build_kernel_table"): "kernels.table",
    ("model", "breakdown_grid"): "model.breakdown_grid",
    ("solver", "solve_full_equation"): "solver.solve",
    ("cli", "build_comparison"): "cli.build_comparison",
    ("cli", "run_trace"): "cli.trace",
    ("cli", "run_sweep"): "cli.sweep",
}
MODULES = ("qdeph", "qdeph.spectral", "qdeph.kernels", "qdeph.model",
           "qdeph.solver", "qdeph.cli")
RSS_LAYERS = ("spectral.grid", "kernels.table")
RSS_INTERVAL_S = 0.005
_PAGE = os.sysconf("SC_PAGE_SIZE")


def current_rss() -> int:
    """Resident set of this process in bytes."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _file_bytes(paths) -> int:
    return sum(Path(p).stat().st_size for p in paths)


def _sweep_rows_failed(paths) -> int:
    rows = Path(paths[0]).read_text().splitlines()[1:]
    return sum(1 for r in rows if r.split(",")[-2] != "ok")


def _attrs(layer: str, args, kwargs, result) -> dict:
    """Work counts of one call, from its arguments and result."""
    if layer == "spectral.grid":
        return {"points": int(np.size(_arg(args, kwargs, 2, "t_grid")))}
    if layer == "model.breakdown_grid":
        return {"points": int(np.size(_arg(args, kwargs, 1, "t_grid")))}
    if layer == "solver.solve":
        return {"steps": int(_arg(args, kwargs, 1, "cfg").n_steps),
                "watchdog": int(np.sum(result.watchdog))}
    if layer == "cli.trace":
        return {"bytes": _file_bytes(result)}
    if layer == "cli.sweep":
        return {"bytes": _file_bytes(result),
                "rows_failed": _sweep_rows_failed(result)}
    return {}


class Span:
    __slots__ = ("id", "parent", "op", "layer", "name", "thread", "start",
                 "end", "error", "attrs", "rss0", "rss_peak")

    def to_json(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    """Records spans for the ops run inside ``op()`` while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op = None  # (op index, span stack of the op's thread)
        self._rss_open: set = set()
        self._rss_lock = threading.Lock()
        self._stop = threading.Event()
        self._sampler = None

    # -- span stacks --------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, layer: str, name: str) -> Span:
        stack = self._stack()
        span = Span()
        span.id = next(self._ids)
        if stack:
            span.parent = stack[-1].id
        elif self._op is not None and self._op[1]:
            span.parent = self._op[1][-1].id
        else:
            span.parent = None
        span.op = None if self._op is None else self._op[0]
        span.layer, span.name = layer, name
        span.thread = threading.get_ident()
        span.error, span.attrs = None, {}
        span.rss0 = span.rss_peak = None
        if layer in RSS_LAYERS:
            span.rss0 = span.rss_peak = current_rss()
            with self._rss_lock:
                self._rss_open.add(span)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        if span.rss0 is not None:
            with self._rss_lock:
                self._rss_open.discard(span)
            span.rss_peak = max(span.rss_peak, current_rss())
        self.spans.append(span)

    @contextlib.contextmanager
    def op(self, index: int):
        """Root span of one operation, opened on the calling thread."""
        self._op = (index, self._stack())
        span = self._open("op", "op")
        try:
            yield span
        finally:
            self._close(span)
            self._op = None

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, layer: str):
        name = fn.__name__

        def traced(*args, **kwargs):
            span = self._open(layer, name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                self._close(span)
            span.attrs = _attrs(layer, args, kwargs, result)
            return result

        return traced

    def _sample(self) -> None:
        while not self._stop.wait(RSS_INTERVAL_S):
            with self._rss_lock:
                if not self._rss_open:
                    continue
                rss = current_rss()
                for span in self._rss_open:
                    span.rss_peak = max(span.rss_peak, rss)

    @contextlib.contextmanager
    def install(self):
        """Patch every qdeph binding of the LAYERS functions; undo on exit."""
        modules = [importlib.import_module(m) for m in MODULES]
        wrappers = {}
        for (mod, fname), layer in LAYERS.items():
            fn = getattr(importlib.import_module("qdeph." + mod), fname)
            wrappers[id(fn)] = (fn, self._wrap(fn, layer))
        patched = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    setattr(module, attr, wrappers[id(value)][1])
                    patched.append((module, attr, value))
        self._stop.clear()
        self._sampler = threading.Thread(target=self._sample, daemon=True)
        self._sampler.start()
        try:
            yield self
        finally:
            self._stop.set()
            self._sampler.join()
            for module, attr, value in patched:
                setattr(module, attr, value)


# ---------------------------------------------------------------------------
# per-layer metrics

def _children(spans: list[Span]) -> dict:
    out: dict = {}
    for s in spans:
        out.setdefault(s.parent, []).append(s)
    return out


def _self_times(spans: list[Span], children: dict) -> dict[int, float]:
    """Duration minus the union of the children's intervals, per span id."""
    out = {}
    for s in spans:
        covered, lo, hi = 0.0, None, None
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            c_lo, c_hi = max(c.start, s.start), min(c.end, s.end)
            if hi is None or c_lo > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = c_lo, c_hi
            else:
                hi = max(hi, c_hi)
        if hi is not None:
            covered += hi - lo
        out[s.id] = (s.end - s.start) - covered
    return out


def _descendants(children: dict, root: Span, layer: str) -> int:
    count, todo = 0, [root.id]
    while todo:
        for c in children.get(todo.pop(), ()):
            count += c.layer == layer
            todo.append(c.id)
    return count


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mib"):
        return "MiB"
    if name.endswith("bytes_written"):
        return "B"
    if name.endswith("ns_per_step_sq"):
        return "ns"
    if name.endswith(("_per_call", "busy_over_wall")):
        return "ratio"
    if name.endswith("_frac"):
        return "frac"
    return "count"


def op_layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one operation, from that op's spans."""
    children = _children(spans)
    self_s = _self_times(spans, children)
    by = {}
    for s in spans:
        by.setdefault(s.layer, []).append(s)

    def calls(layer):
        return len(by.get(layer, ()))

    def total(layer):
        return sum(s.end - s.start for s in by.get(layer, ()))

    def self_(layer):
        return sum(self_s[s.id] for s in by.get(layer, ()))

    def attr(layer, key):
        return sum(s.attrs.get(key, 0) for s in by.get(layer, ()))

    def rss_rise(layer):
        return max((s.rss_peak - s.rss0 for s in by.get(layer, ())),
                   default=0) / 2 ** 20

    big_f = by.get("kernels.big_f", ())
    quads = sum(_descendants(children, s, "spectral.scalar") for s in big_f)
    solves = by.get("solver.solve", ())
    steps_sq = sum(s.attrs.get("steps", 0) ** 2 for s in solves)
    sweeps = by.get("cli.sweep", ())
    sweep_busy = sum(s.end - s.start for s in by.get("cli.build_comparison", ())
                     if any(s.parent == w.id for w in sweeps))
    return {
        "spectral.grid.calls": calls("spectral.grid"),
        "spectral.grid.points": attr("spectral.grid", "points"),
        "spectral.grid.self_s": self_("spectral.grid"),
        "spectral.grid.rss_rise_mib": rss_rise("spectral.grid"),
        "spectral.scalar.calls": calls("spectral.scalar"),
        "spectral.scalar.self_s": self_("spectral.scalar"),
        "spectral.quad_errors": sum(
            1 for s in spans if s.layer.startswith("spectral.")
            and s.error == "QuadratureError"),
        "kernels.table.total_s": total("kernels.table"),
        "kernels.table.self_s": self_("kernels.table"),
        "kernels.table.rss_rise_mib": rss_rise("kernels.table"),
        "kernels.scalar.calls": calls("kernels.scalar"),
        "kernels.scalar.self_s": self_("kernels.scalar"),
        "kernels.big_f.calls": len(big_f),
        "kernels.big_f.total_s": total("kernels.big_f"),
        "kernels.big_f.quad_per_call": quads / len(big_f) if big_f else 0.0,
        "model.breakdown_grid.calls": calls("model.breakdown_grid"),
        "model.breakdown_grid.points": attr("model.breakdown_grid", "points"),
        "model.breakdown_grid.self_s": self_("model.breakdown_grid"),
        "model.breakdown_grid.total_s": total("model.breakdown_grid"),
        "solver.solve.calls": len(solves),
        "solver.solve.self_s": self_("solver.solve"),
        "solver.steps": attr("solver.solve", "steps"),
        "solver.ns_per_step_sq": (1e9 * self_("solver.solve") / steps_sq
                                  if steps_sq else 0.0),
        "solver.watchdog_samples": attr("solver.solve", "watchdog"),
        "cli.trace.self_s": self_("cli.trace"),
        "cli.bytes_written": attr("cli.trace", "bytes") + attr("cli.sweep",
                                                               "bytes"),
        "cli.sweep.busy_over_wall": (sweep_busy / total("cli.sweep")
                                     if sweeps else 0.0),
        "cli.sweep.rows_failed": attr("cli.sweep", "rows_failed"),
    }
