"""Span recording from outside the program.

The tracer patches, for the length of one traced iteration, every
``abprobe.*`` function (and the ``PathModel`` class) that one abprobe module
imports from another, at the place it is imported.  ``abprobe.experiment``'s
``transit_sequence`` is wrapped as ``abprobe.experiment.transit_sequence``,
``abprobe.cli``'s ``run`` as ``abprobe.cli.run``, and so on.  Calls inside one
module are not seen.  ``ExperimentReport.to_csv`` is wrapped on the class,
and ``numpy.fft.rfft``/``irfft`` are observed (not timed) to read the FFT
length.

A span is attributed to the module that defines the callee.  Its self time is
its duration minus the time its child spans cover, where a child covers its
own duration plus the tracer's bookkeeping around it, so the bookkeeping is
charged to nobody and reported on its own as ``bookkeeping_s``.  Spans stay in
compact in-memory arrays and are written out by ``write_spans`` at the end.

Counters are collected by hooks that run after the callee returns, outside
every span.
"""

from __future__ import annotations

import tracemalloc
from array import array
from collections import defaultdict
from time import perf_counter

MODULES = ("fbm", "path", "probing", "kalman", "analysis", "experiment", "cli")
WRAPPED_CLASSES = ("PathModel",)
# spans that measure peak allocation (tracemalloc runs only inside them)
ALLOC_SPANS = ("fbm.generate_trace", "path.PathModel")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_iter = array("i")
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, seconds covered by children]
        self.hooks: dict[str, object] = {}
        self.hook_error = ""
        self.iteration = -1

    # -- per-iteration accounting ---------------------------------------

    def begin_iteration(self) -> None:
        """Start a new iteration's timings and counters; call before each one."""
        self.iteration += 1
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.bookkeeping_s = 0.0

    def _nid(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def call(self, name: str, fn, args=(), kwargs=None):
        """Run fn(*args, **kwargs) as one span named 'layer.function'."""
        t_in = perf_counter()
        kwargs = kwargs or {}
        idx = len(self.span_start)
        self.span_iter.append(self.iteration)
        self.span_name.append(self._nid(name))
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        frame = [idx, 0.0]
        self._stack.append(frame)
        alloc = name in ALLOC_SPANS and not tracemalloc.is_tracing()
        if alloc:
            tracemalloc.start()
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            if alloc:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                key = name.split(".")[0] + ".peak_alloc_mb"
                self.counters[key] = max(self.counters[key], peak / 2**20)
            self._stack.pop()
            self.span_start[idx] = t0
            self.span_end[idx] = t1
            self.self_s[name] += (t1 - t0) - frame[1]
            self.calls[name] += 1
        hook = self.hooks.get(name)
        if hook is not None:
            try:
                hook(self, args, kwargs, result)
            except Exception as exc:  # a hook must never fail the program's call
                self.counters["trace.hook_errors"] += 1
                self.hook_error = f"{name}: {exc!r}"
        t_out = perf_counter()
        if self._stack:
            self._stack[-1][1] += t_out - t_in
        self.bookkeeping_s += (t_out - t_in) - (t1 - t0)
        return result

    def layer_self_s(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, secs in self.self_s.items():
            out[name.split(".")[0]] += secs
        return out

    def layer_calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for name, n in self.calls.items():
            out[name.split(".")[0]] += n
        return out

    def span_count(self) -> int:
        return sum(self.calls.values())

    # -- patching -------------------------------------------------------

    def _wrapper(self, name: str, fn):
        call = self.call

        def traced(*args, **kwargs):
            return call(name, fn, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def install(self, abprobe) -> "Patches":
        """Wrap the cross-module imports of every abprobe module."""
        import numpy.fft

        patches = Patches()
        for short in MODULES:
            module = getattr(abprobe, short)
            for attr, obj in list(vars(module).items()):
                home = getattr(obj, "__module__", None) or ""
                if not home.startswith("abprobe.") or home == module.__name__:
                    continue
                is_fn = callable(obj) and not isinstance(obj, type)
                if not (is_fn or attr in WRAPPED_CLASSES):
                    continue
                name = f"{home.split('.')[-1]}.{attr}"
                patches.set(module, attr, self._wrapper(name, obj))
        report_cls = abprobe.experiment.ExperimentReport
        patches.set(report_cls, "to_csv", self._wrapper("experiment.to_csv", report_cls.to_csv))

        for attr in ("rfft", "irfft"):
            fft = getattr(numpy.fft, attr)

            def observed(a, n=None, *args, _fft=fft, **kwargs):
                length = n if n is not None else len(a)
                c = self.counters
                c["fbm.fft_len"] = max(c["fbm.fft_len"], length)
                return _fft(a, n, *args, **kwargs)

            patches.set(numpy.fft, attr, observed)
        return patches

    # -- output ---------------------------------------------------------

    def write_spans(self, path) -> int:
        """Write every span as CSV; times are seconds from its iteration's first span."""
        first: dict[int, float] = {}
        for i in range(len(self.span_start)):
            it = self.span_iter[i]
            if it not in first:
                first[it] = self.span_start[i]
        with open(path, "w") as fh:
            fh.write("iteration,span,parent,name,start_s,end_s\n")
            for i in range(len(self.span_start)):
                it = self.span_iter[i]
                t0 = first[it]
                fh.write(
                    f"{it},{i},{self.span_parent[i]},{self.names[self.span_name[i]]},"
                    f"{self.span_start[i] - t0:.9f},{self.span_end[i] - t0:.9f}\n"
                )
        return len(self.span_start)


class Patches:
    """Attribute replacements, undone in reverse order by restore()."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
