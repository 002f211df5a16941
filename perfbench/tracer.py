"""In-process spans around the public functions of the coalesce modules.

:meth:`Tracer.install` replaces each public function of a layer module
(a function defined there whose name has no leading underscore) at every
binding through which another part of the package reaches it: a
``from .module import name`` binding in another module, the package
namespace, and the defining module's own namespace when another module
holds that module object and so calls ``module.name``.  A call that
stays inside one module, such as ``transmission`` calling
``system_matrix``, crosses no layer boundary and gets no span of its own.

Each span records its name, start, end, parent and thread; the clock
reads around the wrapped call, the stack and the record are the
tracer's own cost, which it also measures.  Parents come
from a per-thread stack; a span opened on a worker thread with an empty
stack takes as parent the innermost span open on the thread that
installed the tracer, which is the thread that started the pool.  Spans
stay in memory until :meth:`Tracer.metrics` reads them.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time
from collections import defaultdict
from typing import NamedTuple, Optional

import numpy as np

LAYERS = ("cli", "experiments", "spectrum", "core_scatter", "closed_form",
          "two_mode")


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int
    error: bool
    extra: Optional[int]   # grid points of a transmission call, or
                           # peaks returned by find_peaks


def _grid_points(args, kwargs, _result):
    """0 for a scalar transmission call, else the number of k-points."""
    k = args[1] if len(args) > 1 else kwargs["k"]
    return int(np.size(k)) if np.ndim(k) else 0


def _peak_count(_args, _kwargs, result):
    return len(result)


_EXTRAS = {"core_scatter.transmission": _grid_points,
           "spectrum.find_peaks": _peak_count}


class Tracer:
    def __init__(self):
        self.spans = []
        self._costs = []   # seconds of bookkeeping per span, outside fn
        self._ids = itertools.count()
        self._stacks = {}
        self._origin = None
        self._patched = []
        self._wrappers = {}

    def _stack(self):
        tid = threading.get_ident()
        stack = self._stacks.get(tid)
        if stack is None:
            stack = self._stacks.setdefault(tid, [])
        return stack

    def _adopted_parent(self):
        if threading.get_ident() == self._origin:
            return None
        try:
            return self._stacks[self._origin][-1]
        except (KeyError, IndexError):
            return None

    def wrap(self, name, fn):
        """Return ``fn`` recording one span per call under ``name``."""
        spans, ids, extra = self.spans, self._ids, _EXTRAS.get(name)
        costs, clock = self._costs, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = clock()
            stack = self._stack()
            parent = stack[-1] if stack else self._adopted_parent()
            sid = next(ids)
            stack.append(sid)
            result, error = None, True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                error = False
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append(Span(
                    sid, name, start, end, parent, threading.get_ident(),
                    error, None if error or extra is None
                    else extra(args, kwargs, result)))
                costs.append((start - entered) + (clock() - end))

        return traced

    def install(self, package):
        """Wrap every layer-boundary binding of ``package``'s modules."""
        self._origin = threading.get_ident()
        modules = {layer: getattr(package, layer) for layer in LAYERS
                   if inspect.ismodule(getattr(package, layer, None))}
        public = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    public[obj] = f"{layer}.{attr}"
        held = {id(value) for module in modules.values()
                for value in vars(module).values() if inspect.ismodule(value)}
        for holder in [package, *modules.values()]:
            for attr, obj in list(vars(holder).items()):
                name = public.get(obj) if inspect.isfunction(obj) else None
                if name is None:
                    continue
                if obj.__module__ == holder.__name__ and id(holder) not in held:
                    continue
                wrapper = self._wrappers.get(obj)
                if wrapper is None:
                    wrapper = self._wrappers[obj] = self.wrap(name, obj)
                self._patched.append((holder, attr, obj))
                setattr(holder, attr, wrapper)

    def uninstall(self):
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    def metrics(self):
        """Per-layer metrics from the recorded spans.

        A layer's or function's metrics appear only when at least one span
        of it was recorded: a function that did not run in this workload,
        or that is gone or renamed, is left out rather than reported as
        zero.  ``trace.overhead_s`` is the time the wrappers spent outside
        the functions they wrap, summed over the spans.
        """
        spans = self.spans
        own = self_times(spans)
        by_name = defaultdict(list)
        by_layer = defaultdict(list)
        for s in spans:
            by_name[s.name].append(s)
            by_layer[s.name.split(".")[0]].append(s)
        out = {"trace.overhead_s": sum(self._costs)} if spans else {}

        for layer, in_layer in by_layer.items():
            if layer != "cli":
                out[f"{layer}.calls"] = len(in_layer)
                out[f"{layer}.self_s"] = sum(own[s.id] for s in in_layer)
        if by_layer["spectrum"]:
            out["spectrum.raised"] = sum(s.error for s in by_layer["spectrum"])
        if by_layer["experiments"]:
            out["experiments.threads"] = _pool_width(spans, "experiments")
        for name in ("cli.main", "spectrum.find_peaks",
                     "spectrum.peak_halfwidth", "spectrum.track_branches",
                     "spectrum.find_merge_point",
                     "spectrum.scan_transmission",
                     "closed_form.lossless_pair"):
            if by_name[name]:
                out[f"{name}.calls"] = len(by_name[name])
                out[f"{name}.self_s"] = sum(own[s.id] for s in by_name[name])

        calls = by_name["core_scatter.transmission"]
        scalar = [s for s in calls if s.extra == 0]
        grid = [s for s in calls if s.extra]
        if scalar:
            scalar_s = sum(s.end - s.start for s in scalar)
            out["core_scatter.scalar_calls"] = len(scalar)
            out["core_scatter.scalar_s"] = scalar_s
            out["core_scatter.scalar_us_per_call"] = (
                1e6 * scalar_s / len(scalar))
        if grid:
            grid_s = sum(s.end - s.start for s in grid)
            points = sum(s.extra for s in grid)
            out["core_scatter.grid_calls"] = len(grid)
            out["core_scatter.grid_points"] = points
            out["core_scatter.grid_s"] = grid_s
            out["core_scatter.grid_ns_per_point"] = 1e9 * grid_s / points

        if by_name["spectrum.find_peaks"]:
            found = sum(s.extra or 0 for s in by_name["spectrum.find_peaks"])
            out["spectrum.peaks_found"] = found
            under = _under(spans, "spectrum.find_peaks")
            evals = sum(s.extra or 1 for s in calls if s.id in under)
            if found:
                out["spectrum.t_evals_per_peak"] = evals / found
        return out


def _pool_width(spans, layer):
    """Most threads that ran spans under one outermost call into ``layer``.

    The calling thread counts only when no other thread ran any, so a
    call that starts no pool counts 1 and one that hands its work to a
    pool of n threads counts n.
    """
    by_id = {s.id: s for s in spans}
    threads = defaultdict(set)
    for s in spans:
        top, p = None, s.parent
        while p is not None:
            if by_id[p].name.split(".")[0] == layer:
                top = p
            p = by_id[p].parent
        if top is not None:
            threads[top].add(s.thread)
    return max((len(t - {by_id[top].thread}) or 1
                for top, t in threads.items()), default=1)


def _under(spans, ancestor):
    """Ids of spans that have a span named ``ancestor`` above them."""
    parent = {s.id: s.parent for s in spans}
    tops = {s.id for s in spans if s.name == ancestor}
    inside = set()
    for s in spans:
        p = s.parent
        while p is not None:
            if p in tops:
                inside.add(s.id)
                break
            p = parent.get(p)
    return inside


def self_times(spans):
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        lo = hi = None
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out[s.id] = (s.end - s.start) - covered
    return out
