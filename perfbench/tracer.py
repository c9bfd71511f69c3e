"""Span tracer installed from outside the program.

The tracer replaces the names each bwbary module imports from the others (and
``numpy.linalg.eigh`` / ``eigvalsh``, the boundary of ``hermitian``) with
wrappers that record a span per call.  Nothing in ``src/`` is edited: the
patches are installed only around traced rounds and removed afterwards, so an
untraced round runs the program untouched.  A patched name that the program no
longer has is listed as absent, not treated as an error.
"""

from __future__ import annotations

import functools
import importlib
import math
import threading
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "mclab", "barycenter", "inference", "geometry", "linalg", "io")


def _matrices(args, kwargs, result):
    shape = getattr(args[0], "shape", None) if args else None
    return math.prod(shape[:-2]) if shape is not None and len(shape) > 2 else 1


def _iterations(args, kwargs, result):
    return result.iterations


# (module, attribute, span name, value recorded with the span).  The span is
# named after the callee's module; the layer is the part before the dot.
PATCHES = [
    ("bwbary.cli", "load_bundle", "io.load_bundle", None),
    ("bwbary.cli", "clt_report", "inference.clt_report", None),
    ("bwbary.cli", "eta_n_diagnostic", "inference.eta", None),
    ("bwbary.cli", "frechet_variance", "barycenter.frechet_variance", None),
    ("bwbary.cli", "run_clt_experiment", "mclab.experiment", None),
    ("bwbary.cli", "run_concentration_experiment", "mclab.experiment", None),
    ("bwbary.io", "save_report", "io.save_report", None),
    ("bwbary.io", "validate_report", "io.validate_report", None),
    ("bwbary.mclab", "_population", "mclab.population", None),
    ("bwbary.mclab", "_summarize", "mclab.summaries", None),
    ("bwbary.mclab", "solve_barycenter", "barycenter.solve", _iterations),
    ("bwbary.mclab", "estimate_sigma_hat", "inference.sigma_hat", None),
    ("bwbary.mclab", "estimate_f_hat", "inference.f_hat", None),
    ("bwbary.mclab", "estimate_xi_hat", "inference.xi_hat", None),
    ("bwbary.mclab", "studentized_statistic", "inference.studentize", None),
    ("bwbary.mclab", "sample_limit_dbw", "inference.limit_sampler", None),
    ("bwbary.mclab", "bw_distance", "geometry.bw_distance", None),
    ("bwbary.mclab", "_psd_sqrt_stack", "geometry.sqrt_stack", None),
    ("bwbary.inference", "solve_barycenter", "barycenter.solve", _iterations),
    ("bwbary.inference", "frechet_variance", "barycenter.frechet_variance", None),
    ("bwbary.inference", "estimate_sigma_hat", "inference.sigma_hat", None),
    ("bwbary.inference", "estimate_f_hat", "inference.f_hat", None),
    ("bwbary.inference", "estimate_xi_hat", "inference.xi_hat", None),
    ("bwbary.inference", "studentized_statistic", "inference.studentize", None),
    ("bwbary.inference", "bw_distance", "geometry.bw_distance", None),
    ("bwbary.inference", "_psd_sqrt_stack", "geometry.sqrt_stack", None),
    ("bwbary.inference", "_transport_stack", "geometry.transport_stack", None),
    ("bwbary.inference", "_dt_stack", "geometry.dt_stack", None),
    ("bwbary.barycenter", "_psd_sqrt_stack", "geometry.sqrt_stack", None),
    ("bwbary.barycenter", "_transport_stack", "geometry.transport_stack", None),
    ("bwbary.barycenter", "SampleSet.__init__", "barycenter.sampleset", None),
    ("numpy.linalg", "eigh", "linalg.eigh", _matrices),
    ("numpy.linalg", "eigvalsh", "linalg.eigvalsh", _matrices),
]


class Tracer:
    """Records spans (id, name, start, end, parent id, thread, op id, value).

    Each thread keeps its own span stack.  A span opened on a thread whose
    stack is empty -- a ``BWB_THREADS`` worker -- takes as parent the innermost
    open span of the thread that installed the tracer, which is the experiment
    span blocked in the thread pool.  Spans stay in memory until ``drain``.
    """

    def __init__(self):
        self.spans = []
        self.op = 0
        self.absent = []
        self._local = threading.local()
        self._main_stack = []
        self._lock = threading.Lock()
        self._next_id = 0
        self._installed = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, value=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            main = tracer._main_stack
            parent = stack[-1] if stack else (main[-1] if main else 0)
            with tracer._lock:
                tracer._next_id += 1
                sid = tracer._next_id
            stack.append(sid)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                extra = value(args, kwargs, result) if value and result is not None else None
                tracer.spans.append((sid, name, t0, t1, parent,
                                     threading.get_ident(), tracer.op, extra))

        return traced

    def install(self):
        """Patch every name in PATCHES that exists; record the rest as absent."""
        self._local.stack = self._main_stack
        self.absent = absent = []
        for module_name, attr, name, value in PATCHES:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            try:
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except AttributeError:
                absent.append(f"{module_name}.{attr}")
                continue
            self._installed.append((owner, leaf, original))
            setattr(owner, leaf, self.wrap(name, original, value))
        self._install_pool_wrapper()

    def _install_pool_wrapper(self):
        """Give every replicate job its own span, so job scaffolding on a worker
        thread is attributed to mclab rather than to whatever span it precedes."""
        mclab = importlib.import_module("bwbary.mclab")
        original = getattr(mclab, "_map_ordered", None)
        if original is None:
            self.absent.append("bwbary.mclab._map_ordered")
            return
        tracer = self

        def map_ordered(fn, items):
            return original(tracer.wrap("mclab.replicate", fn), items)

        self._installed.append((mclab, "_map_ordered", original))
        mclab._map_ordered = map_ordered

    def uninstall(self):
        for owner, leaf, original in reversed(self._installed):
            setattr(owner, leaf, original)
        self._installed = []

    def drain(self):
        spans, self.spans = self.spans, []
        return spans


def _subtract(t0, t1, intervals):
    """[t0, t1] minus the union of intervals, as a list of segments."""
    out = []
    cursor = t0
    for a, b in sorted(intervals):
        if b <= cursor:
            continue
        if a > cursor:
            out.append((cursor, min(a, t1)))
        cursor = max(cursor, b)
        if cursor >= t1:
            break
    if cursor < t1:
        out.append((cursor, t1))
    return out


def layer_self_times(spans):
    """Wall-clock self time per layer.

    A span's self time is its duration minus the union of its children's
    intervals, children on other threads included.  Where k spans are in
    their self time at once (parallel workers), each is charged 1/k of the
    overlap, so the layers sum to the wall time the spans cover.
    """
    children = defaultdict(list)
    for sid, _, t0, t1, parent, *_ in spans:
        children[parent].append((t0, t1))
    events = []
    for sid, name, t0, t1, *_ in spans:
        layer = name.split(".", 1)[0]
        for a, b in _subtract(t0, t1, children.get(sid, ())):
            events.append((a, 1, layer))
            events.append((b, -1, layer))
    events.sort(key=lambda e: (e[0], e[1]))
    active = defaultdict(int)
    total = 0
    out = dict.fromkeys(LAYERS, 0.0)
    last = None
    for t, delta, layer in events:
        if total and t > last:
            share = (t - last) / total
            for name, count in active.items():
                if count:
                    out[name] = out.get(name, 0.0) + share * count
        active[layer] += delta
        total += delta
        last = t
    return out


def span_totals(spans):
    """Per span name: (calls, busy seconds summed over threads, values).

    Busy time counts only the outermost span of a name on each call path, so
    a function that reaches itself through another wrapper is not counted
    twice.
    """
    by_id = {s[0]: s for s in spans}
    calls = defaultdict(int)
    busy = defaultdict(float)
    values = defaultdict(list)
    for sid, name, t0, t1, parent, _, _, extra in spans:
        calls[name] += 1
        if extra is not None:
            values[name].append(extra)
        ancestor = by_id.get(parent)
        while ancestor is not None and ancestor[1] != name:
            ancestor = by_id.get(ancestor[4])
        if ancestor is None:
            busy[name] += t1 - t0
    return calls, busy, values
