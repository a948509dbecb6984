"""Span tracing installed from outside the program.

``Tracer.install`` replaces every public function of each layer module (and
every public method of the classes those modules define) with a wrapper
that records a span: name, start, end and parent span. A function that
another module imported into its own namespace (``models.transition_semigroup``
is ``tensor.transition_semigroup``) is replaced there too, so the call is
traced whichever name it goes through. Spans stay in memory; ``summary``
turns one pass's spans into per-layer self times, per-function times and
call counts, plus the deterministic counters that the hooks below record
from call arguments.
"""

from __future__ import annotations

import collections
import functools
import inspect
import time
import types

LAYERS = ("cli", "tensor", "models", "mpa", "sixvertex", "qnum", "uqsl2",
          "ybe", "oscillator")

# 16 bytes per complex128 entry of a dense dim x dim operator.
DENSE_ENTRY_BYTES = 16


def _dense_generator(counters, bound):
    dim = bound.arguments["G"].dim
    counters["tensor.dense_bytes_computed"] += DENSE_ENTRY_BYTES * dim * dim
    return dim


def _stationary(counters, bound):
    dim = _dense_generator(counters, bound)
    counters["tensor.stationary_dim_max"] = max(
        counters["tensor.stationary_dim_max"], dim)


def _semigroup(counters, bound):
    counters["tensor.semigroup_dim_sum"] += _dense_generator(counters, bound)


def _tw(counters, bound):
    n_quad = bound.arguments["n_quad"]
    counters["models.tw_nodes"] += 256 if n_quad is None else n_quad


def _q_oscillator(counters, bound):
    counters["mpa.truncations"] += 1
    counters["mpa.M_max"] = max(counters["mpa.M_max"], bound.arguments["M"])


def _mpa_measure(counters, bound):
    counters["mpa.configs"] += 2 ** bound.arguments["p"].L


def _sample(counters, bound):
    counters["sixvertex.vertices"] += (
        bound.arguments["width"] * bound.arguments["height"])


# Counters recorded from the arguments of these spans; they depend only on
# the workload's sizes, so they repeat exactly from run to run.
HOOKS = {
    "tensor.stationary_distribution": _stationary,
    "tensor.transition_semigroup": _semigroup,
    "models.tw_transition_probability": _tw,
    "mpa.q_oscillator": _q_oscillator,
    "mpa.mpa_stationary_measure": _mpa_measure,
    "sixvertex.sample_lattice": _sample,
}


class Tracer:
    """Records spans around layer functions while installed."""

    def __init__(self, package):
        self.modules = {name: getattr(package, name) for name in LAYERS}
        self.spans = []  # [name, parent index, start, end]
        self.counters = collections.Counter()
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, stack[-1] if stack else -1, clock(), 0.0]
            spans.append(record)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
                if hook is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    hook(counters, bound)

        return traced

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        wrappers = {}  # id(original function) -> wrapper
        for layer, module in self.modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__:
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
                elif isinstance(obj, type) and obj.__module__ == module.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and isinstance(fn, types.FunctionType):
                            self._replace(obj, meth, self._wrap(f"{layer}.{meth}", fn))
        for module in self.modules.values():
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and isinstance(obj, types.FunctionType):
                    self._replace(module, attr, wrappers[id(obj)])

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def reset(self):
        self.spans.clear()
        self.counters.clear()

    def summary(self) -> dict:
        """Per-layer self time, per-function time and calls for the spans
        recorded since the last reset.

        A span's self time is its duration minus its children's durations.
        A function's time counts only its outermost spans, so recursion is
        not counted twice.
        """
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        layer_self = dict.fromkeys(LAYERS, 0.0)
        fn_time = collections.Counter()
        calls = collections.Counter()
        for i, (name, parent, start, end) in enumerate(self.spans):
            layer_self[name.split(".", 1)[0]] += end - start - child_time[i]
            calls[name] += 1
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][1]
            if ancestor < 0:
                fn_time[name] += end - start
        return {"self": layer_self, "time": fn_time, "calls": calls,
                "counters": collections.Counter(self.counters)}
