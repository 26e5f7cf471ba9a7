"""Tracing for the benchmark's traced run.

Spans are recorded from the benchmark's side only: every public function of
the traced ``qck`` modules is wrapped under each name a traced module binds
it to (``qck.cli.curvature_bundle``, ``qck.qch.tensor4_fit``, ...), so calls
between modules and within one module both pass through a wrapper.  Exact
counts come from counting wrappers on ``MultiDual.__mul__`` and on every
metric evaluator built while the tracer is installed.  Nothing is patched
outside ``install``/``uninstall``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import threading
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "ambient", "duals", "curvature", "qch", "tensors", "sampling",
          "sasakian", "rotational", "verify")

# Scalar helpers run on every dual-number entry of every metric evaluation;
# a span there would cost more than the work it measures.
SCALAR_HELPERS = frozenset({"value", "lift", "split_last", "generator", "gsqrt",
                            "glog", "gexp", "gsin", "gcos", "gatan"})

# ``cli.main`` is the op boundary of the command line; its argument parsing,
# configuration, per-point fan-out and JSON emit all count as its self time.
CLI_SPANS = frozenset({"main"})

ROOT = "op"


class Tracer:
    """In-memory spans (name, start, end, parent, op id, thread) and counts."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._op_stack = None
        self._op_id = None
        self._patches = []

    # -- recording -------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # A pool worker starts with an empty stack; its work belongs to
            # the span the op's own thread is blocked in.
            parent = self._op_stack[-1] if self._op_stack else None
        rec = [name, time.perf_counter(), None, parent, self._op_id,
               threading.get_ident()]
        stack.append(rec)
        return rec

    def _exit(self, rec):
        rec[2] = time.perf_counter()
        self._stack().pop()
        self.spans.append(rec)

    @contextlib.contextmanager
    def op(self, op_id):
        """Root span of one benchmark operation."""
        self._op_id = op_id
        rec = self._enter(ROOT)
        self._op_stack = self._stack()
        try:
            yield
        finally:
            self._exit(rec)
            self._op_stack = self._op_id = None

    def count(self, name):
        with self._lock:
            self.counts[name] += 1

    # -- patching --------------------------------------------------------

    def _set(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _spanned(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(rec)
        return traced

    def install(self):
        modules = {layer: importlib.import_module(f"qck.{layer}") for layer in LAYERS}
        by_module = {mod.__name__: layer for layer, mod in modules.items()}
        wrapped = {}
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or attr.startswith("_"):
                    continue
                layer = by_module.get(obj.__module__)
                if layer is None or obj.__name__ in SCALAR_HELPERS:
                    continue
                if layer == "cli" and obj.__name__ not in CLI_SPANS:
                    continue
                if id(obj) not in wrapped:
                    wrapped[id(obj)] = self._spanned(obj, f"{layer}.{obj.__name__}")
                self._set(mod, attr, wrapped[id(obj)])

        multidual = modules["duals"].MultiDual
        mul = multidual.__dict__["__mul__"]

        def counted_mul(a, b):
            self.count("duals.mul_calls")
            return mul(a, b)

        self._set(multidual, "__mul__", counted_mul)
        self._set(multidual, "__rmul__", counted_mul)

        metric_field = modules["ambient"].MetricField
        init = metric_field.__dict__["__init__"]

        def counted_init(field, *args, **kwargs):
            init(field, *args, **kwargs)
            evaluate = field.fn

            def counted_fn(x):
                self.count("ambient.metric_evals")
                return evaluate(x)

            field.fn = counted_fn

        self._set(metric_field, "__init__", counted_init)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def self_seconds(self):
        """Total self time per span name: duration minus the union of the
        child intervals, clipped to the span."""
        children = defaultdict(list)
        for rec in self.spans:
            if rec[3] is not None:
                children[id(rec[3])].append((rec[1], rec[2]))
        totals = Counter()
        for rec in self.spans:
            start, end = rec[1], rec[2]
            covered, reach = 0.0, start
            for c0, c1 in sorted(children.get(id(rec), ())):
                c0, c1 = max(c0, reach), min(c1, end)
                if c1 > c0:
                    covered += c1 - c0
                    reach = c1
            totals[rec[0]] += (end - start) - covered
        return totals

    def calls(self):
        return Counter(rec[0] for rec in self.spans)

    def write(self, path):
        """Spans as JSON lines; parents are given by index into the file."""
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        with open(path, "w") as fh:
            for rec in self.spans:
                parent = index.get(id(rec[3])) if rec[3] is not None else None
                fh.write(json.dumps({"name": rec[0], "start": rec[1],
                                     "end": rec[2], "parent": parent,
                                     "op": rec[4], "thread": rec[5]}) + "\n")
