"""Span tracing of lddg from outside the program.

``Tracer.install`` wraps every public function of the traced modules and
rebinds each wrapper at every name the package binds the original to, so a
call made through ``from .linalg import svd`` is caught as well as one made
through ``lddg.linalg.svd``.  Names are found at install time, never listed
here, so a function the program drops simply produces no span and one it
adds is traced without a change to this file.  ``uninstall`` puts every
original back.

Spans are kept in memory as ``(name, parent, start_ns, end_ns)``; a span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

LAYERS = ("data", "experiments", "model", "losses", "regularizers", "linalg", "theory", "cli")
ORACLE = "oracle"  # spans of the benchmark's own checks; excluded from layers
ORACLE_EVERY = 25  # a check runs on every 25th call of its span name ...
ORACLE_MAX = 40  # ... and at most 40 times in a run


def _public_functions(module):
    for name, obj in vars(module).items():
        if (
            not name.startswith("_")
            and inspect.isfunction(obj)
            and obj.__module__ == module.__name__
        ):
            yield name, obj


class Tracer:
    """Wraps lddg's public functions and records one span per call.

    ``checks`` maps a span name such as ``linalg.svd`` to a function
    ``(args, result)`` that returns a list of errors, or None when it cannot
    read the result.  It runs on every ``ORACLE_EVERY``-th call of that name,
    at most ``ORACLE_MAX`` times in all, and its own time is recorded as an
    ``oracle`` span so that no layer is charged for it.
    """

    def __init__(self, package="lddg", checks=None):
        self.package = package
        self.checks = checks or {}
        self.spans = []
        self.notes = {}  # span index -> first positional argument, for train
        self.errors = []
        self.checked = 0
        self._stack = []
        self._calls = {}
        self._patches = []

    def install(self):
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"{self.package}.{layer}")
            except ModuleNotFoundError:
                continue
        wrappers = {}
        for layer, module in modules.items():
            for name, fn in _public_functions(module):
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != self.package and not mod_name.startswith(self.package + "."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])
        return self

    def uninstall(self):
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        return idx, parent

    def _wrap(self, name, fn):
        clock = time.perf_counter_ns
        check = self.checks.get(name)
        note = name == "experiments.train"

        def traced(*args, **kwargs):
            idx, parent = self._open(name)
            if note and args:
                self.notes[idx] = args[0]
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._stack.pop()
                self.spans[idx] = (name, parent, t0, t1)
            if check is not None:
                self._maybe_check(name, check, args, out, parent)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def _maybe_check(self, name, check, args, out, parent):
        n = self._calls[name] = self._calls.get(name, 0) + 1
        if n % ORACLE_EVERY or self.checked >= ORACLE_MAX:
            return
        idx = len(self.spans)
        self.spans.append(None)
        t0 = time.perf_counter_ns()
        errors = check(args, out)
        if errors is not None:  # None: the result has a shape the check cannot read
            self.errors += errors
            self.checked += 1
        self.spans[idx] = (ORACLE, parent, t0, time.perf_counter_ns())


def summarize(spans):
    """Per span name: ``[calls, total_ns, self_ns]``; oracle time is kept apart.

    Returns ``(stats, oracle_ns)``.
    """
    child = [0] * len(spans)
    for name, parent, t0, t1 in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    stats = {}
    oracle_ns = 0
    for i, (name, parent, t0, t1) in enumerate(spans):
        if name == ORACLE:
            oracle_ns += t1 - t0
            continue
        s = stats.setdefault(name, [0, 0, 0])
        s[0] += 1
        s[1] += t1 - t0
        s[2] += t1 - t0 - child[i]
    return stats, oracle_ns


def enclosing(spans, idx, name):
    """Index of the nearest ancestor span called ``name``, or -1."""
    parent = spans[idx][1]
    while parent >= 0 and spans[parent][0] != name:
        parent = spans[parent][1]
    return parent
