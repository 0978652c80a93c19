"""Spans around the public functions of every ``entqkd`` module.

The tracer wraps functions from the benchmark's side; no source file
changes.  A function imported by name into several modules (for
example ``validate_density_matrix`` in ``states``, ``tomography``,
``spdc``, ``metrics`` and ``dataio``) is replaced by one wrapper in
every namespace that binds it, so each call is seen exactly once
whichever module makes it.

Each span records its name, start, end, parent span and the id of the
benchmark operation it belongs to.  Spans live in typed arrays in
memory and are written out once, when the run ends.  A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
from array import array
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_idx = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self.current_op = -1
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object]] = []

    def next_op(self) -> None:
        self.current_op += 1

    def _wrap(self, name: str, fn):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        stack = self._stack
        name_idx, parent, op, t0, t1 = self.name_idx, self.parent, self.op, self.t0, self.t1
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(t0)
            name_idx.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(tracer.current_op)
            t1.append(0.0)
            stack.append(idx)
            t0.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                t1[idx] = perf_counter()
                stack.pop()

        return traced

    def install(self, package, modules) -> None:
        """Wrap every public function and method defined in ``modules``.

        ``package`` and every module are then scanned for names bound
        to a wrapped function, and each binding is replaced.
        """
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for name, obj in vars(mod).items():
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[obj] = self._wrap(f"{short}.{name}", obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._install_methods(short, obj)
        for mod in (package, *modules):
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._bindings.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])

    def _install_methods(self, short: str, cls) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            label = f"{short}.{cls.__name__}.{name}"
            if isinstance(attr, classmethod):
                new = classmethod(self._wrap(label, attr.__func__))
            elif isinstance(attr, staticmethod):
                new = staticmethod(self._wrap(label, attr.__func__))
            elif inspect.isfunction(attr):
                new = self._wrap(label, attr)
            else:
                continue
            self._bindings.append((cls, name, attr))
            setattr(cls, name, new)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._bindings):
            setattr(owner, name, original)
        self._bindings.clear()

    def spans(self) -> dict:
        """Spans as numpy arrays, with per-span duration and self time in seconds."""
        name_idx = np.frombuffer(self.name_idx, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.t1, dtype=np.float64) - np.frombuffer(self.t0, dtype=np.float64)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=len(dur))
        return {"name_idx": name_idx, "parent": parent,
                "op": np.frombuffer(self.op, dtype=np.int64),
                "t0": np.frombuffer(self.t0, dtype=np.float64),
                "dur": dur, "self": dur - child_time}

    def save(self, path) -> None:
        spans = self.spans()
        np.savez(path, names=np.array(self.names), name_idx=spans["name_idx"],
                 parent=spans["parent"], op=spans["op"], t0=spans["t0"],
                 t1=np.frombuffer(self.t1, dtype=np.float64))


class SpanView:
    """Queries over finished spans by function name."""

    def __init__(self, tracer: Tracer):
        self._spans = tracer.spans()
        self._ids = {name: i for i, name in enumerate(tracer.names)}

    def _mask(self, *names):
        mask = np.zeros(len(self._spans["dur"]), dtype=bool)
        for name in names:
            if name in self._ids:
                mask |= self._spans["name_idx"] == self._ids[name]
        return mask

    def count(self, *names) -> int:
        return int(self._mask(*names).sum())

    def durations(self, *names) -> np.ndarray:
        return self._spans["dur"][self._mask(*names)]

    def self_time(self, *names) -> float:
        return float(self._spans["self"][self._mask(*names)].sum())

    def self_time_prefix(self, prefix: str) -> float:
        names = [n for n in self._ids if n.startswith(prefix)]
        return self.self_time(*names)
