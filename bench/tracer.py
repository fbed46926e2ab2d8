"""Span tracing of xkraus from outside the package.

``Tracer.install()`` wraps the public functions of the layers named in
``LAYERS`` (and ``cli.main``).  Modules import these functions by name, so
each one is replaced at its defining module and at every ``xkraus`` module
that holds a reference to it; ``uninstall()`` puts the originals back.  Each
call appends one span (label, parent span, start, end) to flat in-memory
arrays; nothing is written until ``save()`` at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import types
from array import array
from time import perf_counter
from typing import Any, Callable

import numpy as np

LAYERS = ("linalg", "states", "channels", "entanglement", "cli")

PROPAGATE_CLOSED = "channels.propagate_x.closed"
PROPAGATE_DENSE = "channels.propagate_x.dense"


def _route(args: tuple, kwargs: dict) -> str:
    """Route label of a propagate_x call, read from its spec argument."""
    spec = args[1] if len(args) > 1 else kwargs["spec"]
    closed = spec.kind == "phase" or spec.rate_a == spec.rate_b
    return PROPAGATE_CLOSED if closed else PROPAGATE_DENSE


class Tracer:
    def __init__(self) -> None:
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.label_of = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._patches: list[tuple[types.ModuleType, str, Any]] = []

    def _label_id(self, label: str) -> int:
        if label not in self._label_ids:
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return self._label_ids[label]

    def _wrap(self, fn: Callable, label: str) -> Callable:
        label_of, parent, start, end, stack = self.label_of, self.parent, self.start, self.end, self._stack
        if label == "channels.propagate_x":
            ids = {name: self._label_id(name) for name in (PROPAGATE_CLOSED, PROPAGATE_DENSE)}

            def label_id(args: tuple, kwargs: dict) -> int:
                return ids[_route(args, kwargs)]
        else:
            fixed = self._label_id(label)

            def label_id(args: tuple, kwargs: dict) -> int:
                return fixed

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(start)
            label_of.append(label_id(args, kwargs))
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(index)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        wrappers: dict[int, Callable] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"xkraus.{layer}")
            names = ("main",) if layer == "cli" else module.__all__
            for name in names:
                fn = getattr(module, name)
                if isinstance(fn, types.FunctionType) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = self._wrap(fn, f"{layer}.{name}")
        for module_name, module in list(sys.modules.items()):
            if module_name != "xkraus" and not module_name.startswith("xkraus."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "label": np.frombuffer(self.label_of, dtype=np.uint16),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Per label: calls, total_s, self_s, and calls per parent label.

        Self time is a span's duration minus the durations of its direct
        children; spans on one thread nest, so children never overlap.
        """
        s = self.spans()
        n_labels = len(self.labels)
        duration = s["end"] - s["start"]
        has_parent = s["parent"] >= 0
        children = np.bincount(s["parent"][has_parent], weights=duration[has_parent], minlength=len(duration))
        own = duration - children
        calls = np.bincount(s["label"], minlength=n_labels)
        total = np.bincount(s["label"], weights=duration, minlength=n_labels)
        self_s = np.bincount(s["label"], weights=own, minlength=n_labels)
        pair = s["label"][has_parent].astype(np.int64) * n_labels + s["label"][s["parent"][has_parent]]
        by_parent = np.bincount(pair, minlength=n_labels * n_labels).reshape(n_labels, n_labels)
        return {
            label: {
                "calls": int(calls[i]),
                "total_s": float(total[i]),
                "self_s": float(self_s[i]),
                "parents": {self.labels[j]: int(c) for j, c in enumerate(by_parent[i]) if c},
            }
            for i, label in enumerate(self.labels)
        }

    def save(self, path: str) -> None:
        np.savez(path, labels=np.array(self.labels), **self.spans())
