"""In-memory span recorder for traced benchmark runs.

The recorder wraps the public functions of a package's modules at run time,
without editing the package. Every call of a wrapped function becomes one
span: name, start, end, parent span, run id (the benchmark op it belongs
to) and whether it raised. Spans live in compact arrays while the workload
runs and are written out once, at exit, by :meth:`Recorder.save`.

A layer's self time is a span's duration minus the time its child spans
cover. Calls are single-threaded, so child spans never overlap and the
self times of all spans add up to the durations of the root spans.
"""

from __future__ import annotations

import array
import functools
import inspect
import json
import sys
import time
import types
from typing import Callable

import numpy as np

# counter(counts, args, kwargs) adds what one call computes to ``counts``.
Counter = Callable[[dict, tuple, dict], None]


class Recorder:
    """Span store plus per-name counters; ``clock`` returns integer ns."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self.counts: dict[str, float] = {}
        self.run_id = 0
        self.name = array.array("i")
        self.parent = array.array("i")
        self.run = array.array("i")
        self.error = array.array("b")
        self.start = array.array("q")
        self.end = array.array("q")
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, counter: Counter | None = None) -> Callable:
        """Return ``fn`` recording one span named ``name`` per call."""
        name_id = len(self.names)
        self.names.append(name)
        name_a, parent_a, run_a = self.name, self.parent, self.run
        error_a, start_a, end_a = self.error, self.start, self.end
        stack, clock, counts = self._stack, self.clock, self.counts

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(name_a)
            name_a.append(name_id)
            parent_a.append(stack[-1] if stack else -1)
            run_a.append(self.run_id)
            error_a.append(0)
            end_a.append(0)
            if counter is not None:
                counter(counts, args, kwargs)
            stack.append(idx)
            start_a.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                error_a[idx] = 1
                raise
            finally:
                end_a[idx] = clock()
                stack.pop()

        return span

    def spans(self) -> dict:
        """The recorded spans as numpy arrays plus the name table."""
        return {
            "names": list(self.names),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "run": np.frombuffer(self.run, dtype=np.int32).copy(),
            "error": np.frombuffer(self.error, dtype=np.int8).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "counts": dict(self.counts),
        }

    def save(self, path: str) -> None:
        data = self.spans()
        meta = json.dumps({"names": data.pop("names"), "counts": data.pop("counts")})
        np.savez(path, meta=np.array(meta), **data)


def load(path: str) -> dict:
    """Read spans written by :meth:`Recorder.save`."""
    with np.load(path) as npz:
        data = {key: npz[key] for key in npz.files if key != "meta"}
        data.update(json.loads(str(npz["meta"])))
    return data


def instrument(recorder: Recorder, package: str, counters: dict[str, Counter] | None = None) -> Callable[[], None]:
    """Wrap every public function of every imported module of ``package``.

    Spans are named ``<module>.<function>``, with the module's last dotted
    component. Besides each function's home module, every namespace that
    holds a reference is patched: ``from .x import y`` copies in sibling
    modules and module-level tuples or lists of functions (such as a
    registry of checks). A reference left unpatched would lose its spans
    without any error. Returns a function that restores the originals.
    """
    counters = counters or {}
    prefix = package + "."
    modules = [m for n, m in list(sys.modules.items()) if n == package or n.startswith(prefix)]
    wrapped: dict[Callable, Callable] = {}
    for module in modules:
        layer = module.__name__.rpartition(".")[2]
        for attr, value in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            if value.__module__ != module.__name__:
                continue
            name = f"{layer}.{attr}"
            wrapped[value] = recorder.wrap(name, value, counters.get(name))

    def swap(value, table):
        return table.get(value, value) if isinstance(value, types.FunctionType) else value

    def patch(table):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in table:
                    setattr(module, attr, table[value])
                elif type(value) in (tuple, list) and any(
                    isinstance(v, types.FunctionType) and v in table for v in value
                ):
                    setattr(module, attr, type(value)(swap(v, table) for v in value))

    patch(wrapped)
    originals = {w: f for f, w in wrapped.items()}
    return lambda: patch(originals)


def rollup(spans: dict) -> dict[str, dict[str, float]]:
    """Per span name: calls, errors, self_s (self time) and total_s."""
    name, parent = spans["name"], spans["parent"]
    duration = (spans["end"] - spans["start"]).astype(np.float64)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(name))
    own = duration - covered
    n_names = len(spans["names"])
    calls = np.bincount(name, minlength=n_names)
    errors = np.bincount(name, weights=spans["error"], minlength=n_names)
    self_ns = np.bincount(name, weights=own, minlength=n_names)
    total_ns = np.bincount(name, weights=duration, minlength=n_names)
    return {
        label: {
            "calls": int(calls[i]),
            "errors": int(errors[i]),
            "self_s": float(self_ns[i]) * 1e-9,
            "total_s": float(total_ns[i]) * 1e-9,
        }
        for i, label in enumerate(spans["names"])
    }


def parent_share(spans: dict, child: str, parents: set[str]) -> float:
    """Share of ``child`` spans whose direct parent is one of ``parents``."""
    ids = {label: i for i, label in enumerate(spans["names"])}
    if child not in ids:
        return 0.0
    mask = spans["name"] == ids[child]
    total = int(mask.sum())
    if total == 0:
        return 0.0
    parent_ids = spans["parent"][mask]
    parent_names = np.where(parent_ids >= 0, spans["name"][np.maximum(parent_ids, 0)], -1)
    wanted = [ids[p] for p in parents if p in ids]
    return float(np.isin(parent_names, wanted).sum()) / total
