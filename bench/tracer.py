"""In-memory span tracer for the benchmark's traced run.

``install`` wraps every public function defined in a ``nonrecip`` module, and
every scipy function a ``nonrecip`` module imported, and rebinds the wrapper
on every ``nonrecip`` module attribute bound to that function (``cli`` and
``tuner`` import names with ``from ... import``).  A function added to the
package later is therefore traced without editing the benchmark.

Each call records one span: function id, parent span, start and end in ns.
Spans stay in flat arrays until the run ends.  A layer is the defining
module (``cli``, ``cmt``, ...) or ``scipy``; its self time is the time in its
spans minus the time covered by their traced children.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
import types
from array import array

import numpy as np

OP = "bench.op"


class Tracer:
    def __init__(self):
        self.names = [OP]  # function id -> "layer.function"
        self.layers = ["bench"]  # function id -> layer
        self.fid = array("i")
        self.parent = array("i")
        self.t0 = array("q")
        self.t1 = array("q")
        self.stack: list[int] = []
        self.ops = 0
        self.points: dict[int, int] = {}  # outermost cmt span -> detuning points solved
        self.io_bytes: dict[str, dict[int, int]] = {"write": {}, "read": {}}
        self.io_fids: dict[str, set[int]] = {"write": set(), "read": set()}
        self.tunes: list[tuple[int, int, bool]] = []  # (evaluations, len(trace), converged)
        self.errors: dict[str, int] = {}
        self._last_exc = None
        self._restore: list[tuple[types.ModuleType, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "nonrecip" or name.startswith("nonrecip."))]
        wrappers: dict[int, object] = {}
        for module in modules:
            for value in list(vars(module).values()):
                layer = _layer_of(value)
                if layer is not None and id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(value, layer)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def _wrap(self, fn, layer: str):
        fid = len(self.names)
        self.names.append(f"{layer}.{fn.__name__}")
        self.layers.append(layer)
        fids, parents, t0s, t1s, stack = self.fid, self.parent, self.t0, self.t1, self.stack
        clock = time.perf_counter_ns
        post = self._post_hook(fn, layer, fid)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            t0s.append(0)
            t1s.append(0)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t0s[idx], t1s[idx] = start, clock()
                stack.pop()
                self._error(layer, exc)
                raise
            end = clock()
            stack.pop()
            t0s[idx], t1s[idx] = start, end
            if post is not None:
                post(idx, args, kwargs, result)
            return result

        return traced

    def _error(self, layer: str, exc: BaseException) -> None:
        # count an exception once, in the layer whose traced function raised it first
        if exc is not self._last_exc:
            self._last_exc = exc
            self.errors[layer] = self.errors.get(layer, 0) + 1

    def _post_hook(self, fn, layer: str, fid: int):
        name = fn.__name__
        if layer == "cmt":
            return self._count_points
        if layer == "tuner":
            return self._count_tune
        if layer == "cli" and name.startswith(("write", "read", "load")):
            params = list(inspect.signature(fn).parameters)
            if "path" not in params:
                return None
            pos = params.index("path")
            direction = "write" if name.startswith("write") else "read"
            self.io_fids[direction].add(fid)
            return functools.partial(self._count_bytes, direction, pos)
        return None

    def _outermost(self, idx: int, fids: set[int]) -> bool:
        p = self.parent[idx]
        return p < 0 or self.fid[p] not in fids

    def _count_points(self, idx, args, kwargs, result) -> None:
        kind = type(result).__name__
        n = len(result) if kind == "SweepResult" else 1 if kind == "ScatteringMatrix" else 0
        p = self.parent[idx]
        if n and (p < 0 or self.layers[self.fid[p]] != "cmt"):
            self.points[idx] = n

    def _count_tune(self, idx, args, kwargs, result) -> None:
        if all(hasattr(result, a) for a in ("evaluations", "trace", "converged")):
            self.tunes.append((int(result.evaluations), len(result.trace), bool(result.converged)))

    def _count_bytes(self, direction, pos, idx, args, kwargs, result) -> None:
        path = kwargs.get("path", args[pos] if len(args) > pos else None)
        if path is not None and self._outermost(idx, self.io_fids[direction]):
            self.io_bytes[direction][idx] = os.path.getsize(path)

    # -- ops --------------------------------------------------------------

    def begin_op(self) -> None:
        idx = len(self.fid)
        self.fid.append(0)
        self.parent.append(-1)
        self.t0.append(time.perf_counter_ns())
        self.t1.append(0)
        self.stack.append(idx)

    def end_op(self) -> None:
        idx = self.stack.pop()
        self.t1[idx] = time.perf_counter_ns()
        self.ops += 1

    # -- results ----------------------------------------------------------

    def _arrays(self):
        fid = np.frombuffer(self.fid, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.t1, dtype=np.int64)
               - np.frombuffer(self.t0, dtype=np.int64)).astype(float) * 1e-9
        return fid, parent, dur

    def summary(self) -> dict:
        """Totals over every traced op (the parent divides by ``ops``)."""
        fid, parent, dur = self._arrays()
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=len(fid))
        self_time = dur - covered
        layer_names = sorted(set(self.layers))
        lid = np.array([layer_names.index(layer) for layer in self.layers])[fid]
        calls = np.bincount(lid, minlength=len(layer_names))
        self_s = np.bincount(lid, weights=self_time, minlength=len(layer_names))
        fn_calls = np.bincount(fid, minlength=len(self.names))

        def span_sum(indices) -> float:
            return float(dur[list(indices)].sum()) if indices else 0.0

        return {
            "ops": self.ops,
            "spans": int(len(fid)),
            "layers": {name: {"calls": int(calls[k]), "self_s": float(self_s[k]),
                              "errors": self.errors.get(name, 0)}
                       for k, name in enumerate(layer_names)},
            "function_calls": {n: int(c) for n, c in zip(self.names, fn_calls) if c},
            "points": sum(self.points.values()),
            "solve_calls": len(self.points),
            "solve_s": span_sum(self.points),
            "write_bytes": sum(self.io_bytes["write"].values()),
            "write_s": span_sum(self.io_bytes["write"]),
            "read_bytes": sum(self.io_bytes["read"].values()),
            "read_s": span_sum(self.io_bytes["read"]),
            "tunes": len(self.tunes),
            "tune_evaluations": sum(t[0] for t in self.tunes),
            "tune_improving": sum(t[1] for t in self.tunes),
            "tune_converged": sum(t[2] for t in self.tunes),
        }

    def dump(self, path: str) -> None:
        fid, parent, _ = self._arrays()
        np.savez_compressed(
            path, names=np.array(self.names), fid=fid, parent=parent,
            t0=np.frombuffer(self.t0, dtype=np.int64), t1=np.frombuffer(self.t1, dtype=np.int64),
        )


def _layer_of(value) -> str | None:
    if not isinstance(value, types.FunctionType) or value.__name__.startswith("_"):
        return None
    module = value.__module__ or ""
    if module.startswith("nonrecip."):
        return module.split(".")[1]
    if module.split(".")[0] == "scipy":
        return "scipy"
    return None
