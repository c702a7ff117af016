"""Span tracing of isograss from outside the package.

``Tracer.install`` replaces each public function named in ``LAYERS`` with a
timing wrapper, both on its defining module and on every ``isograss.*``
module that bound the same object with ``from .x import name`` (names that
are looked up at call time, such as function-local imports, see the module
attribute).  ``uninstall`` puts every original back.

One span is recorded per call, and per ``next()`` for generator functions:
name, start, end, parent span and a work count (matrices, subspaces, items,
points, cache hits).  Spans are kept in flat in-memory arrays and written
out at the end; per-layer self time is a span's duration minus the part its
child spans cover.  A forked child (the ``count-pool`` workers) switches
tracing off, so only the parent side of a pool run is traced.
"""

from __future__ import annotations

import array
import inspect
import os
import sys
import time
from dataclasses import dataclass
from functools import wraps

import numpy as np


@dataclass(frozen=True)
class Layer:
    module: str  # isograss submodule
    attr: str  # function name, or Class.method
    work: str = ""  # name of the work count, if the layer has one
    rate: bool = False  # also report work per second of the layer's time


LAYERS = (
    Layer("_batch", "batch_rank", "matrices", rate=True),
    Layer("_batch", "classify_counts", "subspaces", rate=True),
    Layer("_batch", "pattern_matrices"),
    Layer("_batch", "isotropic_filter"),
    Layer("sumspace", "orbit_point_counts", "cache_hits"),
    Layer("sumspace", "multilabel_of"),
    Layer("sumspace", "enumerate_multilabels"),
    Layer("linalg", "rref"),
    Layer("linalg", "left_kernel"),
    Layer("linalg", "subspace_intersect"),
    Layer("linalg", "subspace_sum"),
    Layer("linalg", "subspaces_between", "items"),
    Layer("linalg", "enumerate_subspaces", "items"),
    Layer("bilinear", "perp"),
    Layer("bilinear", "radical"),
    Layer("bilinear", "witt_decompose"),
    Layer("bilinear", "transport_isometry", "pairs", rate=True),
    Layer("orbits", "label_of"),
    Layer("towers", "tower_points", "points", rate=True),
    Layer("towers", "tower_fiber"),
    Layer("towers", "closure_labels"),
    Layer("towers", "cover_fiber"),
    Layer("paving", "isotropic_subspaces", "items"),
    Layer("paving", "build_paving"),
    Layer("paving", "Paving.classify"),
    Layer("polynomials", "interpolate_counts"),
    Layer("verify", "suite_partition"),
    Layer("verify", "suite_degrees"),
    Layer("verify", "suite_paving"),
    Layer("verify", "suite_towers"),
    Layer("verify", "suite_fibers"),
    Layer("verify", "suite_closure"),
    Layer("verify", "suite_witt"),
    Layer("verify", "suite_slices"),
    Layer("cli", "cmd_export"),
)

# batch_rank spans are named per matrix shape (rows x cols); these shapes
# always get metrics, even when a workload never ranks them.
RANK_SHAPES = ("2x2", "3x5", "4x4", "4x5", "5x5", "6x6")


# work count of a plain function's span, from its result
_WORK = {
    "subspaces": lambda counts: sum(counts.values()),
    "points": len,
    "pairs": lambda _: 1,
}


def span_name(layer: Layer) -> str:
    """Metric prefix of a layer; metric names may not start with '_'."""
    return f"{layer.module.lstrip('_')}.{layer.attr}"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.work = array.array("q")
        self._stack = [-1]
        self.on = True
        self._restore: list[tuple[object, str, object]] = []
        # cache keys orbit_point_counts stored during the current invocation;
        # a hit on any other key carried over from an earlier invocation
        self.invocation_keys: set = set()
        self.carried_hits = 0
        for layer in LAYERS:
            self.name_id(span_name(layer))
        for shape in RANK_SHAPES:
            self.name_id(f"batch.batch_rank.{shape}")

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- spans ---------------------------------------------------------------
    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self.work.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int, work: int = 0) -> None:
        self.end[i] = time.perf_counter()
        self.work[i] = work
        self._stack.pop()

    def new_invocation(self) -> None:
        self.invocation_keys = set()

    # -- wrappers ------------------------------------------------------------
    def _wrap_function(self, fn, nid: int, work=None):
        """Wrapper recording one span per call; ``work(result)`` gives its count."""

        @wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            i = self.open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(i)
            if work is not None:
                self.work[i] = work(out)
            return out

        return traced

    def _wrap_generator(self, fn, nid: int):
        tracer = self

        def iterate(gen):
            try:
                while True:
                    i = tracer.open(nid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        tracer.close(i)
                        return
                    except BaseException:
                        tracer.close(i)
                        raise
                    tracer.close(i, 1)
                    yield item
            finally:
                gen.close()

        @wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            return iterate(gen) if self.on else gen

        return traced

    def _wrap_batch_rank(self, fn):
        ids: dict[tuple[int, int], int] = {}

        @wraps(fn)
        def traced(a, p):
            if not self.on:
                return fn(a, p)
            n_items, rows, cols = a.shape
            nid = ids.get((rows, cols))
            if nid is None:
                nid = ids[rows, cols] = self.name_id(f"batch.batch_rank.{rows}x{cols}")
            i = self.open(nid)
            try:
                return fn(a, p)
            finally:
                self.close(i, n_items)

        return traced

    def _wrap_orbit_point_counts(self, fn, nid: int, cache: dict):
        @wraps(fn)
        def traced(space, k, *args, **kwargs):
            if not self.on:
                return fn(space, k, *args, **kwargs)
            key = (space._cache_key, k)
            # positional order after (space, k): budget, workers, start, stop
            start = kwargs.get("start", args[2] if len(args) > 2 else 0)
            stop = kwargs.get("stop", args[3] if len(args) > 3 else None)
            hit = key in cache and start == 0 and stop is None
            if hit and key not in self.invocation_keys:
                self.carried_hits += 1
            i = self.open(nid)
            try:
                return fn(space, k, *args, **kwargs)
            finally:
                self.close(i, int(hit))
                if key in cache:
                    self.invocation_keys.add(key)

        return traced

    def _make_wrapper(self, layer: Layer, fn):
        nid = self.name_id(span_name(layer))
        if layer.attr == "batch_rank":
            return self._wrap_batch_rank(fn)
        if layer.attr == "orbit_point_counts":
            return self._wrap_orbit_point_counts(
                fn, nid, sys.modules["isograss.sumspace"]._COUNTS_CACHE
            )
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, nid)
        return self._wrap_function(fn, nid, _WORK.get(layer.work))

    def install(self) -> None:
        """Wrap every layer on its module and on each module that imported it."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        import isograss.cli  # noqa: F401  (cli and verify are not imported by the package)
        import isograss.verify  # noqa: F401

        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "isograss" or name.startswith("isograss.")) and m is not None]
        for layer in LAYERS:
            owner = sys.modules[f"isograss.{layer.module}"]
            attr = layer.attr
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
            fn = owner.__dict__[attr]
            wrapper = self._make_wrapper(layer, fn)
            self._replace(owner, attr, fn, wrapper)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._replace(mod, name, fn, wrapper)
        os.register_at_fork(after_in_child=self._off)

    def _replace(self, owner, attr: str, fn, wrapper) -> None:
        if owner.__dict__.get(attr) is fn:
            setattr(owner, attr, wrapper)
            self._restore.append((owner, attr, fn))

    def _off(self) -> None:
        self.on = False

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    # -- results -------------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "work": np.frombuffer(self.work, dtype=np.int64),
        }

    def save(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self) -> dict[str, float]:
        """Per-name calls, self/total seconds, work and rates from the spans."""
        a = self.arrays()
        n_names = len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        covered = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_time = dur - covered
        calls = np.bincount(a["name"], minlength=n_names)
        self_s = np.bincount(a["name"], weights=self_time, minlength=n_names)
        total_s = np.bincount(a["name"], weights=dur, minlength=n_names)
        work = np.bincount(a["name"], weights=a["work"], minlength=n_names)

        work_name = {span_name(layer): layer.work for layer in LAYERS}
        rate = {span_name(layer) for layer in LAYERS if layer.rate}
        out: dict[str, float] = {}

        def emit(name, c, s, t, w, wname, with_rate):
            out[f"{name}.calls"] = int(c)
            out[f"{name}.self_s"] = float(s)
            out[f"{name}.total_s"] = float(t)
            if wname:
                out[f"{name}.{wname}"] = int(w)
                if with_rate:
                    out[f"{name}.{wname}_per_s"] = float(w / t) if t > 0 else 0.0

        rank_ids = []
        for nid, name in enumerate(self.names):
            if name.startswith("batch.batch_rank."):
                rank_ids.append(nid)
                emit(name, calls[nid], self_s[nid], total_s[nid], work[nid], "matrices", True)
            elif name in work_name and name != "batch.batch_rank":
                emit(name, calls[nid], self_s[nid], total_s[nid], work[nid],
                     work_name[name], name in rate)
        r = np.array(rank_ids, dtype=np.int64)
        emit("batch.batch_rank", calls[r].sum(), self_s[r].sum(), total_s[r].sum(),
             work[r].sum(), "matrices", True)
        rref_calls = out["linalg.rref.calls"]
        out["linalg.rref.us_per_call"] = (
            out["linalg.rref.total_s"] / rref_calls * 1e6 if rref_calls else 0.0
        )
        return out
