"""Span tracing of statforge's layers, installed from outside the package.

``Tracer.install`` wraps every public function of each layer module and the
``RandomStream`` draw methods, then rebinds every alias of a wrapped function
in every loaded ``statforge`` module (modules import names directly, e.g.
``from .rng import stream_split``). Each call records a span with its parent
in memory; ``summary`` turns the spans into per-layer self times, boundary
crossings and exact counts taken from call arguments and return values.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("rng", "distributions", "concentration", "estimation", "regression",
          "glm", "hypothesis", "stochastic", "experiments", "cli")
STREAM_METHODS = ("raw", "uniforms", "uniforms_open", "normals", "split")


def _count_raw(counts, args, kwargs, result):
    counts["rng.draw_calls"] += 1
    counts["rng.words"] += int(result.size)


def _count_split(counts, args, kwargs, result):
    counts["rng.split_calls"] += 1


def _count_graph(counts, args, kwargs, result):
    n = result.n_vertices
    counts["concentration.graphs"] += 1
    counts["concentration.edges"] += int(result.edges.shape[0])
    counts["concentration.potential_edges"] += n * (n - 1) // 2


def _count_jl(counts, args, kwargs, result):
    counts["concentration.jl_trials"] += 1


def _count_path_columns(counts, args, kwargs, result):
    values = result.values
    counts["stochastic.paths"] += int(values.shape[1]) if values.ndim == 2 else 1


def _count_mc_paths(counts, args, kwargs, result):
    counts["stochastic.paths"] += int(result.n_paths)


def _count_cdf(counts, args, kwargs, result):
    counts["distributions.cdf_points"] += int(np.size(result))


def _count_quantile(counts, args, kwargs, result):
    counts["distributions.quantile_calls"] += 1


def _count_linear_fit(counts, args, kwargs, result):
    counts["regression.fits"] += 1


def _count_glm_fit(counts, args, kwargs, result):
    counts["glm.fits"] += 1
    counts["glm.iterations"] += int(result.iterations)


# span name -> counter run on the call's arguments and return value
COUNTERS = {
    "rng.RandomStream.raw": _count_raw,
    "rng.RandomStream.split": _count_split,
    "concentration.er_sample": _count_graph,
    "concentration.jl_trial": _count_jl,
    "stochastic.brownian_sample": _count_path_columns,
    "stochastic.gbm_sample": _count_path_columns,
    "stochastic.feynman_kac_mc": _count_mc_paths,
    "stochastic.bs_mc_price": _count_mc_paths,
    "distributions.dist_cdf": _count_cdf,
    "distributions.dist_quantile": _count_quantile,
    "regression.ols_fit": _count_linear_fit,
    "regression.ridge_fit": _count_linear_fit,
    "regression.lasso_fit": _count_linear_fit,
    "glm.glm_fit": _count_glm_fit,
}


class Tracer:
    """In-memory spans: ``(name index, parent span index, start ns, end ns)``."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn):
        key = len(self.names)
        self.names.append(name)
        count = COUNTERS.get(name)
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (key, parent, start, clock())
                stack.pop()
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        wrapped = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            module = importlib.import_module(f"statforge.{layer}")
            for name, obj in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrapped[id(obj)] = (obj, self.wrap(f"{layer}.{name}", obj))
        for module_name, module in list(sys.modules.items()):
            if module_name != "statforge" and not module_name.startswith("statforge."):
                continue
            for name, obj in list(vars(module).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, name, hit[1])
        stream = importlib.import_module("statforge.rng").RandomStream
        for method in STREAM_METHODS:
            setattr(stream, method,
                    self.wrap(f"rng.RandomStream.{method}", getattr(stream, method)))

    def summary(self) -> dict:
        """Self time per layer (span duration minus its child spans), calls
        crossing into each layer, the span count and the exact counts."""
        if any(span is None for span in self.spans):
            raise RuntimeError("summary taken while a span is still open")
        table = np.array(self.spans, dtype=np.int64).reshape(-1, 4)
        layer_of_name = np.array([LAYERS.index(n.split(".", 1)[0]) for n in self.names],
                                 dtype=np.int64)
        layer = layer_of_name[table[:, 0]]
        parent = table[:, 1]
        duration = (table[:, 3] - table[:, 2]).astype(np.float64)
        nested = parent >= 0
        child_time = np.bincount(parent[nested], weights=duration[nested],
                                 minlength=len(table))
        self_ns = np.bincount(layer, weights=duration - child_time,
                              minlength=len(LAYERS))
        parent_layer = np.where(nested, layer[np.maximum(parent, 0)], -1)
        crossings = np.bincount(layer[layer != parent_layer], minlength=len(LAYERS))
        return {
            "self_s": {name: float(self_ns[i]) * 1e-9 for i, name in enumerate(LAYERS)},
            "calls": {name: int(crossings[i]) for i, name in enumerate(LAYERS)},
            "spans": int(len(table)),
            "counts": dict(self.counts),
        }
