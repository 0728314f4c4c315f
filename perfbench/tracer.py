"""Span tracer for the plethtomo layers, installed from outside the package.

`Tracer.install` rebinds every public function of each layer module, in its
own module and in every plethtomo module that imported it by name (for
example `coefficients.kostka` or `reductions.count_point_sets`), to a
wrapper that records one span: name, start, end, parent span and op id.
Generator functions get one span per resume, so a layer is charged only for
the time its generator actually runs.  Spans stay in memory until `write`;
`summary` turns them into per-function calls and self time (span time minus
the time covered by child spans).

Memo counters are read from the `lru_cache` objects and from the
weight-multiplicity dict without modifying them.  A layer, function or memo
that a later version of the package no longer has is skipped, and the
metrics built on it are reported absent rather than failing the run.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

LAYERS = (
    "partitions",
    "tableaux",
    "characters",
    "sympoly",
    "coefficients",
    "tomography",
    "reductions",
    "restricted",
    "cli",
)

# memo tables read at the end of a traced run: metric stem -> (module, attribute)
LRU_MEMOS = {
    "characters.mn": ("characters", "_mn"),
    "characters.plethysm_power_expansion": ("characters", "plethysm_power_expansion"),
    "tableaux.kostka": ("tableaux", "kostka"),
}
DICT_MEMOS = {"coefficients.q_cache": ("coefficients", "_q_cache")}


def _module(layer: str):
    try:
        return importlib.import_module(f"plethtomo.{layer}")
    except ImportError:
        return None


def _is_public_function(obj, module) -> bool:
    if getattr(obj, "__module__", None) != module.__name__:
        return False
    return inspect.isfunction(obj) or callable(getattr(obj, "cache_info", None))


def excess_bucket(lam, kind, coordinate_sum, beta) -> str | None:
    """Dispatch key of the cone counters, computed with the public helpers:
    coordinate sum minus the minimum coordinate sum for the size."""
    lam = tuple(lam)
    total = sum(lam)
    if total == 0 or total % 3:
        return None
    excess = coordinate_sum(lam) - beta(total // 3, kind)
    if excess < 0:
        return None
    if excess == 0:
        return "tomography.excess0.calls"
    if excess <= 3:
        return "tomography.excess1_3.calls"
    return "tomography.excess4plus.calls"


class Tracer:
    """In-memory spans for one process.  Set `op_id` before each op."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.generators: set[int] = set()
        self.name_of = array("i")
        self.parent = array("q")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.op_id = -1
        self.counters: Counter[str] = Counter()
        self.creations: Counter[int] = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._memos: dict[str, object] = {}

    # -- installation -----------------------------------------------------

    def install(self, layers: tuple[str, ...] = LAYERS) -> None:
        modules = {layer: _module(layer) for layer in layers}
        for stem, (layer, attr) in {**LRU_MEMOS, **DICT_MEMOS}.items():
            mod = modules.get(layer)
            if mod is not None and hasattr(mod, attr):
                self._memos[stem] = getattr(mod, attr)
        hooks = self._post_hooks(modules.get("tomography"))
        package = [m for name, m in sys.modules.items() if m is not None and (name == "plethtomo" or name.startswith("plethtomo."))]
        for layer, mod in modules.items():
            if mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not _is_public_function(obj, mod):
                    continue
                name = f"{layer}.{attr}"
                wrapper = self._wrap(name, obj, hooks.get(name))
                for target in package:
                    for key, val in list(vars(target).items()):
                        if val is obj:
                            setattr(target, key, wrapper)
                            self._undo.append((target, key, obj))

    def uninstall(self) -> None:
        for target, key, obj in reversed(self._undo):
            setattr(target, key, obj)
        self._undo.clear()

    def _post_hooks(self, tomography) -> dict:
        counters = self.counters

        def route(prefix):
            def hook(args, kwargs, result):
                method = getattr(result, "method", None)
                if method is not None:
                    counters[f"{prefix}.route.{method}"] += 1

            return hook

        def count_len(metric, attr=None):
            def hook(args, kwargs, result):
                counters[metric] += len(getattr(result, attr) if attr else result)

            return hook

        hooks = {
            "sympoly.plethysm_poly": count_len("sympoly.plethysm_poly.terms", "coeffs"),
            "tableaux.ssyt_weights": count_len("tableaux.ssyt_weights.letters"),
            "coefficients.general_plethysm": route("coefficients"),
            "reductions.resolve_coefficient": route("reductions"),
        }
        coordinate_sum = getattr(tomography, "coordinate_sum", None)
        beta = getattr(tomography, "beta", None)
        if coordinate_sum is not None and beta is not None:

            def excess(args, kwargs, result):
                lam = args[0] if args else kwargs.get("lam")
                kind = args[1] if len(args) > 1 else kwargs.get("kind")
                bucket = excess_bucket(lam, kind, coordinate_sum, beta)
                if bucket:
                    counters[bucket] += 1

            hooks["tomography.count_point_sets"] = excess
            hooks["tomography.count_pyramids"] = excess
        return hooks

    def _wrap(self, name: str, fn, post):
        name_id = len(self.names)
        self.names.append(name)
        clock = time.perf_counter
        stack = self._stack
        name_of, parent, op, start, end = self.name_of, self.parent, self.op, self.start, self.end
        tracer = self

        def open_span() -> int:
            idx = len(start)
            name_of.append(name_id)
            parent.append(stack[-1] if stack else -1)
            op.append(tracer.op_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            return idx

        def close_span(idx: int) -> None:
            end[idx] = clock()
            stack.pop()

        if inspect.isgeneratorfunction(fn):
            self.generators.add(name_id)

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                tracer.creations[name_id] += 1
                it = fn(*args, **kwargs)
                while True:
                    idx = open_span()
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        close_span(idx)
                    yield value

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_span()
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(idx)
            if post is not None:
                post(args, kwargs, result)
            return result

        return traced

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Per-function calls and self time, counters and memo readings."""
        n = len(self.start)
        covered = [0.0] * n
        parent, start, end, name_of = self.parent, self.start, self.end, self.name_of
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
        self_s = [0.0] * len(self.names)
        spans = [0] * len(self.names)
        for i in range(n):
            k = name_of[i]
            self_s[k] += end[i] - start[i] - covered[i]
            spans[k] += 1
        functions = {}
        for k, name in enumerate(self.names):
            calls = self.creations[k] if k in self.generators else spans[k]
            if calls or self_s[k]:
                functions[name] = {"calls": calls, "self_s": self_s[k]}
        memo = {}
        for stem, obj in self._memos.items():
            info = getattr(obj, "cache_info", None)
            if info is not None:
                ci = info()
                memo[stem] = {"hits": ci.hits, "misses": ci.misses}
            else:
                memo[stem] = {"entries": len(obj)}
        return {"functions": functions, "counters": dict(self.counters), "memo": memo, "wrapped": list(self.names), "spans": n}

    def write(self, path) -> None:
        """Write every span, gzipped, as a tab-separated line: id, parent,
        op, name, start, end (seconds on the process's perf_counter clock)."""
        names = self.names
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tparent\top\tname\tstart\tend\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.op[i]}\t{names[self.name_of[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}\n")
