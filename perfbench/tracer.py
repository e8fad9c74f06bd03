"""In-memory span tracer that wraps the public functions of the amap modules.

Spans are recorded from the benchmark's side of each call: the tracer
replaces a public function by a wrapper in every amap module that holds a
reference to it, so calls resolved through `from .engine import eliminate`
in `solver` or `cli` are seen as well. Private helpers (leading underscore)
are never wrapped, so renaming or removing them does not break the tracer.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

LAYERS = ("fileio", "model", "engine", "solver", "cli")

# Constructors traced as spans named "<module>.<Class>"; class methods are
# not traced because they run per variable and would swamp the timings.
TRACED_CLASSES = {"model": ("BayesianNetwork",)}

# Functions whose return values are kept for counters (sweeps, components).
CAPTURED = frozenset({"engine.prune", "solver.annealed_map", "solver.gibbs_chain"})


class Tracer:
    """Records one span per wrapped call: (name, start_ns, end_ns, parent).

    `parent` is the index of the enclosing span in `spans`, or -1. Spans
    stay in memory until `write` is called.
    """

    def __init__(self, amap_package) -> None:
        self.package = amap_package
        self.spans: List[Tuple[str, int, int, int]] = []
        self.results: Dict[str, list] = defaultdict(list)
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def _targets(self) -> List[Tuple[str, object, str, object]]:
        """(span name, owner, attribute, original) for every traced callable."""
        out = []
        for layer in LAYERS:
            module = getattr(self.package, layer)
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == module.__name__:
                    out.append((f"{layer}.{attr}", module, attr, obj))
            for cls_name in TRACED_CLASSES.get(layer, ()):
                cls = getattr(module, cls_name)
                out.append((f"{layer}.{cls_name}", cls, "__init__",
                            cls.__dict__["__init__"]))
        return out

    def install(self) -> None:
        modules = [self.package] + [getattr(self.package, m) for m in LAYERS]
        for name, owner, attr, original in self._targets():
            wrapper = self._wrap(name, original)
            if inspect.isclass(owner):
                self._patch(owner, attr, wrapper)
                continue
            # every module that bound the function by name gets the wrapper
            for module in modules:
                if vars(module).get(attr) is original:
                    self._patch(module, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, results = self.spans, self._stack, self.results
        captured = name in CAPTURED
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append((name, 0, 0, stack[-1] if stack else -1))
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, spans[index][3])
            if captured:
                results[name].append(result)
            return result

        return wrapper

    # -- analysis -------------------------------------------------------------

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive seconds (outermost spans of that
        name only, so recursion is not double counted) and self seconds."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, (name, start, end, parent) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["self_s"] += (end - start - child_ns[i]) / 1e9
            if not self._has_ancestor(parent, name):
                row["s"] += (end - start) / 1e9
        return dict(out)

    def _has_ancestor(self, index: int, name: str) -> bool:
        while index >= 0:
            if self.spans[index][0] == name:
                return True
            index = self.spans[index][3]
        return False

    def count_under(self, name: str, ancestors: Tuple[str, ...]) -> int:
        """Number of `name` spans that have one of `ancestors` above them."""
        wanted = set(ancestors)
        total = 0
        for span_name, _, _, parent in self.spans:
            if span_name != name:
                continue
            index = parent
            while index >= 0:
                if self.spans[index][0] in wanted:
                    total += 1
                    break
                index = self.spans[index][3]
        return total

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_ns,end_ns,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start},{end},{parent}\n")
