"""Per-layer tracing from outside the program.

Every public function of a permroots module, and the series products
``UniSeries.__mul__`` and ``MultiSeries.__mul__``, is wrapped so that each
call opens a span.  A wrapped name is rebound in every permroots module that
holds it, so calls between modules and inside one module are both seen.
Generator functions are timed per resumption: each ``next`` is one span.

A span carries an id, name, start, end and the id of the span that was open
when it started.  Self time is a span's duration minus the time its child
spans cover.  Totals are kept for every span; the spans themselves are kept
in memory up to ``KEEP_SPANS`` of them (the first ones) and written out at
the end.
"""

from __future__ import annotations

import functools
import inspect
import sys
from math import factorial
from time import perf_counter

LAYERS = ("cli", "numtheory", "gsets", "counting", "perm", "series", "egf")
METHODS = (("series", "UniSeries", "__mul__"), ("series", "MultiSeries", "__mul__"))
KEEP_SPANS = 20_000


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.stack: list[list] = []  # [id, name, start, child_time]
        self.next_id = 1
        self.calls: dict[str, int] = {}
        self.yielded: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.oracle_candidates = 0
        self.oracle_roots = 0

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> list:
        frame = [self.next_id, name, perf_counter(), 0.0]
        self.next_id += 1
        self.stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = perf_counter()
        popped = self.stack.pop()
        assert popped is frame, "spans closed out of order"
        span_id, name, start, child = frame
        duration = end - start
        if self.stack:
            self.stack[-1][3] += duration
        self.total_s[name] = self.total_s.get(name, 0.0) + duration
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - child
        if len(self.spans) < KEEP_SPANS:
            parent = self.stack[-1][0] if self.stack else 0
            self.spans.append((span_id, name, start, end, parent))

    def _count(self, table: dict, name: str) -> None:
        table[name] = table.get(name, 0) + 1

    # -- wrappers ----------------------------------------------------------

    def wrap_call(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._count(self.calls, name)
            frame = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame)

        return traced

    def wrap_generator(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._count(self.calls, name)
            return self._resumptions(name, fn(*args, **kwargs))

        return traced

    def _resumptions(self, name: str, gen):
        while True:
            frame = self._open(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._close(frame)
            self._count(self.yielded, name)
            yield item

    def wrap_oracle(self, name: str, fn):
        traced = self.wrap_call(name, fn)

        @functools.wraps(fn)
        def counted(sigma, *args, **kwargs):
            found = traced(sigma, *args, **kwargs)
            self.oracle_candidates += factorial(sigma.degree)
            self.oracle_roots += len(found)
            return found

        return counted

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap and rebind every public permroots function and the series
        products.  Call after ``import permroots.cli``."""
        modules = [
            module
            for key, module in sys.modules.items()
            if module is not None and (key == "permroots" or key.startswith("permroots."))
        ]
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            home = sys.modules[f"permroots.{layer}"]
            for attr, obj in list(vars(home).items()):
                if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != home.__name__:
                    continue
                name = f"{layer}.{attr}"
                target = getattr(obj, "__wrapped__", obj)
                if name == "perm.brute_force_roots":
                    wrapped[id(obj)] = self.wrap_oracle(name, obj)
                elif inspect.isgeneratorfunction(target):
                    wrapped[id(obj)] = self.wrap_generator(name, obj)
                else:
                    wrapped[id(obj)] = self.wrap_call(name, obj)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped and not attr.startswith("__"):
                    setattr(module, attr, wrapped[id(obj)])
        for layer, cls_name, method in METHODS:
            cls = getattr(sys.modules[f"permroots.{layer}"], cls_name)
            original = vars(cls)[method]
            traced = self.wrap_call(f"{layer}.{cls_name}.mul", original)
            for attr, obj in list(vars(cls).items()):
                if obj is original:
                    setattr(cls, attr, traced)

    # -- results -----------------------------------------------------------

    def layer_self_s(self, layer: str) -> float:
        return sum((t for name, t in self.self_s.items() if name.split(".")[0] == layer), 0.0)

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics of this trace, by name."""
        calls, yielded, self_s = self.calls, self.yielded, self.self_s
        r_values = calls.get("egf.r_total", 0)
        uni_products = calls.get("series.UniSeries.mul", 0)
        return {
            "cli.main.calls": calls.get("cli.main", 0),
            "cli.self_s": self.layer_self_s("cli"),
            "numtheory.factorize.calls": calls.get("numtheory.factorize", 0),
            "numtheory.bracket.calls": calls.get("numtheory.bracket", 0),
            "numtheory.self_s": self.layer_self_s("numtheory"),
            "gsets.g_set.calls": calls.get("gsets.g_set", 0),
            "gsets.iter_epsilons.yielded": yielded.get("gsets.iter_epsilons", 0),
            "gsets.count_epsilons.calls": calls.get("gsets.count_epsilons", 0),
            "gsets.self_s": self.layer_self_s("gsets"),
            "counting.root_count.calls": calls.get("counting.root_count", 0),
            "counting.self_s": self.layer_self_s("counting"),
            "perm.has_mth_root.calls": calls.get("perm.has_mth_root", 0),
            "perm.cycle_types.yielded": yielded.get("perm.cycle_types", 0),
            "perm.enumerate_roots.yielded": yielded.get("perm.enumerate_roots", 0),
            "perm.enumerate_roots.self_s": self_s.get("perm.enumerate_roots", 0.0),
            "perm.brute_force_roots.candidates": self.oracle_candidates,
            "perm.brute_force_roots.self_s": self_s.get("perm.brute_force_roots", 0.0),
            "perm.oracle_hit_ratio": (
                self.oracle_roots / self.oracle_candidates if self.oracle_candidates else 0.0
            ),
            "series.UniSeries.mul.calls": uni_products,
            "series.MultiSeries.mul.calls": calls.get("series.MultiSeries.mul", 0),
            "series.self_s": self.layer_self_s("series"),
            "egf.r_total.calls": r_values,
            "egf.r_total_series.calls": calls.get("egf.r_total_series", 0),
            "egf.r_total_from_types.self_s": self_s.get("egf.r_total_from_types", 0.0),
            "egf.series_mul_per_value": uni_products / r_values if r_values else 0.0,
            "egf.self_s": self.layer_self_s("egf"),
        }

    def dump(self) -> dict:
        names = sorted(set(self.total_s) | set(self.calls))
        return {
            "metrics": self.metrics(),
            "functions": {
                name: {
                    "calls": self.calls.get(name, 0),
                    "yielded": self.yielded.get(name, 0),
                    "total_s": self.total_s.get(name, 0.0),
                    "self_s": self.self_s.get(name, 0.0),
                }
                for name in names
            },
            "span_count": self.next_id - 1,
            "spans_kept": len(self.spans),
            "span_fields": ["id", "name", "start_s", "end_s", "parent_id"],
            "spans": self.spans,
        }
