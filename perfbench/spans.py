"""Span tracing of fairhedge's public functions, installed from outside the library.

Every public module-level function of the traced modules is replaced, in
every ``fairhedge`` namespace that holds it, by a wrapper that records a
span: function name, start, end and parent span; requests are marked by the
index of their first span. Callers that
resolve a name at call time (``equilibrium.std_normal_cdf`` as well as
``core.std_normal_cdf``) therefore hit the wrapper. Spans stay in memory as
flat arrays and are aggregated once, when the run ends.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("core", "equilibrium", "oracle", "validation", "cli")


class Tracer:
    """Collects spans while installed; ``start_request()`` marks request boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids = array("i")
        self.parents = array("i")
        # Index of the first span of each request; spans of request j lie in
        # [request_starts[j], request_starts[j + 1]).
        self.request_starts: list[int] = []
        self.starts = array("d")
        self.ends = array("d")
        self.errors: list[int] = []
        # Per-span extras recorded by observers: span index -> value.
        self.result_bytes: dict[int, int] = {}
        self.result_items: dict[int, int] = {}
        self.quad_nodes: dict[int, int] = {}
        self.check_failed: list[int] = []
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap the public functions of every layer module, in every namespace."""
        import fairhedge

        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"fairhedge.{layer}"]
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{attr}")
        namespaces = [fairhedge] + [sys.modules[f"fairhedge.{layer}"] for layer in LAYERS]
        for namespace in namespaces:
            for attr, obj in list(vars(namespace).items()):
                wrapper = wrappers.get(obj) if inspect.isfunction(obj) else None
                if wrapper is not None:
                    self._patched.append((namespace, attr, obj))
                    setattr(namespace, attr, wrapper)

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._patched):
            setattr(namespace, attr, original)
        self._patched.clear()

    def _wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        clock = time.perf_counter
        stack = self._stack
        tracer = self
        observe = _OBSERVERS.get(name)

        def traced(*args, **kwargs):
            index = len(tracer.name_ids)
            tracer.name_ids.append(name_id)
            tracer.parents.append(stack[-1])
            tracer.ends.append(0.0)
            stack.append(index)
            if observe is not None:
                args = observe.before(tracer, index, args)
            tracer.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.ends[index] = clock()
                tracer.errors.append(index)
                raise
            else:
                tracer.ends[index] = clock()
                if observe is not None:
                    observe.after(tracer, index, result)
                return result
            finally:
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def start_request(self) -> None:
        self.request_starts.append(len(self.name_ids))


class _Observer:
    def before(self, tracer: Tracer, index: int, args: tuple) -> tuple:
        return args

    def after(self, tracer: Tracer, index: int, result) -> None:
        pass


class _ArrayResult(_Observer):
    """Records the size of a returned array (paths and bytes computed)."""

    def after(self, tracer, index, result):
        tracer.result_items[index] = int(result.size)
        tracer.result_bytes[index] = int(result.nbytes)


class _QuadNodes(_Observer):
    """Counts the quadrature nodes by wrapping the integrand argument."""

    def before(self, tracer, index, args):
        integrand = args[0]

        def counted(z):
            tracer.quad_nodes[index] = tracer.quad_nodes.get(index, 0) + int(np.size(z))
            return integrand(z)

        return (counted, *args[1:])


class _CheckOutcome(_Observer):
    def after(self, tracer, index, result):
        if not result.passed:
            tracer.check_failed.append(index)


_OBSERVERS = {
    "oracle.simulate_terminal": _ArrayResult(),
    "oracle.quad_expectation": _QuadNodes(),
}
VALIDATION_CHECKS = (
    "check_implied_vol_round_trip",
    "check_price_vs_quadrature",
    "check_physical_parity",
    "check_fair_play_identity",
    "check_threshold_ordering",
    "check_threshold_arg_monotonicity",
    "check_risks_vs_quadrature",
    "check_mc_agreement",
    "check_quote_grid_consistency",
)
for _check in VALIDATION_CHECKS:
    _OBSERVERS[f"validation.{_check}"] = _CheckOutcome()


class TraceSummary:
    """Per-function call counts, durations, self times and error counts."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        names = np.frombuffer(tracer.name_ids, dtype=np.intc)
        parents = np.frombuffer(tracer.parents, dtype=np.intc)
        duration = np.asarray(tracer.ends) - np.asarray(tracer.starts)
        child = np.zeros_like(duration)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], duration[has_parent])
        n_names = len(tracer.names)
        self._index = {name: i for i, name in enumerate(tracer.names)}
        self.span_names = names
        self.span_parents = parents
        self.calls = np.bincount(names, minlength=n_names)
        self.total_s = np.bincount(names, weights=duration, minlength=n_names)
        self.self_s = np.bincount(names, weights=duration - child, minlength=n_names)
        self.error_count = np.bincount(
            names[np.asarray(tracer.errors, dtype=np.intp)], minlength=n_names
        )

    def _id(self, name: str) -> int:
        return self._index[name]

    def count(self, name: str) -> int:
        return int(self.calls[self._id(name)])

    def errors(self, name: str) -> int:
        return int(self.error_count[self._id(name)])

    def total_seconds(self, name: str) -> float:
        return float(self.total_s[self._id(name)])

    def self_seconds(self, name: str) -> float:
        return float(self.self_s[self._id(name)])

    def count_with_parent(self, name: str, parent: str) -> int:
        """Calls of ``name`` made directly from a span of ``parent``."""
        mask = self.span_names == self._id(name)
        parents = self.span_parents[mask]
        parents = parents[parents >= 0]
        return int(np.count_nonzero(self.span_names[parents] == self._id(parent)))

    def count_in_request(self, name: str, request: int) -> int:
        bounds = self.tracer.request_starts + [len(self.span_names)]
        spans = self.span_names[bounds[request]:bounds[request + 1]]
        return int(np.count_nonzero(spans == self._id(name)))
