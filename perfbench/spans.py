"""Timing the package's layers from outside.

A layer is one module of ``peermarket``. Its public functions are wrapped
at every name a caller looks them up by: ``cli`` and ``sweep`` import
``clear_market``, ``qp_reference``, ``build_gamma`` and others into their own
namespace, so patching only the defining module would miss those calls.
``patch_everywhere`` replaces the function object under every attribute of
every loaded ``peermarket`` module (and the package itself) that holds it.

Spans live in memory as ``[name, start, end, parent]`` rows and are
written out once the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time

# layer name -> (module, function names); the span name is the layer name.
LAYERS = {
    "scenario.load": ("scenario", ("load_scenario",)),
    "network.load": ("network", ("load_network",)),
    "community.load": ("community", ("load_agents",)),
    "distances.matrix": ("distances", ("distance_matrix",)),
    "distances.zone_crossing": ("distances", ("zone_crossing_matrix",)),
    "policies.build_gamma": ("policies", ("build_gamma",)),
    "engine": ("engine", ("clear_market",)),
    "oracle.qp": ("oracle", ("qp_reference",)),
    "oracle.bisection": ("oracle", ("bisection_clearing",)),
    "powerflow": ("powerflow", ("dc_power_flow", "line_rates", "congestion_report",
                                "interzone_exchange")),
    "reports": ("reports", ("write_trades", "write_residuals", "write_trade_edges",
                            "write_powerflow", "write_congestion", "write_metrics",
                            "write_sweep", "write_fee_curves", "write_rate_distribution",
                            "read_sweep")),
    "sweep": ("sweep", ("run_sweep", "recommend_fee")),
    "cli": ("cli", ("main",)),
}


def _package_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None and (name == "peermarket" or name.startswith("peermarket."))]


@contextlib.contextmanager
def patch_everywhere(original, replacement):
    """Swap ``original`` for ``replacement`` under every package name that
    holds it, and put the original back on exit."""
    patched = []
    for module in _package_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                patched.append((module, attr))
    if not patched:
        raise RuntimeError(f"{original!r} is not reachable from any peermarket module")
    try:
        yield
    finally:
        for module, attr in patched:
            setattr(module, attr, original)


class Tracer:
    """In-memory span recorder plus the per-call counters of each layer."""

    def __init__(self):
        self.spans = []
        self._open = []
        self.counters = {}

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name, fn, observe=None):
        spans, stack = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, package):
        """Wrap every function of LAYERS for the duration of the block."""
        with contextlib.ExitStack() as stack:
            for layer, (module_name, functions) in LAYERS.items():
                module = getattr(package, module_name)
                for fn_name in functions:
                    original = getattr(module, fn_name)
                    observe = _OBSERVERS.get(fn_name)
                    stack.enter_context(
                        patch_everywhere(original, self.wrap(layer, original, observe)))
            yield self

    def busy(self, name):
        """Seconds inside ``name`` spans, counting nested calls once."""
        total = 0.0
        for span_name, start, end, parent in self.spans:
            if span_name == name and not self._inside(parent, name):
                total += end - start
        return total

    def calls(self, name):
        return sum(1 for span in self.spans if span[0] == name)

    def self_time(self, name):
        """Seconds in ``name`` spans not covered by their direct children."""
        total = 0.0
        for span_name, start, end, _ in self.spans:
            if span_name == name:
                total += end - start
        for span_name, start, end, parent in self.spans:
            if parent >= 0 and self.spans[parent][0] == name:
                total -= end - start
        return total

    def _inside(self, parent, name):
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def rows(self):
        return [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans]


def _observe_engine(tracer, args, kwargs, result):
    config = args[2] if len(args) > 2 else kwargs.get("config")
    tracer.count("engine.iterations", result.iterations)
    tracer.counters["engine.iterations_max"] = max(
        tracer.counters.get("engine.iterations_max", 0), result.iterations)
    tracer.count("engine.converged", int(bool(result.converged)))
    cap = config.max_iterations if config is not None else None
    if not result.converged and (cap is None or result.iterations >= cap):
        tracer.count("engine.cap_stops")


def _observe_qp(tracer, args, kwargs, result):
    history = result.objective_history
    tracer.count("oracle.qp_iterations", len(history) - 1 if history is not None else 0)


def _observe_flow(tracer, args, kwargs, result):
    tracer.count("powerflow.calls")


def _observe_report(tracer, args, kwargs, result):
    path = args[0] if args else kwargs.get("path")
    if os.path.isfile(path):
        tracer.count("reports.files")
        tracer.count("reports.bytes", os.path.getsize(path))


_OBSERVERS = {
    "clear_market": _observe_engine,
    "qp_reference": _observe_qp,
    "dc_power_flow": _observe_flow,
    **{name: _observe_report for name in LAYERS["reports"][1] if name.startswith("write_")},
}
