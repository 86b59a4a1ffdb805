"""Outside-in layer tracing for the benchmark.

The tracer wraps the entry points of each simulator layer at class
level, from outside the program: every wrapped call is a span, and a
layer's self time is its spans' wall time minus the time of the spans
nested inside them.  Patching happens before a system is built, so the
bound methods the simulator caches at construction (engine callbacks,
core hooks) resolve to the wrappers too.  Wrappers only time and count;
they never change arguments, results or call order, so a traced run
gives the same result digest as an untraced one.

Besides each layer's public entry points, the wrapper table covers the
callbacks the engine drains (``L1Node._complete``, ``Core._issue_load``,
``DramChannel._finish``, ...), so that ``engine`` self time is the event
loop itself and not the work it dispatches.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Every layer the benchmark reports, in report order.
LAYERS = ("cpu", "cpu.branch", "clip", "prefetch", "hierarchy", "cache",
          "noc", "dram", "engine", "trace", "system", "energy", "store",
          "sweep")

#: (module, class, methods, layer).  A method a later refactor removes
#: is skipped rather than failing the traced run.
CLASS_SPANS: Tuple[Tuple[str, str, Tuple[str, ...], str], ...] = (
    ("repro.cpu.core_model", "Core",
     ("tick", "_issue_load", "_on_load_response"), "cpu"),
    ("repro.cpu.branch", "HashedPerceptronPredictor",
     ("predict_and_train",), "cpu.branch"),
    ("repro.core.clip", "Clip",
     ("filter_request", "on_l1d_access", "on_l1d_miss",
      "on_prefetch_issued", "_on_branch", "_on_load_dispatch",
      "_on_load_response"), "clip"),
    ("repro.sim.hierarchy.l1", "L1Node",
     ("issue_load", "issue_store", "issue_prefetch", "request",
      "_load_after_translation", "_store_after_translation",
      "_forward_to_l2", "_complete", "_hermes_done"), "hierarchy"),
    ("repro.sim.hierarchy.l2", "L2Node",
     ("request", "complete", "_to_llc", "_writeback",
      "accept_writeback"), "hierarchy"),
    ("repro.sim.hierarchy.llc", "LlcSlice",
     ("lookup", "fill", "_issue_dram_read", "_dram_done", "_deliver",
      "_return_data"), "hierarchy"),
    ("repro.sim.hierarchy.filters", "PrefetchFilterChain",
     ("handle", "note_demand_access"), "hierarchy"),
    ("repro.sim.hierarchy.port", "Port", ("replay",), "hierarchy"),
    ("repro.sim.hierarchy.noc_link", "NocLink",
     ("request", "data"), "hierarchy"),
    ("repro.sim.hierarchy.dram_port", "DramPort",
     ("read", "write"), "hierarchy"),
    ("repro.cache.cache", "Cache",
     ("access", "fill", "probe", "invalidate"), "cache"),
    ("repro.noc.mesh", "MeshNoc", ("send",), "noc"),
    ("repro.dram.controller", "DramSystem", ("read", "write"), "dram"),
    ("repro.dram.controller", "DramChannel", ("_finish",), "dram"),
    ("repro.sim.engine", "Engine", ("run",), "engine"),
    ("repro.trace.synthetic", "SyntheticWorkload", ("generate",), "trace"),
    ("repro.sim.system", "MulticoreSystem", ("__init__", "run"), "system"),
    ("repro.experiments.sweep", "ResultStore", ("save", "load"), "store"),
)

#: Module-level functions: (module, binding, layer).  The span goes on
#: the binding the caller looks up at call time: ``MulticoreSystem``
#: imports ``dynamic_energy`` when it collects, and ``api.sweep`` calls
#: the ``run_sweep`` that ``repro.api`` imported by name.
FUNCTION_SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.energy.model", "dynamic_energy", "energy"),
    ("repro.api", "run_sweep", "sweep"),
)


class LayerTracer:
    """Span stack plus per-layer self time, call counts and inclusive
    time per wrapped entry point."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.calls: Dict[str, int] = {layer: 0 for layer in LAYERS}
        #: Inclusive seconds per entry point, keyed "Class.method".
        self.inclusive_s: Dict[str, float] = {}
        #: Events the traced engines drained.
        self.events = 0
        # One slot per open span: seconds covered by its child spans.
        self._stack: List[float] = []
        self._restore: List[Tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------

    def _span(self, fn: Callable, layer: str, key: str) -> Callable:
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        inclusive = self.inclusive_s
        inclusive.setdefault(key, 0.0)
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            start = clock()
            stack.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                self_s[layer] += elapsed - children
                calls[layer] += 1
                inclusive[key] += elapsed
                if stack:
                    stack[-1] += elapsed

        return span

    def _patch(self, owner: object, name: str, layer: str,
               key: str) -> None:
        original = owner.__dict__.get(name) if isinstance(owner, type) \
            else getattr(owner, name, None)
        if original is None:
            return
        wrapped = self._span(original, layer, key)
        if key == "Engine.run":
            wrapped = self._count_events(wrapped)
        self._restore.append((owner, name, original))
        setattr(owner, name, wrapped)

    def _count_events(self, run: Callable) -> Callable:
        def counted(engine, *args, **kwargs):
            before = engine.events_processed
            try:
                return run(engine, *args, **kwargs)
            finally:
                self.events += engine.events_processed - before
        return counted

    def install(self) -> None:
        """Wrap every entry point; call before building a system."""
        for module_name, class_name, methods, layer in CLASS_SPANS:
            cls = getattr(importlib.import_module(module_name), class_name)
            for method in methods:
                self._patch(cls, method, layer, f"{class_name}.{method}")
        for cls, methods in _prefetcher_classes():
            for method in methods:
                self._patch(cls, method, "prefetch",
                            f"{cls.__name__}.{method}")
        for module_name, name, layer in FUNCTION_SPANS:
            module = importlib.import_module(module_name)
            self._patch(module, name, layer, name)

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    # -- accounting ----------------------------------------------------------

    def reset(self) -> None:
        for layer in LAYERS:
            self.self_s[layer] = 0.0
            self.calls[layer] = 0
        for key in self.inclusive_s:
            self.inclusive_s[key] = 0.0
        self.events = 0
        self._stack.clear()

    def snapshot(self) -> Dict:
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "inclusive_s": dict(self.inclusive_s),
                "events": self.events}


def merge(snapshots: List[Dict]) -> Dict:
    """Sum several :meth:`LayerTracer.snapshot` payloads."""
    total: Dict = {"self_s": {layer: 0.0 for layer in LAYERS},
                   "calls": {layer: 0 for layer in LAYERS},
                   "inclusive_s": {}, "events": 0}
    for snap in snapshots:
        for layer in LAYERS:
            total["self_s"][layer] += snap["self_s"].get(layer, 0.0)
            total["calls"][layer] += snap["calls"].get(layer, 0)
        for key, value in snap["inclusive_s"].items():
            total["inclusive_s"][key] = \
                total["inclusive_s"].get(key, 0.0) + value
        total["events"] += snap["events"]
    return total


def _prefetcher_classes() -> List[Tuple[type, Tuple[str, ...]]]:
    """Every loaded prefetcher class that defines its own ``on_access``
    or ``on_fill``; the configured one is among them."""
    base = importlib.import_module("repro.prefetch.base").Prefetcher
    importlib.import_module("repro.prefetch")
    found, todo = [], [base]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        own = tuple(m for m in ("on_access", "on_fill") if m in cls.__dict__)
        if own and cls is not base:
            found.append((cls, own))
    return found


# -- pool workers ----------------------------------------------------------

#: The tracer of this process while a traced campaign runs.  Pool
#: workers forked from it inherit the patched classes and this
#: reference; each worker spills its spans to ``_SPILL_DIR`` per point.
_ACTIVE: Optional[LayerTracer] = None
_SPILL_DIR: Optional[str] = None
_ORIGINAL_EXECUTE: Optional[Callable] = None


def traced_execute_spec(spec, backend=None):
    """Stand-in for ``repro.experiments.sweep.execute_spec`` in a traced
    campaign: runs the point under a fresh span stack and writes that
    point's spans to the spill directory, which the parent merges."""
    tracer = _ACTIVE
    tracer.reset()
    data = _ORIGINAL_EXECUTE(spec, backend)
    path = os.path.join(_SPILL_DIR, f"spans-{os.getpid()}-"
                        f"{time.perf_counter_ns()}.json")
    with open(path, "w") as stream:
        json.dump(tracer.snapshot(), stream)
    return data


def trace_campaign_workers(tracer: LayerTracer, spill_dir: str) -> None:
    """Route the sweep's pool workers through :func:`traced_execute_spec`.

    Call after :meth:`LayerTracer.install` in the process that will run
    the sweep; the workers are forked from it.
    """
    global _ACTIVE, _SPILL_DIR, _ORIGINAL_EXECUTE
    sweep = importlib.import_module("repro.experiments.sweep")
    _ACTIVE, _SPILL_DIR = tracer, spill_dir
    _ORIGINAL_EXECUTE = sweep.execute_spec
    sweep.execute_spec = traced_execute_spec
