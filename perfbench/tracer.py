"""Span tracer wrapped around the simulator's public entry points.

The benchmark measures each layer from outside: :meth:`Tracer.install`
replaces a fixed list of public functions and methods of the ``repro``
package with timing wrappers, and :meth:`Tracer.uninstall` puts the
originals back, so an untraced pass in the same process runs the
unmodified code. Spans (layer, start, end, parent, scenario, request)
are kept in memory and written out by :meth:`Tracer.write`; self time
is a span's duration minus the time its child spans cover.

Span keys are ``<layer>.<entry point>``; layers follow the ``repro``
modules (``quant``, ``packing``, ``sim``, ``surface``, ``store``,
``serving``, ``routing``, ``fleet``). ``bench.*`` spans mark the
queries, scenarios and grid points the workload itself issues, so every
layer span has a root.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple

# Layers whose nested calls into the same layer are one span: a surface
# ``decode_run`` that calls ``decode`` is one lookup, an
# ``advance_until`` that calls ``advance_one`` is one advance.
_OUTERMOST_ONLY = frozenset({"surface", "serving", "routing"})


class Tracer:
    """In-memory span recorder with per-key counts and self times."""

    def __init__(self) -> None:
        self.keys: List[str] = []
        self._key_id: Dict[str, int] = {}
        # Column store: one entry per recorded span.
        self.span_id = array("q")
        self.span_key = array("h")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_scenario = array("q")
        self.span_request = array("q")
        self.calls: Dict[str, int] = defaultdict(int)
        self.total_ns: Dict[str, int] = defaultdict(int)
        self.self_ns: Dict[str, int] = defaultdict(int)
        #: Surface lookups that ran the simulator at least once.
        self.surface_misses = 0
        #: Sums of the counts SurfaceStore.load / .save return.
        self.store_loaded = 0
        self.store_saved = 0
        #: Deepest shard backlog (waiting + decoding) any snapshot saw.
        self.peak_in_system = 0
        #: Tag stamped on every span; the workload sets it per scenario.
        self.scenario = -1
        self._next_id = 0
        self._sim_calls = 0
        self._gen_calls = 0
        self._stack: List[list] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # ---------------------------------------------------------- recording
    def _key(self, key: str) -> int:
        if key not in self._key_id:
            self._key_id[key] = len(self.keys)
            self.keys.append(key)
        return self._key_id[key]

    def wrap(
        self,
        key: str,
        fn: Callable,
        request_of: Optional[Callable[[tuple, dict], int]] = None,
        keep: Optional[Callable[[list, Any], bool]] = None,
    ) -> Callable:
        """Return ``fn`` timed as span ``key``.

        ``keep(frame, result)`` may drop a span (its time then stays
        with the caller); ``request_of(args, kwargs)`` tags it with a
        request id.
        """
        tracer = self
        layer = key.split(".", 1)[0]
        key_id = self._key(key)
        outermost_only = layer in _OUTERMOST_ONLY

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if outermost_only and stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            # [id, layer, start, child ns, parent, (sim, gen) counters]
            frame = [span_id, layer, 0, 0, stack[-1][0] if stack else -1,
                     (tracer._sim_calls, tracer._gen_calls)]
            stack.append(frame)
            result = None
            frame[2] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                if keep is None or keep(frame, result):
                    duration = end - frame[2]
                    tracer.calls[key] += 1
                    tracer.total_ns[key] += duration
                    tracer.self_ns[key] += duration - frame[3]
                    tracer.span_id.append(span_id)
                    tracer.span_key.append(key_id)
                    tracer.span_start.append(frame[2])
                    tracer.span_end.append(end)
                    tracer.span_parent.append(frame[4])
                    tracer.span_scenario.append(tracer.scenario)
                    tracer.span_request.append(
                        request_of(args, kwargs) if request_of else -1
                    )
                    if stack:
                        stack[-1][3] += duration

        return wrapper

    # ------------------------------------------------------------ patching
    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _patch_methods(self, cls: type, names: Tuple[str, ...], layer: str, **kw) -> None:
        for name in names:
            self._patch(cls, name, self.wrap(f"{layer}.{name}", cls.__dict__[name], **kw))

    def _counting(self, counter: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            setattr(self, counter, getattr(self, counter) + 1)
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Wrap every traced entry point of the ``repro`` package."""
        from repro.fleet import routing
        from repro.fleet.simulator import FleetSimulator
        from repro.packing.planner import PackingPlanner
        from repro.quant import synthetic
        from repro.serving.scheduler import ContinuousBatchingScheduler
        from repro.sim.layer_sim import WorkloadSimulator
        from repro.sim.surface import LatencySurface
        from repro.sim.surface_store import SurfaceStore

        tracer = self

        # Synthetic weight generation, wherever a repro module bound it.
        original = synthetic.generate_int8_weights
        gen = self._counting(
            "_gen_calls", self.wrap("quant.generate_int8_weights", original)
        )
        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and module.__dict__.get(
                "generate_int8_weights"
            ) is original:
                self._patch(module, "generate_int8_weights", gen)

        # A stats_for call is packing work only when it generated a
        # matrix; cache hits are dropped.
        self._patch_methods(
            PackingPlanner, ("stats_for",), "packing",
            keep=lambda frame, _r: tracer._gen_calls != frame[5][1],
        )
        self._patch(WorkloadSimulator, "simulate", self._counting(
            "_sim_calls", self.wrap("sim.simulate", WorkloadSimulator.__dict__["simulate"])
        ))

        def surface_keep(frame, _result):
            if tracer._sim_calls != frame[5][0]:
                tracer.surface_misses += 1
            return True

        self._patch_methods(
            LatencySurface,
            ("prefill", "decode", "decode_run", "decode_run_many", "queued_prefill_s"),
            "surface", keep=surface_keep,
        )

        def store_keep(attr):
            def keep(_frame, result):
                if isinstance(result, int):
                    setattr(tracer, attr, getattr(tracer, attr) + result)
                return True

            return keep

        self._patch_methods(SurfaceStore, ("load",), "store", keep=store_keep("store_loaded"))
        self._patch_methods(SurfaceStore, ("save",), "store", keep=store_keep("store_saved"))
        self._patch_methods(
            ContinuousBatchingScheduler, ("advance_until", "advance_one"), "serving"
        )

        def snapshot_keep(_frame, snap):
            if snap is not None and snap.n_in_system > tracer.peak_in_system:
                tracer.peak_in_system = snap.n_in_system
            return True

        self._patch_methods(
            ContinuousBatchingScheduler, ("snapshot",), "routing", keep=snapshot_keep
        )

        def request_id(args, kwargs):
            return getattr(args[1] if len(args) > 1 else None, "request_id", -1)

        for cls in vars(routing).values():
            if isinstance(cls, type) and issubclass(cls, routing.RoutingPolicy):
                for name in ("route", "predicted_ttft_s", "observe"):
                    if name in cls.__dict__:
                        self._patch_methods(cls, (name,), "routing", request_of=request_id)
        self._patch_methods(FleetSimulator, ("run",), "fleet")

    def uninstall(self) -> None:
        """Restore every wrapped entry point."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # --------------------------------------------------------------- output
    def layer_self_s(self, layer: str) -> float:
        """Self time of every span key of one layer, in seconds."""
        prefix = layer + "."
        return sum(ns for key, ns in self.self_ns.items() if key.startswith(prefix)) / 1e9

    def layer_calls(self, layer: str, names: Tuple[str, ...]) -> int:
        """Spans recorded for the given entry points of one layer."""
        return sum(self.calls[f"{layer}.{name}"] for name in names)

    def write(self, path, meta: Dict[str, Any]) -> None:
        """Write every span as one JSON document (columns, ns clock)."""
        doc = {
            "meta": meta,
            "keys": self.keys,
            "spans": {
                "id": self.span_id.tolist(),
                "key": self.span_key.tolist(),
                "start_ns": self.span_start.tolist(),
                "end_ns": self.span_end.tolist(),
                "parent": self.span_parent.tolist(),
                "scenario": self.span_scenario.tolist(),
                "request": self.span_request.tolist(),
            },
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
