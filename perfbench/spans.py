"""Span recording for the traced run, installed from outside ``src/``.

A :class:`SpanRecorder` keeps every span (key, start, end, parent) in
flat arrays while the run goes on; nothing is aggregated on the hot path.
:func:`install_layer_spans` swaps a span-recording wrapper in for the
public entry points of each simulator layer, on their classes (or
modules), through a :class:`Patcher` that puts the originals back
afterwards, so the instances every case builds are traced without any
change to the program.

A span's *key* is its entry-point name plus the layer whose module
defines the method that ran (``core.split`` run by the Memory Mode
baseline is keyed ``("core.split", "baselines")``).  Self time is a
span's duration minus the durations of its direct children; summed by
layer over the spans below ``sim.run`` it adds up to the engine time.
"""

from __future__ import annotations

import json
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: the simulator's layers (``repro`` subpackages) plus the benchmark's own
LAYERS = ("sim", "mem", "core", "baselines", "workloads", "db", "colo",
          "serve", "obs", "bench")


def layer_of(obj) -> str:
    """``repro.<layer>...`` module of a class or function -> ``<layer>``."""
    parts = obj.__module__.split(".")
    return parts[1] if parts[0] == "repro" and len(parts) > 1 else "bench"


class SpanRecorder:
    """Flat, append-only span store with per-name event counts."""

    def __init__(self):
        self.keys: List[Tuple[str, str]] = []
        self._key_ids: Dict[Tuple[str, str], int] = {}
        self.span_key = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: Dict[str, float] = {}
        self._stack: List[int] = []

    def key(self, name: str, layer: str) -> int:
        pair = (name, layer)
        key_id = self._key_ids.get(pair)
        if key_id is None:
            key_id = self._key_ids[pair] = len(self.keys)
            self.keys.append(pair)
        return key_id

    def enter(self, key_id: int) -> None:
        stack = self._stack
        idx = len(self.span_key)
        self.span_key.append(key_id)
        self.span_parent.append(stack[-1] if stack else -1)
        self.span_end.append(0.0)
        stack.append(idx)
        self.span_start.append(time.perf_counter())

    def exit(self) -> None:
        t = time.perf_counter()
        self.span_end[self._stack.pop()] = t

    def depth(self) -> int:
        return len(self._stack)

    def unwind(self, depth: int) -> None:
        """Close spans left open by an exception, down to ``depth``."""
        while len(self._stack) > depth:
            self.exit()

    def count(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + amount

    # -- analysis ----------------------------------------------------------
    def columns(self):
        key = np.frombuffer(self.span_key, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        start = np.frombuffer(self.span_start, dtype=np.float64)
        end = np.frombuffer(self.span_end, dtype=np.float64)
        return key, parent, start, end

    def summary(self) -> dict:
        """Per-key self/total seconds and calls, plus the two sums.

        ``engine_s`` is the summed duration of the ``sim.run`` spans and
        ``engine_self_sum_s`` the summed self time of every span inside
        them (themselves included); ``roots_s`` is the summed duration of
        the root spans and ``self_sum_s`` the summed self time of all
        spans.  Each pair agrees up to rounding.
        """
        key, parent, start, end = self.columns()
        n = len(key)
        n_keys = len(self.keys)
        if n == 0:
            return {"self": {}, "total": {}, "calls": {}, "engine_s": 0.0,
                    "engine_self_sum_s": 0.0, "roots_s": 0.0,
                    "self_sum_s": 0.0, "spans": 0}
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=n)
        self_s = dur - child
        # Root of every span by pointer jumping (parents precede children).
        root = np.where(has_parent, parent, np.arange(n, dtype=np.int32))
        while True:
            nxt = root[root]
            if np.array_equal(nxt, root):
                break
            root = nxt
        run_key = self._key_ids.get(("sim.run", "sim"))
        in_engine = (key[root] == run_key) if run_key is not None \
            else np.zeros(n, dtype=bool)
        by_key_self = np.bincount(key, weights=self_s, minlength=n_keys)
        by_key_total = np.bincount(key, weights=dur, minlength=n_keys)
        by_key_calls = np.bincount(key, minlength=n_keys)
        return {
            "self": {self.keys[k]: float(by_key_self[k]) for k in range(n_keys)},
            "total": {self.keys[k]: float(by_key_total[k])
                      for k in range(n_keys)},
            "calls": {self.keys[k]: int(by_key_calls[k])
                      for k in range(n_keys)},
            "engine_s": float(dur[key == run_key].sum())
            if run_key is not None else 0.0,
            "engine_self_sum_s": float(self_s[in_engine].sum()),
            "roots_s": float(dur[~has_parent].sum()),
            "self_sum_s": float(self_s.sum()),
            "spans": n,
        }

    def save(self, path: Path) -> None:
        """Write the spans as numpy columns plus the key table."""
        path.parent.mkdir(parents=True, exist_ok=True)
        key, parent, start, end = self.columns()
        with open(path, "wb") as fh:
            np.savez(fh, key=key, parent=parent, start=start, end=end,
                     keys=np.array(json.dumps(self.keys)),
                     counts=np.array(json.dumps(self.counts)))


class Patcher:
    """Swap attributes on classes/modules and restore them exactly."""

    def __init__(self):
        self._saved: List[Tuple[object, str, object]] = []

    def patch(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)


def _span(rec: SpanRecorder, fn: Callable, key_id: int,
          counter: Optional[Callable] = None) -> Callable:
    enter, exit_ = rec.enter, rec.exit
    if counter is None:
        def wrapper(*args, **kwargs):
            enter(key_id)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()
    else:
        name = rec.keys[key_id][0]
        stack, keys, span_key = rec._stack, rec.keys, rec.span_key

        def wrapper(*args, **kwargs):
            enter(key_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                exit_()
            # count at the outermost span of an entry point only (the
            # colocation workload's access_mix calls its tenants')
            if not stack or keys[span_key[stack[-1]]][0] != name:
                counter(rec, args, out)
            return out
    wrapper.__wrapped__ = fn
    return wrapper


def _service_span(rec: SpanRecorder, fn: Callable, layer: str,
                  fixed: Optional[str]) -> Callable:
    """Service runs are keyed by the instance's service name."""
    enter, exit_, key = rec.enter, rec.exit, rec.key
    ids: Dict[str, int] = {}

    def wrapper(self, *args, **kwargs):
        name = self.name
        key_id = ids.get(name)
        if key_id is None:
            key_id = ids[name] = key(
                fixed or f"{layer}.service.{name}", layer)
        enter(key_id)
        try:
            return fn(self, *args, **kwargs)
        finally:
            exit_()
    wrapper.__wrapped__ = fn
    return wrapper


def _subclasses(base) -> List[type]:
    out, todo = [], [base]
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return sorted(set(out), key=lambda c: (c.__module__, c.__qualname__))


def _counting(name: str, measure: Callable) -> Callable:
    def counter(rec, args, out):
        rec.count(name, measure(args, out))
    return counter


def _feed_span(rec: SpanRecorder, fn: Callable, key_id: int) -> Callable:
    """PebsUnit.feed: records built are its return value, records dropped
    the delta of the unit's public drop counter."""
    enter, exit_, count = rec.enter, rec.exit, rec.count

    def wrapper(self, *args, **kwargs):
        enter(key_id)
        try:
            before = self.records_dropped
            out = fn(self, *args, **kwargs)
            dropped = self.records_dropped - before
        finally:
            exit_()
        count("mem.pebs.records_built", out)
        count("mem.pebs.records_dropped", dropped)
        return out
    wrapper.__wrapped__ = fn
    return wrapper


def import_layers() -> None:
    """Import every module a case may import lazily, so that no round
    (the first included) pays for imports inside its timing."""
    import repro.api  # noqa: F401
    import repro.bench.experiments  # noqa: F401
    import repro.colo  # noqa: F401
    import repro.db.workload  # noqa: F401
    import repro.obs.telemetry  # noqa: F401
    import repro.serve.fleet  # noqa: F401


def install_layer_spans(rec: SpanRecorder, patcher: Patcher) -> None:
    """Wrap every layer entry point the benchmark reports on."""
    # Local imports: the program is importable only after run.py has put
    # the checkout's src/ on sys.path.
    import repro.serve
    import repro.serve.arrivals
    import repro.serve.fleet
    from repro.colo.arbiter import DramArbiter
    from repro.colo.manager import ColoManager
    from repro.core.base import TieredMemoryManager
    from repro.core.sources import PebsSource
    from repro.core.tracking import HotColdTracker
    from repro.db.adapter import TpccAccessModel
    from repro.db.engine import TpccEngine
    from repro.mem.machine import Machine
    from repro.mem.pebs import PebsUnit
    from repro.obs.metrics import MetricsSampler
    from repro.obs.telemetry import Collector, TelemetrySession
    from repro.serve.controller import SloController
    from repro.serve.monitor import FleetMonitor
    from repro.sim.engine import Engine
    from repro.sim.service import Service
    from repro.workloads.base import Workload

    def span(owner, attr, name, counter=None):
        fn = owner.__dict__[attr]
        if getattr(fn, "__isabstractmethod__", False):
            return
        key_id = rec.key(name, layer_of(owner))
        patcher.patch(owner, attr, _span(rec, fn, key_id, counter))

    span(Engine, "run", "sim.run")
    span(Engine, "step", "sim.step")
    span(Machine, "begin_tick", "mem.movers")
    span(Machine, "end_tick", "mem.end_tick")
    span(Machine, "resolve", "mem.resolve",
         _counting("mem.resolve.streams", lambda a, out: len(a[1])))
    patcher.patch(PebsUnit, "feed", _feed_span(
        rec, PebsUnit.__dict__["feed"], rec.key("mem.pebs.feed", "mem")))
    span(PebsUnit, "drain", "mem.pebs.drain",
         _counting("mem.pebs.records_drained", lambda a, out: len(out)))
    # the record samplers the feed calls back: PEBS record generation
    span(PebsSource, "_tier_records", "core.pebs.sample")
    span(PebsSource, "_store_records", "core.pebs.sample")
    span(HotColdTracker, "record_samples", "core.tracker.record_samples",
         _counting("core.tracker.samples_applied", lambda a, out: len(a[1])))

    for cls in _subclasses(TieredMemoryManager):
        for attr, name in (("split_by_tier", "core.split"),
                           ("observe", "core.observe"),
                           ("end_tick", "core.end_tick")):
            if attr in cls.__dict__:
                span(cls, attr, name)
    span(ColoManager, "_admit", "colo.tenant_setup")
    span(ColoManager, "setup_tenant_workload", "colo.tenant_setup")

    fixed = {DramArbiter: "colo.arbiter", FleetMonitor: "serve.monitor",
             SloController: "serve.controller"}
    for cls in _subclasses(Service):
        run = cls.__dict__.get("run")
        if run is not None and not getattr(run, "__isabstractmethod__", False):
            patcher.patch(cls, "run", _service_span(
                rec, cls.__dict__["run"], layer_of(cls), fixed.get(cls)))

    for cls in _subclasses(Workload):
        if "access_mix" in cls.__dict__:
            span(cls, "access_mix", "workloads.access_mix",
                 _counting("workloads.streams", lambda a, out: len(out)))
        if "on_progress" in cls.__dict__:
            span(cls, "on_progress", "workloads.on_progress")
        if "setup" in cls.__dict__:
            span(cls, "setup", f"{layer_of(cls)}.setup")

    span(TpccEngine, "run_one", "db.txn_exec",
         _counting("db.txns", lambda a, out: 1))
    span(TpccAccessModel, "price_txn", "db.price")
    span(TpccAccessModel, "txn_latency_percentiles", "db.latency_mc")
    span(MetricsSampler, "sample", "obs.metrics_sample")
    span(TelemetrySession, "emit", "obs.telemetry_emit",
         _counting("obs.snapshots", lambda a, out: 1))
    span(Collector, "collect", "obs.collect")

    # compile_fleet is a module function imported by name into its callers
    original = repro.serve.arrivals.compile_fleet
    traced = _span(rec, original, rec.key("serve.compile", "serve"))
    for module in (repro.serve.arrivals, repro.serve.fleet, repro.serve):
        if module.__dict__.get("compile_fleet") is original:
            patcher.patch(module, "compile_fleet", traced)
