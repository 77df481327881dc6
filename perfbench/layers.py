"""Per-layer metrics of a traced run, derived from its spans and counters.

Every ``_s`` metric is seconds of *self* time per round (a span's time
minus its children's), averaged over the traced rounds; counts are per
round too.  Entry-point metrics sum a span name over every layer that
ran it (``core.split_s`` covers HeMem, the baselines, the buffer pool and
the colocation manager alike); ``layer.<name>_s`` sums every span a
layer's modules ran, so the ``layer.*`` metrics add up to the traced
round time, and their in-engine parts add up to the engine time.
"""

from __future__ import annotations

import statistics
from typing import Callable, Dict, List, Tuple

from spans import LAYERS, SpanRecorder

#: per-layer metrics: (name, unit, better)
METRICS: List[Tuple[str, str, str]] = [
    ("sim.step_s", "s", "lower"),
    ("sim.engine_self_s", "s", "lower"),
    ("mem.movers_s", "s", "lower"),
    ("mem.resolve_s", "s", "lower"),
    ("mem.resolve.streams", "count", "higher"),
    ("mem.pebs.feed_s", "s", "lower"),
    ("mem.pebs.drain_s", "s", "lower"),
    ("mem.pebs.records_built", "count", "lower"),
    ("mem.pebs.records_dropped", "count", "lower"),
    ("mem.pebs.records_drained", "count", "lower"),
    ("mem.pebs.ns_per_record", "ns", "lower"),
    ("core.split_s", "s", "lower"),
    ("core.observe_s", "s", "lower"),
    ("core.end_tick_s", "s", "lower"),
    ("core.pebs.sample_s", "s", "lower"),
    ("core.service.pebs_drain_s", "s", "lower"),
    ("core.service.hemem_policy_s", "s", "lower"),
    ("core.tracker.record_samples_s", "s", "lower"),
    ("core.tracker.samples_applied", "count", "higher"),
    ("core.tracker.ns_per_sample", "ns", "lower"),
    ("core.pebs.applied_per_built", "ratio", "higher"),
    ("core.migrations", "pages", "lower"),
    ("core.bytes_moved", "bytes", "lower"),
    ("workloads.access_mix_s", "s", "lower"),
    ("workloads.streams", "count", "higher"),
    ("workloads.on_progress_s", "s", "lower"),
    ("db.setup_s", "s", "lower"),
    ("db.txn_exec_s", "s", "lower"),
    ("db.txns", "count", "higher"),
    ("db.price_s", "s", "lower"),
    ("db.latency_mc_s", "s", "lower"),
    ("colo.arbiter_s", "s", "lower"),
    ("colo.evicted_pages", "pages", "lower"),
    ("colo.tenant_setup_s", "s", "lower"),
    ("colo.end_tick_s", "s", "lower"),
    ("serve.compile_s", "s", "lower"),
    ("serve.monitor_s", "s", "lower"),
    ("serve.controller_s", "s", "lower"),
    ("serve.tenants", "count", "higher"),
    ("obs.metrics_sample_s", "s", "lower"),
    ("obs.telemetry_emit_s", "s", "lower"),
    ("obs.snapshots", "count", "higher"),
    ("obs.collect_s", "s", "lower"),
    ("bench.case_setup_s", "s", "lower"),
    ("bench.case_finish_s", "s", "lower"),
    ("bench.check_s", "s", "lower"),
    *[(f"layer.{layer}_s", "s", "lower") for layer in LAYERS],
    ("trace.engine_s", "s", "lower"),
    ("trace.engine_self_sum_s", "s", "lower"),
    ("trace.round_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]

#: entry-point ``_s`` metrics: metric -> (span name, layer or None = any)
SELF_TIME: Dict[str, Tuple[str, object]] = {
    "sim.engine_self_s": ("sim.step", None),
    "mem.movers_s": ("mem.movers", None),
    "mem.resolve_s": ("mem.resolve", None),
    "mem.pebs.feed_s": ("mem.pebs.feed", None),
    "mem.pebs.drain_s": ("mem.pebs.drain", None),
    "core.split_s": ("core.split", None),
    "core.observe_s": ("core.observe", None),
    "core.end_tick_s": ("core.end_tick", None),
    "core.pebs.sample_s": ("core.pebs.sample", None),
    "core.service.pebs_drain_s": ("core.service.pebs_drain", None),
    "core.service.hemem_policy_s": ("core.service.hemem_policy", None),
    "core.tracker.record_samples_s": ("core.tracker.record_samples", None),
    "workloads.access_mix_s": ("workloads.access_mix", None),
    "workloads.on_progress_s": ("workloads.on_progress", None),
    "db.setup_s": ("db.setup", None),
    "db.txn_exec_s": ("db.txn_exec", None),
    "db.price_s": ("db.price", None),
    "db.latency_mc_s": ("db.latency_mc", None),
    "colo.arbiter_s": ("colo.arbiter", None),
    "colo.tenant_setup_s": ("colo.tenant_setup", None),
    "colo.end_tick_s": ("core.end_tick", "colo"),
    "serve.compile_s": ("serve.compile", None),
    "serve.monitor_s": ("serve.monitor", None),
    "serve.controller_s": ("serve.controller", None),
    "obs.metrics_sample_s": ("obs.metrics_sample", None),
    "obs.telemetry_emit_s": ("obs.telemetry_emit", None),
    "obs.collect_s": ("obs.collect", None),
    "bench.case_setup_s": ("bench.case_setup", None),
    "bench.case_finish_s": ("bench.case_finish", None),
    "bench.check_s": ("bench.check", None),
}

#: counts taken from the span wrappers
SPAN_COUNTS = ("mem.resolve.streams", "mem.pebs.records_built",
               "mem.pebs.records_dropped", "mem.pebs.records_drained",
               "core.tracker.samples_applied", "workloads.streams",
               "db.txns", "obs.snapshots")


def _sum_where(table: Dict[Tuple[str, str], float],
               keep: Callable[[str, str], bool]) -> float:
    return sum(v for (name, layer), v in table.items() if keep(name, layer))


def _case_counts(rounds) -> Dict[str, float]:
    """Simulated counts read off the machines the traced cases built."""
    out = {"core.migrations": 0.0, "core.bytes_moved": 0.0,
           "colo.evicted_pages": 0.0, "serve.tenants": 0.0}
    for rnd in rounds:
        for o in rnd.outcomes:
            for key, value in o.ctx.counters.items():
                if key.endswith(".pages_migrated"):
                    out["core.migrations"] += value
                elif key.endswith(".bytes_moved"):
                    out["core.bytes_moved"] += value
                elif key == "colo.evicted_pages":
                    out["colo.evicted_pages"] += value
            if "specs" in o.ctx.data and o.ctx.engine is not None:
                out["serve.tenants"] += len(o.ctx.engine.manager.all_tenants())
    return out


def per_layer(rec: SpanRecorder, rounds) -> Tuple[Dict[str, dict], List[str]]:
    """The per-layer metrics, and any accounting problem found."""
    summary = rec.summary()
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    n = len(traced)
    self_t, total_t = summary["self"], summary["total"]
    values: Dict[str, float] = {}
    for metric, (span, only) in SELF_TIME.items():
        values[metric] = _sum_where(
            self_t, lambda s, layer: s == span and only in (None, layer)) / n
    values["sim.step_s"] = _sum_where(total_t, lambda s, _l: s == "sim.step") / n
    for name in SPAN_COUNTS:
        values[name] = rec.counts.get(name, 0.0) / n
    for name, value in _case_counts(traced).items():
        values[name] = value / n
    built = values["mem.pebs.records_built"]
    applied = values["core.tracker.samples_applied"]
    pebs_s = (values["mem.pebs.feed_s"] + values["core.pebs.sample_s"]
              + values["mem.pebs.drain_s"])
    values["mem.pebs.ns_per_record"] = pebs_s / built * 1e9 if built else 0.0
    values["core.tracker.ns_per_sample"] = (
        values["core.tracker.record_samples_s"] / applied * 1e9
        if applied else 0.0)
    values["core.pebs.applied_per_built"] = applied / built if built else 0.0
    for layer in LAYERS:
        values[f"layer.{layer}_s"] = _sum_where(
            self_t, lambda _s, lay: lay == layer) / n
    values["trace.engine_s"] = summary["engine_s"] / n
    values["trace.engine_self_sum_s"] = summary["engine_self_sum_s"] / n
    values["trace.round_s"] = summary["self_sum_s"] / n
    values["trace.spans"] = summary["spans"] / n
    traced_wall = statistics.median(r.wall_s for r in traced)
    plain_wall = statistics.median(r.wall_s for r in plain)
    values["trace.overhead_s"] = traced_wall - plain_wall
    values["trace.overhead_frac"] = (traced_wall - plain_wall) / plain_wall

    problems = []
    if abs(summary["engine_self_sum_s"] - summary["engine_s"]) \
            > 1e-6 * summary["engine_s"] + 1e-6:
        problems.append(f"in-engine self times sum to "
                        f"{summary['engine_self_sum_s']:.6f}s, engine ran "
                        f"{summary['engine_s']:.6f}s")
    if abs(summary["self_sum_s"] - summary["roots_s"]) \
            > 1e-6 * summary["roots_s"] + 1e-6:
        problems.append(f"self times sum to {summary['self_sum_s']:.6f}s, "
                        f"root spans ran {summary['roots_s']:.6f}s")
    other = {lay for (_s, lay) in self_t if lay not in LAYERS}
    if other:
        problems.append(f"spans in unlisted layers {sorted(other)}")
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit, _better in METRICS}
    return metrics, problems
