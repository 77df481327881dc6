"""The benchmark's three workloads: their cases, probes and checks.

A workload is a fixed list of simulation cases (*operations*) built from
the registered experiments' own case functions, plus the checks that
decide whether each operation's simulated output is right.  Checks
compare against quantities the benchmark recomputes itself (event counts
recounted from the ``observe`` arguments, price bounds from the device
constants, the binomial spread of the TPC-C mix) or against properties
the method must have; none compares against a stored copy of an output.

Probes are the light hooks the checks need in every run, traced or not:
a wrapper on ``Engine.run`` that times set-up, engine and finish per
case and hands the engine to the workload, and a few per-workload
wrappers that record what the checks compare against.
"""

from __future__ import annotations

import inspect
import json
import math
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import numpy as np

#: fast-preset sizing (scale 64), as ``bench --preset fast`` runs it
FAST = dict(scale=64.0, duration=24.0, warmup=8.0)


def scenario(**kw):
    from repro.bench.scenario import Scenario

    return Scenario(**{**FAST, **kw})


@dataclass
class Op:
    """One simulation case: ``run()`` returns the case function's result."""

    key: str
    run: Callable[[], Any]
    meta: Dict[str, Any] = field(default_factory=dict)


@dataclass
class CaseCtx:
    """What one case left behind for the timers, checks and digest."""

    key: str
    start: float = 0.0
    end: float = 0.0
    run_start: Optional[float] = None
    engine_s: float = 0.0
    ticks: int = 0
    engine: Any = None
    counters: Dict[str, float] = field(default_factory=dict)
    data: Dict[str, Any] = field(default_factory=dict)

    @property
    def setup_s(self) -> float:
        return (self.run_start if self.run_start is not None
                else self.end) - self.start


@dataclass
class Outcome:
    op: Op
    ctx: CaseCtx
    result: Any = None
    error: Optional[str] = None


def jsonable(obj):
    """Canonical JSON form of a case result (numpy scalars included)."""
    return json.loads(json.dumps(obj, sort_keys=True, default=_default))


def _default(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-able: {type(obj).__name__}")


def _sum_suffix(counters: Dict[str, float], suffix: str) -> float:
    return sum(v for k, v in counters.items() if k.endswith(suffix))


class Workload:
    """Base: a seeded list of operations plus probes and checks."""

    name = ""
    why = ""

    def __init__(self, seed: int, length: float = 1.0):
        self.seed = seed
        self.length = length
        self.current: Optional[CaseCtx] = None

    def ops(self) -> List[Op]:
        raise NotImplementedError

    def probes(self, patch: Callable) -> None:
        """Install workload-specific class-level probes via ``patch``."""

    def on_engine(self, engine, ctx: CaseCtx) -> None:
        """Called once per case just before its engine runs."""

    def case_record(self, outcome: Outcome) -> Any:
        """The simulated outputs of one case that enter the digest."""
        return {"result": outcome.result, "counters": outcome.ctx.counters}

    def begin_round(self, workdir: Path) -> None:
        """Per-round preparation (not timed)."""

    def finish_round(self, outcomes: List[Outcome]) -> None:
        """Result assembly after the last case of a round (timed)."""

    def end_round(self) -> None:
        """Per-round clean-up (not timed)."""

    def check(self, outcomes: List[Outcome]) -> Dict[str, List[str]]:
        """Per operation key, the list of failed checks (empty = passed)."""
        return {o.op.key: self.check_case(o) for o in outcomes}

    def check_case(self, outcome: Outcome) -> List[str]:
        return []


# ---------------------------------------------------------------------------
# pebs-flood
# ---------------------------------------------------------------------------

class PebsFlood(Workload):
    """Fig 10's low end: GUPS 512 GB / 16 GB hot, raw PEBS period 100."""

    name = "pebs-flood"
    why = ("PEBS record generation, drain and the tracker do most of the "
           "work; the workload for any PEBS-path change")

    PERIOD = 100
    #: Seeded flood cases per round.  How much of the hot set HeMem gets
    #: into DRAM at this period depends on the seed (GUPS 0.065-0.093 over
    #: seeds 11-18), and with it the records built per virtual second, so
    #: one round averages several seeds' worth of work.
    FLOODS = 3
    #: the probe case runs on fixed inputs: its exact-accounting and
    #: hot-set residency checks fail at this period on every input tried
    PROBE_SEED = 42

    def ops(self) -> List[Op]:
        from repro.bench.experiments import fig10_pebs_period as fig10

        def case(seed, duration, **meta):
            scn = scenario(seed=seed, duration=duration, warmup=duration / 2)
            return Op(f"flood-{seed}" if not meta else "residency-probe",
                      lambda: fig10._case(scn, self.PERIOD, 0), meta)

        return [case(self.seed * self.FLOODS + i, 1.0 * self.length)
                for i in range(self.FLOODS)] + [
            case(self.PROBE_SEED, 1.0, probe=True)]

    def on_engine(self, engine, ctx: CaseCtx) -> None:
        manager = engine.manager
        pebs = engine.machine.pebs
        events = ctx.data["events"] = {"dram": 0.0, "nvm": 0.0, "store": 0.0}
        drained = ctx.data["drained"] = []
        observe, drain = manager.observe, pebs.drain

        def observe_probe(stream, split, result, now, dt):
            if stream.region.managed:
                loads = result.ops * stream.reads_per_op
                dram = loads * split.dram_read_frac
                events["dram"] += dram
                events["nvm"] += loads - dram
                events["store"] += result.ops * stream.writes_per_op
                ctx.data["stream"] = stream
            observe(stream, split, result, now, dt)

        def drain_probe(max_records):
            out = drain(max_records)
            drained.append(len(out))
            return out

        manager.observe = observe_probe
        pebs.drain = drain_probe

    def case_record(self, outcome: Outcome) -> Any:
        record = super().case_record(outcome)
        record["events"] = outcome.ctx.data.get("events")
        return record

    def check_case(self, outcome: Outcome) -> List[str]:
        from repro.core.sources import _PebsDrainService
        from repro.mem.page import Tier

        ctx = outcome.ctx
        engine = ctx.engine
        errors = []
        pebs = engine.machine.pebs
        period = pebs.spec.sample_period * pebs.period_scale
        counters = ctx.counters
        expected = sum(ctx.data["events"].values()) / period
        sampled = counters["pebs.records"] + counters["pebs.dropped"]
        # Each of the three event kinds may hold back under one period.
        # The exact identity fails at this period on every input tried
        # (records the rejection sampler gives up on are counted nowhere),
        # so it is checked on the fixed-input probe; the seeded cases check
        # the bound no sampler may break.
        if sampled > expected + 3 + 1e-9 * expected or (
                outcome.op.meta.get("probe")
                and abs(sampled - expected) > 3 + 1e-9 * expected):
            errors.append(f"PEBS buffered+dropped {sampled:.0f} != events/"
                          f"period {expected:.2f}")
        cap = _PebsDrainService.APPLY_CAP_PER_TICK
        applied = sum(min(n, cap) for n in ctx.data["drained"])
        samples = _sum_suffix(counters, ".tracker.samples")
        if samples != applied:
            errors.append(f"tracker samples {samples:.0f} != sum of "
                          f"min(drained, {cap}) per tick {applied}")
        if outcome.op.meta.get("probe"):
            stream = ctx.data["stream"]
            weights = stream.weights
            hot = np.flatnonzero(weights > weights.min())
            in_dram = int(np.count_nonzero(stream.region.tier[hot]
                                           == int(Tier.DRAM)))
            if in_dram != len(hot):
                errors.append(f"hot set not DRAM-resident: {in_dram} of "
                              f"{len(hot)} hot pages in DRAM")
        return errors


# ---------------------------------------------------------------------------
# tpcc-mix
# ---------------------------------------------------------------------------

#: TPC-C's NewOrder:Payment:Delivery mix as this engine runs it (45:43:4)
TPCC_MIX = {"new_order": 45, "payment": 43, "delivery": 4}

#: binomial tolerance of the committed mix, in standard deviations
MIX_SIGMAS = 5.0


class TpccMix(Workload):
    """tpcc_buffer's cases: four backends x four DRAM fractions + colo."""

    name = "tpcc-mix"
    why = ("functional TPC-C engine, Monte-Carlo pricing, bufferpool CLOCK "
           "and Nomad's write path dominate; the PEBS path is nearly idle")

    def ops(self) -> List[Op]:
        from repro.bench.experiments import tpcc_buffer

        scn = scenario(seed=self.seed, duration=8.0 * self.length,
                       warmup=2.0 * self.length)
        return [
            Op(c.key, (lambda c=c: c.fn(scn, **c.kwargs)), dict(c.kwargs))
            for c in tpcc_buffer.cases(scn)
        ]

    def probes(self, patch: Callable) -> None:
        from repro.colo.arbiter import DramArbiter
        from repro.db import adapter
        from repro.db.adapter import TpccAccessModel
        from repro.db.engine import TpccEngine

        install_quota_probe(self, patch, DramArbiter)
        run_one = TpccEngine.__dict__["run_one"]

        def run_one_probe(engine_self):
            out = run_one(engine_self)
            calls = self.current.data.setdefault("run_one", {})
            calls[id(engine_self)] = calls.get(id(engine_self), 0) + 1
            return out

        price = TpccAccessModel.__dict__["price_txn"]
        params = inspect.signature(getattr(price, "__wrapped__", price))\
            .parameters
        d_cpu = params["cpu_ns_per_tx"].default
        d_oh = params["access_overhead_ns"].default
        d_mlp = params["mlp"].default
        fast_read = min(adapter.T_DRAM_READ, adapter.T_NVM_READ)
        slow_read = max(adapter.T_DRAM_READ, adapter.T_NVM_READ)
        fast_write = min(adapter.T_DRAM_WRITE, adapter.T_NVM_WRITE)
        slow_write = max(adapter.T_DRAM_WRITE, adapter.T_NVM_WRITE)

        def price_probe(model, touches, heap_region, index_region,
                        cpu_ns_per_tx=d_cpu, access_overhead_ns=d_oh,
                        mlp=d_mlp):
            latency = price(model, touches, heap_region, index_region,
                            cpu_ns_per_tx=cpu_ns_per_tx,
                            access_overhead_ns=access_overhead_ns, mlp=mlp)
            writes = sum(1 for touch in touches if touch[2])
            reads = len(touches) - writes
            base = (cpu_ns_per_tx + len(touches) * access_overhead_ns) * 1e-9
            lo = base + (reads * fast_read + writes * fast_write) / mlp
            hi = base + (reads * slow_read + writes * slow_write) / mlp
            data = self.current.data
            data["priced"] = data.get("priced", 0) + 1
            if not lo * (1 - 1e-9) <= latency <= hi * (1 + 1e-9):
                data.setdefault("price_errors", []).append(
                    f"txn priced {latency:.3e}s outside [{lo:.3e}, {hi:.3e}]")
            return latency

        patch(TpccEngine, "run_one", run_one_probe)
        patch(TpccAccessModel, "price_txn", price_probe)

    def _tpcc_workloads(self, engine):
        from repro.db.workload import TpccBufferWorkload

        workload = engine.workload
        if isinstance(workload, TpccBufferWorkload):
            return [workload]
        return [t.workload for t in engine.manager.all_tenants()
                if isinstance(t.workload, TpccBufferWorkload)]

    def case_record(self, outcome: Outcome) -> Any:
        record = super().case_record(outcome)
        if outcome.ctx.engine is not None:
            record["committed"] = [
                dict(w.engine.committed)
                for w in self._tpcc_workloads(outcome.ctx.engine)
            ]
        return record

    def check_case(self, outcome: Outcome) -> List[str]:
        from repro.mem.page import Tier

        ctx = outcome.ctx
        engine = ctx.engine
        errors = list(ctx.data.get("price_errors", [])[:3])
        if not ctx.data.get("priced"):
            errors.append("no transaction was priced")
        workloads = self._tpcc_workloads(engine)
        if not workloads:
            errors.append("case ran no TPC-C workload")
        calls = ctx.data.get("run_one", {})
        total_mix = sum(TPCC_MIX.values())
        for w in workloads:
            try:
                w.storage.check_invariants()
            except AssertionError as exc:
                errors.append(f"storage invariant: {exc}")
            committed = w.engine.committed
            n = sum(committed.values())
            if n != calls.get(id(w.engine), 0):
                errors.append(f"committed {n} != run_one calls "
                              f"{calls.get(id(w.engine), 0)}")
            if set(committed) != set(TPCC_MIX):
                errors.append(f"transaction types {sorted(committed)}")
                continue
            for name, weight in TPCC_MIX.items():
                p = weight / total_mix
                sigma = math.sqrt(n * p * (1 - p))
                if abs(committed[name] - n * p) > MIX_SIGMAS * sigma:
                    errors.append(
                        f"{name}: {committed[name]} of {n} committed, "
                        f"expected {n * p:.1f} +- {MIX_SIGMAS:g} sigma")
        if outcome.op.meta.get("system") == "bufferpool" and workloads:
            spec = engine.machine.spec
            budget = spec.dram_capacity // spec.page_size
            index = workloads[0].index_region
            if budget >= index.n_pages:
                in_dram = int(np.count_nonzero(index.tier == int(Tier.DRAM)))
                if in_dram != index.n_pages:
                    errors.append(f"bufferpool index {in_dram} of "
                                  f"{index.n_pages} pages in DRAM with a "
                                  f"{budget}-page budget")
        if "policy" in outcome.op.meta:
            errors.extend(shared_dax_errors(engine.manager))
            errors.extend(ctx.data.get("quota_errors", [])[:3])
        return errors


def shared_dax_errors(colo) -> List[str]:
    """Shared DAX files' used pages equal the sum over tenant views."""
    from repro.mem.page import Tier

    errors = []
    for tier, attr in ((Tier.DRAM, "dram_dax"), (Tier.NVM, "nvm_dax")):
        shared = colo.shared_dax[tier].used_pages
        tenants = sum(getattr(t, attr).used_pages for t in colo.all_tenants()
                      if getattr(t, attr) is not None)
        if shared != tenants:
            errors.append(f"{tier.name} shared DAX used {shared} != tenant "
                          f"sum {tenants}")
    return errors


def install_quota_probe(workload: Workload, patch: Callable,
                        arbiter_cls) -> None:
    """After every arbiter pass, active quotas must fit in device DRAM."""
    from repro.mem.page import Tier

    rebalance = arbiter_cls.__dict__["rebalance"]

    def rebalance_probe(arbiter, now):
        rebalance(arbiter, now)
        colo = arbiter.colo
        total = colo.shared_dax[Tier.DRAM].n_pages
        quotas = [t.dram_dax.quota_pages for t in colo.active_tenants()
                  if t.dram_dax is not None]
        # the "none" policy arbitrates nothing: every tenant may claim the
        # whole device, so only the arbitrating policies must fit the sum
        summed = sum(quotas) if arbiter.policy.name != "none" else 0
        if max(quotas, default=0) > total or summed > total:
            workload.current.data.setdefault("quota_errors", []).append(
                f"t={now:.2f}: quotas {quotas} exceed DRAM {total} pages")

    patch(arbiter_cls, "rebalance", rebalance_probe)


# ---------------------------------------------------------------------------
# fleet-telemetry
# ---------------------------------------------------------------------------

class FleetTelemetry(Workload):
    """fleet_diurnal's three control arms with telemetry on."""

    name = "fleet-telemetry"
    why = ("colo churn, the arbiter, the serve monitor and controller and "
           "the obs publishing path do most of the work")

    EXPERIMENT = "fleet_diurnal"
    #: The arrival schedule is compiled from this fixed seed (the fast
    #: preset's): schedules drawn from different seeds differ by about 20%
    #: in tenant-seconds (interquartile range over 40 seeds), which would
    #: swamp any bound on host time.  ``--seed`` drives every other random
    #: stream of the run (tenant page choices, PEBS, the engine).
    SCHEDULE_SEED = 42

    def ops(self) -> List[Op]:
        from repro.bench.experiments import fleet_diurnal
        from repro.bench.runner import _execute_case

        scn = scenario(seed=self.seed, duration=24.0 * self.length,
                       warmup=8.0 * self.length)
        self._tick = scn.tick

        def arm_case(case):
            # as `bench --telemetry-out` runs a case: one JSONL channel per
            # case under <root>/<experiment>/, metric capture on
            channel = self._spool / self.EXPERIMENT / f"{case.key}.jsonl"
            result, _payloads = _execute_case(
                case.fn, scn, case.kwargs, metrics=True,
                telemetry_path=str(channel),
                telemetry_labels={"case": case.key})
            return result

        return [Op(c.key, (lambda c=c: arm_case(c)), dict(c.kwargs))
                for c in fleet_diurnal.cases(scn)]

    def begin_round(self, workdir: Path) -> None:
        self._spool = workdir / f"telemetry-{os.getpid()}"
        shutil.rmtree(self._spool, ignore_errors=True)
        (self._spool / self.EXPERIMENT).mkdir(parents=True)
        self._collected = None
        self._by_case = None
        self._doc_errors = ["telemetry was not collected"]

    def end_round(self) -> None:
        shutil.rmtree(self._spool, ignore_errors=True)

    def probes(self, patch: Callable) -> None:
        import repro.serve.fleet
        from repro.colo.arbiter import DramArbiter
        from repro.obs.telemetry import TelemetrySession

        install_quota_probe(self, patch, DramArbiter)
        compile_fleet = repro.serve.fleet.compile_fleet

        def compile_probe(fleet, duration, seed, make_workload,
                          manager_factory=None):
            specs = compile_fleet(fleet, duration, self.SCHEDULE_SEED,
                                  make_workload,
                                  manager_factory=manager_factory)
            self.current.data["specs"] = list(specs)
            return specs

        emit = TelemetrySession.__dict__["emit"]

        def emit_probe(session, registry, t):
            emit(session, registry, t)
            ctx = self.current
            if ctx.engine is not None:
                ctx.data["emit_t"] = t
                ctx.data["emit_counters"] = ctx.engine.machine.stats.counters()

        patch(repro.serve.fleet, "compile_fleet", compile_probe)
        patch(TelemetrySession, "emit", emit_probe)

    def finish_round(self, outcomes: List[Outcome]) -> None:
        from repro.obs.telemetry import (
            Collector,
            exposition_errors,
            render_prometheus,
            snapshot_schema_errors,
        )

        doc = Collector(str(self._spool)).collect()
        self._collected = doc
        self._doc_errors = (snapshot_schema_errors(doc)
                            + exposition_errors(render_prometheus(doc)))

    def case_record(self, outcome: Outcome) -> Any:
        record = super().case_record(outcome)
        series = self._case_series(outcome.op.key)
        record["telemetry"] = {k: v["values"][-1] for k, v in series.items()}
        return record

    def _case_series(self, case: str) -> Dict[str, dict]:
        """The collected series of one case (keys carry a ``case`` label)."""
        from repro.obs.telemetry import parse_key

        if self._by_case is None:
            self._by_case = {}
            exp = (self._collected or {}).get("experiments", {}).get(
                self.EXPERIMENT, {})
            for key, entry in exp.get("series", {}).items():
                label = parse_key(key)[1].get("case")
                if entry["values"]:
                    self._by_case.setdefault(label, {})[key] = entry
        return self._by_case.get(case, {})

    def check_case(self, outcome: Outcome) -> List[str]:
        from repro.obs.telemetry import STATS_COUNTERS, parse_key

        ctx = outcome.ctx
        colo = ctx.engine.manager
        end = ctx.engine.clock.now
        tick = self._tick
        errors = list(self._doc_errors[:3])
        errors.extend(ctx.data.get("quota_errors", [])[:3])

        # arrivals: exactly the compiled schedule, each at its first tick
        specs = {s.name: s for s in ctx.data["specs"]}
        due = {n for n, s in specs.items() if s.arrival <= end - tick + 1e-9}
        tenants = {t.spec.name: t for t in colo.all_tenants()}
        if set(tenants) != due:
            errors.append(f"{len(tenants)} tenants arrived, schedule has "
                          f"{len(due)} due")
        arrived = ctx.counters.get("colo.tenants_arrived", 0.0)
        if arrived != len(tenants):
            errors.append(f"tenants_arrived {arrived:.0f} != {len(tenants)}")
        for name, t in tenants.items():
            spec = specs.get(name)
            if spec is None:
                continue
            first = max(spec.arrival, 0.0)
            if not first - 1e-9 <= t.arrived_at < first + tick + 1e-9:
                errors.append(f"{name} arrived at {t.arrived_at:.3f}, "
                              f"scheduled {spec.arrival:.3f}")
            if t.active:
                if t.departed_at is not None or (
                        spec.departure is not None
                        and spec.departure <= end + 1e-9):
                    errors.append(f"{name} active past its departure")
            elif t.departed_at is None or spec.departure is None or not (
                    spec.departure - 1e-9 <= t.departed_at
                    < spec.departure + tick + 1e-9):
                errors.append(f"{name} neither active nor departed on time")

        # attainment is a fraction
        fleet = outcome.result["fleet"]
        values = [fleet["attainment"]] + [
            p["attainment"] for p in fleet["phases"].values()]
        if fleet["attainment"] is None or any(
                v is not None and not 0.0 <= v <= 1.0 for v in values):
            errors.append(f"attainment out of [0, 1]: {values}")

        # telemetry counter series end at the machine's own counters
        mirrored = {metric: suffix for suffix, metric in STATS_COUNTERS.items()}
        emitted = ctx.data.get("emit_counters")
        series = self._case_series(outcome.op.key)
        if emitted is None or not series:
            errors.append("no telemetry snapshots collected")
            return errors
        checked = 0
        for key, entry in series.items():
            name, labels = parse_key(key)
            suffix = mirrored.get(name)
            if suffix is None or "scope" not in labels:
                continue
            checked += 1
            want = emitted.get(labels["scope"] + suffix)
            if entry["times"][-1] != ctx.data["emit_t"] \
                    or entry["values"][-1] != want:
                errors.append(f"{key} ends at {entry['values'][-1]}, "
                              f"machine counter {want}")
        if not checked:
            errors.append("no mirrored counter series")
        return errors


WORKLOADS = {w.name: w for w in (PebsFlood, TpccMix, FleetTelemetry)}
