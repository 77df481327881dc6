"""Host-time benchmark of the tiered-memory simulator.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload tpcc-mix --seed 1 --seconds 40 --trace 0

One process runs the workload's cases serially, round after round (a
closed loop: the next case starts when the previous one ends), until the
next round would overrun ``--seconds``.  Every round runs the same cases
on inputs made from ``--seed`` and checks every case's simulated output.

``--trace 0`` prints the end-to-end metrics (medians over rounds, host
time).  ``--trace 1`` alternates untraced and traced rounds and prints the
per-layer metrics of the traced ones, with the tracing overhead; its
spans are written to ``.perfbench/spans-<workload>.npz``.  The last line
of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"


def _import_program() -> None:
    """Put the checkout's own ``src/`` first on the import path."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no simulator source at {SRC / 'repro'}; run "
                 "from the root of a checkout of the repository")
    sys.path.insert(0, str(SRC))


def _parse(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


class Round:
    """One pass over a workload's cases."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.outcomes = []
        self.errors: Dict[str, List[str]] = {}
        self.wall_s = 0.0
        self.digest = ""

    @property
    def setup_s(self) -> float:
        return sum(o.ctx.setup_s for o in self.outcomes)

    @property
    def ticks(self) -> int:
        return sum(o.ctx.ticks for o in self.outcomes)

    @property
    def engine_s(self) -> float:
        return sum(o.ctx.engine_s for o in self.outcomes)

    @property
    def failed(self) -> int:
        return sum(1 for errs in self.errors.values() if errs)


def run_round(workload, rec=None) -> Round:
    """Run every case of ``workload`` once; ``rec`` turns tracing on."""
    from cases import CaseCtx, Outcome, jsonable
    from spans import Patcher, import_layers, install_layer_spans

    import_layers()
    rnd = Round(traced=rec is not None)
    patcher = Patcher()
    if rec is not None:
        install_layer_spans(rec, patcher)
        k_setup = rec.key("bench.case_setup", "bench")
        k_finish = rec.key("bench.case_finish", "bench")
        k_check = rec.key("bench.check", "bench")
    workload.begin_round(WORKDIR)
    try:
        _install_engine_probe(workload, patcher, rec)
        workload.probes(patcher.patch)
        ops = workload.ops()
        t0 = time.perf_counter()
        for op in ops:
            ctx = workload.current = CaseCtx(op.key)
            depth = rec.depth() if rec is not None else 0
            ctx.data["span_depth"] = depth
            ctx.start = time.perf_counter()
            if rec is not None:
                rec.enter(k_setup)
            outcome = Outcome(op, ctx)
            try:
                outcome.result = op.run()
            except Exception as exc:  # a case that raises is a failed case
                outcome.error = f"{type(exc).__name__}: {exc}"
            finally:
                if rec is not None:
                    rec.unwind(depth)
            ctx.end = time.perf_counter()
            if ctx.engine is not None:
                ctx.counters = dict(ctx.engine.machine.stats.counters())
            rnd.outcomes.append(outcome)
        if rec is not None:
            rec.enter(k_finish)
        workload.finish_round(rnd.outcomes)
        if rec is not None:
            rec.exit()
            rec.enter(k_check)
        rnd.errors = _checked(workload, rnd.outcomes)
        records = [{"key": o.op.key, **workload.case_record(o)}
                   for o in rnd.outcomes]
        digest = hashlib.sha256(json.dumps(
            jsonable(records), sort_keys=True).encode()).hexdigest()
        if rec is not None:
            rec.exit()
        rnd.wall_s = time.perf_counter() - t0
        rnd.digest = digest
    finally:
        patcher.restore()
        workload.current = None
        workload.end_round()
    return rnd


def _checked(workload, outcomes) -> Dict[str, List[str]]:
    errors = {o.op.key: [] for o in outcomes}
    ran = [o for o in outcomes if o.error is None and o.ctx.engine is not None]
    for o in outcomes:
        if o.error is not None:
            errors[o.op.key].append(o.error)
        elif o.ctx.engine is None:
            errors[o.op.key].append("case ran no engine")
    try:
        found = workload.check(ran)
    except Exception as exc:  # a crashing check fails every case it covers
        found = {o.op.key: [f"check raised {type(exc).__name__}: {exc}"]
                 for o in ran}
    for key, errs in found.items():
        errors[key].extend(errs)
    return errors


def _install_engine_probe(workload, patcher, rec) -> None:
    """Time each case's engine run and hand the engine to the workload.

    The case's set-up span closes when its engine starts; a finish span
    opens when the engine returns and closes with the case.
    """
    from repro.sim.engine import Engine

    run = Engine.__dict__["run"]
    if rec is not None:
        k_finish = rec.key("bench.case_finish", "bench")

    def run_probe(engine, *args, **kwargs):
        ctx = workload.current
        first = ctx.engine is None
        ctx.engine = engine
        if first:
            workload.on_engine(engine, ctx)
        if rec is not None and rec.depth() == ctx.data["span_depth"] + 1:
            rec.exit()
        before = engine.clock.now
        start = time.perf_counter()
        if ctx.run_start is None:
            ctx.run_start = start
        try:
            return run(engine, *args, **kwargs)
        finally:
            ctx.engine_s += time.perf_counter() - start
            ctx.ticks += round((engine.clock.now - before) / engine.config.tick)
            if rec is not None and rec.depth() == ctx.data["span_depth"]:
                rec.enter(k_finish)

    patcher.patch(Engine, "run", run_probe)


def _median(values: List[float]) -> float:
    return float(statistics.median(values))


def end_to_end(rounds: List[Round], rss_kb: int) -> Dict[str, dict]:
    return {
        "wall_s": {"value": _median([r.wall_s for r in rounds]), "unit": "s"},
        "setup_s": {"value": _median([r.setup_s for r in rounds]),
                    "unit": "s"},
        "ticks_per_s": {"value": _median([r.ticks / r.engine_s
                                          for r in rounds]),
                        "unit": "ticks/s"},
        "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
    }


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    _import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from cases import WORKLOADS
    from layers import per_layer
    from spans import SpanRecorder
    from repro.bench.runner import tune_gc

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose "
                 f"from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    tune_gc()  # as the bench CLI and its pool workers run cases
    rec = SpanRecorder() if args.trace else None
    rounds: List[Round] = []
    start = time.perf_counter()
    while True:
        # traced runs alternate untraced and traced rounds, so the
        # tracing overhead is measured on the same inputs
        traced = rec is not None and len(rounds) % 2 == 1
        rounds.append(run_round(workload, rec if traced else None))
        if len(rounds) == 1:
            # peak resident memory of the process through its first round
            # (later rounds only add allocator fragmentation)
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        gc.collect()
        if rec is not None and len(rounds) < 2:
            continue  # a traced run needs one round of each kind
        elapsed = time.perf_counter() - start
        upcoming = rec is not None and len(rounds) % 2 == 1
        like = [r.wall_s for r in rounds if r.traced == upcoming]
        if elapsed + _median(like) > args.seconds:
            break

    attempted = sum(len(r.outcomes) for r in rounds)
    failed = sum(r.failed for r in rounds)
    digests = {r.digest for r in rounds}
    correct = len(digests) == 1
    print(f"workload {workload.name} seed {args.seed}: {len(rounds)} rounds "
          f"({sum(r.traced for r in rounds)} traced), {attempted} cases "
          f"attempted, {failed} failed")
    print(f"digest {rounds[0].digest}")
    print("round wall_s " + " ".join(
        f"{r.wall_s:.3f}{'T' if r.traced else ''}" for r in rounds))
    if not correct:
        print(f"NONDETERMINISTIC: rounds produced {len(digests)} digests")
    for key, errs in rounds[0].errors.items():
        for err in errs:
            print(f"FAILED {key}: {err}")

    if rec is None:
        metrics = end_to_end(rounds, rss_kb)
    else:
        metrics, problems = per_layer(rec, rounds)
        for problem in problems:
            print(f"TRACE: {problem}")
        correct = correct and not problems
        out = WORKDIR / f"spans-{workload.name}.npz"
        rec.save(out)
        print(f"spans written: {out.relative_to(ROOT)}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
