"""The benchmark's own tests: short smoke rounds, and checks that bite.

Run from the root of the repository::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import cases  # noqa: E402
import layers  # noqa: E402
import run as perfbench  # noqa: E402
from spans import SpanRecorder  # noqa: E402

#: shortened case durations for the smoke rounds
SHORT = {"pebs-flood": 0.2, "tpcc-mix": 0.25, "fleet-telemetry": 0.1}

#: the one operation that fails on every input (see cases.PebsFlood)
KNOWN_FAILING = {"residency-probe"}


@pytest.fixture(scope="module")
def rounds():
    done = {}

    def get(name):
        if name not in done:
            workload = cases.WORKLOADS[name](seed=3, length=SHORT[name])
            done[name] = (workload, perfbench.run_round(workload))
        return done[name]
    return get


@pytest.mark.parametrize("name", sorted(cases.WORKLOADS))
def test_smoke_round_passes_its_checks(rounds, name):
    _workload, rnd = rounds(name)
    assert rnd.outcomes and rnd.wall_s > 0 and len(rnd.digest) == 64
    failing = {key for key, errs in rnd.errors.items() if errs}
    assert failing <= KNOWN_FAILING, rnd.errors
    assert rnd.ticks > 0 and rnd.engine_s > 0
    assert all(o.ctx.setup_s > 0 for o in rnd.outcomes)


def _corrupt_pebs(outcomes):
    target = next(o for o in outcomes if o.op.key.startswith("flood-"))
    target.ctx.counters["hemem.tracker.samples"] += 1
    return target.op.key


def _corrupt_tpcc(outcomes):
    target = next(o for o in outcomes if o.op.key == "0.3/hemem")
    target.ctx.engine.workload.engine.committed["delivery"] += 1
    return target.op.key


def _corrupt_fleet(outcomes):
    target = next(o for o in outcomes if o.op.key == "slo")
    target.result["fleet"]["attainment"] = 1.5
    return target.op.key


@pytest.mark.parametrize("name,corrupt", [
    ("pebs-flood", _corrupt_pebs),
    ("tpcc-mix", _corrupt_tpcc),
    ("fleet-telemetry", _corrupt_fleet),
])
def test_corrupted_case_result_is_counted_failed(rounds, name, corrupt):
    workload, rnd = rounds(name)
    key = corrupt(rnd.outcomes)
    errors = perfbench._checked(workload, rnd.outcomes)
    assert errors[key], f"corrupting {key} went unnoticed"
    failing = {k for k, errs in errors.items() if errs}
    assert failing - KNOWN_FAILING == {key}


def test_traced_round_accounts_for_engine_time():
    workload = cases.WORKLOADS["pebs-flood"](seed=3, length=0.05)
    plain = perfbench.run_round(workload)
    rec = SpanRecorder()
    traced = perfbench.run_round(workload, rec)
    assert traced.digest == plain.digest  # tracing changes no output
    metrics, problems = layers.per_layer(rec, [plain, traced])
    assert problems == []
    value = {name: m["value"] for name, m in metrics.items()}
    assert value["trace.engine_s"] > 0
    assert value["trace.engine_self_sum_s"] == pytest.approx(
        value["trace.engine_s"], rel=1e-6)
    layer_sum = sum(value[f"layer.{lay}_s"] for lay in layers.LAYERS)
    assert layer_sum == pytest.approx(value["trace.round_s"], rel=1e-6)
    assert value["workloads.streams"] == value["mem.resolve.streams"] > 0


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(cases.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == layers.METRICS
    assert {m["name"] for m in spec["end_to_end"]} == {
        "wall_s", "setup_s", "ticks_per_s", "peak_rss_mb"}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pebs-flood",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
