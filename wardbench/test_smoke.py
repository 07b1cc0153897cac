"""Smoke tests of the benchmark harness at tiny sizes.

    python3 -m pytest wardbench -q
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import harness
import run
import speed
import workloads
from paths import BENCH, DIGESTS, ROOT
from tracer import Tracer

TINY = {
    "session": (workloads.Slot((2, 2), workloads.A1), workloads.Slot((2, 3), workloads.A45)),
    "greedy": (workloads.Slot((3, 3), workloads.U, Fraction(1, 2)),
               workloads.Slot((3, 3), workloads.A45, Fraction(1, 4))),
    "exact": (workloads.Slot((2, 3), workloads.U, Fraction(1, 4)),),
}


def _tiny(pipeline, tmp_path, seed=5):
    workload = workloads.Workload("tiny", "", pipeline, TINY[pipeline], rounds=2)
    entries = workloads.write_inputs(workload, seed, tmp_path)
    return workload, entries


def test_benchmark_json_matches_the_harness():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("pipeline", sorted(TINY))
def test_traced_pass_then_untraced_replay(pipeline, tmp_path):
    workload, entries = _tiny(pipeline, tmp_path)
    tracer = Tracer()
    runner = harness.Runner(pipeline, tmp_path, tracer)
    tracer.install()
    try:
        traced, failed = runner.run(entries, len(workload.slots), 0.05)
    finally:
        tracer.uninstall()
    assert failed == 0 and len(traced) >= 1
    wrapped = [*vars(harness.scenario).values(), harness.scenario.ScenarioInstance.demand_cells]
    assert not any("_wrap" in getattr(f, "__qualname__", "") for f in wrapped)
    runner.tracer = None
    untraced, failed = runner.run(entries, len(workload.slots), 0, rounds=len(traced))
    assert failed == 0 and list(map(len, untraced)) == list(map(len, traced))

    metrics = run._per_layer(tracer, traced, untraced)
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["cli.run.calls"] == len(workloads.PIPELINES[pipeline])
    for name, row in tracer.summary().items():
        assert 0 <= row["self_s"] <= row["busy_s"] + 1e-9, name
    assert {s.op for s in tracer.spans} == set(range(sum(map(len, traced))))


def test_meter_probes_in_proportion_to_operation_time():
    meter = speed.Meter()
    assert len(meter.samples) == speed.FIRST
    meter.keep_up(10.0)
    assert sum(meter.samples) >= speed.SHARE * 10.0
    assert meter.scale() > 0
    rounds = [[0.5, 1.5], [1.0]]
    scaled = run._end_to_end(rounds, 2.0, scale=0.5)
    assert scaled["ops_per_s"] == 3 / (3.0 * 0.5)
    assert scaled["op_p50_s"] == 1.0 * 0.5
    assert scaled["setup_s"] == 2.0 * 0.5


def test_checks_reject_a_wrong_plan(tmp_path):
    workload, entries = _tiny("greedy", tmp_path)
    runner = harness.Runner("greedy", tmp_path)
    entry = entries[0]
    outputs = runner.operate(entry)
    runner.check(entry, outputs)
    path = runner._report(entry, "central-greedy")
    report = json.loads(path.read_text())
    report["z_value"] = f"{Fraction(report['z_value']) - 1}"
    path.write_text(json.dumps(report))
    with pytest.raises(harness.CheckFailed):
        runner.check(entry, outputs)


def test_digests_cover_every_operation_of_the_default_seed():
    for name, workload in workloads.WORKLOADS.items():
        recorded = json.loads((DIGESTS / f"{name}.json").read_text())
        assert recorded["seed"] == harness.DEFAULT_SEED
        indices = [str(e["index"]) for e in workloads.manifest_entries(workload, 0)]
        assert sorted(recorded["ops"]) == sorted(indices)


def test_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "wardbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "wardbench/run.py", "--workload", "sweep-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
