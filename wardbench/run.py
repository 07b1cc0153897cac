"""wardalloc benchmark: one workload, one seed, one run.

    python3 wardbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up (interpreter start, package import and scenario generation, in a
fresh child process) runs SETUP_REPEATS times and is timed as setup_s. Then
one client drives the CLI in-process in a closed loop for S seconds of
operation time, in whole rounds of the workload's slots, checking every
output. With --trace 0 the last stdout line holds the end-to-end metrics,
their times scaled to a reference host speed that a probe loop measures
between operations (see speed.py); with --trace 1 it holds per-layer metrics from a traced pass over half the
time, followed by an untraced replay of the same operations that gives the
tracing overhead. Spans are written to .wardbench/traces/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import speed
from paths import BENCH, SRC, WORK
from workloads import PIPELINES

SETUP_REPEATS = 3

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Spans that can contain other spans also report self_s.
_SPANS = {
    "scenario.generate": False,
    "scenario.load": False,
    "scenario.demand_cells": False,
    "scenario.assumptions": True,
    "local_game.tensor": False,
    "local_game.nash": False,
    "local_game.report": False,
    "central_plan.greedy": True,
    "central_plan.exact": True,
    "central_plan.evaluate_Z": True,
    "central_plan.orders": True,
    "central_plan.staircase": False,
    "central_plan.export_ilp": True,
    "central_plan.plan_to_dict": True,
    "cli.run": True,
}
_COUNTS = {
    "scenario.load.bytes": "B/op",
    "local_game.tensor.profiles": "1/op",
    "local_game.nash.equilibria": "1/op",
    "central_plan.greedy.steps": "1/op",
    # derived from the greedy trace length, not counted inside the solver
    "central_plan.greedy.pairs_scanned": "computed-1/op",
    "central_plan.exact.pairs": "1/op",
    "central_plan.export_ilp.bytes": "B/op",
    "cli.bytes_out": "B/op",
}


def _per_layer_units() -> dict[str, str]:
    units = {}
    for name, has_children in _SPANS.items():
        units[f"{name}.calls"] = "1/op"
        units[f"{name}.busy_s"] = "s/op"
        if has_children:
            units[f"{name}.self_s"] = "s/op"
    units.update(_COUNTS)
    units["local_game.nash.eq_per_profile"] = "ratio"
    units.update({f"cli.{c}.p50_s": "s" for c in PIPELINES["session"]})
    units["trace.overhead_s"] = "s/op"
    return units


PER_LAYER = _per_layer_units()


def _setup(workload: str, seed: int, out) -> float:
    """Median wall time of SETUP_REPEATS fresh set-up processes."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(BENCH / "workloads.py"), "--workload", workload,
             "--seed", str(seed), "--out", str(out)],
            check=True,
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _end_to_end(rounds, setup_s, scale: float = 1.0) -> dict:
    """End-to-end metrics, with every time multiplied by `scale`."""
    latencies = [x for r in rounds for x in r]
    return {
        "ops_per_s": len(latencies) / (sum(latencies) * scale),
        "op_p50_s": statistics.median(latencies) * scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s * scale,
    }


def _per_layer(tracer, traced, untraced) -> dict:
    ops = sum(map(len, traced))
    values = dict.fromkeys(PER_LAYER, 0.0)
    for name, row in tracer.summary().items():
        for key, amount in row.items():
            metric = f"{name}.{key}"
            if metric in values:
                values[metric] = amount / ops
    for metric, amount in tracer.counters.items():
        values[metric] = amount / ops
    profiles = tracer.counters.get("local_game.tensor.profiles", 0)
    if profiles:
        values["local_game.nash.eq_per_profile"] = (
            tracer.counters["local_game.nash.equilibria"] / profiles
        )
    by_command: dict[str, list[float]] = {}
    for s in tracer.spans:
        if s.name == "cli.run":
            by_command.setdefault(s.detail, []).append(s.end - s.start)
    for command, durations in by_command.items():
        values[f"cli.{command}.p50_s"] = statistics.median(durations)
    values["trace.overhead_s"] = (_total(traced) - _total(untraced)) / ops
    return values


def _p90(latencies: list[float]) -> float | None:
    """The 90th percentile, or None when fewer than ten samples lie beyond
    it."""
    if len(latencies) < 100:
        return None
    return statistics.quantiles(latencies, n=10)[-1]


def _total(rounds) -> float:
    return sum(map(sum, rounds))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run one wardalloc benchmark workload")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wardalloc" / "__init__.py").is_file():
        print(f"error: no wardalloc package under {SRC}", file=sys.stderr)
        return 2
    import harness
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    meter = None if args.trace else speed.Meter()
    try:
        setup_s = _setup(workload.name, args.seed, workdir)
        entries = json.loads((workdir / "manifest.json").read_text())
        digests = None
        if args.seed == harness.DEFAULT_SEED:
            digests = harness.load_digests(workload.name)
        per_round = len(workload.slots)
        runner = harness.Runner(workload.pipeline, workdir, None, digests)
        # One untimed operation first, so first-call costs stay out of the
        # comparison between passes.
        warm_ok, _ = runner.one(-1, entries[0])
        if args.trace:
            tracer = runner.tracer = Tracer()
            tracer.install()
            try:
                traced, failed = runner.run(entries, per_round, args.seconds / 2)
            finally:
                tracer.uninstall()
            runner.tracer = None
            untraced, failed_again = runner.run(entries, per_round, 0, rounds=len(traced))
            rounds = traced
            attempted = sum(map(len, traced)) + sum(map(len, untraced))
            failed += failed_again
            metrics = _per_layer(tracer, traced, untraced)
            (WORK / "traces").mkdir(parents=True, exist_ok=True)
            trace_path = WORK / "traces" / f"{workload.name}-seed{args.seed}.json"
            tracer.write(trace_path)
            print(f"spans: {trace_path}")
        else:
            rounds, failed = runner.run(entries, per_round, args.seconds, meter=meter)
            latencies = [x for r in rounds for x in r]
            attempted = len(latencies)
            scale = meter.scale()
            metrics = _end_to_end(rounds, setup_s, scale)
            p90 = _p90(latencies)
            print(f"op_p90_s: {'n/a' if p90 is None else f'{p90 * scale:.6g} s'} "
                  f"({len(latencies)} operations)")
            print(f"host speed {scale:.4g} x reference ({len(meter.samples)} probes); "
                  f"unscaled: " + ", ".join(
                      f"{k} {v:.6g}" for k, v in _end_to_end(rounds, setup_s).items()))
        attempted += 1
        failed += not warm_ok
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"{workload.name} seed {args.seed}: {len(rounds)} rounds of {per_round} "
          f"operations, failed_ratio {failed / attempted:.6g}")
    units = PER_LAYER if args.trace else END_TO_END
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
