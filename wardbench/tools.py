"""Maintenance commands for the benchmark's recorded files.

    python3 wardbench/tools.py digests [WORKLOAD ...]
        Run every operation of the default seed once, check it, and record
        the digest of each report in wardbench/digests/<workload>.json.
    python3 wardbench/tools.py steadiness --runs N --seconds S [WORKLOAD ...]
        Run the benchmark N times per workload with seeds 1..N and record
        each end-to-end metric's values, median and quartile spread under
        "steadiness" in wardbench/baseline.json.
    python3 wardbench/tools.py shares --seconds S [WORKLOAD ...]
        One traced run per workload (seed 1); record its per-layer metrics
        and each layer's share of traced self time under "trace" in
        wardbench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys

import host
from paths import BASELINE, BENCH, DIGESTS, ROOT, WORK
from workloads import PIPELINES, WORKLOADS, write_inputs


def record_digests(names) -> None:
    import harness

    for name in names:
        workload = WORKLOADS[name]
        workdir = WORK / f"digests-{name}"
        entries = write_inputs(workload, harness.DEFAULT_SEED, workdir)
        runner = harness.Runner(workload.pipeline, workdir)
        ops = {}
        try:
            for entry in entries:
                outputs = runner.operate(entry)
                runner.check(entry, outputs)
                ops[str(entry["index"])] = {
                    c: harness.digest(runner._report(entry, c).read_bytes())
                    for c in PIPELINES[workload.pipeline]
                }
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        DIGESTS.mkdir(exist_ok=True)
        doc = {"seed": harness.DEFAULT_SEED, "ops": ops}
        (DIGESTS / f"{name}.json").write_text(json.dumps(doc, indent=1) + "\n")
        print(f"{name}: {len(ops)} operations recorded")


def _run(name: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, cwd=ROOT,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{name} seed {seed}: incorrect outputs\n{done.stderr}")
    return result


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def _update_baseline(key: str, value) -> None:
    doc = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
    doc[key] = value
    BASELINE.write_text(json.dumps(doc, indent=2) + "\n")


def steadiness(names, runs: int, seconds: float) -> None:
    doc = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
    record = doc.get("steadiness", {})
    for name in names:
        values: dict[str, list[float]] = {}
        for seed in range(1, runs + 1):
            result = _run(name, seed, seconds, 0)
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
        record[name] = {
            "seeds": list(range(1, runs + 1)),
            "seconds": seconds,
            "metrics": {m: {**spread(v), "values": v} for m, v in values.items()},
        }
        worst = max((s["spread"], m) for m, s in record[name]["metrics"].items()
                    if m != "setup_s")
        print(f"{name}: widest spread {worst[0]:.3f} ({worst[1]})", flush=True)
    record["host"] = host.describe()
    _update_baseline("steadiness", record)


LAYERS = ("scenario", "local_game", "central_plan", "cli")


def shares(names, seconds: float) -> None:
    record = {}
    for name in names:
        metrics = _run(name, 1, seconds, 1)["metrics"]
        # a layer's time is the self time of its spans; spans without
        # children have self time equal to busy time
        own = dict.fromkeys(LAYERS, 0.0)
        for metric, entry in metrics.items():
            span, _, kind = metric.rpartition(".")
            layer = span.split(".")[0]
            has_self = f"{span}.self_s" in metrics
            if layer in own and (kind == "self_s" or (kind == "busy_s" and not has_self)):
                own[layer] += entry["value"]
        total = sum(own.values())
        share = {layer: own[layer] / total for layer in LAYERS}
        record[name] = {
            "layer_share": share,
            "metrics": {m: e["value"] for m, e in metrics.items()},
        }
        print(name, {k: round(v, 3) for k, v in share.items()}, flush=True)
    _update_baseline("trace", {"seed": 1, "seconds": seconds, "workloads": record})


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("digests")
    p.add_argument("workloads", nargs="*", default=sorted(WORKLOADS))
    p = sub.add_parser("steadiness")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("workloads", nargs="*", default=sorted(WORKLOADS))
    p = sub.add_parser("shares")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("workloads", nargs="*", default=sorted(WORKLOADS))
    args = parser.parse_args()
    if args.command == "digests":
        record_digests(args.workloads)
    elif args.command == "steadiness":
        steadiness(args.workloads, args.runs, args.seconds)
    else:
        shares(args.workloads, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
