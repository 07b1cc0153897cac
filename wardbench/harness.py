"""Operations, output checks and the closed-loop driver.

One operation takes one scenario through the workload's pipeline, calling
`wardalloc.cli.main` in-process exactly as the command line would, plus the
library calls the pipeline names. Each operation starts when the previous
one has finished and been checked; checks are not timed.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

from paths import DIGESTS, SRC
from workloads import PIPELINES

sys.path.insert(0, str(SRC))
from wardalloc import central_plan, cli, local_game, scenario  # noqa: E402

# Digests of every report are recorded for this seed only.
DEFAULT_SEED = 0


class CheckFailed(Exception):
    pass


def clear_caches() -> None:
    """Drop the package's in-process caches, so each command starts as cold
    as a fresh `wardalloc` process would."""
    for name, module in list(sys.modules.items()):
        if name == "wardalloc" or name.startswith("wardalloc."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def load_digests(workload: str) -> dict | None:
    path = DIGESTS / f"{workload}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())["ops"]


class Runner:
    """Runs and checks the operations of one workload."""

    def __init__(self, pipeline: str, workdir: Path, tracer=None, digests=None):
        self.pipeline = pipeline
        self.workdir = workdir
        self.tracer = tracer
        self.digests = digests

    # -- operations -------------------------------------------------------

    def _report(self, entry: dict, command: str) -> Path:
        if command == "gen":
            return Path(entry["path"])
        return self.workdir / f"{entry['index']}.{command}.json"

    def _cli(self, argv: list[str], output: Path) -> None:
        clear_caches()
        tracer = self.tracer
        if tracer is not None and tracer.active:
            code = tracer.span("cli.run", cli.main, (argv,), {}, detail=argv[0])
            tracer.counters["cli.bytes_out"] += output.stat().st_size
        else:
            code = cli.main(argv)
        if code != 0:
            raise CheckFailed(f"wardalloc {argv[0]} exited with {code}")

    def _command(self, entry: dict, command: str) -> None:
        out = self._report(entry, command)
        if command == "gen":
            q, r = entry["dims"]
            argv = ["gen", "--seed", str(entry["seed"]), "--dims", f"{q}x{r}"]
            argv += ["--profile", entry["profile"], "--output", str(out)]
        else:
            argv = [command, "--input", entry["path"], "--format", "json"]
            argv += ["--output", str(out)]
        self._cli(argv, out)

    def operate(self, entry: dict) -> dict:
        """The timed part of one operation; returns in-memory outputs."""
        for command in PIPELINES[self.pipeline]:
            self._command(entry, command)
        if self.pipeline != "greedy":
            return {}
        inst = scenario.load_scenario(entry["path"])
        with open(self._report(entry, "central-greedy"), encoding="utf-8") as fh:
            report = json.load(fh)
        chosen = central_plan.ExcellenceSet.of(
            (m["hospital"], m["ward"]) for m in report["excellence"]
        )
        solution = central_plan.evaluate_Z(chosen, inst)
        return {"z": solution.z_value, "lp": central_plan.export_ilp(inst, chosen)}

    # -- checks -----------------------------------------------------------

    def check(self, entry: dict, outputs: dict) -> None:
        inst = scenario.load_scenario(entry["path"])
        raw = {c: self._report(entry, c).read_bytes() for c in PIPELINES[self.pipeline]}
        if self.digests is not None:
            expected = self.digests.get(str(entry["index"]))
            got = {c: digest(b) for c, b in raw.items()}
            if expected != got:
                raise CheckFailed(f"report digests {got} differ from {expected}")
        reports = {c: json.loads(b) for c, b in raw.items() if c != "gen"}
        plans = {}
        for command, report in reports.items():
            if command == "check":
                _check_assumptions(inst, report)
            elif command == "local":
                _check_equilibria(inst, report)
            elif command == "compare":
                _check_equilibria(inst, report["local"])
                plans["compare"] = _check_plan(inst, report["central"])
            else:
                plans[command] = _check_plan(inst, report)
        if "gen" in raw:
            q, r = entry["dims"]
            fresh = scenario.generate_scenario(entry["seed"], (q, r), entry["profile"])
            if fresh != inst:
                raise CheckFailed("gen wrote a different scenario than generate_scenario")
        if "central-exact" in plans:
            greedy = plans.get("central-greedy")
            if greedy is None:
                greedy = central_plan.greedy_solve(inst).z_value
            if not plans["central-exact"] <= greedy:
                raise CheckFailed(f"exact z {plans['central-exact']} > greedy z {greedy}")
        if "compare" in plans and plans["compare"] != plans["central-greedy"]:
            raise CheckFailed("compare's central plan differs from central-greedy")
        if "z" in outputs:
            if outputs["z"] != plans["central-greedy"]:
                raise CheckFailed("evaluate_Z of the greedy set differs from its report")
            _check_lp(inst, outputs["lp"])

    # -- the closed loop --------------------------------------------------

    def run(self, entries: list[dict], per_round: int, seconds: float, rounds=None,
            meter=None):
        """Run whole rounds until `seconds` of operation time have passed,
        or exactly `rounds` rounds when given. Returns the latencies of each
        round and the number of failed operations. A `speed.Meter`, when
        given, probes the host's speed between operations."""
        done: list[list[float]] = []
        failed = 0
        timed = 0.0
        while (timed < seconds) if rounds is None else (len(done) < rounds):
            first = (len(done) * per_round) % len(entries)
            latencies = []
            for entry in entries[first : first + per_round]:
                ok, latency = self.one(sum(map(len, done)) + len(latencies), entry)
                latencies.append(latency)
                failed += not ok
                if meter is not None:
                    meter.keep_up(timed + sum(latencies))
            done.append(latencies)
            timed += sum(latencies)
        return done, failed

    def one(self, op: int, entry: dict) -> tuple[bool, float]:
        """Run and check one operation; returns (ok, seconds taken)."""
        tracer = self.tracer
        if tracer is not None:
            tracer.op = op
            tracer.active = True
        start = time.perf_counter()
        try:
            outputs = self.operate(entry)
        except Exception:  # an operation failure is counted, not fatal
            latency = time.perf_counter() - start
            if tracer is not None:
                tracer.active = False
            _report_failure(entry)
            return False, latency
        latency = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
        try:
            self.check(entry, outputs)
        except Exception:
            _report_failure(entry)
            return False, latency
        return True, latency


def _report_failure(entry: dict) -> None:
    print(f"operation {entry['index']} ({entry['slot']}, seed {entry['seed']}) failed:",
          file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def _check_assumptions(inst, report: dict) -> None:
    expected = [rep.holds for rep in scenario.all_assumptions(inst)]
    got = [rep["holds"] for rep in report["assumptions"]]
    if got != expected:
        raise CheckFailed(f"check reported {got}, the checkers give {expected}")


def _check_equilibria(inst, report: dict) -> None:
    """No hospital in a reported equilibrium has a strictly better
    unilateral deviation, and the reported payoffs are payoff()'s."""
    hospitals = tuple(report["hospitals"])
    for entry in report["equilibria"]:
        wards = tuple(entry["profile"][h] for h in hospitals)
        values = local_game.payoff(inst, local_game.StrategyProfile(hospitals, wards))
        if [scenario.parse_rational(entry["payoffs"][h]) for h in hospitals] != list(values):
            raise CheckFailed(f"equilibrium {wards}: payoffs differ from payoff()")
        for qi in range(len(hospitals)):
            for alt in inst.wards:
                if alt == wards[qi]:
                    continue
                moved = wards[:qi] + (alt,) + wards[qi + 1 :]
                value = local_game.payoff(
                    inst, local_game.StrategyProfile(hospitals, moved)
                )[qi]
                if value > values[qi]:
                    raise CheckFailed(
                        f"equilibrium {wards}: {hospitals[qi]} gains by moving to {alt}"
                    )


def _check_plan(inst, report: dict) -> Fraction:
    """The reported set fits the budget and its z is evaluate_Z's."""
    chosen = central_plan.ExcellenceSet.of(
        (m["hospital"], m["ward"]) for m in report["excellence"]
    )
    if not central_plan.admissible(chosen, inst):
        raise CheckFailed("reported excellence set exceeds the budget")
    z = Fraction(report["z_value"])
    if central_plan.evaluate_Z(chosen, inst).z_value != z:
        raise CheckFailed(f"reported z {z} is not evaluate_Z of the reported set")
    return z


def _check_lp(inst, lp: str) -> None:
    lines = lp.splitlines()
    binaries = len(lines) - lines.index("Binary") - 2  # minus the header and End
    cells = len(inst.demand_cells())
    expected = inst.num_hospitals * inst.num_wards + cells * (inst.num_hospitals + 1)
    if lines[-1] != "End" or binaries != expected:
        raise CheckFailed(f"export_ilp declares {binaries} binaries, expected {expected}")

