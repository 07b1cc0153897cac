"""Workload definitions and the set-up step that writes their inputs.

A workload is a fixed list of slots. A slot fixes the instance properties
that drive cost: size (|Q| x |R|), generation profile and budget tightness.
One round runs one instance of every slot; a run repeats rounds, so every
run sees the slots in the same proportions whatever its seed.

Run as a script, this module is the timed set-up: it imports the package,
generates every instance of the workload from the seed and writes the
scenario files and a manifest.

    python3 wardbench/workloads.py --workload NAME --seed N --out DIR
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from paths import SRC

U = "unconstrained"
A1 = "assumption1-satisfying"
A45 = "assumption4&5-satisfying"


@dataclass(frozen=True)
class Slot:
    dims: tuple[int, int]
    profile: str
    # Budget as a share of the sum of all upgrade costs; None keeps the
    # generator's own random budget.
    budget_share: Fraction | None = None

    @property
    def label(self) -> str:
        share = "" if self.budget_share is None else f"@{self.budget_share}"
        return f"{self.dims[0]}x{self.dims[1]}/{self.profile}{share}"


# The CLI commands of one operation, per pipeline. The greedy pipeline then
# also loads the scenario and calls evaluate_Z and export_ilp on the plan.
PIPELINES = {
    "session": ("gen", "check", "local", "central-greedy", "central-exact", "compare"),
    "greedy": ("central-greedy",),
    "exact": ("central-exact",),
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    pipeline: str  # a key of PIPELINES
    slots: tuple[Slot, ...]
    # Distinct instances generated per slot; later rounds reuse them.
    rounds: int


def _grid(dims_list, profiles, shares=(None,)):
    return tuple(Slot(d, p, s) for s in shares for d in dims_list for p in profiles)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep-small",
            why=(
                "many tiny instances through all six CLI commands: per-call "
                "overhead (argparse, load, validation, reports, JSON) dominates"
            ),
            pipeline="session",
            slots=_grid(((2, 2), (2, 3), (3, 3)), (U, A1, A45)),
            rounds=6,
        ),
        Workload(
            name="central-large",
            why=(
                "20x20 and 30x20 greedy plans plus evaluate_Z and export_ilp: "
                "Fraction arithmetic of the central cost model dominates"
            ),
            pipeline="greedy",
            # Budget shares fix how deep greedy goes; all but the first slot
            # cost about the same, so the median falls inside that cluster.
            slots=(
                Slot((20, 20), U, Fraction(1, 20)),
                Slot((30, 20), U, Fraction(1, 20)),
                Slot((20, 20), A45, Fraction(1, 25)),
                Slot((30, 20), A45, Fraction(1, 60)),
                Slot((20, 20), U, Fraction(1, 4)),
            ),
            # About one run's worth: every instance runs once, so a run's
            # figures rest on four instances of each slot.
            rounds=4,
        ),
        Workload(
            name="central-exact",
            why=(
                "4x4 and 3x5 exact plans from tight to loose budgets: the "
                "exponential search dominates, heavily and lightly pruned"
            ),
            pipeline="exact",
            # Three cost bands at least five times apart, so the median stays
            # in the middle band even when the machine's speed swings.
            slots=(
                _grid(((4, 4),), (U, A1, A45), (Fraction(1, 16),))
                + _grid(((3, 5),), (U, A1, A45), (Fraction(1, 4),))
                + _grid(((4, 4),), (U, A1, A45), (Fraction(5, 16),))
            ),
            # About one run's worth: each instance runs about once, so a
            # run's figures rest on many instances of each slot.
            rounds=24,
        ),
    )
}


def instance_seeds(workload: Workload, seed: int) -> list[int]:
    """One generator seed per (round, slot), in run order."""
    rng = random.Random(f"{workload.name}:{seed}")
    return [rng.randrange(2**31) for _ in range(workload.rounds * len(workload.slots))]


def manifest_entries(workload: Workload, seed: int) -> list[dict]:
    entries = []
    for i, inst_seed in enumerate(instance_seeds(workload, seed)):
        slot = workload.slots[i % len(workload.slots)]
        entries.append(
            {
                "index": i,
                "slot": slot.label,
                "dims": list(slot.dims),
                "profile": slot.profile,
                "seed": inst_seed,
            }
        )
    return entries


def _generate(scenario, slot: Slot, inst_seed: int):
    """Generator output with the slot's budget tightness applied."""
    inst = scenario.generate_scenario(inst_seed, slot.dims, slot.profile)
    if slot.budget_share is None:
        return inst
    total = sum((sum(row) for row in inst.excel_cost), Fraction(0))
    return dataclasses.replace(inst, budget=total * slot.budget_share)


def write_inputs(workload: Workload, seed: int, out: Path) -> list[dict]:
    """Write the scenario files and manifest of one run. The session
    pipeline generates its own scenarios with `wardalloc gen`, so it only
    gets the manifest."""
    sys.path.insert(0, str(SRC))
    from wardalloc import scenario

    out.mkdir(parents=True, exist_ok=True)
    entries = manifest_entries(workload, seed)
    for entry in entries:
        path = out / f"{entry['index']}.scenario.json"
        entry["path"] = str(path)
        if workload.pipeline != "session":
            slot = workload.slots[entry["index"] % len(workload.slots)]
            scenario.save_scenario(_generate(scenario, slot, entry["seed"]), path)
    (out / "manifest.json").write_text(json.dumps(entries, indent=1) + "\n")
    return entries


def main() -> int:
    parser = argparse.ArgumentParser(description="write one run's inputs")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    write_inputs(WORKLOADS[args.workload], args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
