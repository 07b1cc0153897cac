"""Time-limited probe of the exact solver's size guard.

`EXACT_ENUMERATION_CAP = 24` admits every instance with |Q|*|R| <= 24, yet
the search is exponential in |Q|*|R|. This probe times `exact_solve` on the
generator's own instances around the cap, each in a fresh child process that
is killed at the time limit, and stores the result under "guard_gap" in
wardbench/baseline.json.

    python3 wardbench/probe_guard.py [--limit SECONDS]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time

import host
from paths import BASELINE, ROOT, SRC

# (dims, profile) at seed 1; the ROADMAP table timed 3x4 and 4x5 by hand.
CASES = (
    ((3, 4), "unconstrained"),
    ((4, 5), "unconstrained"),
    ((4, 5), "assumption4&5-satisfying"),
    ((4, 6), "unconstrained"),
)
SEED = 1


def _child(nq: int, nr: int, profile: str) -> None:
    sys.path.insert(0, str(SRC))
    from wardalloc import central_plan, scenario

    inst = scenario.generate_scenario(SEED, (nq, nr), profile)
    start = time.perf_counter()
    central_plan.exact_solve(inst)
    print(time.perf_counter() - start)


def probe(limit: float) -> dict:
    from_src = f"import sys; sys.path.insert(0, {str(ROOT / 'wardbench')!r}); import probe_guard"
    cases = []
    for (nq, nr), profile in CASES:
        code = f"{from_src}; probe_guard._child({nq}, {nr}, {profile!r})"
        entry = {"dims": f"{nq}x{nr}", "pairs": nq * nr, "profile": profile, "seed": SEED}
        try:
            done = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                timeout=limit,
                check=True,
                cwd=ROOT,
            )
        except subprocess.TimeoutExpired:
            entry.update(finished=False, limit_s=limit)
        else:
            entry.update(finished=True, seconds=float(done.stdout.strip()))
        print(json.dumps(entry), flush=True)
        cases.append(entry)
    return {"exact_enumeration_cap": 24, "cases": cases}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--limit", type=float, default=120.0, help="seconds per case")
    args = parser.parse_args()
    result = probe(args.limit)
    result["host"] = host.describe()
    doc = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
    doc["guard_gap"] = result
    BASELINE.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
