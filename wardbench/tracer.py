"""Spans around the package's public functions, recorded from outside.

`Tracer.install` rebinds each traced function, wherever a wardalloc module
holds it, to a wrapper that records a span; `uninstall` puts the originals
back. No file of the package is edited. Spans stay in memory until the run
writes them out.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

# (module, attribute) -> span name. Attributes with a dot live on a class.
TRACED = {
    ("scenario", "generate_scenario"): "scenario.generate",
    ("scenario", "load_scenario"): "scenario.load",
    ("scenario", "ScenarioInstance.demand_cells"): "scenario.demand_cells",
    ("scenario", "check_assumption1"): "scenario.assumptions",
    ("scenario", "check_assumption2"): "scenario.assumptions",
    ("scenario", "check_assumption3"): "scenario.assumptions",
    ("scenario", "check_assumption4"): "scenario.assumptions",
    ("scenario", "check_assumption5"): "scenario.assumptions",
    ("local_game", "build_payoff_tensor"): "local_game.tensor",
    ("local_game", "enumerate_pure_nash"): "local_game.nash",
    ("local_game", "equilibrium_report_to_dict"): "local_game.report",
    ("central_plan", "greedy_solve"): "central_plan.greedy",
    ("central_plan", "exact_solve"): "central_plan.exact",
    ("central_plan", "evaluate_Z"): "central_plan.evaluate_Z",
    ("central_plan", "total_orders"): "central_plan.orders",
    ("central_plan", "check_staircase"): "central_plan.staircase",
    ("central_plan", "export_ilp"): "central_plan.export_ilp",
    ("central_plan", "plan_to_dict"): "central_plan.plan_to_dict",
}
CLI_SPAN = "cli.run"


def _greedy_pairs_scanned(inst, solution) -> int:
    # Computed, not counted: every greedy step scans each pair not yet
    # chosen, and the loop makes one last scan unless every pair was taken.
    n = inst.num_hospitals * inst.num_wards
    steps = len(solution.trace)
    scans = steps if steps == n else steps + 1
    return sum(n - j for j in range(scans))


# span name -> function(args, result) -> {counter: amount}
COUNTERS = {
    "scenario.load": lambda a, r: {"bytes": os.path.getsize(a[0])},
    "local_game.tensor": lambda a, r: {"profiles": len(r.payoffs)},
    "local_game.nash": lambda a, r: {"equilibria": len(r.equilibria)},
    "central_plan.greedy": lambda a, r: {
        "steps": len(r.trace),
        "pairs_scanned": _greedy_pairs_scanned(a[0], r),
    },
    "central_plan.exact": lambda a, r: {
        "pairs": a[0].num_hospitals * a[0].num_wards
    },
    "central_plan.export_ilp": lambda a, r: {"bytes": len(r.encode())},
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    op: int
    detail: str = ""


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.op = -1
        self.active = False

    # -- recording --------------------------------------------------------

    def span(self, name: str, fn, args, kwargs, detail: str = ""):
        if not self.active:
            return fn(*args, **kwargs)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(name, 0.0, 0.0, parent, self.op, detail)
        self.spans.append(span)
        self._stack.append(index)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        counter = COUNTERS.get(name)
        if counter is not None:
            for key, amount in counter(args, result).items():
                self.counters[f"{name}.{key}"] += amount
        return result

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            return tracer.span(name, fn, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == "wardalloc" or key.startswith("wardalloc."))
        ]
        for (module, attr), name in TRACED.items():
            owner = sys.modules[f"wardalloc.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._rebind(cls, meth, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._rebind(m, key, wrapper)

    def _rebind(self, owner, key, value) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)

    # -- results ----------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def summary(self) -> dict[str, dict[str, float]]:
        """calls, busy_s and self_s per span name; busy_s of a name counts
        nested spans of the same name once."""
        own = self.self_times()
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
        )
        for i, s in enumerate(self.spans):
            row = out[s.name]
            row["calls"] += 1
            row["self_s"] += own[i]
            if not self._inside_same_name(s):
                row["busy_s"] += s.end - s.start
        return dict(out)

    def _inside_same_name(self, span: Span) -> bool:
        parent = span.parent
        while parent is not None:
            if self.spans[parent].name == span.name:
                return True
            parent = self.spans[parent].parent
        return False

    def write(self, path) -> None:
        doc = {
            "spans": [
                {
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": s.parent,
                    "op": s.op,
                    "detail": s.detail,
                }
                for s in self.spans
            ],
            "counters": dict(self.counters),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
