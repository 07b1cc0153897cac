"""Command line for the suite: validate scenarios, analyze either financing
regime, compare the two, and generate seeded instances.

The commands and their help live in one table, COMMANDS.
Exit codes: 0 success, 1 validation error, 2 size-guard or assumption error
(a derived number too long to write is a size guard)."""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from fractions import Fraction

from . import central_plan, local_game, scenario
from .errors import (
    AssumptionViolationError,
    GenerationError,
    InstanceTooLargeError,
    InvalidInstanceError,
)

log = logging.getLogger("wardalloc")

ENV_OUTPUT_DIR = "WARDALLOC_OUTPUT_DIR"

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_LIMIT = 2

VERDICT_CRITERIA = {
    "diversified_excellences": (
        "at least one diversified equilibrium exists and no uniform "
        "equilibrium exists"
    ),
    "poles_of_excellence": (
        "the greedy excellence set is a staircase, at least one hospital "
        "holds two or more excellent wards, and at least one hospital holds "
        "none"
    ),
}


def _parse_dims(text: str) -> tuple[int, int]:
    try:  # a part that is no int, or not exactly two parts
        nq, nr = map(int, text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError("dims must look like QxR, e.g. 2x3") from None
    return nq, nr


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wardalloc",
        description=(
            "Hospital ward-excellence planning: local-financing game analysis "
            "and central-financing budgeted planning."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for command, (help_text, build, _) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        if build is _gen_report:  # draws its own scenario and always writes JSON
            p.add_argument("--seed", type=int, required=True)
            p.add_argument("--dims", type=_parse_dims, required=True, metavar="QxR")
            p.add_argument(
                "--profile", choices=scenario.PROFILES, default=scenario.PROFILE_UNCONSTRAINED
            )
            p.set_defaults(format="json")
        else:
            p.add_argument("--input", "-i", required=True, help="scenario JSON file")
            p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument(
            "--output",
            "-o",
            help=(
                "output file; stdout when omitted. A relative path is joined "
                f"with ${ENV_OUTPUT_DIR} when that is set."
            ),
        )
        p.add_argument("--verbose", "-v", action="count", default=0)
    return parser


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    path = os.path.join(os.environ.get(ENV_OUTPUT_DIR, ""), path)  # absolute paths win
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    log.info("wrote %s", path)


# ---------------------------------------------------------------------------
# report assembly


def _check_report(inst) -> dict:
    return {
        "command": "check",
        "assumptions": [
            {
                "assumption": rep.assumption,
                "holds": rep.holds,
                "violations": [
                    {
                        "code": v.code,
                        "where": v.where,
                        "lhs": scenario.format_rational(v.lhs),
                        "rhs": scenario.format_rational(v.rhs),
                        "message": v.message,
                    }
                    for v in rep.violations
                ],
            }
            for rep in scenario.all_assumptions(inst)
        ],
    }


def _check_text(report: dict) -> str:
    lines = []
    for rep in report["assumptions"]:
        if rep["holds"]:
            lines.append(f"assumption {rep['assumption']}: holds")
        else:
            lines.append(f"assumption {rep['assumption']}: FAILS")
            for v in rep["violations"]:
                lines.append(f"  - {v['message']}")
    return "\n".join(lines) + "\n"


def _local_report(inst) -> dict:
    return {"command": "local", **local_game.equilibrium_report_to_dict(inst)}


def _bimatrix_text(report: dict) -> str:
    """Two-hospital payoff table: rows are the first hospital's choices."""
    h1, h2 = report["hospitals"]
    strategies = report["strategies"]
    table = {
        (e["profile"][h1], e["profile"][h2]): e["payoffs"]
        for e in report["payoff_table"]
    }
    header = [""] + [f"{h2}: {s}" for s in strategies]
    rows = [header]
    for s1 in strategies:
        row = [f"{h1}: {s1}"]
        for s2 in strategies:
            payoffs = table[(s1, s2)]
            row.append(f"{Fraction(payoffs[h1])}, {Fraction(payoffs[h2])}")
        rows.append(row)
    widths = [max(len(r[c]) for r in rows) for c in range(len(header))]
    lines = [
        "  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)).rstrip()
        for row in rows
    ]
    return "\n".join(lines)


def _local_text(report: dict) -> str:
    lines = ["local-financing game"]
    if len(report["hospitals"]) == 2 and "payoff_table" in report:
        lines.append(_bimatrix_text(report))
    if report["equilibria"]:
        lines.append("pure equilibria:")
        for entry in report["equilibria"]:
            choice = ", ".join(f"{h} -> {w}" for h, w in entry["profile"].items())
            values = ", ".join(
                str(Fraction(entry["payoffs"][h])) for h in report["hospitals"]
            )
            lines.append(f"  {choice}   payoffs: {values}")
    else:
        lines.append("pure equilibria: none")
    d = report["diversification"]
    lines.append(
        "diversification: assumption1_holds={a}, uniform={u}, diversified={v}".format(
            a=d["assumption1_holds"],
            u=d["has_uniform_equilibrium"],
            v=d["has_diversified_equilibrium"],
        )
    )
    return "\n".join(lines) + "\n"


def _greedy_report(inst) -> dict:
    """Greedy plan, with its staircase verdict when the orders exist."""
    solution = central_plan.greedy_solve(inst)
    try:
        orders = central_plan.total_orders(inst)
    except AssumptionViolationError:
        orders = None
    doc = central_plan.plan_to_dict(solution, orders)
    return {"command": "central-greedy", **doc}


def _exact_report(inst) -> dict:
    doc = central_plan.plan_to_dict(central_plan.exact_solve(inst))
    return {"command": "central-exact", **doc}


def _plan_text(report: dict) -> str:
    lines = [report["command"]]
    members = ", ".join(f"({m['hospital']}, {m['ward']})" for m in report["excellence"])
    lines.append(f"excellence set: {{{members}}}")
    z = Fraction(report["z_value"])
    ec = Fraction(report["excel_cost_part"])
    pc = Fraction(report["patient_cost_part"])
    lines.append(f"z = {z} (upgrades {ec} + patients {pc})")
    if report["trace"]:
        lines.append("greedy trace:")
        for step in report["trace"]:
            lines.append(
                "  + ({h}, {w}): z {b} -> {a}".format(
                    h=step["added"]["hospital"],
                    w=step["added"]["ward"],
                    b=Fraction(step["z_before"]),
                    a=Fraction(step["z_after"]),
                )
            )
    outside = sum(
        c["count"] for c in report["assignment"] if c["destination"] == central_plan.OUTSIDE
    )
    inside = sum(c["count"] for c in report["assignment"]) - outside
    lines.append(f"patients treated inside: {inside}, outside: {outside}")
    if "staircase" in report:
        s = report["staircase"]
        lines.append(
            f"staircase: {s['holds']} (wards {' > '.join(s['ward_order'])}; "
            f"hospitals {' > '.join(s['hospital_order'])})"
        )
    return "\n".join(lines) + "\n"


def _compare_report(inst) -> dict:
    local = _local_report(inst)
    central = _greedy_report(inst)
    verdict = local["diversification"]
    diversified = (
        verdict["has_diversified_equilibrium"] and not verdict["has_uniform_equilibrium"]
    )
    wards_per_hospital = {h: 0 for h in inst.hospitals}
    for m in central["excellence"]:
        wards_per_hospital[m["hospital"]] += 1
    staircase_holds = bool(central.get("staircase", {}).get("holds"))
    poles = (
        staircase_holds
        and max(wards_per_hospital.values()) >= 2
        and min(wards_per_hospital.values()) == 0
    )
    return {
        "command": "compare",
        "verdicts": {
            "diversified_excellences": diversified,
            "poles_of_excellence": poles,
            "criteria": VERDICT_CRITERIA,
        },
        "local": local,
        "central": central,
    }


def _compare_text(report: dict) -> str:
    v = report["verdicts"]
    lines = [
        "regime comparison",
        f"local financing: diversified excellences = {v['diversified_excellences']}",
        f"central financing: poles of excellence = {v['poles_of_excellence']}",
        "",
        _local_text(report["local"]).rstrip(),
        "",
        _plan_text(report["central"]).rstrip(),
    ]
    return "\n".join(lines) + "\n"


def _gen_report(args) -> dict:
    inst = scenario.generate_scenario(args.seed, args.dims, args.profile)
    return scenario.instance_to_dict(inst)


def _json_text(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


def _from_input(report):
    """Build step of a command that reads --input. The library is reached
    through module attributes at call time, never captured here."""
    return lambda args: report(scenario.load_scenario(args.input))


# command -> (help, build(args) -> report, text renderer), in --help order.
COMMANDS = {
    "check": ("run the five assumption checkers", _from_input(_check_report), _check_text),
    "local": ("local-financing equilibrium analysis",
              _from_input(_local_report), _local_text),
    "central-greedy": ("greedy central plan", _from_input(_greedy_report), _plan_text),
    "central-exact": ("exhaustive central plan", _from_input(_exact_report), _plan_text),
    "compare": ("run both regimes and compare", _from_input(_compare_report), _compare_text),
    "gen": ("generate a seeded scenario file", _gen_report, _json_text),
}


def run(args: argparse.Namespace) -> int:
    """Execute one parsed invocation; returns the process exit code."""
    _, build, text = COMMANDS[args.command]
    render = text if args.format == "text" else _json_text
    try:
        _emit(render(build(args)), args.output)
    except (InvalidInstanceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (InstanceTooLargeError, AssumptionViolationError, GenerationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # basicConfig only adds the handler once; the level is set on every call
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    log.setLevel((logging.WARNING, logging.INFO, logging.DEBUG)[min(args.verbose, 2)])
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
