"""Command line for the suite: validate scenarios, analyze either financing
regime, compare the two, and generate seeded instances.

The commands and their help live in one table, COMMANDS, and each
command's options in another, OPTIONS. A well-formed command line is read
straight from OPTIONS; help, usage errors and every other spelling go
through the argparse parser built from the same table.
Exit codes: 0 success, 1 validation error, 2 size-guard or assumption error
(a derived number too long to write is a size guard)."""

from __future__ import annotations

import argparse
import logging
import os
import sys
from collections.abc import Callable, Sequence
from dataclasses import dataclass
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


def build_parser(argv: Sequence[str] = ()) -> argparse.ArgumentParser:
    """The command line's argparse parser, built from OPTIONS. main builds
    it only for an argv that _parse_fast refuses: help, a usage error or a
    less common spelling. When argv names a command, only that command's
    subparser is added; otherwise (help, no command, an unknown one) all of
    them are."""
    parser = argparse.ArgumentParser(
        prog="wardalloc",
        description=(
            "Hospital ward-excellence planning: local-financing game analysis "
            "and central-financing budgeted planning."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    commands = [argv[0]] if argv and argv[0] in COMMANDS else COMMANDS
    for command in commands:
        p = sub.add_parser(command, help=COMMANDS[command][0])
        for opt in OPTIONS[command]:
            if not opt.flags:
                p.set_defaults(**{opt.dest: opt.default})
            elif opt.counted:
                p.add_argument(*opt.flags, dest=opt.dest, action="count", default=opt.default)
            else:
                p.add_argument(
                    *opt.flags,
                    dest=opt.dest,
                    type=opt.type,
                    choices=opt.choices,
                    default=opt.default,
                    required=opt.required,
                    metavar=opt.metavar,
                    help=opt.help,
                )
    return parser


def _parse_fast(argv: Sequence[str]) -> argparse.Namespace | None:
    """parse_args's namespace for a well-formed argv, read from OPTIONS
    without argparse; None for any other argv. Well-formed: a command, then
    each option as one of its exact spellings, a value option at most once
    and its value the next token, which does not start with "-"; every value
    converts and is among the choices, and no required option is missing."""
    if not argv or argv[0] not in OPTIONS:
        return None
    options = OPTIONS[argv[0]]
    by_flag = {flag: opt for opt in options for flag in opt.flags}
    values = {opt.dest: opt.default for opt in options}
    given = set()
    tokens = iter(argv[1:])
    for token in tokens:
        opt = by_flag.get(token)
        if opt is None:
            return None
        if opt.counted:
            values[opt.dest] += 1
            continue
        text = next(tokens, None)
        if text is None or text.startswith("-") or opt.dest in given:
            return None
        given.add(opt.dest)
        try:
            value = text if opt.type is None else opt.type(text)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if opt.choices is not None and value not in opt.choices:
            return None
        values[opt.dest] = value
    if any(opt.required and opt.dest not in given for opt in options):
        return None
    return argparse.Namespace(command=argv[0], **values)


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    path = os.path.join(os.environ.get(ENV_OUTPUT_DIR, ""), path)  # absolute paths win
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    scenario._write_text(path, text)
    log.info("wrote %s", path)


# ---------------------------------------------------------------------------
# report assembly


def _check_report(inst) -> dict:
    return {
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
    lines.append("pure equilibria:")  # load balancing always has one
    for entry in report["equilibria"]:
        choice = ", ".join(f"{h} -> {w}" for h, w in entry["profile"].items())
        values = ", ".join(str(Fraction(entry["payoffs"][h])) for h in report["hospitals"])
        lines.append(f"  {choice}   payoffs: {values}")
    d = report["diversification"]
    lines.append(
        "diversification: assumption1_holds={a}, uniform={u}, diversified={v}".format(
            a=d["assumption1_holds"],
            u=d["has_uniform_equilibrium"],
            v=d["has_diversified_equilibrium"],
        )
    )
    return "\n".join(lines) + "\n"


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
    local = _report("local", inst)
    central = _report("central-greedy", inst)
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


# command -> (help, report(inst) on a scenario, text renderer), in --help
# order; gen has neither, it draws the scenario it writes and writes only
# JSON. The library is reached through module attributes at call time, never
# captured here.
COMMANDS = {
    "check": ("run the five assumption checkers", _check_report, _check_text),
    "local": (
        "local-financing equilibrium analysis",
        lambda inst: local_game.equilibrium_report_to_dict(inst),
        _local_text,
    ),
    "central-greedy": (  # the greedy plan carries its staircase verdict
        "greedy central plan",
        lambda inst: central_plan.plan_to_dict(central_plan.greedy_solve(inst), staircase=True),
        _plan_text,
    ),
    "central-exact": (
        "exhaustive central plan",
        lambda inst: central_plan.plan_to_dict(central_plan.exact_solve(inst)),
        _plan_text,
    ),
    "compare": ("run both regimes and compare", _compare_report, _compare_text),
    "gen": ("generate a seeded scenario file", None, None),
}

@dataclass(frozen=True)
class _Option:
    """One option of a command, as argparse's add_argument takes it. An
    option with no spellings is a fixed value of the namespace."""

    flags: tuple[str, ...]
    dest: str
    type: Callable[[str], object] | None = None
    choices: tuple[str, ...] | None = None
    default: object = None
    required: bool = False
    counted: bool = False  # a flag counted per use, not one taking a value
    metavar: str | None = None
    help: str | None = None


_OUTPUT = _Option(
    ("--output", "-o"),
    "output",
    help=(
        "output file; stdout when omitted. A relative path is joined "
        f"with ${ENV_OUTPUT_DIR} when that is set."
    ),
)
_VERBOSE = _Option(("--verbose", "-v"), "verbose", default=0, counted=True)
_INPUT_OPTIONS = (
    _Option(("--input", "-i"), "input", required=True, help="scenario JSON file"),
    _Option(("--format",), "format", choices=("text", "json"), default="text"),
    _OUTPUT,
    _VERBOSE,
)


# command -> its options in --help order, the one source of both parsers
OPTIONS = {command: _INPUT_OPTIONS for command in COMMANDS}
OPTIONS["gen"] = (
    _Option(("--seed",), "seed", type=int, required=True),
    _Option(("--dims",), "dims", type=_parse_dims, required=True, metavar="QxR"),
    _Option(
        ("--profile",), "profile", choices=scenario.PROFILES, default=scenario.PROFILE_UNCONSTRAINED
    ),
    _Option((), "format", default="json"),  # gen always writes JSON
    _OUTPUT,
    _VERBOSE,
)


def _report(command: str, inst) -> dict:
    """A command's report on a scenario, under its "command" key."""
    return {"command": command, **COMMANDS[command][1](inst)}


def run(args: argparse.Namespace) -> int:
    """Execute one parsed invocation; returns the process exit code."""
    _, report, text = COMMANDS[args.command]
    render = text if args.format == "text" else scenario._json_text
    try:
        if report is None:
            inst = scenario.generate_scenario(args.seed, args.dims, args.profile)
            doc = scenario.instance_to_dict(inst)
        else:
            doc = _report(args.command, scenario.load_scenario(args.input))
        _emit(render(doc), args.output)
    except (InvalidInstanceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (InstanceTooLargeError, AssumptionViolationError, GenerationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    return EXIT_OK


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_fast(argv)
    if args is None:
        args, extra = build_parser(argv).parse_known_args(argv)
        if extra:  # reported under the usage line that lists every command
            args = build_parser().parse_args(argv)
    # basicConfig only adds the handler once; the level is set on every call
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    log.setLevel((logging.WARNING, logging.INFO, logging.DEBUG)[min(args.verbose, 2)])
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
