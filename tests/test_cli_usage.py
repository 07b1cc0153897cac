"""The command line's help and usage errors, byte for byte, and the parsers
one call builds.

The expected bytes are argparse's output on CPython 3.11 at 80 columns."""

import argparse

import pytest

from wardalloc.cli import COMMANDS, main
from wardalloc.scenario import generate_scenario, save_scenario

TOP_USAGE = (
    "usage: wardalloc [-h]\n"
    "                 {check,local,central-greedy,central-exact,compare,gen} ...\n"
)
TOP_HELP = TOP_USAGE + (
    "\n"
    "Hospital ward-excellence planning: local-financing game analysis and central-\n"
    "financing budgeted planning.\n"
    "\n"
    "positional arguments:\n"
    "  {check,local,central-greedy,central-exact,compare,gen}\n"
    "    check               run the five assumption checkers\n"
    "    local               local-financing equilibrium analysis\n"
    "    central-greedy      greedy central plan\n"
    "    central-exact       exhaustive central plan\n"
    "    compare             run both regimes and compare\n"
    "    gen                 generate a seeded scenario file\n"
    "\n"
    "options:\n"
    "  -h, --help            show this help message and exit\n"
)
INVALID_COMMAND = (
    "wardalloc: error: argument command: invalid choice: {!r} (choose from 'check', "
    "'local', 'central-greedy', 'central-exact', 'compare', 'gen')\n"
)
GEN_USAGE = (
    "usage: wardalloc gen [-h] --seed SEED --dims QxR\n"
    "                     [--profile {unconstrained,assumption1-satisfying,"
    "assumption4&5-satisfying}]\n"
    "                     [--output OUTPUT] [--verbose]\n"
)


def input_usage(command: str) -> str:
    indent = " " * len(f"usage: wardalloc {command} ")
    return (
        f"usage: wardalloc {command} [-h] --input INPUT [--format {{text,json}}]\n"
        f"{indent}[--output OUTPUT] [--verbose]\n"
    )


INPUT_OPTIONS = (
    "\n"
    "options:\n"
    "  -h, --help            show this help message and exit\n"
    "  --input INPUT, -i INPUT\n"
    "                        scenario JSON file\n"
    "  --format {text,json}\n"
    "  --output OUTPUT, -o OUTPUT\n"
    "                        output file; stdout when omitted. A relative path is\n"
    "                        joined with $WARDALLOC_OUTPUT_DIR when that is set.\n"
    "  --verbose, -v\n"
)

# argv -> (exit code, stdout, stderr)
USAGE_BYTES = {
    (): (2, "", TOP_USAGE + "wardalloc: error: the following arguments are required: command\n"),
    ("--help",): (0, TOP_HELP, ""),
    ("-h",): (0, TOP_HELP, ""),
    ("foo",): (2, "", TOP_USAGE + INVALID_COMMAND.format("foo")),
    ("-i", "a"): (2, "", TOP_USAGE + INVALID_COMMAND.format("a")),
    ("gen",): (
        2,
        "",
        GEN_USAGE + "wardalloc gen: error: the following arguments are required: --seed, --dims\n",
    ),
    ("gen", "--seed", "x", "--dims", "2x2"): (
        2,
        "",
        GEN_USAGE + "wardalloc gen: error: argument --seed: invalid int value: 'x'\n",
    ),
    ("gen", "--seed", "1", "--dims", "2y2"): (
        2,
        "",
        GEN_USAGE + "wardalloc gen: error: argument --dims: dims must look like QxR, e.g. 2x3\n",
    ),
    ("gen", "--seed", "1", "--dims", "2x2", "--format", "json"): (
        2,
        "",
        TOP_USAGE + "wardalloc: error: unrecognized arguments: --format json\n",
    ),
    ("check",): (
        2,
        "",
        input_usage("check")
        + "wardalloc check: error: the following arguments are required: --input/-i\n",
    ),
    ("check", "-i", "a", "--format", "xml"): (
        2,
        "",
        input_usage("check") + "wardalloc check: error: argument --format: invalid choice: "
        "'xml' (choose from 'text', 'json')\n",
    ),
    ("check", "-i", "a", "extra"): (
        2,
        "",
        TOP_USAGE + "wardalloc: error: unrecognized arguments: extra\n",
    ),
    ("compare", "--bogus"): (
        2,
        "",
        input_usage("compare")
        + "wardalloc compare: error: the following arguments are required: --input/-i\n",
    ),
    ("local", "--help"): (0, input_usage("local") + INPUT_OPTIONS, ""),
    ("central-exact", "-h"): (0, input_usage("central-exact") + INPUT_OPTIONS, ""),
}


@pytest.mark.parametrize("argv", USAGE_BYTES, ids=" ".join)
def test_help_and_usage_errors_are_byte_identical(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main(list(argv))
    assert (exit_info.value.code, *capsys.readouterr()) == USAGE_BYTES[argv]


def count_parsers(monkeypatch, argv) -> int:
    """How many ArgumentParsers one main(argv) call builds."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        try:
            main(argv)
        except SystemExit:
            pass
    return len(built)


@pytest.mark.parametrize("command", [c for c in COMMANDS if c != "gen"])
def test_an_input_command_builds_only_its_own_parser(command, tmp_path, monkeypatch, capsys):
    # the top-level parser and the command's subparser, not all six subparsers
    path = tmp_path / "s.json"
    save_scenario(generate_scenario(0, (2, 2)), path)
    assert count_parsers(monkeypatch, [command, "--input", str(path)]) == 2
    assert capsys.readouterr().out


@pytest.mark.parametrize("argv", [["--help"], [], ["foo"]])
def test_help_and_unknown_commands_build_every_parser(argv, monkeypatch, capsys):
    assert count_parsers(monkeypatch, argv) == 1 + len(COMMANDS)
