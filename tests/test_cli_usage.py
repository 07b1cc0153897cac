"""The command line's help and usage errors, byte for byte, the parsers one
call builds, and the fast parser against argparse.

The expected bytes are argparse's output on CPython 3.11 at 80 columns."""

import argparse
import gc
import shlex

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_readme import fenced

from wardalloc.cli import COMMANDS, ENV_OUTPUT_DIR, OPTIONS, _parse_fast, build_parser, main
from wardalloc.scenario import PROFILES, generate_scenario, save_scenario

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
def test_another_spelling_builds_the_whole_parser_and_prints_the_same(
    command, tmp_path, monkeypatch, capsys
):
    # a well-formed argv builds no parser; another spelling builds the
    # top-level parser and all six subparsers, and answers alike
    path = tmp_path / "s.json"
    save_scenario(generate_scenario(0, (2, 2)), path)
    assert count_parsers(monkeypatch, [command, "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert out
    assert count_parsers(monkeypatch, [command, f"--input={path}"]) == 1 + len(COMMANDS)
    assert capsys.readouterr().out == out


@pytest.mark.parametrize("argv", [["--help"], [], ["foo"]])
def test_help_and_unknown_commands_build_every_parser(argv, monkeypatch, capsys):
    assert count_parsers(monkeypatch, argv) == 1 + len(COMMANDS)


# ---------------------------------------------------------------------------
# the fast parser

SPELLINGS = [flag for opts in OPTIONS.values() for opt in opts for flag in opt.flags]
# abbreviations, attached values, stacked flags, help, the end-of-options
# marker, stray tokens and numbers argparse may take as values
ODD_TOKENS = [
    "--inp", "--verb", "--form", "--prof", "--se", "--input=s.json", "--seed=3",
    "--dims=2x3", "-is.json", "-os.txt", "-vv", "-h", "--help", "--", "-", "extra",
    "check", "-3", "--bogus", "",
]  # fmt: skip
VALUES = [
    "s.json", "", " ", "a b", "-s.json", "-", "--", "json", "text", "xml", "JSON",
    "3", "-3", " -3", "+3", "1_0", " 7 ", "\u0663", "x", "2x3", "2X3", " 3x4 ", "3x",
    "-1x2", "2x-1", "1x2x3", *PROFILES, "unconstrained ",
]  # fmt: skip
FITTING = {  # values each option converts and allows
    "input": ["s.json", "", "a b"],
    "output": ["o.json", " "],
    "format": ["json", "text"],
    "seed": ["3", " -3", "+3", "1_0", " 7 ", "\u0663"],
    "dims": ["2x3", "2X3", " 3x4 ", "2x-1"],
    "profile": list(PROFILES),
}


@st.composite
def command_lines(draw):
    """A command (or no known one) and options of its table, each with a
    value when it takes one, the required ones usually first, some repeated
    or missing; odd tokens go in at random places."""
    argv = [draw(st.sampled_from([*COMMANDS, "foo"]))]
    options = [opt for opt in OPTIONS.get(argv[0], OPTIONS["gen"]) if opt.flags]
    required = [opt for opt in options if opt.required]
    chosen = draw(st.sampled_from([required, required, required[:1], []]))
    chosen += draw(st.lists(st.sampled_from(options), max_size=3, unique=True))
    for opt in draw(st.permutations(chosen)):
        argv.append(draw(st.sampled_from(opt.flags)))
        if not opt.counted:
            argv.append(draw(st.sampled_from(FITTING[opt.dest] * 4 + VALUES)))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        token = draw(st.sampled_from(ODD_TOKENS + SPELLINGS))
        argv.insert(draw(st.integers(0, len(argv))), token)
    return argv


@settings(max_examples=1000, deadline=None)
@given(command_lines())
def test_fast_parser_agrees_with_argparse_wherever_it_accepts(argv):
    args = _parse_fast(argv)
    if args is not None:
        assert vars(args) == vars(build_parser().parse_args(argv))


def quick_start_argvs():
    sh = fenced("Quick start", "sh")
    return [shlex.split(line)[1:] for line in sh.splitlines() if line.startswith("wardalloc ")]


BENCHMARK_ARGVS = [  # the argv shapes wardbench's harness passes to main
    *(
        ["gen", "--seed", "0", "--dims", "2x3", "--profile", profile, "--output", "o.json"]
        for profile in PROFILES
    ),
    *(
        [command, "--input", "s.json", "--format", "json", "--output", "o.json"]
        for command in COMMANDS
        if command != "gen"
    ),
]


SHORT_SPELLINGS = [
    ["check", "-i", "s.json", "-o", "o.txt", "-v"],
    ["local", "-v", "-i", "s.json", "--verbose", "--format", "text"],
    ["gen", "--dims", "3x3", "-v", "-v", "--seed", "7"],
]


@pytest.mark.parametrize(
    "argv", BENCHMARK_ARGVS + quick_start_argvs() + SHORT_SPELLINGS, ids=" ".join
)
def test_fast_parser_takes_the_common_command_lines(argv):
    args = _parse_fast(argv)
    assert args is not None
    assert vars(args) == vars(build_parser().parse_args(argv))


@pytest.mark.parametrize("argv", BENCHMARK_ARGVS, ids=" ".join)
def test_the_benchmark_command_lines_build_no_parser(argv, tmp_path, monkeypatch):
    # run for real, in a directory that holds the scenario file they name
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(ENV_OUTPUT_DIR, raising=False)
    save_scenario(generate_scenario(0, (2, 2)), "s.json")
    assert count_parsers(monkeypatch, argv) == 0
    assert (tmp_path / "o.json").read_text()


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--input", "s.json", "-vv"],
        ["check", "--inp", "s.json"],
        ["check", "--input=s.json"],
        ["check", "-is.json"],
        ["check", "--input", "a", "--input", "b"],
        ["check", "--input", "-s.json"],
        ["check", "--input", "s.json", "--", "-v"],
        ["check", "--input", "s.json", "extra"],
        ["check", "--input"],
        ["check", "--format", "json"],
        ["check", "--input", "s.json", "--format", "xml"],
        ["check", "--input", "s.json", "-h"],
        ["gen", "--seed", "-3", "--dims", "2x3"],
        ["gen", "--seed", "x", "--dims", "2x3"],
        ["gen", "--seed", "1", "--dims", "2y3"],
        ["gen", "--seed", "1", "--dims", "2x3", "--profile", "none"],
        ["gen", "--seed", "1", "--dims", "2x3", "--format", "json"],
        ["gen", "--seed", "1"],
        ["--help"],
        ["foo", "--input", "s.json"],
        [],
    ],
    ids=" ".join,
)
def test_fast_parser_leaves_every_other_command_line_to_argparse(argv):
    assert _parse_fast(argv) is None


@pytest.mark.parametrize("command", list(COMMANDS))
def test_a_well_formed_call_leaves_no_cyclic_garbage(command, tmp_path):
    path = tmp_path / "s.json"
    save_scenario(generate_scenario(0, (2, 2)), path)
    argv = [command, "--input", str(path), "--output", str(tmp_path / "out")]
    if command == "gen":
        argv = ["gen", "--seed", "0", "--dims", "2x2", "--output", str(tmp_path / "out")]
    assert main(argv) == 0  # imports, logging's handler
    gc.disable()
    try:
        gc.collect()
        assert main(argv) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
