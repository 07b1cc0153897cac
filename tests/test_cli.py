"""Command-line tests: every subcommand, both output formats, exit codes,
environment-variable output routing, and report stability."""

import json
import logging
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wardalloc
from conftest import make_instance
from wardalloc import (
    build_payoff_tensor,
    dumps_scenario,
    enumerate_pure_nash,
    exact_solve,
    generate_scenario,
    greedy_solve,
    instance_to_dict,
    load_scenario,
    save_scenario,
)
from wardalloc.cli import COMMANDS, build_parser, main


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    if capsys is None:
        return code, None
    return code, capsys.readouterr()


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    save_scenario(generate_scenario(7, (2, 2)), path)
    return path


@pytest.fixture
def planned_file(tmp_path):
    path = tmp_path / "planned.json"
    save_scenario(generate_scenario(3, (3, 3), "assumption4&5-satisfying"), path)
    return path


# ---------------------------------------------------------------------------
# gen


def test_gen_writes_loadable_scenario(tmp_path):
    out = tmp_path / "made.json"
    code = main(["gen", "--seed", "5", "--dims", "2x3", "--output", str(out)])
    assert code == 0
    inst = load_scenario(out)
    assert inst == generate_scenario(5, (2, 3))


def test_gen_honors_profile(tmp_path):
    out = tmp_path / "made.json"
    code = main(
        [
            "gen",
            "--seed",
            "5",
            "--dims",
            "2x3",
            "--profile",
            "assumption1-satisfying",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    assert load_scenario(out) == generate_scenario(5, (2, 3), "assumption1-satisfying")


def test_gen_stdout_round_trips(capsys):
    code, captured = run_cli("gen", "--seed", "1", "--dims", "2x2", capsys=capsys)
    assert code == 0
    doc = json.loads(captured.out)
    assert doc["schema"] == 1
    assert doc["hospitals"] == ["q1", "q2"]


def test_gen_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["gen", "--seed", "9", "--dims", "3x2", "--output", str(a)]) == 0
    assert main(["gen", "--seed", "9", "--dims", "3x2", "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_past_the_size_cap_exits_2(capsys):
    code, captured = run_cli("gen", "--seed", "1", "--dims", "1000x1000", capsys=capsys)
    assert code == 2
    assert "generator's cap" in captured.err


def test_gen_dims_too_long_to_print_exit_2(capsys):
    code, captured = run_cli("gen", "--seed", "0", "--dims", "9" * 4300 + "x1", capsys=capsys)
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "generator's cap" in captured.err
    assert "Traceback" not in captured.err


def test_gen_unsatisfiable_profile_exits_2(capsys):
    for dims, reason in (
        ("1x4", "cannot hold with one hospital and 4 ward types"),
        # the profile draws distinct group sizes from 1,100 values
        ("2x1101", "1101 ward types need distinct group sizes"),
    ):
        code, captured = run_cli(
            "gen", "--seed", "0", "--dims", dims, "--profile", "assumption1-satisfying",
            capsys=capsys,
        )
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert reason in captured.err


def test_gen_rejects_malformed_dims(capsys):
    # one part, a part that is no int, three parts
    for dims in ("2by3", "2xb", "2x3x4"):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--seed", "1", "--dims", dims])
        assert exc.value.code == 2
        assert "dims must look like QxR, e.g. 2x3" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# check


def test_check_text_lists_assumptions(scenario_file, capsys):
    code, captured = run_cli(
        "check", "--input", str(scenario_file), capsys=capsys
    )
    assert code == 0
    for n in range(1, 6):
        assert f"assumption {n}:" in captured.out


def test_check_json_structure(scenario_file, capsys):
    code, captured = run_cli(
        "check", "--input", str(scenario_file), "--format", "json", capsys=capsys
    )
    assert code == 0
    doc = json.loads(captured.out)
    assert doc["command"] == "check"
    assert [a["assumption"] for a in doc["assumptions"]] == [1, 2, 3, 4, 5]
    for entry in doc["assumptions"]:
        assert entry["holds"] == (entry["violations"] == [])


# ---------------------------------------------------------------------------
# local


def test_local_json_matches_library(scenario_file, capsys):
    code, captured = run_cli(
        "local", "--input", str(scenario_file), "--format", "json", capsys=capsys
    )
    assert code == 0
    doc = json.loads(captured.out)
    inst = load_scenario(scenario_file)
    report = enumerate_pure_nash(build_payoff_tensor(inst))
    assert doc["command"] == "local"
    assert [e["profile"] for e in doc["equilibria"]] == [
        dict(zip(inst.hospitals, p.wards)) for p in report.equilibria
    ]


def test_local_text_has_bimatrix_and_equilibria(scenario_file, capsys):
    code, captured = run_cli("local", "--input", str(scenario_file), capsys=capsys)
    assert code == 0
    assert "local-financing game" in captured.out
    assert "q1: r1" in captured.out  # bimatrix row label
    assert "diversification:" in captured.out


def test_local_text_three_hospitals(tmp_path, capsys):
    # three hospitals: no bimatrix, but equilibria still listed
    path = tmp_path / "three.json"
    save_scenario(generate_scenario(2, (3, 2)), path)
    code, captured = run_cli("local", "--input", str(path), capsys=capsys)
    assert code == 0
    assert "pure equilibria" in captured.out


# ---------------------------------------------------------------------------
# central


def test_central_greedy_json(planned_file, capsys):
    code, captured = run_cli(
        "central-greedy",
        "--input",
        str(planned_file),
        "--format",
        "json",
        capsys=capsys,
    )
    assert code == 0
    doc = json.loads(captured.out)
    inst = load_scenario(planned_file)
    sol = greedy_solve(inst)
    assert doc["command"] == "central-greedy"
    assert Fraction(doc["z_value"]) == sol.z_value
    assert doc["staircase"]["holds"] is True
    assert len(doc["trace"]) == len(sol.excellence.members)


def test_central_exact_json(scenario_file, capsys):
    code, captured = run_cli(
        "central-exact",
        "--input",
        str(scenario_file),
        "--format",
        "json",
        capsys=capsys,
    )
    assert code == 0
    doc = json.loads(captured.out)
    inst = load_scenario(scenario_file)
    sol = exact_solve(inst)
    assert Fraction(doc["z_value"]) == sol.z_value
    assert doc["trace"] == []
    assert "staircase" not in doc


def test_central_text_mentions_breakdown(planned_file, capsys):
    code, captured = run_cli(
        "central-greedy", "--input", str(planned_file), capsys=capsys
    )
    assert code == 0
    assert "excellence set:" in captured.out
    assert "z =" in captured.out
    assert "patients treated inside" in captured.out
    assert "staircase:" in captured.out


def test_central_exact_too_large_exits_2(tmp_path, capsys):
    path = tmp_path / "big.json"
    save_scenario(generate_scenario(0, (19, 1)), path)
    code, captured = run_cli("central-exact", "--input", str(path), capsys=capsys)
    assert code == 2
    assert "over the exact solver's cap" in captured.err


def test_local_too_large_exits_2(tmp_path, capsys):
    path = tmp_path / "wide.json"
    save_scenario(
        make_instance((5, 5), tuple(Fraction(1, 20) for _ in range(20))), path
    )
    code, captured = run_cli("local", "--input", str(path), capsys=capsys)
    assert code == 2
    assert "profiles" in captured.err


# ---------------------------------------------------------------------------
# compare


def test_compare_json_verdicts_recomputable(planned_file, capsys):
    code, captured = run_cli(
        "compare", "--input", str(planned_file), "--format", "json", capsys=capsys
    )
    assert code == 0
    doc = json.loads(captured.out)
    local, central = doc["local"], doc["central"]
    expected_diversified = bool(local["diversified_equilibria"]) and not local[
        "uniform_equilibria"
    ]
    per_hospital = {h: 0 for h in json.loads(planned_file.read_text())["hospitals"]}
    for member in central["excellence"]:
        per_hospital[member["hospital"]] += 1
    expected_poles = (
        central.get("staircase", {}).get("holds", False)
        and max(per_hospital.values()) >= 2
        and min(per_hospital.values()) == 0
    )
    assert doc["verdicts"]["diversified_excellences"] == expected_diversified
    assert doc["verdicts"]["poles_of_excellence"] == expected_poles
    assert set(doc["verdicts"]["criteria"]) == {
        "diversified_excellences",
        "poles_of_excellence",
    }


def test_compare_text_shows_both_regimes(scenario_file, capsys):
    code, captured = run_cli("compare", "--input", str(scenario_file), capsys=capsys)
    assert code == 0
    assert "regime comparison" in captured.out
    assert "local financing:" in captured.out
    assert "central financing:" in captured.out


# ---------------------------------------------------------------------------
# failure modes and plumbing


def test_missing_input_exits_1(tmp_path, capsys):
    code, captured = run_cli(
        "check", "--input", str(tmp_path / "absent.json"), capsys=capsys
    )
    assert code == 1
    assert "error:" in captured.err


def test_malformed_json_exits_1(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    code, captured = run_cli("check", "--input", str(path), capsys=capsys)
    assert code == 1
    assert "malformed JSON" in captured.err


def test_invalid_population_exits_1_naming_field(tmp_path, capsys):
    doc = instance_to_dict(generate_scenario(0, (2, 2)))
    doc["population"] = ["1/2", "2/5"]
    path = tmp_path / "pop.json"
    path.write_text(json.dumps(doc))
    code, captured = run_cli("check", "--input", str(path), capsys=capsys)
    assert code == 1
    assert "population" in captured.err


@pytest.mark.parametrize("schema", [True, 1.0, "1"])
def test_schema_that_only_equals_one_exits_1(tmp_path, capsys, schema):
    doc = instance_to_dict(generate_scenario(0, (2, 2)))
    doc["schema"] = schema
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(doc))
    code, captured = run_cli("check", "--input", str(path), capsys=capsys)
    assert code == 1
    assert "schema" in captured.err


# two coprime 2,201-digit denominators: their sum's has 4,401 digits
A, B = 10**2200 + 1, 10**2200 + 3
TOO_LONG = "more than 4300 digits in the numerator or denominator, too long to print"


@pytest.mark.parametrize(
    "command, dims, field, value, code, message",
    [
        ("central-greedy", (2, 2), "out_cost", "1e4300", 1, f"out_cost[0][0]: {TOO_LONG}"),
        ("central-exact", (2, 2), "out_cost", "1e4300", 1, f"out_cost[0][0]: {TOO_LONG}"),
        ("compare", (2, 2), "out_cost", "1e4300", 1, f"out_cost[0][0]: {TOO_LONG}"),
        ("check", (2, 2), "excel_cost", "1e4300", 1, f"excel_cost[0][0]: {TOO_LONG}"),
        ("check", (2, 2), "out_cost", "-1e4300", 1, f"out_cost[0][0]: {TOO_LONG}"),
        ("check", (1, 1), "population", ["1e-4300"], 1, f"population[0]: {TOO_LONG}"),
        ("check", (2, 1), "population", [f"1/{A}", f"1/{B}"], 1,
         f"population: the sum: {TOO_LONG}"),
        # each input prints, but z = count * 10**4299 + ... does not
        ("central-greedy", (2, 2), "out_cost", "1e4299", 2, "too long to write"),
    ],
)
def test_numbers_too_long_to_print_exit_cleanly(
    tmp_path, capsys, command, dims, field, value, code, message
):
    doc = instance_to_dict(generate_scenario(0, dims))
    if field == "population":
        doc[field] = value
    else:
        doc[field][0][0] = value
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    got, captured = run_cli(command, "--input", str(path), capsys=capsys)
    assert got == code
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err
    assert "Traceback" not in captured.err


INPUT_COMMANDS = ("check", "local", "central-greedy", "central-exact", "compare")


@pytest.mark.parametrize("command", [*INPUT_COMMANDS, "gen"])
def test_unwritable_output_exits_1(scenario_file, tmp_path, capsys, command):
    if command == "gen":
        argv = ["gen", "--seed", "1", "--dims", "2x2"]
    else:
        argv = [command, "--input", str(scenario_file)]
    # an existing directory cannot be opened as the output file
    code, captured = run_cli(*argv, "--output", str(tmp_path), capsys=capsys)
    assert code == 1
    assert "error:" in captured.err


VALID_FILE = dumps_scenario(generate_scenario(7, (2, 2))).encode()


def _overwrite(start, data):
    return VALID_FILE[:start] + data + VALID_FILE[start + len(data) :]


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(INPUT_COMMANDS),
    st.binary(max_size=64)
    | st.builds(_overwrite, st.integers(0, len(VALID_FILE)), st.binary(max_size=8)),
)
def test_any_input_bytes_exit_cleanly(tmp_path_factory, command, data):
    # arbitrary bytes, or a valid scenario file with a few bytes overwritten
    path = tmp_path_factory.mktemp("fuzz") / "input.json"
    path.write_bytes(data)
    assert main([command, "--input", str(path)]) in (0, 1, 2)


def test_output_file_and_env_dir(tmp_path, monkeypatch, capsys):
    src = tmp_path / "s.json"
    save_scenario(generate_scenario(7, (2, 2)), src)
    outdir = tmp_path / "reports"
    monkeypatch.setenv("WARDALLOC_OUTPUT_DIR", str(outdir))
    code, captured = run_cli(
        "check",
        "--input",
        str(src),
        "--output",
        "nested/report.txt",
        capsys=capsys,
    )
    assert code == 0
    assert captured.out == ""
    assert (outdir / "nested" / "report.txt").read_text().startswith("assumption 1")
    # absolute outputs ignore the environment directory
    absolute = tmp_path / "direct.txt"
    code, _ = run_cli(
        "check", "--input", str(src), "--output", str(absolute), capsys=capsys
    )
    assert code == 0
    assert absolute.exists()


def test_reports_are_byte_stable(planned_file, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for target in (a, b):
        code = main(
            [
                "compare",
                "--input",
                str(planned_file),
                "--format",
                "json",
                "--output",
                str(target),
            ]
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_outputs_end_with_newline(scenario_file, capsys):
    for fmt in ("text", "json"):
        _, captured = run_cli(
            "local", "--input", str(scenario_file), "--format", fmt, capsys=capsys
        )
        assert captured.out.endswith("\n")


def test_console_script_entry_point(tmp_path):
    out = tmp_path / "cli.json"
    # the child imports the package from wherever this run found it
    source_root = str(Path(wardalloc.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (source_root, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "wardalloc.cli",
            "gen",
            "--seed",
            "2",
            "--dims",
            "2x2",
            "--output",
            str(out),
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert load_scenario(out) == generate_scenario(2, (2, 2))


def test_import_leaves_logging_and_argparse_unloaded():
    # both cost set-up time on every run; only the command line needs them
    source_root = str(Path(wardalloc.__file__).resolve().parents[1])
    code = "import sys, wardalloc; print(sorted({'logging', 'argparse'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": source_root},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# ---------------------------------------------------------------------------
# command table and logging


def test_help_lists_the_command_table_in_order(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    rows = re.findall(r"^    ([a-z-]+) {2,}(\S.*)$", capsys.readouterr().out, re.M)
    assert rows == [(command, entry[0]) for command, entry in COMMANDS.items()]


@pytest.mark.parametrize("command", list(COMMANDS))
def test_command_help_exits_0(command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: wardalloc {command} ")


def test_gen_defaults_to_json_and_input_commands_to_text():
    parser = build_parser()
    assert parser.parse_args(["gen", "--seed", "1", "--dims", "2x2"]).format == "json"
    for command in COMMANDS.keys() - {"gen"}:
        assert parser.parse_args([command, "--input", "s.json"]).format == "text"


def test_very_verbose_logs_greedy_work_and_keeps_the_report(planned_file, capsys, caplog):
    # central-greedy runs greedy_solve, then hospital_order's one-ward greedy;
    # their DEBUG lines show only at -vv, and the report bytes do not change
    argv = ["central-greedy", "--input", str(planned_file), "--format", "json"]
    assert main(argv) == 0
    quiet = capsys.readouterr().out
    assert main(argv + ["-v"]) == 0
    assert not caplog.records
    assert main(argv + ["-vv"]) == 0
    assert capsys.readouterr().out == 2 * quiet
    assert [r.getMessage() for r in caplog.records if r.name == "wardalloc.central_plan"] == [
        "greedy: steps taken 1, pairs scored 10, pairs pushed back 0",
        "greedy: steps taken 3, pairs scored 7, pairs pushed back 1",
    ]


def test_verbose_applies_to_each_call(scenario_file, tmp_path, caplog):
    caplog.set_level(logging.DEBUG, logger="wardalloc")
    out = str(tmp_path / "c.json")
    assert main(["check", "--input", str(scenario_file), "--output", out]) == 0
    assert not [r for r in caplog.records if r.getMessage().startswith("wrote")]
    assert main(["check", "--input", str(scenario_file), "--output", out, "-v"]) == 0
    assert [r.getMessage() for r in caplog.records] == [f"wrote {out}"]
