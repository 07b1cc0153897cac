"""README examples stay runnable: the Quick start Python block, the
scenario-file JSON example, and each command of the Quick start shell
block."""

import json
import shlex
from pathlib import Path

from wardalloc import instance_from_dict
from wardalloc.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def fenced(section: str, lang: str) -> str:
    """The first ```lang block under the README heading '## section'."""
    text = README.read_text(encoding="utf-8")
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return body.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def test_quick_start_python_runs(capsys):
    exec(compile(fenced("Quick start", "python"), "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_scenario_file_example_loads():
    inst = instance_from_dict(json.loads(fenced("Scenario files", "json")))
    assert inst.hospitals == ("q1", "q2")
    assert inst.wards == ("r1", "r2")


def test_command_line_examples_exit_0(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("WARDALLOC_OUTPUT_DIR", raising=False)
    commands = [
        shlex.split(line)[1:]
        for line in fenced("Quick start", "sh").splitlines()
        if line.startswith("wardalloc ")
    ]
    assert len(commands) == 6
    for argv in commands:
        assert main(argv) == 0, argv
        capsys.readouterr()
    assert (tmp_path / "market.json").is_file()
    assert (tmp_path / "exact.json").is_file()
