"""The benchmark's recorded report bytes, checked in tier-1.

Runs every seed-0 operation of two benchmark workloads through the
benchmark's own harness: all six CLI commands, each report checked against
the digests in wardbench/digests and against the harness's output checks.
central-large is left to the benchmark run; one round of it takes seconds.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "wardbench"))

import harness  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", ["sweep-small", "central-exact"])
def test_seed_zero_reports_match_recorded_digests(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    digests = harness.load_digests(name)
    assert digests is not None
    entries = workloads.write_inputs(workload, harness.DEFAULT_SEED, tmp_path)
    assert len(entries) == len(digests)
    runner = harness.Runner(workload.pipeline, tmp_path, digests=digests)
    for entry in entries:
        runner.check(entry, runner.operate(entry))
