"""Locations the benchmark reads and writes, all inside the checkout."""

from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# Generated scenarios, reports and trace files; ignored by git.
WORK = ROOT / ".wardbench"
BASELINE = BENCH / "baseline.json"
DIGESTS = BENCH / "digests"
