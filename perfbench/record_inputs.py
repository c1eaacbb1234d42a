"""Record the digest of each workload's first dataset for seeds 0-99.

Usage (from the repository root): python3 perfbench/record_inputs.py

Writes perfbench/input_hashes.json, which run.py compares against so a
change to mlpp.simgen shows as failed inputs instead of silently
different ones.  Rerun only when the benchmark's inputs are meant to
change.
"""
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from mlpp.simgen import simulate  # noqa: E402
from workloads import DESIGNS, dataset_digest  # noqa: E402

table = {name: {str(seed): dataset_digest(*simulate(design(seed)))
                for seed in range(100)}
         for name, design in DESIGNS.items()}
(BENCH_DIR / "input_hashes.json").write_text(json.dumps(table, indent=1) + "\n")
