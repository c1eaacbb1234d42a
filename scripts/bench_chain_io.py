"""Time the chain-file path of two source trees of mlpp: fit, save,
diagnose and summarize, at two sizes of one size-D dataset.

Both trees work on one simulated dataset at the CLI default size (40
subjects x 50 channels x 150 time points, SNR 6), each in its own work
directory under the same relative paths, so that their outputs can be
compared byte for byte:

    mlpp simulate --seed S --out sim                                (NEW tree, once)
    mlpp fit --data sim/rep_01 --out run_<size> --seed S --chains 2 \\
        --var-threshold 0.9 --force <size flags>
    python -c <save>     load_archives(run_<size>), then time save_archives of
                         the loaded chains and write_dataset_csv of the data
    mlpp diagnose --run run_<size>
    mlpp summarize --run run_<size> --truth sim/rep_01/truth.json

The sizes are cli_default (--iters 200 --burnin 50 --thin 1, the
benchmark's cli_default workload) and default (the CLI's own 4000
iterations, burn-in 1000, thin 2).  Fit, diagnose and summarize are
timed as whole fresh interpreters, MLPP_THREADS removed from their
environment; save is the save_archives call alone (and data_csv the
write_dataset_csv call), timed inside a fresh interpreter.  In each pair
both trees run the whole sequence at each size; the tree that goes first
alternates from pair to pair, ref first in the first pair.  Before
timing, each tree imports mlpp.cli once so that its bytecode is
compiled.  After the last pair every file of each run directory is
compared between the trees.

Usage:
    python scripts/bench_chain_io.py REF_SRC NEW_SRC [--pairs P] [--seed S]
        [--sizes cli_default,default] [--out BENCH_chain_io.json]

REF_SRC and NEW_SRC are the ``src`` directories of the two trees.  The
result (environment, settings, raw samples, per tree, size and step the
median and quartiles, per size and step the number of pairs in which NEW
was faster, and the files that differ) goes to --out.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

MLPP_MAIN = "import sys; from mlpp.cli import main; sys.exit(main())"
FIT_FLAGS = ["--chains", "2", "--var-threshold", "0.9", "--force"]
SIZES = {"cli_default": ["--iters", "200", "--burnin", "50", "--thin", "1"],
         "default": []}
STEPS = ("fit", "save", "data_csv", "diagnose", "summarize")

# Times save_archives of a run's loaded chains and write_dataset_csv of
# its data; prints {"save": s, "data_csv": s}.
SAVE = """
import json, sys, time
from mlpp.fpca import read_dataset_csv, write_dataset_csv
from mlpp.sampler import load_archives, save_archives
run, out = sys.argv[1], sys.argv[2]
archives = load_archives(run)
start = time.perf_counter()
save_archives(archives, out)
save = time.perf_counter() - start
data = read_dataset_csv("sim/rep_01/data.csv", "sim/rep_01/time_grid.csv")
start = time.perf_counter()
write_dataset_csv(data, out + "/data.csv")
print(json.dumps({"save": save, "data_csv": time.perf_counter() - start}))
"""


def _env(src: Path) -> dict:
    env = {key: val for key, val in os.environ.items() if key != "MLPP_THREADS"}
    env["PYTHONPATH"] = str(src)
    return env


def _process(src: Path, argv: list, cwd: Path, ok=(0,)) -> tuple[float, str]:
    """Run one fresh interpreter; (wall s, stdout)."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *argv], cwd=cwd, env=_env(src),
                          capture_output=True, text=True)
    wall = time.perf_counter() - start
    if done.returncode not in ok:
        sys.exit(f"{src}: {' '.join(argv)} failed:\n{done.stderr}")
    return wall, done.stdout


def _sequence(src: Path, work: Path, size: str, seed: int) -> dict:
    """One fit, save, diagnose and summarize at one size; seconds per step."""
    run = f"run_{size}"
    mlpp = ["-c", MLPP_MAIN]
    fit, _ = _process(src, mlpp + ["fit", "--data", "sim/rep_01", "--out", run,
                                   "--seed", str(seed), *FIT_FLAGS, *SIZES[size]], work)
    _, out = _process(src, ["-c", SAVE, run, str(work / f"save_{size}")], work)
    diagnose, _ = _process(src, mlpp + ["diagnose", "--run", run], work, ok=(0, 2))
    summarize, _ = _process(src, mlpp + ["summarize", "--run", run, "--truth",
                                         "sim/rep_01/truth.json"], work)
    return {"fit": fit, **json.loads(out), "diagnose": diagnose, "summarize": summarize}


def _stats(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def _differing(ref: Path, new: Path) -> list:
    """Relative paths of the files that differ or exist under one root only."""
    names = {p.relative_to(root) for root in (ref, new) for p in root.rglob("*")
             if p.is_file()}
    return sorted(str(name) for name in names
                  if not ((ref / name).is_file() and (new / name).is_file()
                          and (ref / name).read_bytes() == (new / name).read_bytes()))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1001)
    parser.add_argument("--sizes", default=",".join(SIZES))
    parser.add_argument("--out", type=Path, default=Path("BENCH_chain_io.json"))
    args = parser.parse_args()
    trees = {"ref": args.ref_src.resolve(), "new": args.new_src.resolve()}
    sizes = args.sizes.split(",")
    unknown = set(sizes) - set(SIZES)
    if unknown:
        parser.error(f"unknown sizes {sorted(unknown)}; choose from {list(SIZES)}")

    samples = {label: {size: {step: [] for step in STEPS} for size in sizes}
               for label in trees}
    with tempfile.TemporaryDirectory() as tmp:
        works = {label: Path(tmp) / label for label in trees}
        for work in works.values():
            work.mkdir()
        _process(trees["new"], ["-c", MLPP_MAIN, "simulate", "--seed", str(args.seed),
                                "--out", "sim"], works["new"])
        shutil.copytree(works["new"] / "sim", works["ref"] / "sim")
        for src in trees.values():
            subprocess.run([sys.executable, "-c", "import mlpp.cli"], env=_env(src),
                           check=True)
        for pair in range(args.pairs):
            order = ("ref", "new") if pair % 2 == 0 else ("new", "ref")
            for size in sizes:
                for label in order:
                    times = _sequence(trees[label], works[label], size, args.seed)
                    for step, seconds in times.items():
                        samples[label][size][step].append(seconds)
                print(f"pair {pair + 1}/{args.pairs} {size}: " + ", ".join(
                    f"{step} {samples['ref'][size][step][-1]:.3f} -> "
                    f"{samples['new'][size][step][-1]:.3f} s" for step in STEPS), flush=True)
        differing = {size: _differing(works["ref"] / f"run_{size}",
                                      works["new"] / f"run_{size}") for size in sizes}

    summary = {label: {size: {step: _stats(values) for step, values in per.items()}
                       for size, per in by_size.items()}
               for label, by_size in samples.items()}
    wins = {size: {step: sum(n < r for r, n in zip(samples["ref"][size][step],
                                                     samples["new"][size][step]))
                   for step in STEPS} for size in sizes}
    for size in sizes:
        for step in STEPS:
            ref, new = summary["ref"][size][step], summary["new"][size][step]
            print(f"{size} {step}: median {ref['median']:.3f} -> {new['median']:.3f} s "
                  f"(ref IQR {ref['q1']:.3f}-{ref['q3']:.3f}), new faster in "
                  f"{wins[size][step]}/{args.pairs} pairs")
        print(f"{size}: {len(differing[size])} run files differ {differing[size]}")

    doc = {"script": "scripts/bench_chain_io.py",
           "what": "wall time of mlpp fit, diagnose and summarize processes and of "
                   "save_archives and write_dataset_csv calls at size D, with the "
                   "cli_default workload's 200 iterations and the CLI's 4000",
           "environment": {"python": platform.python_version(),
                           "numpy": __import__("numpy").__version__,
                           "machine": platform.machine(), "cpus": os.cpu_count()},
           "settings": {"pairs": args.pairs, "seed": args.seed, "fit_flags": FIT_FLAGS,
                        "sizes": {size: SIZES[size] for size in sizes}},
           "summary": summary, "new_faster_pairs": wins,
           "differing_run_files": differing, "samples": samples}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
