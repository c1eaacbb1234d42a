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
timed as whole fresh interpreters; save is the save_archives call alone
(and data_csv the write_dataset_csv call), timed inside a fresh
interpreter.  In each pair both trees run the whole sequence at each
size.  The children, their order and the statistics are those of the
harness in scripts/paired.py.  After the last pair every file of each
run directory is compared between the trees.

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
import shutil
import tempfile
from pathlib import Path

import paired

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


def _sequence(src: Path, work: Path, size: str, seed: int) -> dict:
    """One fit, save, diagnose and summarize at one size; seconds per step."""
    run = f"run_{size}"
    mlpp = ["-c", paired.MLPP_MAIN]
    fit = paired.run(src, mlpp + ["fit", "--data", "sim/rep_01", "--out", run,
                                  "--seed", str(seed), *FIT_FLAGS, *SIZES[size]], work)
    save = paired.run(src, ["-c", SAVE, run, str(work / f"save_{size}")], work)
    diagnose = paired.run(src, mlpp + ["diagnose", "--run", run], work, ok=(0, 2))
    summarize = paired.run(src, mlpp + ["summarize", "--run", run, "--truth",
                                        "sim/rep_01/truth.json"], work)
    return {"fit": fit.wall_s, **json.loads(save.stdout), "diagnose": diagnose.wall_s,
            "summarize": summarize.wall_s}


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
        paired.run(trees["new"], ["-c", paired.MLPP_MAIN, "simulate", "--seed",
                                  str(args.seed), "--out", "sim"], works["new"])
        shutil.copytree(works["new"] / "sim", works["ref"] / "sim")
        paired.warm_up(*trees.values())
        for pair in range(args.pairs):
            for size in sizes:
                for label in paired.order(pair):
                    times = _sequence(trees[label], works[label], size, args.seed)
                    for step, seconds in times.items():
                        samples[label][size][step].append(seconds)
                print(f"pair {pair + 1}/{args.pairs} {size}: " + ", ".join(
                    f"{step} {samples['ref'][size][step][-1]:.3f} -> "
                    f"{samples['new'][size][step][-1]:.3f} s" for step in STEPS), flush=True)
        differing = {size: paired.differing(works["ref"] / f"run_{size}",
                                            works["new"] / f"run_{size}") for size in sizes}

    summary = {label: {size: {step: paired.quartiles(values) for step, values in per.items()}
                       for size, per in by_size.items()}
               for label, by_size in samples.items()}
    wins = {size: {step: paired.pairs_won(samples["ref"][size][step],
                                          samples["new"][size][step])
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
           "environment": paired.environment(trees["new"]),
           "settings": {"pairs": args.pairs, "seed": args.seed, "fit_flags": FIT_FLAGS,
                        "sizes": {size: SIZES[size] for size in sizes}},
           "summary": summary, "new_faster_pairs": wins,
           "differing_run_files": differing, "samples": samples}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
