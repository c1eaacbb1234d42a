"""Compare every file two source trees of mlpp write, byte for byte.

Each tree runs the same commands with the same seeds, as children started
by scripts/paired.py, in its own work directory and with the same
relative paths, so that manifests which record paths agree:

    mlpp simulate --subjects U --channels N --timepoints T --seed S --out sim
    mlpp fit --data sim/rep_01 --out run --iters I --burnin B --thin 2 --seed S
    mlpp fit --data sim/rep_01 --out run_prior --iters I --burnin B --thin 2 --seed S \
        --init prior_draw --audit-every 50
    mlpp diagnose --run run --trace noise_prec --trace "common_mean[1]"
    mlpp summarize --run run --truth sim/rep_01/truth.json
    mlpp summarize --run run_level50 --truth sim/rep_01/truth.json --level 0.5
    mlpp summarize --run run_no_truth

where run_level50 and run_no_truth are copies of the fitted run made
before diagnose, so the credible ball is compared at a second radius and
the report without the truth is compared too.  The run_prior fit starts
from a state drawn from the prior, so its draws compare that initial
state; it audits the state every 50 scans, prior sd bounds included, and
completes only if every audit passes.  One library chain on the
same data then checkpoints along the way (chain/checkpoint), is resumed
from its last checkpoint, and saves both the uninterrupted and the
resumed chain as run archives (chain/straight, chain/resumed).

The report lists every file that differs or exists in one tree only, and
says how far each differing file moved.  For a JSON file it names the
keys that differ and gives the largest relative difference over its
numeric leaves.  For a CSV file with the same header and row count it
gives the largest relative difference over the cells that read as
non-integer numbers, and whether every integer and text cell is equal.
The relative difference of a and b is |a - b| / max(|a|, |b|).  Within each tree it
checks that the resumed chain's files equal the uninterrupted chain's.
The exit status is 0 when no file differs and both resumes reproduce.

Usage:
    python scripts/compare_outputs.py REF_SRC NEW_SRC [--size R|D]
        [--iters I] [--burnin B] [--seed S] [--workdir DIR]

REF_SRC and NEW_SRC are the ``src`` directories of the two trees.  Size R
is 20 subjects x 20 channels x 100 time points, size D (the CLI default)
40 x 50 x 150.  Without --workdir the work directories are temporary.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

import paired

SIZES = {"R": (20, 20, 100), "D": (40, 50, 150)}


def worker_chain(iters: int, burn_in: int, seed: int) -> None:
    """The checkpointed and resumed library chain, run in the work directory
    with the tree under test first on the import path."""
    from mlpp.fpca import fit_fpca, read_dataset_csv, smooth_dataset
    from mlpp.hyperparams import estimate_hyperparams
    from mlpp.sampler import SamplerConfig, run_chain, save_archives

    raw = read_dataset_csv("sim/rep_01/data.csv", "sim/rep_01/time_grid.csv")
    data = smooth_dataset(raw, 25)
    basis = fit_fpca(data)
    hp = estimate_hyperparams(basis, raw.group_codes)
    cfg = SamplerConfig(n_iter=iters, burn_in=burn_in, thin=2, seed=seed,
                        checkpoint_every=max(1, iters // 3))
    checkpoint = Path("chain/checkpoint")
    checkpoint.mkdir(parents=True)
    straight = run_chain(data, basis, hp, cfg, checkpoint_dir=checkpoint)
    resumed = run_chain(data, basis, hp, cfg, resume_from=checkpoint)
    save_archives([straight], "chain/straight")
    save_archives([resumed], "chain/resumed")


def run_tree(src: Path, work: Path, size: str, iters: int, burn_in: int,
             seed: int) -> None:
    work.mkdir(parents=True)
    u, n, t = SIZES[size]
    cli = ["-c", paired.MLPP_MAIN]
    truth = ["--truth", "sim/rep_01/truth.json"]
    steps = [
        cli + ["simulate", "--subjects", str(u), "--channels", str(n),
               "--timepoints", str(t), "--seed", str(seed), "--out", "sim"],
        cli + ["fit", "--data", "sim/rep_01", "--out", "run", "--iters", str(iters),
               "--burnin", str(burn_in), "--thin", "2", "--seed", str(seed)],
        cli + ["fit", "--data", "sim/rep_01", "--out", "run_prior", "--iters",
               str(iters), "--burnin", str(burn_in), "--thin", "2", "--seed", str(seed),
               "--init", "prior_draw", "--audit-every", "50"],
        ("copy", "run", "run_level50"),
        ("copy", "run", "run_no_truth"),
        cli + ["diagnose", "--run", "run", "--trace", "noise_prec",
               "--trace", "common_mean[1]"],
        cli + ["summarize", "--run", "run"] + truth,
        cli + ["summarize", "--run", "run_level50", "--level", "0.5"] + truth,
        cli + ["summarize", "--run", "run_no_truth"],
        [__file__, "--worker-chain", iters, burn_in, seed],
    ]
    for cmd in steps:
        if cmd[0] == "copy":
            shutil.copytree(work / cmd[1], work / cmd[2])
        else:
            # diagnose exits 2 when it flags a parameter, which short chains do
            paired.run(src, cmd, work, ok=(0, 2) if "diagnose" in cmd else (0,))


def json_differences(a, b, where: str = "") -> list:
    """Paths (key and list positions) at which two JSON values differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for key in sorted(set(a) | set(b)):
            here = f"{where}.{key}" if where else key
            if key not in b:
                out.append(f"{here} only in REF")
            elif key not in a:
                out.append(f"{here} only in NEW")
            else:
                out += json_differences(a[key], b[key], here)
        return out
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [d for i, (x, y) in enumerate(zip(a, b))
                for d in json_differences(x, y, f"{where}[{i}]")]
    return [] if a == b else [where or "(whole file)"]


def _relative(a: float, b: float) -> float:
    """|a - b| relative to the larger magnitude; 0 when a == b (both zero,
    or the same infinity) and 1 when either is NaN and they are not both
    NaN."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if math.isnan(a) or math.isnan(b) or math.isinf(a) or math.isinf(b):
        return 1.0
    return abs(a - b) / max(abs(a), abs(b))


def _number(cell: str):
    """The cell as an int, else as a float, else None (text)."""
    for kind in (int, float):
        try:
            return kind(cell)
        except ValueError:
            pass
    return None


def csv_distance(a: Path, b: Path) -> str:
    """How far two CSV files with the same header and row count moved: the
    largest relative difference over the cells that read as non-integer
    numbers in both, and whether every other cell is equal."""
    with open(a, newline="") as fa, open(b, newline="") as fb:
        left, right = list(csv.reader(fa)), list(csv.reader(fb))
    if not left or not right or left[0] != right[0] or len(left) != len(right):
        return "header or row count differs"
    largest, floats, unequal = 0.0, 0, 0
    for row_a, row_b in zip(left[1:], right[1:]):
        if len(row_a) != len(row_b):
            return "row length differs"
        for x, y in zip(row_a, row_b):
            nx, ny = _number(x), _number(y)
            if None not in (nx, ny) and float in (type(nx), type(ny)):
                floats += 1
                largest = max(largest, _relative(nx, ny))
            else:
                unequal += x != y
    return (f"max rel diff {largest:.1e} over {floats} numeric cells; "
            + (f"{unequal} integer or text cells differ" if unequal
               else "integer and text cells equal"))


def json_numbers(a, b) -> list:
    """(a, b) pairs of the numeric leaves at the same place in two JSON
    values."""
    if isinstance(a, dict) and isinstance(b, dict):
        return [pair for key in sorted(set(a) & set(b))
                for pair in json_numbers(a[key], b[key])]
    if isinstance(a, list) and isinstance(b, list):
        return [pair for x, y in zip(a, b) for pair in json_numbers(x, y)]
    numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
    return [(float(a), float(b))] if numeric else []


def compare(ref: Path, new: Path) -> list:
    lines = []
    for name in paired.differing(ref, new):
        left, right = ref / name, new / name
        if not right.is_file():
            lines.append(f"only in REF: {name}")
        elif not left.is_file():
            lines.append(f"only in NEW: {name}")
        else:
            detail = ""
            if name.endswith(".json"):
                a, b = json.loads(left.read_text()), json.loads(right.read_text())
                keys = json_differences(a, b)
                largest = max((_relative(x, y) for x, y in json_numbers(a, b)), default=0.0)
                detail = (" (" + "; ".join(keys[:6]) + (" ..." if len(keys) > 6 else "")
                          + f"; max rel diff {largest:.1e} over numeric leaves)")
            elif name.endswith(".csv"):
                detail = f" ({csv_distance(left, right)})"
            lines.append(f"differs: {name}{detail}")
    return lines


def main() -> None:
    if sys.argv[1:2] == ["--worker-chain"]:
        worker_chain(*map(int, sys.argv[2:5]))
        return
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--size", choices=sorted(SIZES), default="R")
    parser.add_argument("--iters", type=int, default=400)
    parser.add_argument("--burnin", type=int, default=100)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--workdir", type=Path, default=None)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        base = args.workdir or Path(tmp)
        trees = {"REF": (args.ref_src, base / "ref"), "NEW": (args.new_src, base / "new")}
        for src, work in trees.values():
            run_tree(src.resolve(), work, args.size, args.iters, args.burnin, args.seed)
        ref, new = trees["REF"][1], trees["NEW"][1]
        differing = compare(ref, new)
        print(f"size {args.size} {SIZES[args.size]}, {args.iters} iterations, seed {args.seed}: "
              f"{len(paired.files(ref))} files in REF, {len(paired.files(new))} in NEW, "
              f"{len(differing)} differing")
        for line in differing:
            print("  " + line)
        resumes_ok = True
        for label, (_, work) in trees.items():
            mismatch = compare(work / "chain/straight", work / "chain/resumed")
            resumes_ok &= not mismatch
            print(f"{label}: resumed chain {'differs from' if mismatch else 'reproduces'} "
                  f"the uninterrupted chain" + "".join(f"\n  {line}" for line in mismatch))
    sys.exit(0 if not differing and resumes_ok else 1)


if __name__ == "__main__":
    main()
