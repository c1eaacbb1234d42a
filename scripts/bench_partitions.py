"""Time the partition summaries and the diagnostics of two source trees of
mlpp on the same draws.

For each case and seed below the NEW tree simulates and fits one dataset
with the command line,

    mlpp simulate --subjects U --channels N --timepoints T --snr SNR --seed S --out sim
    mlpp fit --data sim/rep_01 --out run --iters I --burnin B --thin K --chains C --seed S

Each tree then loads the run and, CALLS times in one process, runs
``summarize_dimension`` over every latent dimension of its draws and
``diagnose_archives`` over its chains; one sample is the wall time of one
such call, as in the ``summarize_s`` and ``diagnose_s`` metrics of the
replication benchmark.  The trees alternate process by process, PAIRS
times, with the harness of scripts/paired.py, and the reports and the
diagnostic rows of both trees must be equal.  A pair counts as won by the
new tree when the median of its CALLS samples is lower than the reference
tree's.

Cases (size R is 20 subjects x 20 channels x 100 time points, size D the
CLI default 40 x 50 x 150):

    R_snr6, R_snr2  600 iterations, 300 burn-in, thin 2, 1 chain (150 draws)
    D_short         200 iterations, 50 burn-in, thin 1, 2 chains (300 draws)
    D_default       4000 iterations, 1000 burn-in, thin 2, 2 chains (3000 draws)

Usage:
    python scripts/bench_partitions.py REF_SRC NEW_SRC

REF_SRC and NEW_SRC are the ``src`` directories of the two trees.  The
result (environment, per-case samples, medians, won pairs and speed-ups)
goes to BENCH_partitions.json in the working directory.
"""
from __future__ import annotations

import hashlib
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

import paired

# name: (subjects, channels, time points, snr, iterations, burn-in, thin, chains)
CASES = {
    "R_snr6": (20, 20, 100, 6.0, 600, 300, 2, 1),
    "R_snr2": (20, 20, 100, 2.0, 600, 300, 2, 1),
    "D_short": (40, 50, 150, 6.0, 200, 50, 1, 2),
    "D_default": (40, 50, 150, 6.0, 4000, 1000, 2, 2),
}
SEEDS = (1, 2)
PAIRS = 10
CALLS = 10
OUT = Path("BENCH_partitions.json")


def worker_time(work: str) -> None:
    """Time summarize_dimension over every dimension and diagnose_archives
    on a fitted run; print the walls and the output digests of each."""
    import numpy as np
    from mlpp.diagnostics import diagnose_archives
    from mlpp.partitions import summarize_dimension
    from mlpp.sampler import load_archives
    from mlpp.simgen import read_truth_json

    archives = load_archives(Path(work) / "run", ("draws_scalar.csv", "labels_g.csv"))
    draws = np.concatenate([a.subject_alloc_draws for a in archives])
    codes = archives[0].group_codes
    truth = read_truth_json(Path(work) / "sim/rep_01/truth.json").subject_labels

    def summarize():
        return [summarize_dimension(draws, codes, dim,
                                    truth_labels=truth[:, dim] if dim < truth.shape[1]
                                    else None)
                for dim in range(draws.shape[2])]

    out = {"draws": int(draws.shape[0])}
    for step, call in (("summarize_dimension", summarize),
                       ("diagnose_archives", lambda: diagnose_archives(archives))):
        walls, digests = [], set()
        for _ in range(CALLS):
            start = time.perf_counter()
            result = call()
            walls.append(time.perf_counter() - start)
            digests.add(hashlib.sha256(json.dumps(result, sort_keys=True).encode()).hexdigest())
        out[step] = {"walls": walls, "digests": sorted(digests)}
    print(json.dumps(out))


def fit_case(src: Path, work: Path, case: str, seed: int) -> None:
    u, n, t, snr, iters, burn_in, thin, chains = CASES[case]
    work.mkdir()
    cli = ["-c", paired.MLPP_MAIN]
    paired.run(src, cli + ["simulate", "--subjects", u, "--channels", n, "--timepoints", t,
                           "--snr", snr, "--seed", seed, "--out", "sim"], work)
    paired.run(src, cli + ["fit", "--data", "sim/rep_01", "--out", "run", "--iters", iters,
                           "--burnin", burn_in, "--thin", thin, "--chains", chains,
                           "--seed", seed], work)


def main() -> None:
    if sys.argv[1:2] == ["--worker-time"]:
        worker_time(sys.argv[2])
        return
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    trees = {"ref": Path(sys.argv[1]).resolve(), "new": Path(sys.argv[2]).resolve()}

    steps = ("summarize_dimension", "diagnose_archives")
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            for seed in SEEDS:
                work = Path(tmp) / f"{case}_{seed}"
                fit_case(trees["new"], work, case, seed)
                samples = {step: {"ref": [], "new": []} for step in steps}
                medians = {step: {"ref": [], "new": []} for step in steps}
                seen = {step: set() for step in steps}
                for pair in range(PAIRS):
                    for label in paired.order(pair):
                        doc = json.loads(paired.run(trees[label],
                                                    [__file__, "--worker-time", work]).stdout)
                        for step in steps:
                            samples[step][label] += doc[step]["walls"]
                            medians[step][label].append(
                                statistics.median(doc[step]["walls"]))
                            seen[step].update(doc[step]["digests"])
                entry = {"case": case, "seed": seed, "draws": doc["draws"]}
                for step in steps:
                    ref_ms = 1e3 * statistics.median(samples[step]["ref"])
                    new_ms = 1e3 * statistics.median(samples[step]["new"])
                    won = paired.pairs_won(medians[step]["ref"], medians[step]["new"])
                    entry[step] = {"ref_ms_median": ref_ms, "new_ms_median": new_ms,
                                   "speedup": ref_ms / new_ms, "pairs_won": won,
                                   "outputs_identical": len(seen[step]) == 1,
                                   "ref_s": samples[step]["ref"],
                                   "new_s": samples[step]["new"]}
                    print(f"{case} seed {seed} {step}: {entry['draws']} draws; "
                          f"{ref_ms:.2f} -> {new_ms:.2f} ms ({ref_ms / new_ms:.1f}x, "
                          f"{won}/{PAIRS} pairs), identical outputs: "
                          f"{len(seen[step]) == 1}", flush=True)
                results.append(entry)

    doc = {"script": "scripts/bench_partitions.py",
           "what": "wall time of summarize_dimension over every dimension and of "
                   "diagnose_archives, per call",
           "environment": paired.environment(trees["new"]),
           "settings": {"pairs": PAIRS, "calls": CALLS, "seeds": list(SEEDS), "cases": CASES},
           "results": results}
    OUT.write_text(json.dumps(doc, indent=1) + "\n")
    sys.exit(0 if all(entry[step]["outputs_identical"] for entry in results
                      for step in steps) else 1)


if __name__ == "__main__":
    main()
