"""Time whole `mlpp fit` processes of two source trees of mlpp at size D.

Both trees fit one simulated dataset at the CLI default size (40
subjects x 50 channels x 150 time points, SNR 6) with the flags of the
benchmark's cli_default workload:

    mlpp simulate --seed S --out sim                       (NEW tree, once)
    mlpp fit --data sim/rep_01 --out run --seed S --chains 2 \\
        --var-threshold 0.9 --force --iters 2 --burnin 0 --thin 1      (minimal)
    mlpp fit ... --iters 200 --burnin 50 --thin 1                      (short)

The minimal fit is what cli_default times as setup_s: start-up, CSV read,
smoothing, fPCA, calibration and the archive write, with two scans.  In
each pair both trees run the minimal fit, then the short one.  A sample
is the wall time and the peak RSS of one fit process, run, ordered and
summarized by the harness of scripts/paired.py.  The default seed, 1001,
is the dataset seed of the first cli_default benchmark run.

Usage:
    python scripts/bench_fit_startup.py REF_SRC NEW_SRC [--pairs P] [--seed S]
        [--out BENCH_fit_startup.json]

REF_SRC and NEW_SRC are the ``src`` directories of the two trees.  The
result (environment, settings, raw samples, per tree and fit kind the
median and quartiles of wall time and peak RSS, and per fit kind the
number of pairs in which NEW was faster) goes to --out.
"""
from __future__ import annotations

import argparse
import json
import tempfile
from pathlib import Path

import paired

FIT_FLAGS = ["--chains", "2", "--var-threshold", "0.9", "--force"]
KINDS = {"minimal": ["--iters", "2", "--burnin", "0", "--thin", "1"],
         "short": ["--iters", "200", "--burnin", "50", "--thin", "1"]}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1001)
    parser.add_argument("--out", type=Path, default=Path("BENCH_fit_startup.json"))
    args = parser.parse_args()
    trees = {"ref": args.ref_src.resolve(), "new": args.new_src.resolve()}

    samples = {label: {kind: {"wall_s": [], "peak_rss_mb": []} for kind in KINDS}
               for label in trees}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        paired.run(trees["new"], ["-c", paired.MLPP_MAIN, "simulate", "--seed",
                                  str(args.seed), "--out", "sim"], work)
        paired.warm_up(*trees.values())
        for pair in range(args.pairs):
            for label in paired.order(pair):
                for kind, flags in KINDS.items():
                    fit = paired.run(trees[label],
                                     ["-c", paired.MLPP_MAIN, "fit", "--data", "sim/rep_01",
                                      "--out", "run", "--seed", str(args.seed), *FIT_FLAGS,
                                      *flags], work)
                    samples[label][kind]["wall_s"].append(fit.wall_s)
                    samples[label][kind]["peak_rss_mb"].append(fit.peak_rss_mb)
            print(f"pair {pair + 1}/{args.pairs}: " + ", ".join(
                f"{label} {kind} {samples[label][kind]['wall_s'][-1]:.3f} s"
                for label in trees for kind in KINDS), flush=True)

    summary = {label: {kind: {metric: paired.quartiles(values)
                              for metric, values in per.items()}
                       for kind, per in kinds.items()}
               for label, kinds in samples.items()}
    wins = {kind: paired.pairs_won(samples["ref"][kind]["wall_s"],
                                   samples["new"][kind]["wall_s"]) for kind in KINDS}
    for kind in KINDS:
        ref, new = summary["ref"][kind], summary["new"][kind]
        print(f"{kind}: wall median {ref['wall_s']['median']:.3f} -> "
              f"{new['wall_s']['median']:.3f} s (ref IQR {ref['wall_s']['q1']:.3f}-"
              f"{ref['wall_s']['q3']:.3f}), new faster in {wins[kind]}/{args.pairs} "
              f"pairs; peak RSS median "
              f"{ref['peak_rss_mb']['median']:.1f} -> {new['peak_rss_mb']['median']:.1f} MB")

    doc = {"script": "scripts/bench_fit_startup.py",
           "what": "wall time and peak RSS of one mlpp fit process at size D, "
                   "minimal (2 iterations) and short (200 iterations) fits",
           "environment": paired.environment(trees["new"]),
           "settings": {"pairs": args.pairs, "seed": args.seed, "fit_flags": FIT_FLAGS,
                        "kinds": KINDS},
           "summary": summary, "new_faster_pairs": wins, "samples": samples}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
