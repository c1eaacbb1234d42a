"""Time whole `mlpp fit` processes of two source trees of mlpp at size D.

Both trees fit one simulated dataset at the CLI default size (40
subjects x 50 channels x 150 time points, SNR 6) with the flags of the
benchmark's cli_default workload:

    mlpp simulate --seed S --out sim                       (NEW tree, once)
    mlpp fit --data sim/rep_01 --out run --seed S --chains 2 \\
        --var-threshold 0.9 --force --iters 2 --burnin 0 --thin 1      (minimal)
    mlpp fit ... --iters 200 --burnin 50 --thin 1                      (short)

The minimal fit is what cli_default times as setup_s: start-up, CSV read,
smoothing, fPCA, calibration and the archive write, with two scans.  Each
fit is a fresh interpreter started as the benchmark starts it, with
MLPP_THREADS removed from its environment.  In each pair both trees run
the minimal fit, then the short one; the tree that goes first alternates
from pair to pair, ref first in the first pair.  A sample is the wall time
of one process, and its peak resident set size comes from os.wait4.
Before timing, each tree imports mlpp.cli once, which loads its source
files into the page cache.  That import caches bytecode for the timed
processes only if the environment lets it: with PYTHONDONTWRITEBYTECODE
set, which the children inherit, none is written and every timed process
compiles src/mlpp again.  The environment block of the result records
the children's sys.flags.dont_write_bytecode.  The default seed, 1001, is
the dataset seed of the first cli_default benchmark run.

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
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

MLPP_MAIN = "import sys; from mlpp.cli import main; sys.exit(main())"
FIT_FLAGS = ["--chains", "2", "--var-threshold", "0.9", "--force"]
KINDS = {"minimal": ["--iters", "2", "--burnin", "0", "--thin", "1"],
         "short": ["--iters", "200", "--burnin", "50", "--thin", "1"]}


def _env(src: Path) -> dict:
    env = {key: val for key, val in os.environ.items() if key != "MLPP_THREADS"}
    env["PYTHONPATH"] = str(src)
    return env


def _process(src: Path, args: list, cwd: Path) -> tuple[float, float]:
    """Run one mlpp command in a fresh interpreter; (wall s, peak RSS MB)."""
    log = cwd / "stderr.log"
    with open(log, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", MLPP_MAIN, *args], cwd=cwd,
                                env=_env(src), stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    if os.waitstatus_to_exitcode(status):
        sys.exit(f"{src}: mlpp {' '.join(args)} failed:\n{log.read_text()}")
    return wall, usage.ru_maxrss / 1024.0


def _stats(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


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
        _process(trees["new"], ["simulate", "--seed", str(args.seed), "--out", "sim"], work)
        for src in trees.values():
            subprocess.run([sys.executable, "-c", "import mlpp.cli"], env=_env(src),
                           check=True)
        dont_write_bytecode = bool(int(subprocess.run(
            [sys.executable, "-c", "import sys; print(sys.flags.dont_write_bytecode)"],
            env=_env(trees["new"]), check=True, capture_output=True, text=True).stdout))
        for pair in range(args.pairs):
            order = ("ref", "new") if pair % 2 == 0 else ("new", "ref")
            for label in order:
                for kind, flags in KINDS.items():
                    wall, rss = _process(trees[label],
                                         ["fit", "--data", "sim/rep_01", "--out", "run",
                                          "--seed", str(args.seed), *FIT_FLAGS, *flags],
                                         work)
                    samples[label][kind]["wall_s"].append(wall)
                    samples[label][kind]["peak_rss_mb"].append(rss)
            print(f"pair {pair + 1}/{args.pairs}: " + ", ".join(
                f"{label} {kind} {samples[label][kind]['wall_s'][-1]:.3f} s"
                for label in trees for kind in KINDS), flush=True)

    summary = {label: {kind: {metric: _stats(values) for metric, values in per.items()}
                       for kind, per in kinds.items()}
               for label, kinds in samples.items()}
    wins = {kind: sum(n < r for r, n in zip(samples["ref"][kind]["wall_s"],
                                            samples["new"][kind]["wall_s"]))
            for kind in KINDS}
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
           "environment": {"python": platform.python_version(),
                           "numpy": __import__("numpy").__version__,
                           "machine": platform.machine(), "cpus": os.cpu_count(),
                           "dont_write_bytecode": dont_write_bytecode},
           "settings": {"pairs": args.pairs, "seed": args.seed, "fit_flags": FIT_FLAGS,
                        "kinds": KINDS},
           "summary": summary, "new_faster_pairs": wins, "samples": samples}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
