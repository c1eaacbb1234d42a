"""Time the Gibbs scan of two source trees of mlpp, block by block.

Three sizes:

    cal  the calibration instance of acceptance gates 03a/03b: 4 subjects
         x 3 channels x 20 time points, K=1, J=8, the gates'
         hyperparameters, data drawn from a prior state; the scan is
         called as the gates call it, without chain constants
    R    the replication design: 20 x 20 x 100, SNR 6, smoothed, fPCA
         variance threshold 0.8 (K=2)
    D    the CLI default: 40 x 50 x 150, SNR 6, smoothed, threshold 0.9

At R and D the scan is called as run_chain calls it: with the chain
constants built once.  Each tree runs in its own worker process (both
trees define the package ``mlpp``) with the child environment of
scripts/paired.py; it holds one chain per size, started from the
empirical start (cal: from a prior draw) and advanced WARM scans before
any timing.  Every round starts a fresh worker per tree, so that a
process's own speed offset (where its arrays landed, how its heap grew)
varies between pairs instead of biasing every ratio of a run; the warm-up
is deterministic, so each round times the same scans.

A timing block is SCANS scans of one tree at one size.  Within a round,
blocks alternate between the trees in the harness's pair order.  Per
tree and size the script reports the best (minimum) time per scan over
the rounds, which is the least disturbed by other load on the machine,
and the median beside it.  Load on a shared machine drifts between
rounds more than within one, so the comparison rests on the paired
ratios new / ref of the two blocks of each round: their median,
quartiles and the share of rounds in which the new tree was faster.  In
the first SPLIT rounds a second pair of blocks per size wraps each of the
six update functions of ``mlpp.sampler`` in a timer to give the time per
update block (the medians over those rounds; the wrappers add about a
microsecond per call).  At cal size the script also times
``draw_state_from_prior``, which gates 03a and 03b call 1.1e5 times.

In the first round each tree also runs, per size, a fixed-seed chain of
DIGEST_SCANS scans from the same start and hashes the state's arrays
(SHA-256): equal digests mean the trees draw the same chain.

Usage:
    python scripts/bench_scan_overhead.py REF_SRC NEW_SRC [--rounds N]
        [--scans S] [--split-rounds SPLIT] [--out BENCH_scan_overhead.json]

REF_SRC and NEW_SRC are the ``src`` directories of the two trees.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import paired

SIZES = ("cal", "R", "D")
WARM = 200
DIGEST_SCANS = 300
PRIOR_DRAWS = 2000
BLOCKS = ("update_scores", "update_noise_prec", "update_cluster_params",
          "update_subject_alloc", "update_category_weights", "update_sticks")
STATE_FIELDS = ("scores", "noise_prec", "subject_alloc", "channel_alloc", "cluster_mean",
                "cluster_prec", "category_weights", "raw_sticks", "stick_weights")


# ---------------------------------------------------------------------------
# Worker: one tree, imported from its src directory
# ---------------------------------------------------------------------------

def _calibration_problem():
    import numpy as np
    from mlpp.hyperparams import HyperParams
    from mlpp.sampler import Workspace, draw_observations, draw_state_from_prior
    from mlpp.simgen import make_eigenfunctions
    hp = HyperParams(
        common_mean_prec=np.array([2.0]), common_sd_bound=np.array([1.5]),
        group_mean_loc=np.zeros((1, 2)), group_mean_prec=np.full((1, 2), 2.0),
        group_sd_bound=np.full((1, 2), 1.5), subject_mean_loc=np.zeros((1, 2)),
        subject_mean_prec=np.full((1, 2), 2.0), subject_sd_bound=np.full((1, 2), 1.5),
        noise_prec_shape=3.0, noise_prec_rate=3.0, max_subject_clusters=8)
    codes = np.array([2, 2, 3, 3])
    phi = make_eigenfunctions(20)[1][:, :1]
    rng = np.random.default_rng(6)
    state = draw_state_from_prior(hp, 4, 3, codes, rng)
    observed = draw_observations(state, phi, rng)
    ws = Workspace(centred=observed, proj=observed @ phi, gram=phi.T @ phi,
                   eigenfunctions=phi, group_codes=codes)
    return hp, ws, state, {}


def _fitted_problem(size: str):
    from mlpp import sampler
    from mlpp.fpca import fit_fpca, smooth_dataset
    from mlpp.hyperparams import estimate_hyperparams
    from mlpp.simgen import SimDesign, simulate
    u, n, t, threshold = {"R": (20, 20, 100, 0.8), "D": (40, 50, 150, 0.9)}[size]
    data, _ = simulate(SimDesign(n_subjects=u, n_channels=n, n_timepoints=t,
                                 n_group_a=u // 2, snr=6.0, seed=11))
    smoothed = smooth_dataset(data, 25)
    basis = fit_fpca(smoothed, var_threshold=threshold)
    hp = estimate_hyperparams(basis, data.group_codes)
    ws = sampler.make_workspace(smoothed, basis)
    state = sampler.initial_state_empirical(basis, hp, ws)
    return hp, ws, state, {"consts": sampler.chain_constants(hp, ws.group_codes)}


def _digest(state) -> str:
    import numpy as np
    sha = hashlib.sha256()
    for name in STATE_FIELDS:
        sha.update(np.ascontiguousarray(getattr(state, name)).tobytes())
    return sha.hexdigest()


def worker() -> None:
    import numpy as np
    from mlpp import sampler
    scan = sampler.gibbs_scan
    problems = {size: _calibration_problem() if size == "cal" else _fitted_problem(size)
                for size in SIZES}
    chains = {}
    for size, (hp, ws, start, kwargs) in problems.items():
        state, rng = start.copy(), np.random.default_rng(7)
        for _ in range(WARM):
            scan(state, ws, hp, rng, **kwargs)
        chains[size] = state, rng
    spent = {name: 0.0 for name in BLOCKS}

    def timed(name, func):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                spent[name] += time.perf_counter() - t0
        return wrapper

    plain = {name: getattr(sampler, name) for name in BLOCKS}
    wrapped = {name: timed(name, func) for name, func in plain.items()}
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        cmd = json.loads(line)
        size = cmd.get("size")
        if cmd["op"] == "scan":
            hp, ws, _, kwargs = problems[size]
            state, rng = chains[size]
            for name in BLOCKS:
                setattr(sampler, name, wrapped[name] if cmd["split"] else plain[name])
                spent[name] = 0.0
            t0 = time.perf_counter()
            for _ in range(cmd["scans"]):
                scan(state, ws, hp, rng, **kwargs)
            wall = time.perf_counter() - t0
            for name in BLOCKS:
                setattr(sampler, name, plain[name])
            reply = {"ms": 1e3 * wall / cmd["scans"],
                     "split_ms": {name: 1e3 * spent[name] / cmd["scans"] for name in BLOCKS}}
        elif cmd["op"] == "prior_draw":
            hp, ws, start, _ = problems["cal"]
            rng = np.random.default_rng(8)
            t0 = time.perf_counter()
            for _ in range(PRIOR_DRAWS):
                sampler.draw_state_from_prior(hp, 4, 3, ws.group_codes, rng)
            reply = {"ms": 1e3 * (time.perf_counter() - t0) / PRIOR_DRAWS}
        else:                                   # digest
            hp, ws, start, kwargs = problems[size]
            state, rng = start.copy(), np.random.default_rng(9)
            for _ in range(DIGEST_SCANS):
                scan(state, ws, hp, rng, **kwargs)
            reply = {"digest": _digest(state)}
        print(json.dumps(reply), flush=True)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

class Tree:
    def __init__(self, src: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--worker"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=paired.child_env(src))
        self.ask(None)

    def ask(self, cmd: dict | None) -> dict:
        if cmd is not None:
            self.proc.stdin.write(json.dumps(cmd) + "\n")
            self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            sys.exit(f"worker exited with status {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def _round(srcs: dict, r: int, ops: list) -> dict:
    """Round R: a fresh worker per tree runs each op, the two trees taking
    turns in the pair order; the replies per op key and tree."""
    trees = {}
    try:
        for label in srcs:
            trees[label] = Tree(srcs[label])
        return {key: {label: trees[label].ask(op) for label in paired.order(r)}
                for key, op in ops}
    finally:
        for tree in trees.values():
            tree.close()


def _paired(ref: list, new: list) -> dict:
    """Quartiles of the per-round ratios new / ref, and the share of rounds won."""
    return {**paired.quartiles(paired.ratios(ref, new)),
            "won": paired.pairs_won(ref, new) / len(ref)}


def main() -> None:
    if sys.argv[1:2] == ["--worker"]:
        worker()
        return
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--rounds", type=int, default=30)
    parser.add_argument("--scans", type=int, default=100)
    parser.add_argument("--split-rounds", type=int, default=10)
    parser.add_argument("--out", type=Path, default=Path("BENCH_scan_overhead.json"))
    args = parser.parse_args()

    srcs = {"ref": args.ref_src.resolve(), "new": args.new_src.resolve()}
    replies = {}
    for r in range(args.rounds):
        splits = (False, True) if r < args.split_rounds else (False,)
        ops = [((size, split), {"op": "scan", "size": size, "scans": args.scans,
                                "split": split}) for size in SIZES for split in splits]
        ops.append((("cal", "prior_draw"), {"op": "prior_draw"}))
        if r == 0:
            ops += [((size, "digest"), {"op": "digest", "size": size}) for size in SIZES]
        for key, reply in _round(srcs, r, ops).items():
            for label in srcs:
                replies.setdefault(key, {}).setdefault(label, []).append(reply[label])
        print(f"round {r + 1}/{args.rounds}: R ms/scan " + ", ".join(
            f"{label} {replies['R', False][label][-1]['ms']:.3f}" for label in srcs),
            flush=True)

    results, samples = {}, {}
    for size in SIZES:
        scans, split = replies[size, False], replies[size, True]
        digests = {label: reps[0]["digest"] for label, reps in replies[size, "digest"].items()}
        samples[size] = {label: [rep["ms"] for rep in reps] for label, reps in scans.items()}
        results[size] = {label: {
            "best_ms": min(samples[size][label]),
            "median_ms": statistics.median(samples[size][label]),
            "block_median_ms": {name: statistics.median(
                rep["split_ms"][name] for rep in split[label]) for name in BLOCKS},
            "digest": digests[label]} for label in srcs}
        ref, new = results[size]["ref"], results[size]["new"]
        results[size]["best_ratio"] = new["best_ms"] / ref["best_ms"]
        ratio = results[size]["paired_ratio"] = _paired(samples[size]["ref"],
                                                        samples[size]["new"])
        results[size]["same_draws"] = digests["ref"] == digests["new"]
        print(f"{size}: best ms/scan {ref['best_ms']:.3f} -> {new['best_ms']:.3f} "
              f"({results[size]['best_ratio'] - 1:+.1%}), median {ref['median_ms']:.3f} "
              f"-> {new['median_ms']:.3f}; paired ratio median {ratio['median']:.3f} "
              f"(quartiles {ratio['q1']:.3f}-{ratio['q3']:.3f}, new faster in "
              f"{ratio['won']:.0%} of rounds); same draws: "
              f"{results[size]['same_draws']}", flush=True)
        for name in BLOCKS:
            print(f"    {name:24s} {ref['block_median_ms'][name]:.4f} -> "
                  f"{new['block_median_ms'][name]:.4f} ms")
    samples["cal_prior_draw"] = {label: [r["ms"] for r in reps]
                                 for label, reps in replies["cal", "prior_draw"].items()}
    results["cal_prior_draw"] = {label: {"best_ms": min(values),
                                         "median_ms": statistics.median(values)}
                                 for label, values in samples["cal_prior_draw"].items()}
    ratio = results["cal_prior_draw"]["paired_ratio"] = _paired(
        samples["cal_prior_draw"]["ref"], samples["cal_prior_draw"]["new"])
    ref, new = (results["cal_prior_draw"][label]["best_ms"] for label in ("ref", "new"))
    print(f"cal draw_state_from_prior: best ms/call {ref:.4f} -> {new:.4f}; paired "
          f"ratio median {ratio['median']:.3f} (quartiles {ratio['q1']:.3f}-"
          f"{ratio['q3']:.3f}, new faster in {ratio['won']:.0%} of rounds)")

    doc = {"script": "scripts/bench_scan_overhead.py",
           "what": "ms per Gibbs scan, best and median over alternating blocks, "
                   "paired per-round ratios new/ref, per update block, and fixed-seed "
                   "draw digests",
           "environment": paired.environment(args.new_src.resolve()),
           "settings": {"rounds": args.rounds, "fresh_workers_per_round": True,
                        "scans_per_block": args.scans,
                        "split_rounds": args.split_rounds, "warm_scans": WARM,
                        "digest_scans": DIGEST_SCANS, "prior_draws": PRIOR_DRAWS},
           "results": results, "samples": samples}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
