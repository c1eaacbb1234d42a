"""Compare the Gibbs transition kernels of two source trees of mlpp.

Both checks run at the size of the benchmark's cli_default workload (40
subjects x 50 channels x 150 time points, SNR 6, fPCA variance threshold
0.9).  A rewrite that keeps the conditionals but changes the order of
random draws cannot be compared draw for draw, so the trees are compared
in distribution.

one-scan  From one shared state (150 scans of the reference tree from its
          empirical start, handed to both trees as an .npz of the
          ModelState fields, so neither tree's snapshot format is
          involved), each tree runs R replicates of three scans,
          replicate r seeded with base + r, and records the archive's
          scalar row after the first and the third scan, plus per dimension
          the number of category-3 channels holding the first subject
          label.  Each quantity is compared between the trees with the
          two-sample Kolmogorov-Smirnov test (continuous) or a chi-squared
          test of homogeneity (counts; values pooled into bins of at least
          20 draws).  With identical kernels the p-values are uniform.
ess       Both trees fit the same F simulated datasets as `mlpp fit` does
          with the benchmark's options (smoothing, fPCA, estimated
          hyperparameters, 2 chains of 200 iterations after 50 burn-in,
          thin 1), and the benchmark's frozen estimator (perfbench/ess.py)
          gives each fit's median and minimum ESS per kept draw over the
          non-constant scalars.  Paired differences are tested with the
          Wilcoxon signed-rank test; when every difference is 0 (identical
          kernels and draw streams) the test is not run and the record
          reads "identical".  The minimum ESS per draw is heavy-tailed
          across fits, so a handful of fits can all lean one way by
          chance; judge it at the default fit count.

Usage:
    python scripts/compare_scan_kernels.py REF_SRC NEW_SRC OUT.json \\
        [--replicates R] [--fits F] [--seed S]

REF_SRC and NEW_SRC are the ``src`` directories of the two trees; each
tree runs in its own child, started by scripts/paired.py, since both
define the package ``mlpp``.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

import paired

ROOT = Path(__file__).resolve().parents[1]
START_SCANS = 150
SCANS = 3
CHAINS, ITERS, BURN_IN = 2, 200, 50
VAR_THRESHOLD = 0.9
MIN_BIN = 20


def _problem(design_seed: int):
    from mlpp.fpca import fit_fpca, smooth_dataset
    from mlpp.hyperparams import estimate_hyperparams
    from mlpp.simgen import SimDesign, simulate
    data, _ = simulate(SimDesign(snr=6.0, seed=design_seed))
    smoothed = smooth_dataset(data, 25)
    basis = fit_fpca(smoothed, var_threshold=VAR_THRESHOLD)
    return smoothed, basis, estimate_hyperparams(basis, data.group_codes)


def _first_label_counts(state) -> list:
    in_subject = (state.subject_alloc == 3)[:, None, :]
    return np.sum(in_subject & (state.channel_alloc == 4), axis=(0, 1)).tolist()


def worker_start(design_seed: int, out: str) -> None:
    data, basis, hp = _problem(design_seed)
    import mlpp.sampler as S
    ws = S.make_workspace(data, basis)
    rng = np.random.default_rng(design_seed)
    state = S.initial_state_empirical(basis, hp, ws)
    for _ in range(START_SCANS):
        S.gibbs_scan(state, ws, hp, rng)
    np.savez(out, **{f.name: getattr(state, f.name) for f in dataclasses.fields(state)})


def worker_scan(design_seed: int, start: str, replicates: int, base: int,
                out: str) -> None:
    data, basis, hp = _problem(design_seed)
    import mlpp.sampler as S
    from mlpp.model import ModelState
    ws = S.make_workspace(data, basis)
    with np.load(start) as fields:
        initial = ModelState(**{name: fields[name] for name in fields.files})
    initial.noise_prec = float(initial.noise_prec)
    rows = {1: [], SCANS: []}
    for r in range(replicates):
        state = initial.copy()
        rng = np.random.default_rng(base + r)
        for scan in range(1, SCANS + 1):
            S.gibbs_scan(state, ws, hp, rng)
            if scan in rows:
                rows[scan].append(S._scalar_row(state) + _first_label_counts(state))
    k = initial.n_components
    names = S.scalar_names(k) + [f"first_label_channels[{d + 1}]" for d in range(k)]
    np.savez(out, names=np.array(names), **{f"after_{s}": np.array(v) for s, v in rows.items()})


def worker_ess(seeds: list, out: str) -> None:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import ess
    from mlpp.sampler import SamplerConfig, run_chains
    result = []
    for seed in seeds:
        data, basis, hp = _problem(seed * 1000 + 1)
        cfg = SamplerConfig(n_iter=ITERS, burn_in=BURN_IN, n_chains=CHAINS, seed=seed)
        archives = run_chains(data, basis, hp, cfg)
        values = []
        for j in range(archives[0].scalars.shape[1]):
            chains = np.stack([a.scalars[:, j] for a in archives])
            if not ess.is_constant(chains):
                values.append(ess.effective_sample_size(chains))
        draws = sum(a.n_draws for a in archives)
        result.append({"seed": seed, "n_components": int(basis.n_components),
                       "ess_per_draw": float(np.median(values)) / draws,
                       "ess_min_per_draw": float(np.min(values)) / draws})
    Path(out).write_text(json.dumps(result))


def _count_test(a: np.ndarray, b: np.ndarray) -> float:
    from scipy.stats import chi2_contingency
    values = np.union1d(a, b)
    table = np.array([[np.sum(a == v) for v in values], [np.sum(b == v) for v in values]])
    bins, current = [], np.zeros(2, dtype=int)
    for column in table.T:                      # pool adjacent values
        current = current + column
        if current.sum() >= MIN_BIN:
            bins.append(current)
            current = np.zeros(2, dtype=int)
    if current.sum():
        if bins:
            bins[-1] = bins[-1] + current
        else:
            bins.append(current)
    if len(bins) < 2:
        return 1.0
    return float(chi2_contingency(np.array(bins).T)[1])


def compare_rows(names, ref: np.ndarray, new: np.ndarray) -> dict:
    from scipy.stats import ks_2samp
    tests = {}
    for j, name in enumerate(names):
        a, b = ref[:, j], new[:, j]
        if np.all(a == a[0]) and np.all(b == a[0]):
            continue
        discrete = name.startswith(("count_", "first_label"))
        p = _count_test(a, b) if discrete else float(ks_2samp(a, b).pvalue)
        tests[name] = {"test": "chi2" if discrete else "ks", "p": p,
                       "ref_mean": float(a.mean()), "new_mean": float(b.mean())}
    ps = np.array([t["p"] for t in tests.values()])
    return {"n_tests": len(tests), "min_p": float(ps.min()),
            "bonferroni_min_p": float(min(1.0, ps.min() * ps.size)),
            "n_below_0.05": int(np.sum(ps < 0.05)), "tests": tests}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref_src")
    parser.add_argument("new_src")
    parser.add_argument("out")
    parser.add_argument("--replicates", type=int, default=10000)
    parser.add_argument("--fits", type=int, default=20)
    parser.add_argument("--seed", type=int, default=901)
    args = parser.parse_args()
    design_seed = args.seed * 1000 + 1
    base = args.seed * 10 ** 6
    ess_seeds = list(range(args.seed + 10, args.seed + 10 + args.fits))
    sides = {"ref": str(Path(args.ref_src).resolve()), "new": str(Path(args.new_src).resolve())}
    record = {"design": {"n_subjects": 40, "n_channels": 50, "n_timepoints": 150,
                         "snr": 6.0, "design_seed": design_seed,
                         "var_threshold": VAR_THRESHOLD},
              "one_scan": {"start": f"{START_SCANS} scans of ref, seed {design_seed}",
                           "replicates": args.replicates,
                           "replicate_seeds": [base, base + args.replicates - 1]},
              "ess": {"fit_seeds": ess_seeds, "design_seed": "fit seed * 1000 + 1",
                      "chains": CHAINS, "iters": ITERS, "burn_in": BURN_IN},
              "wall_s": {}}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        worker = [__file__, "--worker"]
        paired.run(sides["ref"], worker + ["start", design_seed, tmp / "start.npz"])
        rows = {}
        for side, src in sides.items():
            record["wall_s"][f"one_scan_{side}"] = paired.run(src, worker + [
                "scan", design_seed, tmp / "start.npz", args.replicates, base,
                tmp / f"{side}.npz"]).wall_s
            rows[side] = np.load(tmp / f"{side}.npz")
        names = [str(n) for n in rows["ref"]["names"]]
        for s in (1, SCANS):
            record["one_scan"][f"after_{s}"] = compare_rows(
                names, rows["ref"][f"after_{s}"], rows["new"][f"after_{s}"])
        fits = {}
        for side, src in sides.items():
            record["wall_s"][f"ess_{side}"] = paired.run(src, worker + [
                "ess", ",".join(map(str, ess_seeds)), tmp / f"{side}.json"]).wall_s
            fits[side] = json.loads((tmp / f"{side}.json").read_text())
    from scipy.stats import wilcoxon
    for key in ("ess_per_draw", "ess_min_per_draw"):
        ref = [f[key] for f in fits["ref"]]
        new = [f[key] for f in fits["new"]]
        record["ess"][key] = {
            "ref": ref, "new": new,
            "ref_median": float(np.median(ref)), "new_median": float(np.median(new)),
            "new_lower": paired.pairs_won(ref, new), "new_higher": paired.pairs_won(new, ref),
            "wilcoxon_p": "identical" if new == ref else float(wilcoxon(new, ref).pvalue)}
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    for s in (1, SCANS):
        r = record["one_scan"][f"after_{s}"]
        print(f"after {s} scan(s): {r['n_tests']} tests, min p {r['min_p']:.3g}, "
              f"Bonferroni {r['bonferroni_min_p']:.3g}, {r['n_below_0.05']} below 0.05")
    for key in ("ess_per_draw", "ess_min_per_draw"):
        r = record["ess"][key]
        p = r["wilcoxon_p"]
        print(f"{key}: ref median {r['ref_median']:.3f}, new {r['new_median']:.3f}, "
              f"new lower in {r['new_lower']}/{len(ref)}, Wilcoxon p "
              f"{p if isinstance(p, str) else format(p, '.3g')}")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        mode, *rest = sys.argv[2:]
        if mode == "start":
            worker_start(int(rest[0]), rest[1])
        elif mode == "scan":
            worker_scan(int(rest[0]), rest[1], int(rest[2]), int(rest[3]), rest[4])
        else:
            worker_ess([int(s) for s in rest[0].split(",")], rest[1])
    else:
        main()
