"""Command line front end.

Four subcommands cover the full workflow: `simulate` writes replicate
datasets with planted truth, `fit` smooths, decomposes and samples,
`diagnose` checks the archived chains, and `summarize` reports the
partition estimates.  Every output directory gets a meta.json recording
versions, seeds, flags and input hashes.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .diagnostics import (MIN_DRAWS, diagnose_archives, export_density, export_trace,
                          format_diagnostics_table, write_diagnostics_csv)
from .fpca import (fit_fpca, read_dataset_csv, smooth_dataset, write_basis,
                   write_dataset_csv, write_time_grid_csv)
from .hyperparams import (apply_scenario, estimate_hyperparams,
                          load_hyperparams, save_hyperparams, SCENARIOS)
from .partitions import (_summarize_dimension, format_partition_table,
                         write_partition_report, write_similarity_csv)
from .sampler import SamplerConfig, load_archives, run_chains, save_archives
from .simgen import SimDesign, read_truth_json, simulate, write_truth_json


def _sha256(path) -> str:
    import hashlib              # only fit and simulate hash their inputs

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _manifest(args: argparse.Namespace, inputs: dict | None = None) -> dict:
    doc = {
        "command": args.command,
        "flags": {key: val for key, val in sorted(vars(args).items())
                  if key not in ("func", "command")},
        "versions": {"mlpp": __version__, "numpy": np.__version__,
                     "python": sys.version.split()[0]},
    }
    if inputs:
        doc["inputs"] = {name: {"path": str(path), "sha256": _sha256(path)}
                         for name, path in inputs.items()}
    return doc


def _read(parser: argparse.ArgumentParser, reader, *args):
    """reader(*args), a ValueError (a malformed input file, which the
    message names with the line, or an out-of-range flag value) reported
    as a usage error."""
    try:
        return reader(*args)
    except ValueError as err:
        parser.error(str(err))


def _prepare_out(parser: argparse.ArgumentParser, out, force: bool) -> Path:
    path = Path(out)
    if path.exists() and any(path.iterdir()) and not force:
        parser.error(f"output directory {path} is not empty (use --force to reuse)")
    path.mkdir(parents=True, exist_ok=True)
    return path


def cmd_simulate(parser, args) -> int:
    if args.replicates < 1:
        parser.error(f"--replicates {args.replicates}: need at least 1")
    # every design is checked before --out is made
    try:
        designs = [SimDesign(n_subjects=args.subjects, n_channels=args.channels,
                             n_timepoints=args.timepoints,
                             n_group_a=args.subjects // 2, snr=args.snr,
                             seed=args.seed + rep)
                   for rep in range(args.replicates)]
    except ValueError as err:
        parser.error(f"--seed {args.seed} --subjects {args.subjects} "
                     f"--channels {args.channels} --timepoints {args.timepoints} "
                     f"--snr {args.snr}: {err}")
    out = _prepare_out(parser, args.out, args.force)
    rep_dirs = []
    for rep, design in enumerate(designs, start=1):
        data, truth = simulate(design)
        rep_dir = out / f"rep_{rep:02d}"
        rep_dir.mkdir(exist_ok=True)
        write_dataset_csv(data, rep_dir / "data.csv")
        write_time_grid_csv(data.time_grid, rep_dir / "time_grid.csv")
        write_truth_json(truth, rep_dir / "truth.json")
        rep_dirs.append(rep_dir.name)
    doc = _manifest(args)
    doc["replicates"] = rep_dirs
    (out / "meta.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"simulated {args.replicates} replicate(s) of "
          f"{args.subjects} subjects x {args.channels} channels in {out}")
    return 0


def _parse_overrides(parser, pairs) -> dict:
    overrides = {}
    for pair in pairs or []:
        if "=" not in pair:
            parser.error(f"--set expects field=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        try:
            overrides[key] = json.loads(raw)
        except json.JSONDecodeError:
            parser.error(f"--set value for {key!r} is not valid JSON: {raw!r}")
    return overrides


def cmd_fit(parser, args) -> int:
    try:
        cfg = SamplerConfig(n_iter=args.iters, burn_in=args.burnin, thin=args.thin,
                            n_chains=args.chains, seed=args.seed,
                            init_mode=args.init, audit_every=args.audit_every)
    except ValueError as err:
        parser.error(f"--iters {args.iters} --burnin {args.burnin} --thin {args.thin} "
                     f"--chains {args.chains} --seed {args.seed} "
                     f"--audit-every {args.audit_every}: {err}")
    data_dir = Path(args.data)
    inputs = {"data": data_dir / "data.csv", "time_grid": data_dir / "time_grid.csv"}
    if args.hyperparams:
        inputs["hyperparams"] = Path(args.hyperparams)
    for path in inputs.values():
        if not path.is_file():
            parser.error(f"missing input file {path}")
    # every input and flag value is checked, by the stages that use it,
    # before --out is made
    raw = _read(parser, read_dataset_csv, inputs["data"], inputs["time_grid"])
    hp = _read(parser, load_hyperparams, args.hyperparams) if args.hyperparams else None
    overrides = _parse_overrides(parser, args.set)
    smoothed = raw if args.no_smooth else _read(
        parser, smooth_dataset, raw, args.basis_size, args.penalty)
    basis = _read(parser, fit_fpca, smoothed, args.var_threshold)
    if hp is None:
        hp = _read(parser, estimate_hyperparams, basis, raw.group_codes)
    hp = _read(parser, apply_scenario, hp, args.scenario, overrides)
    if hp.n_components != basis.n_components:
        parser.error(f"the hyperparameters have {hp.n_components} component(s), but "
                     f"the basis at --var-threshold {args.var_threshold} has "
                     f"{basis.n_components}")
    if hp.n_groups < raw.n_groups:
        parser.error(f"the hyperparameters have {hp.n_groups} group(s), but group code "
                     f"{raw.group_codes.max()} in {inputs['data']} needs {raw.n_groups}")
    out = _prepare_out(parser, args.out, args.force)

    archives = run_chains(smoothed, basis, hp, cfg)

    # the run is incomplete until save_archives writes meta.json again
    (out / "meta.json").unlink(missing_ok=True)
    write_basis(basis, out / "basis")
    save_hyperparams(hp, out / "hyperparams.json")
    save_archives(archives, out, extra_meta=_manifest(args, inputs))
    print(f"kept {archives[0].n_draws} draws x {len(archives)} chain(s), "
          f"{basis.n_components} component(s); run written to {out}")
    return 0


def cmd_diagnose(parser, args) -> int:
    run_dir = Path(args.run)
    if not (run_dir / "meta.json").exists():
        parser.error(f"{run_dir} does not look like a run directory")
    archives = _read(parser, load_archives, run_dir, ("draws_scalar.csv",))
    if archives[0].n_draws < MIN_DRAWS:
        parser.error(f"{run_dir} keeps {archives[0].n_draws} draw(s) per chain; "
                     f"diagnose needs at least {MIN_DRAWS}")
    rows = _read(parser, diagnose_archives, archives, args.rhat_threshold,
                 args.ess_threshold)
    write_diagnostics_csv(run_dir / "diagnostics.csv", rows)
    names = args.trace or ["noise_prec"]
    index = {name: j for j, name in enumerate(archives[0].scalar_names)}
    for name in names:
        if name not in index:
            parser.error(f"unknown parameter {name!r}; see diagnostics.csv for names")
        chains = np.stack([a.scalars[:, index[name]] for a in archives])
        safe = name.replace("[", "_").replace("]", "").replace(",", "_")
        export_trace(run_dir / f"trace_{safe}.csv", chains, name=name)
        export_density(run_dir / f"density_{safe}.csv", chains, name=name)
    print(format_diagnostics_table(rows))
    flagged = [row["name"] for row in rows if not row["ok"]]
    if flagged:
        print(f"FLAGGED {len(flagged)} parameter(s): " + ", ".join(flagged))
        return 2
    print("all parameters within thresholds")
    return 0


def cmd_summarize(parser, args) -> int:
    run_dir = Path(args.run)
    if not (run_dir / "meta.json").exists():
        parser.error(f"{run_dir} does not look like a run directory")
    archives = _read(parser, load_archives, run_dir, ("labels_g.csv",))
    subject_draws = np.concatenate([a.subject_alloc_draws for a in archives])
    group_codes = archives[0].group_codes
    n_components = subject_draws.shape[2]

    truth = _read(parser, read_truth_json, args.truth) if args.truth else None
    if truth is not None and len(truth.subject_labels) != subject_draws.shape[1]:
        parser.error(f"{args.truth} plants {len(truth.subject_labels)} subject(s); "
                     f"the run in {run_dir} has {subject_draws.shape[1]}")
    reports = []
    for dim in range(n_components):
        truth_labels = None
        if truth is not None and dim < truth.subject_labels.shape[1]:
            truth_labels = truth.subject_labels[:, dim]
        report, sim = _summarize_dimension(subject_draws, group_codes, dim,
                                           truth_labels, args.level)
        reports.append(report)
        write_similarity_csv(run_dir / f"similarity_dim{dim + 1}.csv", sim)
    write_partition_report(run_dir / "partitions.json", reports)
    print(format_partition_table(reports))
    return 0


def credible_level(text: str) -> float:
    level = float(text)
    if not 0.0 < level <= 1.0:
        raise argparse.ArgumentTypeError(f"{text} lies outside (0, 1]")
    return level


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlpp",
        description="Multilevel partition priors for multichannel functional data")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="write replicate datasets with planted truth")
    p.add_argument("--subjects", type=int, default=40)
    p.add_argument("--channels", type=int, default=50)
    p.add_argument("--timepoints", type=int, default=150)
    p.add_argument("--snr", type=float, default=6.0)
    p.add_argument("--replicates", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true",
                   help="allow writing into a non-empty directory")
    p.set_defaults(func=functools.partial(cmd_simulate, p))

    p = sub.add_parser("fit", help="smooth, decompose and run the sampler")
    p.add_argument("--data", required=True,
                   help="directory containing data.csv and time_grid.csv")
    p.add_argument("--out", required=True)
    p.add_argument("--iters", type=int, default=4000)
    p.add_argument("--burnin", type=int, default=1000)
    p.add_argument("--thin", type=int, default=2)
    p.add_argument("--chains", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--basis-size", type=int, default=25)
    p.add_argument("--penalty", type=float, default=None,
                   help="smoothing penalty (default: generalized cross-validation)")
    p.add_argument("--no-smooth", action="store_true",
                   help="skip smoothing and decompose the raw curves")
    p.add_argument("--var-threshold", type=float, default=0.8)
    p.add_argument("--hyperparams", default=None,
                   help="JSON file of prior constants (default: estimate from scores)")
    p.add_argument("--scenario", choices=SCENARIOS, default=None)
    p.add_argument("--set", action="append", metavar="FIELD=JSON",
                   help="override one hyperparameter field (repeatable)")
    p.add_argument("--init", choices=("empirical", "prior_draw"), default="empirical")
    p.add_argument("--audit-every", type=int, default=0)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=functools.partial(cmd_fit, p))

    p = sub.add_parser("diagnose", help="convergence checks on a run directory")
    p.add_argument("--run", required=True)
    p.add_argument("--rhat-threshold", type=float, default=1.1)
    p.add_argument("--ess-threshold", type=float, default=1000.0)
    p.add_argument("--trace", action="append", metavar="NAME",
                   help="also export trace/density CSVs for this parameter "
                        "(default: noise_prec)")
    p.set_defaults(func=functools.partial(cmd_diagnose, p))

    p = sub.add_parser("summarize", help="partition point estimates and credible balls")
    p.add_argument("--run", required=True)
    p.add_argument("--truth", default=None, help="planted-truth JSON for scoring")
    p.add_argument("--level", type=credible_level, default=0.95,
                   help="posterior mass of the credible ball, in (0, 1]")
    p.set_defaults(func=functools.partial(cmd_summarize, p))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
