"""mlpp benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload replication|cli_default \
        --seed N --seconds S --trace 0|1

The program is run from ``src/`` of the same checkout.  Chains run
serially (``MLPP_THREADS`` is removed from the children's environment)
and BLAS uses one thread.  With ``--trace 0`` the result holds the
end-to-end metrics of BENCHMARK.json, measured with no wrappers; with
``--trace 1`` the same operations run with the layer wrappers of
tracer.py and the result holds the per-layer metrics.  The line before
the result records the environment; the full record and the spans are
also written under perfbench/_work/.
"""
from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:              # before numpy is imported anywhere
    os.environ[_var] = "1"

import argparse
import gzip
import hashlib
import json
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

from tracer import layer_totals, merge_totals
from workloads import WORKLOADS, Session, median

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / "_work"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    return args


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mlpp").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def environment(nproc: int, mlpp_threads) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):         # older numpy has no dict mode
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
            "nproc": nproc, "MLPP_THREADS": mlpp_threads,
            "git_commit": git_commit(), "src_sha256": source_digest(),
            "platform": platform.platform()}


def end_to_end(session) -> dict:
    values = dict(session.values)
    for name in ("setup_s", "fit_s", "chain_iters_per_s", "ess_per_s",
                 "diagnose_s", "summarize_s"):
        if name not in values and session.samples.get(name):
            values[name] = median(session.samples[name])
    if session.samples.get("recovery_ari"):
        values["recovery_ari"] = statistics.fmean(session.samples["recovery_ari"])
    values["peak_rss_mb"] = session.rss_kb / 1024.0
    values["ok_frac"] = 1.0 - session.failed / max(session.attempted, 1)
    return values


def per_layer(session) -> dict:
    totals = merge_totals(layer_totals(doc["spans"]) for doc in session.span_docs)

    def total(name, key="total"):
        return totals.get(name, {}).get(key, 0.0)

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    def per_call(name):
        return total(name) / calls(name) if calls(name) else 0.0

    scans = calls("sampler.gibbs_scan")

    def ms_per_scan(seconds):
        return 1e3 * seconds / scans if scans else 0.0

    scan_ms = ms_per_scan(total("sampler.gibbs_scan"))
    m = {key: ms_per_scan(total(name)) for key, name in (
        ("sampler.scores_ms", "sampler.update_scores"),
        ("sampler.noise_ms", "sampler.update_noise_prec"),
        ("sampler.cluster_ms", "sampler.update_cluster_params"),
        ("sampler.alloc_ms", "sampler.update_subject_alloc"),
        ("sampler.weights_ms", "sampler.update_category_weights"),
        ("sampler.sticks_ms", "sampler.update_sticks"),
        ("sampler.logprior_ms", "sampler.scores_logprior"),
        ("sampler.tgamma_ms", "sampler.truncated_gamma_sample"))}
    m["sampler.scan_ms"] = scan_ms
    m["sampler.scan_self_ms"] = ms_per_scan(total("sampler.gibbs_scan", "self"))
    m["sampler.chain_self_ms"] = ms_per_scan(total("sampler.run_chain", "self"))
    durations = 1e3 * np.array(total("sampler.gibbs_scan", "durations") or [])
    m["sampler.scan_ms_p50"], m["sampler.scan_ms_p99"] = (
        np.percentile(durations, [50, 99]).tolist() if durations.size else (0.0, 0.0))
    for key in ("scan_self", "cluster", "alloc"):
        m[f"sampler.{key}_share"] = 100.0 * m[f"sampler.{key}_ms"] / scan_ms if scans else 0.0
    m["sampler.tgamma_calls"] = calls("sampler.truncated_gamma_sample") / scans if scans else 0.0
    m["sampler.scans"] = float(scans)
    m["sampler.draws_kept"] = float(sum(session.samples.get("draws_kept", [])))
    for key in ("ess_min", "ess_median", "ess_per_draw"):
        m[f"sampler.{key}"] = median(session.samples[key]) if session.samples.get(key) else 0.0
    m["sampler.save_s"] = per_call("sampler.save_archives")
    m["sampler.archive_bytes"] = session.values.get("sampler.archive_bytes", 0.0)
    m["sampler.load_s"] = per_call("sampler.load_archives")
    m["partitions.similarity_s"] = per_call("partitions.similarity_matrix")
    m["partitions.vi_estimate_s"] = per_call("partitions.vi_point_estimate")
    m["partitions.credible_ball_s"] = per_call("partitions.credible_ball")
    vi_calls = calls("partitions.vi_point_estimate")
    m["partitions.unique_partitions"] = sum(
        doc["counts"].get("partitions.vi_point_estimate", 0)
        for doc in session.span_docs) / vi_calls if vi_calls else 0.0
    m["diagnostics.diagnose_s"] = per_call("diagnostics.diagnose_archives")
    exports = ("diagnostics.export_trace", "diagnostics.export_density",
               "diagnostics.write_diagnostics_csv")
    diagnoses = calls("diagnostics.diagnose_archives")
    m["diagnostics.export_s"] = sum(map(total, exports)) / diagnoses if diagnoses else 0.0
    m["fpca.read_s"] = per_call("fpca.read_dataset_csv")
    m["fpca.fit_s"] = per_call("fpca.fit_fpca")
    m["fpca.write_basis_s"] = per_call("fpca.write_basis")
    m["smoothing.smooth_s"] = per_call("fpca.smooth_dataset")
    m["smoothing.gcv_s"] = per_call("smoothing.select_penalty")
    m["hyperparams.calibrate_s"] = per_call("hyperparams.estimate_hyperparams")
    imports = [doc["import_s"] for doc in session.span_docs if "import_s" in doc]
    m["cli.import_s"] = statistics.fmean(imports) if imports else 0.0
    ratios = session.samples.get("trace_ratio")
    m["trace.overhead_pct"] = 100.0 * (median(ratios) - 1.0) if ratios else 0.0
    missing = sorted({name for doc in session.span_docs for name in doc["missing"]})
    session.notes["missing_layers"] = missing
    m["trace.missing_layers"] = float(len(missing))
    return m


def write_spans(session, path: Path) -> None:
    with gzip.open(path, "wt") as fh:
        for proc, doc in enumerate(session.span_docs):
            for name, start, end, parent, run_id in doc["spans"]:
                fh.write(json.dumps([proc, run_id, name, start, end, parent]) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "mlpp" / "__init__.py").is_file():
        print(f"error: no mlpp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    mlpp_threads = os.environ.get("MLPP_THREADS")
    if mlpp_threads is not None and (not mlpp_threads.strip().isdigit()
                                     or int(mlpp_threads) > nproc):
        print(f"error: MLPP_THREADS={mlpp_threads!r} would start more chain workers "
              f"than the {nproc} available processors", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    sys.path.insert(0, str(ROOT / "src"))
    env = {key: val for key, val in os.environ.items() if key != "MLPP_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    session = Session(work, args.seed, args.seconds, bool(args.trace), env)
    try:
        WORKLOADS[args.workload](session)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    values = per_layer(session) if args.trace else end_to_end(session)

    metrics = {}
    for entry in wanted:
        value = values.get(entry["name"])
        if value is None:
            session.problems.append(f"metric {entry['name']} was not measured")
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    result = {"correct": not session.problems, "attempted": session.attempted,
              "failed": session.failed, "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(nproc, mlpp_threads),
              "samples": {key: len(val) for key, val in session.samples.items()},
              "notes": session.notes, "problems": session.problems}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (WORK / "results").mkdir(exist_ok=True)
    (WORK / "results" / f"{name}.json").write_text(json.dumps(
        {"record": record, "sample_values": session.samples, "result": result},
        indent=1) + "\n")
    if args.trace:
        (WORK / "traces").mkdir(exist_ok=True)
        write_spans(session, WORK / "traces" / f"{name}.jsonl.gz")
    print("record " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
