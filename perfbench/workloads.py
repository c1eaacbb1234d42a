"""The two benchmark workloads and the checks on their outputs.

Every workload generates its inputs from the run seed with mlpp.simgen,
runs its operations one after another in one process (``replication``)
or as fresh ``mlpp`` processes (``cli_default``), checks every output,
and fills a Session with timing samples.  With tracing on
the same operations run with the layer wrappers of tracer.py installed.
"""
from __future__ import annotations

import csv
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import ess
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 150.0
MLPP_MAIN = "import sys; from mlpp.cli import main; sys.exit(main())"

# replication: the acceptance study's design, shortened chains.  The
# library diagnose and summarize take milliseconds, so each runs this
# many times per replicate, every call a timing sample.
REP_SHAPE = (20, 20, 100)
REP_ITERS, REP_BURNIN, REP_THIN = 600, 300, 2
REP_POST_CALLS = 5
# cli_default: the CLI default data size and chain count.
CHAINS = 2
CLI_ITERS, CLI_BURNIN, CLI_THIN = 200, 50, 1
# diagnose and summarize run this many times on each fit, every call a
# timing sample: a fit costs as much as several of them, and one sample
# per fit left too few for a steady median.
CLI_POST_CALLS = 2
SETUP_FIT, SETUP_DRAWS = ["--iters", "2", "--burnin", "0", "--thin", "1"], 2
# At this size the first component alone often explains 80% of the
# variance, so the CLI default threshold of 0.8 would keep one component
# for some seeds; 0.9 keeps both planted components.
VAR_THRESHOLD = "0.9"


class Session:
    """One benchmark run: work directory, child environment, operation
    accounting, timing samples and collected spans."""

    def __init__(self, work: Path, seed: int, seconds: float, trace: bool, env: dict):
        self.work, self.seed = work, seed
        self.seconds, self.trace, self.env = seconds, trace, env
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.samples: dict = {}
        self.values: dict = {}
        self.rss_kb = 0
        self.span_docs: list = []
        self.notes: dict = {}
        self.start = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def op(self, name: str, problems) -> bool:
        """Count one operation; it fails if any check found a problem."""
        self.attempted += 1
        problems = [p for p in problems if p]
        if problems:
            self.failed += 1
            self.problems.append(f"{name}: " + "; ".join(problems))
        return not problems

    def sample(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)

    def mlpp(self, args: list, trace_id: str | None = None):
        """Run one mlpp command in a fresh interpreter, traced through
        launch.py when trace_id is given; returns (exit code, wall seconds)."""
        spans_path = self.work / f"spans-{trace_id}.json"
        if trace_id is None:
            argv = [sys.executable, "-c", MLPP_MAIN, *args]
        else:
            argv = [sys.executable, str(BENCH_DIR / "launch.py"), str(spans_path),
                    trace_id, "--", *args]
        rc, wall = self.child(argv, args[0])
        if trace_id is not None and spans_path.exists():
            self.span_docs.append(json.loads(spans_path.read_text()))
            spans_path.unlink()
        return rc, wall

    def child(self, argv: list, label: str):
        with open(self.work / f"{label}.log", "w") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env,
                                    stdout=log, stderr=subprocess.STDOUT)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.rss_kb = max(self.rss_kb, usage.ru_maxrss)
        return proc.returncode, wall


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def rep_design(seed: int, rep: int):
    from mlpp.simgen import SimDesign
    u, n, t = REP_SHAPE
    return SimDesign(n_subjects=u, n_channels=n, n_timepoints=t, n_group_a=u // 2,
                     snr=6.0 if rep % 2 == 0 else 2.0, seed=seed * 1000 + rep)


def cli_design(seed: int):
    from mlpp.simgen import SimDesign
    return SimDesign(snr=6.0, seed=seed * 1000 + 1)


DESIGNS = {"replication": lambda seed: rep_design(seed, 0), "cli_default": cli_design}


def dataset_digest(data, truth) -> str:
    digest = hashlib.sha256()
    for arr in (data.values, data.time_grid, data.group_codes.astype(np.int64),
                truth.subject_labels.astype(np.int64)):
        digest.update(np.ascontiguousarray(arr).tobytes())
    for key in sorted(truth.channel_labels):
        digest.update(key.encode())
        digest.update(np.asarray(truth.channel_labels[key], dtype=np.int64).tobytes())
    return digest.hexdigest()


def check_inputs(session: Session, workload: str, digest: str) -> None:
    """Compare this run's first dataset, and the dataset of seed 0, with
    the digests recorded when the benchmark was defined, so a change to
    mlpp.simgen shows as a failure instead of silently new inputs."""
    from mlpp.simgen import simulate
    table = json.loads((BENCH_DIR / "input_hashes.json").read_text())[workload]
    session.notes["input_digest"] = digest
    problems = []
    if str(session.seed) in table and table[str(session.seed)] != digest:
        problems.append(f"seed {session.seed} dataset differs from the recorded one")
    if session.seed != 0 and dataset_digest(*simulate(DESIGNS[workload](0))) != table["0"]:
        problems.append("seed 0 dataset differs from the recorded one")
    session.op("inputs", problems)


def write_dataset(design, directory: Path):
    from mlpp.fpca import write_dataset_csv, write_time_grid_csv
    from mlpp.simgen import simulate, write_truth_json
    data, truth = simulate(design)
    directory.mkdir(parents=True, exist_ok=True)
    write_dataset_csv(data, directory / "data.csv")
    write_time_grid_csv(data.time_grid, directory / "time_grid.csv")
    write_truth_json(truth, directory / "truth.json")
    return data, truth


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def archive_digest(archives) -> str:
    digest = hashlib.sha256()
    for a in archives:
        for arr in (a.scalars, a.subject_alloc_draws, a.channel_alloc_draws):
            digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


def archive_problems(archives, n_chains: int, n_draws: int, shape) -> list:
    u, n, k = shape
    if len(archives) != n_chains:
        return [f"{len(archives)} chains, expected {n_chains}"]
    problems = []
    for c, a in enumerate(archives):
        if a.scalars.shape != (n_draws, len(a.scalar_names)) \
                or a.subject_alloc_draws.shape != (n_draws, u, k) \
                or a.channel_alloc_draws.shape != (n_draws, u, n, k):
            problems.append(f"chain {c}: archive shapes {a.scalars.shape}, "
                            f"{a.subject_alloc_draws.shape}, {a.channel_alloc_draws.shape}")
            continue
        if not np.all(np.isfinite(a.scalars)):
            problems.append(f"chain {c}: non-finite scalar draws")
        cats = a.subject_alloc_draws
        if not np.isin(cats, (1, 2, 3)).all():
            problems.append(f"chain {c}: subject categories outside {{1,2,3}}")
        own = np.broadcast_to((cats == 3)[:, :, None, :], a.channel_alloc_draws.shape)
        chan = a.channel_alloc_draws
        if np.any((chan == -1) == own) or np.any(chan[own] < 4):
            problems.append(f"chain {c}: channel labels not -1 exactly off category 3")
    return problems


def report_problems(reports, k: int, u: int) -> list:
    dims = [rep.get("dim") for rep in reports]
    if dims != list(range(1, k + 1)):
        return [f"partition reports for dims {dims}, expected 1..{k}"]
    if any(len(rep.get("estimate", [])) != u for rep in reports):
        return ["partition estimate of the wrong length"]
    return []


def ess_summary(session: Session, archives) -> dict:
    """Median and minimum ESS over non-constant scalars (frozen estimator);
    notes whether the program's estimator still agrees."""
    from mlpp.diagnostics import effective_sample_size
    values = []
    agree = True
    for j in range(archives[0].scalars.shape[1]):
        chains = np.stack([a.scalars[:, j] for a in archives])
        if ess.is_constant(chains):
            continue
        ours = ess.effective_sample_size(chains)
        values.append(ours)
        try:
            agree &= bool(np.isclose(effective_sample_size(chains), ours, rtol=1e-9))
        except Exception:                       # a changed estimator may raise
            agree = False
    session.notes["ess_matches_program"] = session.notes.get(
        "ess_matches_program", True) and agree
    draws = sum(a.n_draws for a in archives)
    return {"median": float(np.median(values)), "min": float(np.min(values)),
            "draws": draws}


def archive_bytes(run_dir: Path) -> int:
    return sum(p.stat().st_size for p in run_dir.rglob("*")
               if p.is_file() and (p.parent.name.startswith("chain_")
                                   or p.name == "meta.json"))


def diagnostics_problems(path: Path, names) -> list:
    if not path.exists():
        return ["diagnostics.csv missing"]
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if [r["parameter"] for r in rows] != list(names):
        return ["diagnostics.csv does not list every scalar"]
    if not all(np.isfinite(float(r[key])) for r in rows for key in ("rhat", "ess")):
        return ["non-finite rhat or ess in diagnostics.csv"]
    return []


def file_digest(paths) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def median(values) -> float:
    return float(statistics.median(values))


def keep_going(session: Session, done: int, minimum: int) -> bool:
    """Whether to start another step: until the minimum count is done and
    the measuring window has closed (the last step may run past it)."""
    return done < minimum or session.elapsed() < session.seconds


def paired(session: Session, label: str, step) -> dict:
    """Run ``step(trace_id)`` once.  With tracing on, run it untraced and
    traced, in alternating order from one call to the next, require equal
    output digests and record the wall-time ratio; the traced result is
    returned.  A step returns a dict with at least 'wall' and 'digest'."""
    if not session.trace:
        return step(None)
    order = (False, True) if len(session.samples.get("trace_ratio", [])) % 2 == 0 \
        else (True, False)
    runs = {traced: step(label if traced else None) for traced in order}
    session.sample("trace_ratio", runs[True]["wall"] / runs[False]["wall"])
    session.op(f"{label} untraced", [] if runs[True]["digest"] == runs[False]["digest"]
               else ["traced outputs differ from untraced outputs"])
    return runs[True]


# ---------------------------------------------------------------------------
# replication: many small library-path fits
# ---------------------------------------------------------------------------

def _prepare(data, seed: int):
    """smooth -> fPCA -> calibrate, looking every function up on its module
    so the tracer can wrap it."""
    from mlpp import fpca, hyperparams
    smoothed = fpca.smooth_dataset(data, 25, None)
    basis = fpca.fit_fpca(smoothed, var_threshold=0.8)
    return smoothed, basis, hyperparams.estimate_hyperparams(basis, data.group_codes,
                                                             seed=seed)


def _timed(repeats: int, call):
    """Call ``call()`` ``repeats`` times; returns the last result, the wall
    time of each call and whether the results differed."""
    walls, outputs = [], set()
    for _ in range(repeats):
        start = time.perf_counter()
        result = call()
        walls.append(time.perf_counter() - start)
        outputs.add(json.dumps(result, sort_keys=True, default=repr))
    return result, walls, len(outputs) > 1


def _replicate(seed: int, data, truth) -> dict:
    """One replicate of the study: prepare -> run_chain -> diagnose ->
    summarize every dimension against the planted truth; diagnose and
    summarize run REP_POST_CALLS times, and their outputs must agree."""
    from mlpp import diagnostics, partitions, sampler
    t0 = time.perf_counter()
    smoothed, basis, hp = _prepare(data, seed)
    t1 = time.perf_counter()
    cfg = sampler.SamplerConfig(n_iter=REP_ITERS, burn_in=REP_BURNIN, thin=REP_THIN,
                                n_chains=1, seed=seed)
    archive = sampler.run_chain(smoothed, basis, hp, cfg)
    t2 = time.perf_counter()

    def summarize():
        return [partitions.summarize_dimension(
            archive.subject_alloc_draws, archive.group_codes, dim,
            truth_labels=truth.subject_labels[:, dim] if dim < 2 else None)
            for dim in range(basis.n_components)]

    _, diagnose_walls, diagnoses_differ = _timed(
        REP_POST_CALLS, lambda: diagnostics.diagnose_archives([archive]))
    reports, summarize_walls, reports_differ = _timed(REP_POST_CALLS, summarize)
    return {"archive": archive, "reports": reports, "wall": t2 - t1,
            "digest": archive_digest([archive]),
            "repeats_differ": diagnoses_differ or reports_differ,
            "times": {"setup": t1 - t0, "chain": t2 - t1, "diagnose": diagnose_walls,
                      "summarize": summarize_walls}}


def replication(session: Session) -> None:
    from mlpp import sampler
    from mlpp.simgen import simulate
    u, n, _ = REP_SHAPE
    n_draws = (REP_ITERS - REP_BURNIN) // REP_THIN
    first = simulate(rep_design(session.seed, 0))
    check_inputs(session, "replication", dataset_digest(*first))
    # Untimed warm-up, which also checks that the draws of one seed repeat
    # exactly within a session.
    inputs = _prepare(first[0], 0)
    cfg = sampler.SamplerConfig(n_iter=30, burn_in=10, n_chains=1, seed=1)
    digests = {archive_digest([sampler.run_chain(*inputs, cfg)]) for _ in range(2)}
    session.op("determinism", [] if len(digests) == 1
               else ["repeat chains of one seed differ"])
    tracer = Tracer()
    session.start = time.perf_counter()         # the window starts after preparation
    done = 0
    while keep_going(session, done, 4):
        for rep in (done, done + 1):            # one replicate at each SNR
            seed = rep_design(session.seed, rep).seed
            data, truth = first if rep == 0 else simulate(rep_design(session.seed, rep))

            def step(trace_id):
                if trace_id is not None:
                    tracer.run_id = trace_id
                    tracer.install()
                try:
                    return _replicate(seed, data, truth)
                finally:
                    tracer.uninstall()

            try:
                result = paired(session, f"rep{rep}", step)
            except Exception as exc:            # counted as a failed operation
                session.op(f"replicate {rep}", [repr(exc)])
                continue
            archive, reports, times = result["archive"], result["reports"], result["times"]
            problems = archive_problems([archive], 1, n_draws, (u, n, 2))
            problems += report_problems(reports, len(reports), u)
            if result["repeats_differ"]:
                problems.append("repeat diagnose or summarize calls differ")
            if not session.op(f"replicate {rep}", problems):
                continue
            summary = ess_summary(session, [archive])
            session.sample("setup_s", times["setup"])
            session.sample("fit_s", times["setup"] + times["chain"])
            session.sample("chain_iters_per_s", REP_ITERS / times["chain"])
            session.sample("chain_s", times["chain"])
            for wall in times["diagnose"]:
                session.sample("diagnose_s", wall)
            for wall in times["summarize"]:
                session.sample("summarize_s", wall)
            session.sample("ess_median", summary["median"])
            session.sample("ess_min", summary["min"])
            session.sample("ess_per_draw", summary["median"] / summary["draws"])
            session.sample("draws_kept", summary["draws"])
            if rep % 2 == 0:                    # SNR 6, where recovery is near-exact
                session.sample("recovery_ari", float(np.mean(
                    [reports[d]["ari_to_truth"] for d in range(2)])))
        done += 2
    if session.samples.get("chain_s"):
        # ESS varies from replicate to replicate, so the rate pools the
        # run: effective draws of all replicates over their sampling time.
        session.values["ess_per_s"] = (sum(session.samples["ess_median"])
                                       / sum(session.samples["chain_s"]))
    if session.trace:
        session.span_docs.append(tracer.document())
    session.rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    session.notes["replicates"] = done


# ---------------------------------------------------------------------------
# cli_default: fresh mlpp processes
# ---------------------------------------------------------------------------

def _fit_step(session: Session, data_dir: Path, seed: int, kind: str, extra: list,
              n_draws: int, shape):
    """A fit into ``<kind>`` (``<kind>-traced`` when traced), loaded back
    through the program's own reader and checked."""
    from mlpp.sampler import load_archives

    def step(trace_id):
        out = session.work / (kind if trace_id is None else f"{kind}-traced")
        rc, wall = session.mlpp(
            ["fit", "--data", str(data_dir), "--out", str(out), "--seed", str(seed),
             "--chains", str(CHAINS), "--var-threshold", VAR_THRESHOLD, "--force",
             *extra], trace_id)
        problems = [f"exit {rc}"] if rc else []
        archives = None
        try:
            archives = load_archives(out)
        except Exception as exc:                # a missing or unreadable archive
            problems.append(f"load_archives: {exc!r}")
        if archives is not None:
            problems += archive_problems(archives, CHAINS, n_draws, shape)
        return {"wall": wall, "archives": archives, "problems": problems,
                "digest": archive_digest(archives) if archives else None}
    return step


def _diagnose_step(session: Session, run_dir: Path, names):
    def step(trace_id):
        rc, wall = session.mlpp(["diagnose", "--run", str(run_dir)], trace_id)
        problems = [f"exit {rc}"] if rc not in (0, 2) else []     # 2 = FLAGGED
        if not problems:
            problems = diagnostics_problems(run_dir / "diagnostics.csv", names)
        return {"wall": wall, "problems": problems,
                "digest": None if problems else file_digest([run_dir / "diagnostics.csv"])}
    return step


def _summarize_step(session: Session, run_dir: Path, truth_path: Path, shape):
    def step(trace_id):
        rc, wall = session.mlpp(["summarize", "--run", str(run_dir), "--truth",
                                 str(truth_path)], trace_id)
        problems = [f"exit {rc}"] if rc else []
        reports = []
        if not problems:
            reports = json.loads((run_dir / "partitions.json").read_text())["dimensions"]
            problems = report_problems(reports, shape[2], shape[0])
        return {"wall": wall, "problems": problems, "reports": reports,
                "digest": None if problems else file_digest([run_dir / "partitions.json"])}
    return step


def _post_process(session: Session, label: str, run_dir: Path, names, truth_path: Path,
                  shape) -> None:
    """diagnose then summarize one run directory, CLI_POST_CALLS times,
    every call checked and timed; repeat calls must write identical files."""
    digests: dict = {}
    for call in range(CLI_POST_CALLS):
        tag = f"{label}.{call}"
        result = paired(session, f"diagnose-{tag}", _diagnose_step(session, run_dir, names))
        digests.setdefault("diagnose", set()).add(result["digest"])
        if session.op(f"diagnose {tag}", result["problems"]):
            session.sample("diagnose_s", result["wall"])
        result = paired(session, f"summarize-{tag}",
                        _summarize_step(session, run_dir, truth_path, shape))
        digests.setdefault("summarize", set()).add(result["digest"])
        if session.op(f"summarize {tag}", result["problems"]):
            session.sample("summarize_s", result["wall"])
            session.sample("recovery_ari", float(np.mean(
                [rep["ari_to_truth"] for rep in result["reports"][:2]])))
    _check_repeats(session, digests)


def _check_repeats(session: Session, digests: dict) -> None:
    """Outputs of one seed must be byte-identical across repeat runs."""
    for kind, seen in digests.items():
        session.op(f"{kind} repeats", [] if len(seen) == 1
                   else [f"{kind} outputs differ across repeat runs of one seed"])


def _record_sampling(session: Session, archives, fit_walls: list, setup_s: float,
                     chain_iters: int) -> None:
    """Fit-side metrics of cli_default.  The sampling time of a fit is
    its process time minus that of a minimal-iteration fit of the same
    data; ESS pools the chains of every fit (``chain_iters`` per fit)."""
    summary = ess_summary(session, archives)
    fit_s = median(fit_walls)
    session.values.update({
        "fit_s": fit_s,
        "chain_iters_per_s": chain_iters / (fit_s - setup_s),
        "ess_per_s": summary["median"] / (sum(fit_walls) - len(fit_walls) * setup_s)})
    session.sample("ess_median", summary["median"])
    session.sample("ess_min", summary["min"])
    session.sample("ess_per_draw", summary["median"] / summary["draws"])


def _warm_up(session: Session) -> None:
    """Compile and cache the program's bytecode before anything is timed."""
    rc, _ = session.child([sys.executable, "-c", "import mlpp.cli"], "warmup")
    session.op("warm-up import", [f"exit {rc}"] if rc else [])


def cli_default(session: Session) -> None:
    design = cli_design(session.seed)
    data_dir = session.work / "data"
    data, truth = write_dataset(design, data_dir)
    check_inputs(session, "cli_default", dataset_digest(data, truth))
    shape = (data.n_subjects, data.n_channels, 2)
    n_draws = (CLI_ITERS - CLI_BURNIN) // CLI_THIN
    main_fit = ["--iters", str(CLI_ITERS), "--burnin", str(CLI_BURNIN),
                "--thin", str(CLI_THIN)]
    setup = _fit_step(session, data_dir, design.seed, "setup", SETUP_FIT, SETUP_DRAWS,
                      shape)
    _warm_up(session)
    session.start = time.perf_counter()         # the window starts after preparation
    digests: dict = {}
    kept = []
    cycle = 0
    while keep_going(session, cycle, 1 if session.trace else 2):
        # The minimal fit repeats one seed, so its draws must repeat
        # exactly; each main fit takes a new chain seed, so that ESS pools
        # independent chains of the same posterior.
        result = paired(session, f"setup-{cycle}", setup)
        digests.setdefault("setup", set()).add(result["digest"])
        if session.op(f"setup fit {cycle}", result["problems"]):
            session.sample("setup_wall", result["wall"])
        result = paired(session, f"fit-{cycle}", _fit_step(
            session, data_dir, design.seed + cycle, "fit", main_fit, n_draws, shape))
        if not session.op(f"fit {cycle}", result["problems"]):
            break
        session.sample("fit_wall", result["wall"])
        session.sample("draws_kept", CHAINS * n_draws)
        kept += result["archives"]
        _post_process(session, str(cycle), session.work / "fit",
                      result["archives"][0].scalar_names, data_dir / "truth.json", shape)
        cycle += 1
    _check_repeats(session, digests)
    session.notes["cycles"] = cycle
    if not kept or "setup_wall" not in session.samples:
        return
    setup_s = median(session.samples["setup_wall"])
    session.values["setup_s"] = setup_s
    _record_sampling(session, kept, session.samples["fit_wall"], setup_s,
                     CHAINS * CLI_ITERS)
    session.values["sampler.archive_bytes"] = float(archive_bytes(session.work / "fit"))


WORKLOADS = {"replication": replication, "cli_default": cli_default}
