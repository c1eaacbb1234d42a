import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import mlpp
import mlpp.sampler
from mlpp.cli import main
from mlpp.sampler import save_archives

from test_tables import ARCHIVE_CASES, _drop, _edit_lines, _replace, small_archive


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    rc = main(["simulate", "--subjects", "6", "--channels", "5",
               "--timepoints", "40", "--replicates", "2", "--seed", "3",
               "--out", str(out)])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def three_group_dir(sim_dir, tmp_path_factory):
    """rep_01 of sim_dir with its last two subjects moved to a third group,
    code 4: group codes 2, 2, 2, 3, 4, 4."""
    out = tmp_path_factory.mktemp("three_groups")
    shutil.copy(sim_dir / "rep_01" / "time_grid.csv", out)
    lines = (sim_dir / "rep_01" / "data.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    last_two = sorted({row[0] for row in rows}, key=int)[-2:]
    for row in rows:
        if row[0] in last_two:
            row[2] = "4"
    (out / "data.csv").write_text("\r\n".join([lines[0]] + [",".join(r) for r in rows])
                                  + "\r\n")
    return out


@pytest.fixture(scope="module")
def run_dir(sim_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    rc = main(["fit", "--data", str(sim_dir / "rep_01"), "--out", str(out),
               "--iters", "300", "--burnin", "100", "--thin", "2",
               "--chains", "2", "--seed", "4", "--no-smooth",
               "--audit-every", "100"])
    assert rc == 0
    return out


def test_simulate_outputs_and_manifest(sim_dir):
    for rep in ("rep_01", "rep_02"):
        for name in ("data.csv", "time_grid.csv", "truth.json"):
            assert (sim_dir / rep / name).exists()
    meta = json.loads((sim_dir / "meta.json").read_text())
    assert meta["command"] == "simulate"
    assert meta["replicates"] == ["rep_01", "rep_02"]
    assert meta["flags"]["seed"] == 3
    assert set(meta["versions"]) == {"python", "numpy", "mlpp"}


def test_simulate_is_byte_deterministic(tmp_path):
    args = ["simulate", "--subjects", "5", "--channels", "4", "--timepoints",
            "30", "--seed", "9"]
    main(args + ["--out", str(tmp_path / "a")])
    main(args + ["--out", str(tmp_path / "b")])
    left = (tmp_path / "a" / "rep_01" / "data.csv").read_bytes()
    right = (tmp_path / "b" / "rep_01" / "data.csv").read_bytes()
    assert left == right


def test_refuses_nonempty_out_without_force(tmp_path):
    out = tmp_path / "occupied"
    out.mkdir()
    (out / "junk.txt").write_text("keep\n")
    args = ["simulate", "--subjects", "5", "--channels", "4",
            "--timepoints", "30", "--out", str(out)]
    with pytest.raises(SystemExit) as err:
        main(args)
    assert err.value.code == 2
    assert main(args + ["--force"]) == 0


def test_fit_outputs_and_manifest(run_dir):
    assert (run_dir / "basis" / "eigenfunctions.csv").exists()
    assert (run_dir / "hyperparams.json").exists()
    for chain in ("chain_00", "chain_01"):
        for name in ("draws_scalar.csv", "labels_g.csv", "labels_eta.csv"):
            assert (run_dir / chain / name).exists()
    meta = json.loads((run_dir / "meta.json").read_text())
    assert meta["n_chains"] == 2
    assert meta["command"] == "fit"
    assert meta["flags"]["iters"] == 300
    assert set(meta["inputs"]) == {"data", "time_grid"}
    for entry in meta["inputs"].values():
        assert len(entry["sha256"]) == 64


def test_fit_missing_input_errors(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["fit", "--data", str(tmp_path), "--out", str(tmp_path / "out")])
    assert err.value.code == 2


def test_fit_scenario_and_overrides(sim_dir, tmp_path):
    out = tmp_path / "run_s3"
    rc = main(["fit", "--data", str(sim_dir / "rep_01"), "--out", str(out),
               "--iters", "40", "--burnin", "10", "--chains", "1",
               "--no-smooth", "--scenario", "S3",
               "--set", "noise_prec_shape=0.5",
               "--set", "max_subject_clusters=6"])
    assert rc == 0
    doc = json.loads((out / "hyperparams.json").read_text())
    assert doc["category_conc"] == [0.4, 0.4, 0.2]
    assert doc["noise_prec_shape"] == 0.5
    assert doc["max_subject_clusters"] == 6


def test_fit_prior_does_not_depend_on_seed(sim_dir, tmp_path):
    runs = [tmp_path / f"seed_{seed}" for seed in (1, 2)]
    for seed, out in zip((1, 2), runs):
        assert main(["fit", "--data", str(sim_dir / "rep_01"), "--out", str(out),
                     "--iters", "6", "--burnin", "2", "--chains", "1",
                     "--seed", str(seed)]) == 0
    left, right = ((out / "hyperparams.json").read_bytes() for out in runs)
    assert left == right
    draws = [(out / "chain_00" / "draws_scalar.csv").read_bytes() for out in runs]
    assert draws[0] != draws[1]


def test_package_version_has_one_definition():
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    root = Path(__file__).resolve().parents[1]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")         # [tool.setuptools] is "beta"
        config = pyprojecttoml.read_configuration(root / "pyproject.toml")
    assert config["project"]["version"] == mlpp.__version__
    assert "version" in config["project"]["dynamic"]


def test_fit_bad_override_errors(sim_dir, tmp_path):
    base = ["fit", "--data", str(sim_dir / "rep_01"),
            "--out", str(tmp_path / "x"), "--iters", "20"]
    with pytest.raises(SystemExit):
        main(base + ["--set", "oops"])
    with pytest.raises(SystemExit):
        main(base + ["--set", "noise_prec_shape=not-json"])


@pytest.mark.parametrize("flags, message", [
    (["--iters", "100", "--burnin", "100"], "burn_in must lie in"),
    (["--iters", "100", "--burnin", "10", "--thin", "0"], "thin must be a positive integer"),
    (["--iters", "100", "--burnin", "10", "--chains", "0"], "n_chains must be positive"),
    (["--iters", "100", "--burnin", "90", "--thin", "20"], "no draws would be kept"),
])
def test_fit_rejects_iteration_settings_before_reading(tmp_path, capsys, flags, message):
    # the data directory does not exist: the settings are checked first
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as err:
        main(["fit", "--data", str(tmp_path / "absent"), "--out", str(out)] + flags)
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert message in stderr
    assert "--iters 100" in stderr
    assert not out.exists()


@pytest.mark.parametrize("level", ["0", "-0.5", "1.5", "nan"])
def test_summarize_rejects_level_outside_unit_interval(tmp_path, capsys, level):
    with pytest.raises(SystemExit) as err:
        main(["summarize", "--run", str(tmp_path), "--level", level])
    assert err.value.code == 2
    assert f"argument --level: {level} lies outside (0, 1]" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--rhat-threshold", "nan"], r"rhat_threshold must be finite, got nan$"),
    (["--rhat-threshold", "inf"], r"rhat_threshold must be finite, got inf$"),
    (["--ess-threshold", "nan"], r"ess_threshold must be finite, got nan$"),
    (["--ess-threshold=-inf"], r"ess_threshold must be finite, got -inf$"),
], ids=["rhat-nan", "rhat-inf", "ess-nan", "ess-minus-inf"])
def test_diagnose_rejects_non_finite_threshold(run_dir, tmp_path, capsys, flags, message):
    # a NaN threshold compares false with every draw, so it would flag nothing
    run = tmp_path / "run"
    shutil.copytree(run_dir, run)
    (run / "diagnostics.csv").unlink(missing_ok=True)
    line = _usage_error(capsys, ["diagnose", "--run", str(run), *flags])
    assert re.search(message, line)
    assert not (run / "diagnostics.csv").exists()


def test_diagnose_writes_reports_and_exit_codes(run_dir, capsys):
    rc = main(["diagnose", "--run", str(run_dir),
               "--rhat-threshold", "100", "--ess-threshold", "0.5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "within thresholds" in out
    assert (run_dir / "diagnostics.csv").exists()
    assert (run_dir / "trace_noise_prec.csv").exists()
    assert (run_dir / "density_noise_prec.csv").exists()

    rc = main(["diagnose", "--run", str(run_dir),
               "--ess-threshold", "1000000", "--trace", "common_mean[1]"])
    out = capsys.readouterr().out
    assert rc == 2
    assert "FLAGGED" in out
    assert (run_dir / "trace_common_mean_1.csv").exists()
    assert (run_dir / "density_common_mean_1.csv").exists()


def test_diagnose_unknown_trace_errors(run_dir):
    with pytest.raises(SystemExit) as err:
        main(["diagnose", "--run", str(run_dir), "--trace", "bogus"])
    assert err.value.code == 2


def test_diagnose_requires_run_dir(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["diagnose", "--run", str(tmp_path)])
    assert err.value.code == 2


@pytest.mark.parametrize("reuse", [False, True])
def test_fit_stopped_while_saving_leaves_no_run_marker(sim_dir, run_dir, tmp_path,
                                                       monkeypatch, capsys, reuse):
    out = tmp_path / "run"
    if reuse:               # a complete earlier run in the directory
        shutil.copytree(run_dir, out)
        assert (out / "meta.json").exists()
    write_chain = mlpp.sampler._write_chain
    written = []

    def stopped_on_chain_1(archive, chain_dir):
        if written:
            raise KeyboardInterrupt("stopped")
        written.append(chain_dir)
        write_chain(archive, chain_dir)

    monkeypatch.setattr(mlpp.sampler, "_write_chain", stopped_on_chain_1)
    with pytest.raises(KeyboardInterrupt):
        main(["fit", "--data", str(sim_dir / "rep_01"), "--out", str(out),
              "--iters", "20", "--burnin", "10", "--chains", "2", "--seed", "4",
              "--no-smooth", "--force"])
    assert written == [out / "chain_00"]
    assert not (out / "meta.json").exists()
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        main(["diagnose", "--run", str(out)])
    assert err.value.code == 2
    assert "does not look like a run directory" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["fit", "--data", "absent", "--out", "out", "--iters", "10", "--burnin", "10"],
    ["fit", "--data", "absent", "--out", "out"],
    ["diagnose", "--run", "absent"],
    ["summarize", "--run", "absent"],
])
def test_command_errors_print_the_command_usage(tmp_path, capsys, argv):
    argv = [str(tmp_path / arg) if arg in ("absent", "out") else arg for arg in argv]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert capsys.readouterr().err.startswith(f"usage: mlpp {argv[0]} [-h]")


def test_manifest_flags_are_the_command_options(run_dir):
    flags = json.loads((run_dir / "meta.json").read_text())["flags"]
    assert set(flags) == {"audit_every", "basis_size", "burnin", "chains", "data",
                          "force", "hyperparams", "init", "iters", "no_smooth", "out",
                          "penalty", "scenario", "seed", "set", "thin",
                          "var_threshold"}


def test_summarize_with_truth(sim_dir, run_dir, capsys):
    rc = main(["summarize", "--run", str(run_dir),
               "--truth", str(sim_dir / "rep_01" / "truth.json")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "ari" in out
    doc = json.loads((run_dir / "partitions.json").read_text())
    dims = doc["dimensions"]
    assert len(dims) >= 1
    assert all("credible_ball" in rep for rep in dims)
    assert "ari_to_truth" in dims[0]
    for dim in range(len(dims)):
        sim = np.loadtxt(run_dir / f"similarity_dim{dim + 1}.csv",
                         delimiter=",", skiprows=1)
        assert sim.shape == (6, 7)
        assert np.all(sim[:, 1:] <= 1.0) and np.all(sim[:, 1:] >= 0.0)


def test_summarize_without_truth(run_dir, capsys):
    rc = main(["summarize", "--run", str(run_dir)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "share_subject" in out


def test_summarize_level_one(run_dir):
    assert main(["summarize", "--run", str(run_dir), "--level", "1"]) == 0
    doc = json.loads((run_dir / "partitions.json").read_text())
    for rep in doc["dimensions"]:
        assert rep["credible_ball"]["level"] == 1.0
        assert rep["credible_ball"]["coverage"] == 1.0


# Runs one mlpp command and writes the names of the imported modules, as
# they stand when the command returns, to the file named first.
_MODULES_AT_EXIT = """
import json, sys
from mlpp.cli import main
try:
    main(sys.argv[2:])
finally:
    with open(sys.argv[1], "w") as fh:
        json.dump(sorted(sys.modules), fh)
"""


def test_cli_commands_import_no_scipy(tmp_path):
    # numpy is the only runtime dependency, and each scipy module costs a
    # fresh process a noticeable share of a minimal fit; the fit smooths,
    # so the smoother is on this path.  numpy.ma is needed by nothing (a
    # plain np.unique would import it)
    barred = {"scipy", "numpy.ma"}
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(mlpp.__file__).resolve().parents[1])
    sim, run = tmp_path / "sim", tmp_path / "run"
    commands = {
        "simulate": ["simulate", "--subjects", "6", "--channels", "5", "--timepoints",
                     "40", "--seed", "5", "--out", str(sim)],
        "fit": ["fit", "--data", str(sim / "rep_01"), "--out", str(run),
                "--iters", "20", "--burnin", "10", "--chains", "2", "--seed", "5"],
        "diagnose": ["diagnose", "--run", str(run)],
        "summarize": ["summarize", "--run", str(run),
                      "--truth", str(sim / "rep_01" / "truth.json")],
    }
    for name, argv in commands.items():
        modules = tmp_path / f"{name}_modules.json"
        done = subprocess.run([sys.executable, "-c", _MODULES_AT_EXIT, str(modules),
                               *argv], env=env, capture_output=True, text=True)
        assert modules.exists(), done.stderr
        imported = set(json.loads(modules.read_text()))
        assert "mlpp.cli" in imported
        heavy = imported & barred
        assert not heavy, f"mlpp {name} imported {sorted(heavy)}"


# ---------------------------------------------------------------------------
# Malformed inputs: exit 2 with one line naming the file and the line
# ---------------------------------------------------------------------------

def _usage_error(capsys, argv) -> str:
    """The error line of a command that must stop with a usage error."""
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines[0].startswith(f"usage: mlpp {argv[0]} [-h]")
    assert lines[-1].startswith(f"mlpp {argv[0]}: error: ")
    return lines[-1]


# the chain file each command reads: the cases of load_archives for it
COMMAND_FILES = {"diagnose": "draws_scalar.csv", "summarize": "labels_g.csv"}
COMMAND_CASES = [(command, *case) for command, name in COMMAND_FILES.items()
                 for case in ARCHIVE_CASES if case[0] == name]


@pytest.mark.parametrize("command,name,edit,message", COMMAND_CASES,
                         ids=[f"{c[0]}-{c[1].split('.')[0]}-{i}"
                              for i, c in enumerate(COMMAND_CASES)])
def test_commands_report_malformed_chain_files(tmp_path, capsys, command, name, edit,
                                               message):
    # the chains of small_archive as a fit leaves them: two draws kept of two
    archive = small_archive()
    archive.meta.update(n_iter=2, burn_in=0, thin=1)
    save_archives([archive], tmp_path)
    _edit_lines(tmp_path / "chain_00" / name, edit)
    assert re.search(message, _usage_error(capsys, [command, "--run", str(tmp_path)]))


def _set_group_code(lines):
    # the first curve of the first subject moves to the other group
    fields = lines[1].split(",")
    fields[2] = "3" if fields[2] == "2" else "2"
    return lines[:1] + [",".join(fields)] + lines[2:]


@pytest.mark.parametrize("name,edit,message", [
    ("data.csv", _set_group_code, r"data.csv: subject \S+ has inconsistent group codes"),
    ("data.csv", _drop(0), r"data.csv: expected subject_id"),
    ("time_grid.csv", _replace(2, "soon"), r"time_grid.csv: could not convert string 'soon' .*row 1"),
    ("hp.json", lambda lines: ["{"], r"hp.json: Expecting property name .*line 2"),
])
def test_fit_reports_malformed_inputs(sim_dir, tmp_path, capsys, name, edit, message):
    data = tmp_path / "data"
    shutil.copytree(sim_dir / "rep_01", data)
    (data / "hp.json").write_text("{}\n")
    _edit_lines(data / name, edit)
    argv = ["fit", "--data", str(data), "--out", str(tmp_path / "out"), "--iters", "20",
            "--burnin", "10", "--no-smooth"]
    if name == "hp.json":
        argv += ["--hyperparams", str(data / name)]
    assert re.search(message, _usage_error(capsys, argv))
    assert not (tmp_path / "out").exists()


def test_fit_reports_missing_hyperparams_before_writing(sim_dir, tmp_path, capsys):
    missing = tmp_path / "hp.json"
    line = _usage_error(capsys, ["fit", "--data", str(sim_dir / "rep_01"), "--out",
                                 str(tmp_path / "out"), "--hyperparams", str(missing)])
    assert line.endswith(f"error: missing input file {missing}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags, message", [
    (["--var-threshold", "0"], r"var_threshold must lie in \(0, 1\]"),
    (["--var-threshold", "1.5"], r"var_threshold must lie in \(0, 1\]"),
    (["--penalty", "-1"], r"penalty must be nonnegative"),
    (["--penalty", "nan"], r"penalty must be nonnegative"),
    (["--penalty", "inf"], r"penalty must be nonnegative"),
    (["--basis-size", "2"], r"basis_size must be at least 4"),
    (["--basis-size", "50"], r"basis_size cannot exceed the number of time points"),
    (["--set", "max_subject_clusters=0"], r"max_subject_clusters must be at least 1"),
    (["--set", "stick_conc=[0.0,0.0]"], r"concentrations must be positive"),
    (["--set", "bogus=1"], r"unknown hyperparameter fields: \['bogus'\]"),
    (["--set", "noise_prec_rate=NaN"], r"noise_prec_rate must be finite$"),
    (["--set", "common_sd_bound=[NaN, NaN]"], r"common_sd_bound must be finite$"),
    (["--set", "common_mean_prec=[Infinity, Infinity]"],
     r"common_mean_prec must be finite$"),
    (["--set", "subject_mean_loc=[[0.0, 0.0], [NaN, 0.0]]"],
     r"subject_mean_loc must be finite$"),
    (["--set", "max_subject_clusters=2.5"],
     r"max_subject_clusters must be an integer, got 2.5$"),
    (["--set", "max_subject_clusters=true"],
     r"max_subject_clusters must be an integer, got True$"),
    # the run's two-component prior constants on a one-component basis
    (["--hyperparams", "RUN_HP", "--var-threshold", "0.01"],
     r"the hyperparameters have 2 component\(s\), but the basis at "
     r"--var-threshold 0.01 has 1$"),
    (["--seed", "-1"], r"--seed -1 .*: seed must be non-negative, got -1$"),
    (["--audit-every", "-1"], r"--audit-every -1: audit_every must be non-negative, got -1$"),
    # read prior constants skip the calibration, which also takes the seed
    (["--hyperparams", "RUN_HP", "--seed", "-1"],
     r"--seed -1 .*: seed must be non-negative, got -1$"),
    # three group columns in one field, two in the others
    (["--set", "group_mean_loc=[[0, 0, 0], [0, 0, 0]]"],
     r"group_mean_prec must have shape \(n_components, n_groups\), here \(2, 3\)$"),
    # the run's two-group prior constants on data with a third group
    (["--data", "THREE_GROUPS", "--hyperparams", "RUN_HP"],
     r"the hyperparameters have 2 group\(s\), but group code 4 in \S+data.csv needs 3$"),
], ids=["threshold-0", "threshold-1.5", "penalty", "penalty-nan", "penalty-inf",
        "basis-2", "basis-50", "clusters", "sticks", "unknown-field", "noise-nan",
        "sd-bound-nan", "mean-prec-inf", "mean-loc-nan", "clusters-float",
        "clusters-bool", "components", "seed", "audit-every", "seed-hyperparams",
        "group-columns", "groups"])
def test_fit_rejects_flag_values_before_writing(sim_dir, run_dir, three_group_dir, tmp_path,
                                                capsys, flags, message):
    places = {"RUN_HP": str(run_dir / "hyperparams.json"),
              "THREE_GROUPS": str(three_group_dir)}
    flags = [places.get(flag, flag) for flag in flags]
    out = tmp_path / "out"
    line = _usage_error(capsys, ["fit", "--data", str(sim_dir / "rep_01"), "--out",
                                 str(out), "--iters", "20", "--burnin", "10", *flags])
    assert re.search(message, line)
    assert not out.exists()


def test_fit_refuses_nonempty_out_without_force(sim_dir, tmp_path, capsys):
    out = tmp_path / "occupied"
    out.mkdir()
    (out / "junk.txt").write_text("keep\n")
    line = _usage_error(capsys, ["fit", "--data", str(sim_dir / "rep_01"), "--out",
                                 str(out), "--iters", "20", "--burnin", "10"])
    assert line.endswith(f"output directory {out} is not empty (use --force to reuse)")
    assert [path.name for path in out.iterdir()] == ["junk.txt"]


@pytest.mark.parametrize("flags, message", [
    (["--timepoints", "10"], r"--timepoints 10 --snr 6.0: need at least 16 time points"),
    (["--snr", "0"], r"--snr 0.0: snr must be positive"),
    (["--subjects", "1"], r"--subjects 1 .*: n_group_a must be in \[1, n_subjects\)"),
    (["--channels", "0"], r"--channels 0 .*: n_channels must be at least 1"),
    (["--replicates", "0"], r"--replicates 0: need at least 1$"),
    (["--seed", "-1"], r"--seed -1 .*: seed must be non-negative, got -1$"),
], ids=["timepoints", "snr", "subjects", "channels", "replicates", "seed"])
def test_simulate_rejects_flag_values_before_writing(tmp_path, capsys, flags, message):
    out = tmp_path / "out"
    line = _usage_error(capsys, ["simulate", "--out", str(out), *flags])
    assert re.search(message, line)
    assert not out.exists()


def test_summarize_rejects_truth_for_other_subjects(run_dir, tmp_path, capsys):
    # run_dir fits 6 subjects; this truth plants 5
    assert main(["simulate", "--subjects", "5", "--channels", "4", "--timepoints", "30",
                 "--out", str(tmp_path / "sim")]) == 0
    truth = tmp_path / "sim" / "rep_01" / "truth.json"
    line = _usage_error(capsys, ["summarize", "--run", str(run_dir), "--truth", str(truth)])
    assert line.endswith(f"error: {truth} plants 5 subject(s); the run in {run_dir} has 6")


def test_diagnose_reports_too_few_draws(tmp_path, capsys):
    # small_archive as a fit leaves it: two draws kept of two
    archive = small_archive()
    archive.meta.update(n_iter=2, burn_in=0, thin=1)
    save_archives([archive], tmp_path)
    line = _usage_error(capsys, ["diagnose", "--run", str(tmp_path)])
    assert line.endswith(f"error: {tmp_path} keeps 2 draw(s) per chain; "
                         "diagnose needs at least 4")


def _pop_meta(*keys):
    """An edit of meta.json's lines that removes the entry at the path keys."""
    def edit(lines):
        meta = json.loads("\n".join(lines))
        *parents, last = keys
        entry = meta
        for key in parents:
            entry = entry[key]
        entry.pop(last)
        return [json.dumps(meta)]
    return edit


@pytest.mark.parametrize("command,name,edit,message", [
    ("diagnose", "meta.json", lambda lines: lines[:3], r"meta.json: Expecting .*line 4"),
    ("summarize", "meta.json", lambda lines: lines[:-2] + ["}"], r"meta.json: Expecting"),
    ("summarize", "truth.json", lambda lines: [lines[0][:50]],
     r"truth.json: Expecting value: line 2"),
    # what load_archives reads of meta.json, missing or short
    ("diagnose", "meta.json", _pop_meta("n_chains"),
     r"meta.json: no n_chains; is this a fit run directory\?$"),
    ("summarize", "meta.json", _pop_meta("chains"), r"meta.json: no chains; is this"),
    ("diagnose", "meta.json", _pop_meta("scalar_names"),
     r"meta.json: no scalar_names; is this"),
    ("summarize", "meta.json", _pop_meta("group_codes"), r"meta.json: no group_codes; is this"),
    ("diagnose", "meta.json", _pop_meta("chains", 1),
     r"meta.json: n_chains is 2, but chains does not list that many"),
    ("summarize", "meta.json", _pop_meta("chains", 1, "n_channels"),
     r"meta.json: chain 1 does not give its sizes n_subjects, n_channels, n_components"),
    ("diagnose", "meta.json", _pop_meta("group_codes", 5),
     r"meta.json: group_codes does not give one integer code per subject"),
])
def test_commands_report_malformed_run_files(sim_dir, run_dir, tmp_path, capsys, command,
                                             name, edit, message):
    run = tmp_path / "run"
    shutil.copytree(run_dir, run)
    shutil.copy(sim_dir / "rep_01" / "truth.json", run / "truth.json")
    _edit_lines(run / name, edit)
    argv = [command, "--run", str(run)]
    if command == "summarize":
        argv += ["--truth", str(run / "truth.json")]
    assert re.search(message, _usage_error(capsys, argv))


def test_summarize_needs_the_kept_draw_count(run_dir, tmp_path, capsys):
    # summarize reads labels_g.csv alone, so the draw count comes from the
    # settings meta.json records
    run = tmp_path / "run"
    shutil.copytree(run_dir, run)
    meta = json.loads((run / "meta.json").read_text())
    del meta["chains"][1]["thin"]
    (run / "meta.json").write_text(json.dumps(meta))
    line = _usage_error(capsys, ["summarize", "--run", str(run)])
    assert re.search(r"meta.json: chain 1 has no valid n_iter, burn_in and thin", line)


def test_fit_and_summarize_three_groups(three_group_dir, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["fit", "--data", str(three_group_dir), "--out", str(out), "--iters", "60",
                 "--burnin", "20", "--chains", "1", "--no-smooth",
                 "--audit-every", "20"]) == 0
    hp = json.loads((out / "hyperparams.json").read_text())
    assert np.shape(hp["group_mean_loc"]) == (2, 3)
    header = (out / "chain_00" / "draws_scalar.csv").read_text().splitlines()[0]
    assert '"group_mean[1,3]","group_prec[1,3]","group_mean[1,4]","group_prec[1,4]"' \
        in header
    assert main(["summarize", "--run", str(out)]) == 0
    report = json.loads((out / "partitions.json").read_text())
    assert [len(dim["estimate"]) for dim in report["dimensions"]] == [6, 6]


@pytest.mark.parametrize("command", ["diagnose", "summarize"])
def test_commands_reject_a_simulate_directory(sim_dir, capsys, command):
    line = _usage_error(capsys, [command, "--run", str(sim_dir)])
    assert line.endswith(f"{sim_dir / 'meta.json'}: no n_chains, chains, scalar_names, "
                         "group_codes; is this a fit run directory?")
