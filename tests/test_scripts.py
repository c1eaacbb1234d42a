"""The paired-run harness of scripts/ and the scripts that import it.

None of these tests starts an mlpp fit: the children are bare
interpreters, so the file runs in a few seconds.
"""
import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
sys.path.insert(0, str(SCRIPTS))
import paired  # noqa: E402


@pytest.mark.parametrize("name", ["bench_chain_io", "bench_fit_startup",
                                  "bench_partitions", "bench_scan_overhead",
                                  "compare_outputs", "compare_scan_kernels"])
def test_script_imports(name):
    assert callable(importlib.import_module(name).main)


def test_quartiles_of_one_and_of_four_values():
    assert paired.quartiles([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5}
    # the exclusive method: the quartiles of 1..4 sit at 1.25 and 3.75
    assert paired.quartiles([4.0, 1.0, 3.0, 2.0]) == {"median": 2.5, "q1": 1.25,
                                                      "q3": 3.75}


def test_pairs_won_counts_ties_for_neither_side():
    ref, new = [1.0, 2.0, 3.0], [0.5, 2.0, 4.0]
    assert paired.pairs_won(ref, new) == 1
    assert paired.pairs_won(new, ref) == 1
    assert paired.ratios(ref, new) == [0.5, 1.0, 4.0 / 3.0]


def test_pair_order_starts_with_ref_and_alternates():
    assert [paired.order(pair) for pair in range(3)] == [
        ("ref", "new"), ("new", "ref"), ("ref", "new")]


def test_child_env_drops_mlpp_threads_and_sets_pythonpath(monkeypatch, tmp_path):
    monkeypatch.setenv("PYTHONPATH", "/elsewhere")
    env = paired.child_env(tmp_path / "src")
    assert env["PYTHONPATH"] == str(tmp_path / "src")
    assert [env[name] for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS")] == ["1", "1", "1"]


def test_peak_rss_is_the_childs_own(tmp_path):
    held = np.ones(150 * 2 ** 20 // 8)          # ~150 MB resident in this process
    child = paired.run(tmp_path, ["-c", "pass"])
    assert held.sum() > 0
    assert child.peak_rss_mb < 60


def test_peak_rss_counts_the_processes_the_child_waited_for(tmp_path):
    # a pooled fit's chain workers are forked children of the fit process
    code = ("import subprocess, sys; "
            "subprocess.run([sys.executable, '-c', 'held = b\"x\" * (100 << 20)'], "
            "check=True)")
    child = paired.run(tmp_path, ["-c", code])
    assert child.peak_rss_mb >= 100


def test_run_exits_naming_the_command_and_its_stderr(tmp_path):
    with pytest.raises(SystemExit) as exc:
        paired.run(tmp_path, ["-c", "import sys; sys.exit('no such input')"])
    message = str(exc.value)
    assert "import sys; sys.exit('no such input') failed with exit code 1" in message
    assert "no such input" in message.splitlines()[1]


def test_differing_lists_changed_and_one_sided_files(tmp_path):
    ref, new = tmp_path / "ref", tmp_path / "new"
    for root in (ref, new):
        (root / "sub").mkdir(parents=True)
        (root / "same.txt").write_text("x")
    (ref / "sub" / "moved.txt").write_text("1")
    (new / "sub" / "moved.txt").write_text("2")
    (ref / "only_ref.txt").write_text("r")
    assert paired.files(new) == ["same.txt", "sub/moved.txt"]
    assert paired.differing(ref, new) == ["only_ref.txt", "sub/moved.txt"]
