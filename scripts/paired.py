"""The paired-run harness of the scripts that compare two source trees of
mlpp, REF and NEW: how a child of a tree is started and measured, the
order of the trees in each pair, the statistics, the environment block of
a result and the comparison of two output roots.  The scripts import it
from their own directory, which is first on sys.path both when they run
directly and in the children ``run`` starts.
"""
from __future__ import annotations

import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

LABELS = ("ref", "new")
MLPP_MAIN = "import sys; from mlpp.cli import main; sys.exit(main())"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Runs before a child's own code.  At exit the child writes, as the last
# line of its stderr, the peak resident set size of its own address space
# (VmHWM, in kB) plus the largest peak of the processes it started and
# waited for (RUSAGE_CHILDREN's ru_maxrss, in kB on Linux), such as the
# forked chain workers of a pooled fit.  Pages a worker shares with the
# child count twice, so the sum bounds the peak from above.  os.wait4's
# ru_maxrss in this process would not do: Linux carries the forking
# process's peak across exec, so it reads at least the size of the
# script that started the child.
_PEAK_MARK = "paired-peak-rss-kb "
_LAUNCH = f"""import atexit, resource, sys
def _report_peak():
    with open("/proc/self/status") as status:
        kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    sys.stderr.write("\\n{_PEAK_MARK}" + str(kb) + "\\n")
atexit.register(_report_peak)
"""


class Child(NamedTuple):
    wall_s: float
    peak_rss_mb: float
    stdout: str


def child_env(src: Path) -> dict:
    """The environment of a child of the tree whose sources are SRC, as
    perfbench/run.py makes its children's: the caller's, with BLAS on one
    thread and with PYTHONPATH set to SRC alone."""
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_VARS, "1"), PYTHONPATH=str(src))
    return env


def run(src: Path, argv: list, cwd: Path | None = None, ok=(0,)) -> Child:
    """Run ``python ARGV`` as a child of tree SRC, where ARGV is either
    ``-c CODE ARGS...`` or ``SCRIPT ARGS...``; exit unless its exit code is
    in OK.  The wall time covers the whole process."""
    if argv[0] == "-c":
        code, args = argv[1], argv[2:]
    else:                                   # as `python SCRIPT` would run it
        script = Path(argv[0]).resolve()
        code = (f"import runpy; sys.path[0] = {str(script.parent)!r}; "
                f"runpy.run_path({str(script)!r}, run_name='__main__')")
        args = argv[1:]
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", _LAUNCH + code, *map(str, args)],
                          cwd=cwd, env=child_env(src), capture_output=True, text=True)
    wall = time.perf_counter() - start
    if done.returncode not in ok:
        sys.exit(f"{src}: {' '.join(map(str, argv))} failed with exit code "
                 f"{done.returncode}:\n{done.stderr}")
    peak_kb = done.stderr.rpartition("\n" + _PEAK_MARK)[2]
    return Child(wall, int(peak_kb) / 1024.0, done.stdout)


def warm_up(*srcs: Path) -> None:
    """Import mlpp.cli once in a child of each tree, which loads its source
    files into the page cache.  It caches bytecode for the timed children
    only if the environment lets it: with PYTHONDONTWRITEBYTECODE set, none
    is written and every child compiles src/mlpp again (``environment``
    records which)."""
    for src in srcs:
        run(src, ["-c", "import mlpp.cli"])


def order(pair: int) -> tuple:
    """The labels in the order the trees run in pair PAIR, counted from 0."""
    return LABELS if pair % 2 == 0 else LABELS[::-1]


def quartiles(values: list) -> dict:
    """Median and quartiles (the exclusive method of statistics.quantiles);
    all three are the value itself for a single sample."""
    if len(values) == 1:
        return dict.fromkeys(("median", "q1", "q3"), values[0])
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def pairs_won(ref: list, new: list) -> int:
    """The number of pairs in which NEW reads lower than REF; ties count for
    neither side."""
    return sum(n < r for r, n in zip(ref, new, strict=True))


def ratios(ref: list, new: list) -> list:
    """The paired ratios new / ref."""
    return [n / r for r, n in zip(ref, new, strict=True)]


def environment(src: Path) -> dict:
    """The environment block of a result, with whether the children of
    tree SRC may write bytecode."""
    import numpy
    flag = run(src, ["-c", "import sys; print(sys.flags.dont_write_bytecode)"]).stdout
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "machine": platform.machine(), "cpus": os.cpu_count(),
            "dont_write_bytecode": bool(int(flag))}


def files(root: Path) -> list:
    """Relative paths of the files under ROOT, sorted."""
    return sorted(str(p.relative_to(root)) for p in root.rglob("*") if p.is_file())


def differing(ref: Path, new: Path) -> list:
    """Relative paths of the files that differ or exist under one root only."""
    return sorted(name for name in set(files(ref)) | set(files(new))
                  if not ((ref / name).is_file() and (new / name).is_file()
                          and (ref / name).read_bytes() == (new / name).read_bytes()))
