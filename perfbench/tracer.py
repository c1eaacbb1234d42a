"""Span recorder that times mlpp layers from outside the program.

Each traced layer is a public function of an mlpp module, replaced by a
timing wrapper in the namespace where its caller looks it up (for
example ``mlpp.cli.run_chains`` for the CLI, ``mlpp.sampler.gibbs_scan``
for ``run_chain``).  Spans are kept in memory as
``(name, start, end, parent, run_id)`` tuples, where ``parent`` is the
index of the enclosing span in the same list (-1 at top level), and are
written out once at the end.  A layer that no longer exists is reported
as missing instead of failing the run.
"""
from __future__ import annotations

import importlib
import time

import numpy as np

# (span name, module, attribute path).  The attribute path is looked up
# on the module; a dotted path names a method on a class.
LAYERS = [
    # CLI entry points and the library calls they make, patched where
    # mlpp.cli looks them up.
    ("cli.cmd_fit", "mlpp.cli", "cmd_fit"),
    ("cli.cmd_diagnose", "mlpp.cli", "cmd_diagnose"),
    ("cli.cmd_summarize", "mlpp.cli", "cmd_summarize"),
    ("fpca.read_dataset_csv", "mlpp.cli", "read_dataset_csv"),
    ("fpca.smooth_dataset", "mlpp.cli", "smooth_dataset"),
    ("fpca.fit_fpca", "mlpp.cli", "fit_fpca"),
    ("fpca.write_basis", "mlpp.cli", "write_basis"),
    ("hyperparams.estimate_hyperparams", "mlpp.cli", "estimate_hyperparams"),
    ("hyperparams.save_hyperparams", "mlpp.cli", "save_hyperparams"),
    ("sampler.run_chains", "mlpp.cli", "run_chains"),
    ("sampler.save_archives", "mlpp.cli", "save_archives"),
    ("sampler.load_archives", "mlpp.cli", "load_archives"),
    ("diagnostics.diagnose_archives", "mlpp.cli", "diagnose_archives"),
    ("diagnostics.write_diagnostics_csv", "mlpp.cli", "write_diagnostics_csv"),
    ("diagnostics.export_trace", "mlpp.cli", "export_trace"),
    ("diagnostics.export_density", "mlpp.cli", "export_density"),
    ("partitions.summarize_dimension", "mlpp.cli", "summarize_dimension"),
    ("partitions.partition_draws", "mlpp.cli", "partition_draws"),
    ("partitions.similarity_matrix", "mlpp.cli", "similarity_matrix"),
    ("partitions.write_similarity_csv", "mlpp.cli", "write_similarity_csv"),
    ("partitions.write_partition_report", "mlpp.cli", "write_partition_report"),
    # Library path used by the replication workload.
    ("fpca.smooth_dataset", "mlpp.fpca", "smooth_dataset"),
    ("fpca.fit_fpca", "mlpp.fpca", "fit_fpca"),
    ("hyperparams.estimate_hyperparams", "mlpp.hyperparams", "estimate_hyperparams"),
    ("diagnostics.diagnose_archives", "mlpp.diagnostics", "diagnose_archives"),
    ("partitions.summarize_dimension", "mlpp.partitions", "summarize_dimension"),
    # Inside the layers.
    ("smoothing.select_penalty", "mlpp.smoothing", "CurveSmoother.select_penalty"),
    ("partitions.similarity_matrix", "mlpp.partitions", "similarity_matrix"),
    ("partitions.vi_point_estimate", "mlpp.partitions", "vi_point_estimate"),
    ("partitions.credible_ball", "mlpp.partitions", "credible_ball"),
    ("sampler.run_chain", "mlpp.sampler", "run_chain"),
    ("sampler.gibbs_scan", "mlpp.sampler", "gibbs_scan"),
    ("sampler.update_scores", "mlpp.sampler", "update_scores"),
    ("sampler.update_noise_prec", "mlpp.sampler", "update_noise_prec"),
    ("sampler.update_cluster_params", "mlpp.sampler", "update_cluster_params"),
    ("sampler.update_subject_alloc", "mlpp.sampler", "update_subject_alloc"),
    ("sampler.update_category_weights", "mlpp.sampler", "update_category_weights"),
    ("sampler.update_sticks", "mlpp.sampler", "update_sticks"),
    ("sampler.scores_logprior", "mlpp.sampler", "scores_logprior"),
    ("sampler.truncated_gamma_sample", "mlpp.sampler", "truncated_gamma_sample"),
]


def _unique_partitions(draws, *args, **kwargs) -> int:
    return int(np.unique(np.asarray(draws), axis=0).shape[0])


# Counts recorded at a layer boundary, computed from the call's arguments
# outside the timed interval.
COUNTERS = {"partitions.vi_point_estimate": _unique_partitions}


class Tracer:
    """Wraps layer functions and records one span per call."""

    def __init__(self, run_id: str = ""):
        self.run_id = run_id
        self.spans: list = []
        self.counts: dict = {}
        self.missing: list = []
        self._stack: list = []
        self._patched: list = []

    def install(self, layers=LAYERS) -> None:
        self.missing = []
        for name, module_name, attr_path in layers:
            try:
                owner = importlib.import_module(module_name)
                *owners, attr = attr_path.split(".")
                for part in owners:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr_path}")
                continue
            setattr(owner, attr, self._wrap(name, original))
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrap(self, name, original):
        spans, stack, counter = self.spans, self._stack, COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.run_id)
                if counter is not None:
                    self.counts[name] = self.counts.get(name, 0) + counter(*args, **kwargs)

        traced.__wrapped__ = original
        return traced

    def document(self) -> dict:
        return {"spans": self.spans, "counts": self.counts, "missing": self.missing}


def layer_totals(spans) -> dict:
    """Per span name: call count, inclusive seconds, self seconds and the
    list of inclusive durations.  Self time is a span's duration minus the
    time its direct children cover (calls on one thread nest, so children
    never overlap)."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: dict = {}
    for (name, start, end, _, _), covered in zip(spans, child):
        entry = totals.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0,
                                         "durations": []})
        entry["calls"] += 1
        entry["total"] += end - start
        entry["self"] += end - start - covered
        entry["durations"].append(end - start)
    return totals


def merge_totals(parts) -> dict:
    merged: dict = {}
    for totals in parts:
        for name, entry in totals.items():
            out = merged.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0,
                                           "durations": []})
            out["calls"] += entry["calls"]
            out["total"] += entry["total"]
            out["self"] += entry["self"]
            out["durations"] += entry["durations"]
    return merged
