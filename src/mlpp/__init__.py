"""Multilevel partition priors for multichannel functional data.

Smoothing and functional PCA front end, a Gibbs sampler over per-subject
per-dimension cluster allocations, partition point estimates with
credible balls, and chain diagnostics.
"""

__version__ = "0.1.0"

from .fpca import (EigenBasis, FunctionalDataset, fit_fpca, read_basis,
                   read_dataset_csv, reconstruct, smooth_dataset, write_basis,
                   write_dataset_csv)
from .hyperparams import (HyperParams, apply_scenario, estimate_hyperparams,
                          load_hyperparams, save_hyperparams)
from .model import ModelState, validate_state
from .sampler import (ChainArchive, SamplerConfig, load_archives, run_chain,
                      run_chains, save_archives)
from .simgen import GroundTruth, SimDesign, read_truth_json, simulate, write_truth_json
from .partitions import (adjusted_rand_index, credible_ball,
                         misclassification_count, similarity_matrix,
                         summarize_dimension, variation_of_information,
                         vi_point_estimate)
from .diagnostics import diagnose_archives, effective_sample_size, split_rhat
from .smoothing import CurveSmoother

__all__ = [
    "EigenBasis", "FunctionalDataset", "fit_fpca", "read_basis",
    "read_dataset_csv", "reconstruct", "smooth_dataset", "write_basis",
    "write_dataset_csv", "HyperParams", "apply_scenario", "estimate_hyperparams",
    "load_hyperparams", "save_hyperparams", "ModelState", "validate_state",
    "ChainArchive", "SamplerConfig", "load_archives", "run_chain", "run_chains",
    "save_archives", "GroundTruth", "SimDesign", "read_truth_json", "simulate",
    "write_truth_json", "adjusted_rand_index", "credible_ball",
    "misclassification_count", "similarity_matrix", "summarize_dimension",
    "variation_of_information", "vi_point_estimate", "diagnose_archives",
    "effective_sample_size", "split_rhat", "CurveSmoother",
]
