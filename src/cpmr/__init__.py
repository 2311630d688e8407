"""Context-aware incremental sequential recommender.

Temporal states of users and items evolve continuously on history and
context graphs between interaction days, are fused through a gated
shared-expert block, and jump discretely when interactions arrive;
training optimizes InfoNCE ranking losses with truncated BPTT.
"""

import os as _os

# CPMR_THREADS=n caps the BLAS thread pools. The pools are sized when numpy
# is first imported, so the cap is applied here, before any numpy import.
if _os.environ.get("CPMR_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS"):
        _os.environ.setdefault(_var, _os.environ["CPMR_THREADS"])

from .data import (Dataset, RawEvent, canonicalize, k_core_filter,
                   load_dataset, parse_interactions, save_dataset)
from .evaluation import (MetricsReport, RankRecord, incremental_eval, mrr,
                         recall_at_k, sweep, synthetic_trend_dataset)
from .graphs import EdgeStore, normalize_adjacency
from .model import CpmrModel, ModelConfig, TemporalStates, evolve
from .training import TrainConfig, sample_negatives, train

__all__ = [
    "Dataset", "RawEvent", "canonicalize", "k_core_filter", "load_dataset",
    "parse_interactions", "save_dataset", "MetricsReport", "RankRecord",
    "incremental_eval", "mrr", "recall_at_k",
    "sweep", "synthetic_trend_dataset", "EdgeStore",
    "normalize_adjacency", "CpmrModel", "ModelConfig",
    "TemporalStates", "evolve", "TrainConfig", "sample_negatives", "train",
]

__version__ = "0.1.0"
