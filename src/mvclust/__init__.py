"""Multi-view clustering through multi-layer semi-NMF and a learned
consensus similarity graph.

Each view's feature matrix is factorized through a stack of semi-NMF
layers; the top-layer Gram similarities are fused, under per-view simplex
weights, into a row-stochastic consensus graph; factors and graph are
refined alternately; spectral clustering on the graph yields the final
partition.
"""

from .consensus import (
    WeightQp,
    compute_Q,
    gram_similarity,
    project_rows_to_simplex,
    project_to_simplex,
    solve_simplex_qp,
    update_consensus_graph,
    update_view_weights,
)
from .dataio import (
    ClusteringReport,
    DatasetManifest,
    generate_synthetic,
    load_dataset,
    load_report,
    normalize_views,
    save_dataset,
    save_report,
)
from .finetune import sweep_view, update_mapping, update_top
from .fitting import FitResult, RestartSummary, fit, fit_with_restarts, objective, objective_terms
from .metrics import accuracy, contingency_table, hungarian, nmi, purity
from .pretrain import initialize_state, pretrain_view
from .seminmf import SemiNmfResult, fit_seminmf, pos_neg_split, update_basis
from .spectral import Partition, cluster_graph, kmeans, spectral_embed
from .types import FactorStack, FitConfig, LayerSpec, ModelState, MultiViewDataset, validate_dataset

__all__ = [
    "ClusteringReport",
    "DatasetManifest",
    "FactorStack",
    "FitConfig",
    "FitResult",
    "LayerSpec",
    "ModelState",
    "MultiViewDataset",
    "Partition",
    "RestartSummary",
    "SemiNmfResult",
    "WeightQp",
    "accuracy",
    "cluster_graph",
    "compute_Q",
    "contingency_table",
    "fit",
    "fit_seminmf",
    "fit_with_restarts",
    "generate_synthetic",
    "gram_similarity",
    "hungarian",
    "initialize_state",
    "kmeans",
    "load_dataset",
    "load_report",
    "nmi",
    "normalize_views",
    "objective",
    "objective_terms",
    "pos_neg_split",
    "pretrain_view",
    "project_rows_to_simplex",
    "project_to_simplex",
    "purity",
    "save_dataset",
    "save_report",
    "solve_simplex_qp",
    "spectral_embed",
    "sweep_view",
    "update_basis",
    "update_consensus_graph",
    "update_mapping",
    "update_top",
    "update_view_weights",
    "validate_dataset",
]

__version__ = "0.1.0"
