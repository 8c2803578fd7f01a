"""Multi-view clustering through multi-layer semi-NMF and a learned
consensus similarity graph.

Each view's feature matrix is factorized through a stack of semi-NMF
layers; the top-layer Gram similarities are fused, under per-view simplex
weights, into a row-stochastic consensus graph; factors and graph are
refined alternately; spectral clustering on the graph yields the final
partition.

The package exports what a user loads, fits, clusters, scores and saves
with, and the types those calls return. The solver's pieces stay in their
modules (`mvclust.consensus`, `mvclust.finetune`, ...).
"""

# every fit draws its starts from numpy.random, which numpy imports lazily:
# importing it with the package keeps a fit from importing anything
import numpy.random  # noqa: F401

from .consensus import ConsensusGraph
from .dataio import (
    ClusteringReport,
    DatasetManifest,
    generate_synthetic,
    load_dataset,
    normalize_views,
    save_dataset,
    save_report,
)
from .fitting import FitResult, RestartSummary, fit, fit_with_restarts
from .metrics import accuracy, nmi, purity
from .spectral import Partition, cluster_graph, kmeans
from .types import FactorStack, FitConfig, LayerSpec, ModelState, MultiViewDataset, validate_dataset

__all__ = [
    "ClusteringReport",
    "ConsensusGraph",
    "DatasetManifest",
    "FactorStack",
    "FitConfig",
    "FitResult",
    "LayerSpec",
    "ModelState",
    "MultiViewDataset",
    "Partition",
    "RestartSummary",
    "accuracy",
    "cluster_graph",
    "fit",
    "fit_with_restarts",
    "generate_synthetic",
    "kmeans",
    "load_dataset",
    "nmi",
    "normalize_views",
    "purity",
    "save_dataset",
    "save_report",
    "validate_dataset",
]

__version__ = "0.1.0"
