"""Core domain types and the dimensional contract shared by all modules.

Conventions: matrices are dense float64, samples are columns. A dataset holds
V view matrices X^(v) of shape (d_v, n) over the same n samples. A factor
stack holds per-layer mappings Z_i with composing shapes and the nonnegative
top representation H_m; the model state adds the n x n consensus graph S (row
sums 1, zero diagonal, nonnegative), held as a `ConsensusGraph`, and the
simplex weight vector alpha.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .consensus import ConsensusGraph, as_graph
from .errors import (
    DimensionMismatchError,
    LabelRangeError,
    LayerSpecError,
    MvclustError,
    NonFiniteEntryError,
    NonFiniteFactorError,
)

Array = np.ndarray

ALPHA_SUM_TOL = 1e-12


def _as_matrix(a) -> Array:
    out = np.asarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-D matrix, got ndim={out.ndim}")
    return out


@dataclass
class MultiViewDataset:
    """V feature matrices over the same samples, with optional ground truth.

    views : list of (d_v, n) arrays, one per view (features x samples)
    labels : optional (n,) int array of class ids 0..k-1, every class present
    """

    views: list[Array]
    labels: Array | None = None

    def __post_init__(self):
        self.views = [_as_matrix(v) for v in self.views]
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)

    @property
    def n(self) -> int:
        return self.views[0].shape[1]

    @property
    def num_views(self) -> int:
        return len(self.views)

    @property
    def view_dims(self) -> list[int]:
        return [v.shape[0] for v in self.views]

    @property
    def k(self) -> int | None:
        """Number of classes when labels are present, else None."""
        if self.labels is None:
            return None
        return int(self.labels.max()) + 1


def validate_dataset(ds: MultiViewDataset) -> MultiViewDataset:
    """Check every dataset invariant; return the dataset unchanged on success.

    Raises DimensionMismatchError when views disagree on the sample count or
    n < 2, NonFiniteEntryError (with view/row/col) on NaN/inf entries, and
    LabelRangeError when labels are the wrong length, negative, or leave a
    class id unused.
    """
    if not ds.views:
        raise DimensionMismatchError("dataset has no views")
    n = ds.views[0].shape[1]
    if n < 2:
        raise DimensionMismatchError(f"need at least 2 samples, got n={n}")
    for v, X in enumerate(ds.views):
        if X.shape[1] != n:
            raise DimensionMismatchError(
                f"view {v} has {X.shape[1]} samples, view 0 has {n}"
            )
        if not np.isfinite(X).all():
            bad = np.argwhere(~np.isfinite(X))[0]
            raise NonFiniteEntryError(view=v, row=int(bad[0]), col=int(bad[1]))
    if ds.labels is not None:
        y = ds.labels
        if y.shape != (n,):
            raise LabelRangeError(f"labels have shape {y.shape}, expected ({n},)")
        if y.min() < 0:
            raise LabelRangeError(f"negative label {int(y.min())}")
        k = int(y.max()) + 1
        present = np.unique(y)
        if len(present) != k:
            missing = sorted(set(range(k)) - set(present.tolist()))
            raise LabelRangeError(f"class ids {missing} are unused (ids must be 0..{k - 1})")
    return ds


@dataclass(frozen=True)
class LayerSpec:
    """Layer widths [l_1, ..., l_m], shared across views; l_m is the cluster count."""

    sizes: tuple[int, ...]

    def __init__(self, sizes):
        object.__setattr__(self, "sizes", tuple(int(s) for s in sizes))

    @property
    def depth(self) -> int:
        return len(self.sizes)

    def validate(
        self, k: int | None = None, min_view_dim: int | None = None, n: int | None = None
    ) -> "LayerSpec":
        """Check the widths against k, the smallest view dimension and n, each when given."""
        if self.depth < 1:
            raise LayerSpecError("at least one layer is required")
        if any(s < 1 for s in self.sizes):
            raise LayerSpecError(f"layer widths must be >= 1, got {self.sizes}")
        if k is not None and self.sizes[-1] != k:
            raise LayerSpecError(
                f"last layer width {self.sizes[-1]} must equal the cluster count {k}"
            )
        if min_view_dim is not None and self.sizes[0] > min_view_dim:
            raise LayerSpecError(
                f"first layer width {self.sizes[0]} exceeds the smallest view dimension {min_view_dim}"
            )
        if n is not None and max(self.sizes) > n:
            raise LayerSpecError(f"layer width {max(self.sizes)} exceeds sample count {n}")
        return self


@dataclass
class FactorStack:
    """Per-view factors: mappings Z_1..Z_m and the nonnegative top representation H_m.

    Z_1 is (d_v, l_1); Z_i is (l_{i-1}, l_i) for i >= 2; H_m is (l_m, n).
    The objective reads no hidden representation, so none is kept.
    `right_factor` is the (n, l_1) right factor P of the step that last set
    Z_1, with Z_1 = X P up to rounding. It is kept only for a view with at
    least as many features as samples (d >= n), where it is no larger than
    Z_1, and is None otherwise: a view fitted in its row space (n x n) lifts
    its Z_1 back to feature space through it.
    """

    mappings: list[Array]
    top: Array
    right_factor: Array | None = None

    @property
    def depth(self) -> int:
        return len(self.mappings)

    def validate(
        self, d: int | None = None, n: int | None = None, view: int | None = None
    ) -> "FactorStack":
        """Check the shape chain, finiteness and H_m >= 0; `view` goes into a
        NonFiniteFactorError."""
        if not self.mappings:
            raise MvclustError("a stack needs at least one mapping")
        rows = d
        for i, Z in enumerate(self.mappings):
            if rows is not None and Z.shape[0] != rows:
                raise DimensionMismatchError(
                    f"layer {i}: Z has {Z.shape[0]} rows, expected {rows}"
                )
            if not np.isfinite(Z).all():
                raise NonFiniteFactorError(view, i)
            rows = Z.shape[1]
        H = self.top
        if H.shape[0] != rows:
            raise DimensionMismatchError(f"top: Z_m has {rows} cols but H_m has {H.shape[0]} rows")
        if n is not None and H.shape[1] != n:
            raise DimensionMismatchError(f"top: H_m has {H.shape[1]} samples, expected {n}")
        if not np.isfinite(H).all():
            raise NonFiniteFactorError(view, None)
        if H.min() < 0:
            raise MvclustError("top: representation has negative entries")
        return self


@dataclass
class ModelState:
    """Complete optimization state: data views, factor stacks, graph S, weights alpha.

    The view matrices are carried alongside the factors so that update rules
    and the objective can be evaluated from the state alone. S may be given
    as an n x n array, which is held as the `ConsensusGraph` it is.
    """

    views: list[Array]
    stacks: list[FactorStack]
    S: ConsensusGraph
    alpha: Array
    beta: float

    def __post_init__(self):
        self.views = [_as_matrix(v) for v in self.views]
        self.S = as_graph(self.S)
        self.alpha = np.asarray(self.alpha, dtype=np.float64)
        self.beta = float(self.beta)

    @property
    def n(self) -> int:
        return self.views[0].shape[1]

    @property
    def num_views(self) -> int:
        return len(self.views)

    def validate(self) -> "ModelState":
        """Check every state invariant (stacks, graph, weights); raise on violation.

        A non-finite factor raises NonFiniteFactorError. The graph checks
        itself (`ConsensusGraph.validate`). Each check is written so that a
        NaN fails it.
        """
        n = self.n
        if len(self.stacks) != self.num_views:
            raise DimensionMismatchError("one factor stack per view is required")
        for v, (X, st) in enumerate(zip(self.views, self.stacks)):
            st.validate(d=X.shape[0], n=n, view=v)
        self.S.validate(n)
        if self.alpha.shape != (self.num_views,):
            raise DimensionMismatchError("alpha must have one weight per view")
        if not self.alpha.min() >= 0:
            raise MvclustError(f"alpha has a negative or NaN weight ({self.alpha.min():.3e})")
        if not abs(self.alpha.sum() - 1.0) <= ALPHA_SUM_TOL:
            raise MvclustError(f"alpha sums to {self.alpha.sum()!r}, expected 1")
        return self


@dataclass
class FitConfig:
    """Settings for one fit: trade-off beta, layer widths, budgets, seed."""

    beta: float
    layers: LayerSpec
    max_outer_iters: int = 150
    pretrain_iters: int = 100
    tol_rel_objective: float = 1e-6
    restarts: int = 1
    rng_seed: int = 0

    def __post_init__(self):
        if not isinstance(self.layers, LayerSpec):
            self.layers = LayerSpec(self.layers)
        self.validate()

    def validate(self) -> "FitConfig":
        if not 0 < self.beta < np.inf:
            raise MvclustError(f"beta must be positive and finite, got {self.beta}")
        if self.max_outer_iters < 0:
            raise MvclustError("max_outer_iters must be >= 0")
        if self.pretrain_iters < 1:
            raise MvclustError("pretrain_iters must be >= 1")
        if not 0 <= self.tol_rel_objective < np.inf:
            raise MvclustError(
                f"tol_rel_objective must be finite and >= 0, got {self.tol_rel_objective}"
            )
        if self.restarts < 1:
            raise MvclustError("restarts must be >= 1")
        if self.rng_seed < 0:
            raise MvclustError(f"rng_seed must be >= 0, got {self.rng_seed}")
        self.layers.validate()
        return self
