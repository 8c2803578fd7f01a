"""Dataset files, feature normalization, synthetic data, and result reports.

A dataset directory holds a JSON `manifest.json` (fields: name, view_files,
labels_file, k) plus one delimited text matrix per view (rows = features,
columns = samples; comma or whitespace separated, no header) and an
optional labels file with one 0-based integer per line. Reports are
versioned JSON.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    DimensionMismatchError,
    InfeasibleGeometryError,
    MissingFileError,
    MissingManifestError,
    ParseError,
    SchemaVersionMismatchError,
    ZeroColumnWarning,
)
from .types import MultiViewDataset, validate_dataset

Array = np.ndarray

REPORT_SCHEMA_VERSION = 1
MANIFEST_NAMES = ("manifest.json", "manifest")


@dataclass
class DatasetManifest:
    """Names the files of one dataset directory."""

    name: str
    view_files: list[str]
    labels_file: str | None = None
    k: int | None = None


def _split_line(line: str) -> list[str]:
    return line.split(",") if "," in line else line.split()


def read_matrix(path) -> Array:
    """Parse a delimited text matrix; errors carry file/line/column."""
    path = Path(path)
    if not path.exists():
        raise MissingFileError(str(path))
    rows = []
    width = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            tokens = _split_line(line)
            if width is None:
                width = len(tokens)
            elif len(tokens) != width:
                raise ParseError(
                    path, lineno, reason=f"expected {width} columns, found {len(tokens)}"
                )
            try:
                rows.append([float(t) for t in tokens])
            except ValueError:
                col = next(i for i, t in enumerate(tokens, start=1) if not _is_float(t))
                raise ParseError(path, lineno, col, reason=f"not a number: {tokens[col - 1]!r}")
    if not rows:
        raise ParseError(path, reason="empty matrix file")
    return np.asarray(rows, dtype=np.float64)


def _is_float(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def _read_labels(path) -> Array:
    path = Path(path)
    if not path.exists():
        raise MissingFileError(str(path))
    out = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(int(line))
            except ValueError:
                raise ParseError(path, lineno, 1, reason=f"not an integer label: {line!r}")
    return np.asarray(out, dtype=np.int64)


def read_manifest(directory) -> DatasetManifest:
    directory = Path(directory)
    for name in MANIFEST_NAMES:
        p = directory / name
        if p.exists():
            try:
                raw = json.loads(p.read_text())
            except json.JSONDecodeError as e:
                raise ParseError(p, e.lineno, e.colno, reason=e.msg)
            if not isinstance(raw, dict):
                raise ParseError(p, reason="manifest must be a JSON object")
            files = raw.get("view_files")
            if not isinstance(files, list) or not all(isinstance(f, str) for f in files):
                raise ParseError(p, reason="'view_files' must be a list of file names")
            if not files:
                raise ParseError(p, reason="at least one view file is required")
            if not isinstance(raw.get("labels_file"), (str, type(None))):
                raise ParseError(p, reason="'labels_file' must be a file name or null")
            k = raw.get("k")
            if k is not None and (type(k) is not int or k < 2):
                raise ParseError(p, reason=f"k must be an integer >= 2, got {k!r}")
            return DatasetManifest(
                name=raw.get("name", directory.name),
                view_files=list(files),
                labels_file=raw.get("labels_file"),
                k=k,
            )
    raise MissingManifestError(f"no manifest file in {directory}")


def load_dataset(directory) -> MultiViewDataset:
    """Read and validate the dataset described by a directory's manifest."""
    directory = Path(directory)
    manifest = read_manifest(directory)
    views = [read_matrix(directory / f) for f in manifest.view_files]
    labels = None
    if manifest.labels_file is not None:
        labels = _read_labels(directory / manifest.labels_file)
    return validate_dataset(MultiViewDataset(views=views, labels=labels))


def save_dataset(ds: MultiViewDataset, directory, name: str | None = None) -> DatasetManifest:
    """Write a dataset directory (manifest + per-view matrices + labels)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    name = name or directory.name
    view_files = []
    for v, X in enumerate(ds.views):
        fname = f"view{v}.txt"
        np.savetxt(directory / fname, X, fmt="%.17g")
        view_files.append(fname)
    labels_file = None
    if ds.labels is not None:
        labels_file = "labels.txt"
        np.savetxt(directory / labels_file, ds.labels, fmt="%d")
    manifest = DatasetManifest(name=name, view_files=view_files, labels_file=labels_file, k=ds.k)
    (directory / "manifest.json").write_text(json.dumps(asdict(manifest), indent=2) + "\n")
    return manifest


def normalize_views(ds: MultiViewDataset, mode: str = "sample") -> MultiViewDataset:
    """Rescale features before factorization.

    mode="sample" (default): every sample column to unit Euclidean norm;
    all-zero columns are left unchanged and flagged with ZeroColumnWarning.
    mode="minmax": every feature row mapped to [0, 1]; constant rows map
    to zero. Idempotent in both modes.
    """
    views = []
    zero_cols = 0
    for X in ds.views:
        if mode == "sample":
            norms = np.linalg.norm(X, axis=0)
            zero = norms == 0
            zero_cols += int(zero.sum())
            scaled = X / np.where(zero, 1.0, norms)[None, :]
            views.append(scaled)
        elif mode == "minmax":
            lo = X.min(axis=1, keepdims=True)
            hi = X.max(axis=1, keepdims=True)
            span = hi - lo
            flat = span == 0
            views.append(np.where(flat, 0.0, (X - lo) / np.where(flat, 1.0, span)))
        else:
            raise ValueError(f"unknown normalization mode {mode!r}")
    if zero_cols:
        warnings.warn(f"{zero_cols} all-zero sample column(s) left unchanged", ZeroColumnWarning)
    labels = None if ds.labels is None else ds.labels.copy()
    return MultiViewDataset(views=views, labels=labels)


def _simplex_centers(k: int, separation: float) -> Array:
    """k points in R^{k-1} with all pairwise distances equal to `separation`."""
    if k == 1:
        return np.zeros((1, 0))
    E = np.eye(k) * (separation / np.sqrt(2.0))
    E -= E.mean(axis=0)
    U, s, _ = np.linalg.svd(E, full_matrices=False)
    return U[:, : k - 1] * s[: k - 1]


def generate_synthetic(
    n: int,
    k: int,
    n_views: int,
    dims: list[int],
    separation: float,
    noise_sigma: float,
    seed,
) -> MultiViewDataset:
    """Gaussian clusters shared across views, with per-view geometry and noise.

    Cluster centers sit on a rotated regular simplex with pairwise distance
    `separation` (needs every view dimension >= k - 1); each view gets an
    independent random rotation and independent Gaussian noise. Labels are
    balanced and every class is non-empty. Deterministic for a fixed seed.
    Raises InfeasibleGeometryError when k < 1, n < 2k or a view is too
    narrow, and DimensionMismatchError unless `dims` has one entry per view.
    """
    if k < 1 or n < 2 * k:
        raise InfeasibleGeometryError(f"need k >= 1 and n >= 2k, got n={n}, k={k}")
    if len(dims) != n_views:
        raise DimensionMismatchError(f"got {len(dims)} dimensions for {n_views} views")
    short = [d for d in dims if d < k - 1]
    if short:
        raise InfeasibleGeometryError(
            f"{k} equidistant centers need dimension >= {k - 1}, got {short}"
        )
    root = np.random.SeedSequence(seed)
    label_seq, *view_seqs = root.spawn(1 + n_views)
    labels = np.arange(n) % k
    np.random.default_rng(label_seq).shuffle(labels)
    base = _simplex_centers(k, separation)
    views = []
    for d, seq in zip(dims, view_seqs):
        rng = np.random.default_rng(seq)
        centers = np.zeros((k, d))
        centers[:, : k - 1] = base
        rot, _ = np.linalg.qr(rng.standard_normal((d, d)))
        centers = centers @ rot.T
        X = centers[labels].T
        if noise_sigma > 0:
            X = X + noise_sigma * rng.standard_normal((d, n))
        views.append(X)
    return validate_dataset(MultiViewDataset(views=views, labels=labels))


@dataclass
class ClusteringReport:
    """Everything one clustering run produced, in JSON-native types."""

    dataset: str
    k: int
    labels: list[int]
    alpha: list[float]
    objective_history: list[float]
    config: dict
    timing: dict
    metrics: dict | None = None
    restarts: list[dict] | None = None
    schema_version: int = field(default=REPORT_SCHEMA_VERSION)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "ClusteringReport":
        version = raw.get("schema_version")
        if version != REPORT_SCHEMA_VERSION:
            raise SchemaVersionMismatchError(
                f"report schema {version!r}, this build reads {REPORT_SCHEMA_VERSION}"
            )
        return cls(**raw)


def save_report(report: ClusteringReport, path) -> None:
    Path(path).write_text(json.dumps(report.to_dict(), indent=2) + "\n")


def load_report(path) -> ClusteringReport:
    path = Path(path)
    if not path.exists():
        raise MissingFileError(str(path))
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise ParseError(path, e.lineno, e.colno, reason=e.msg)
    if not isinstance(raw, dict):
        raise ParseError(path, reason="report must be a JSON object")
    return ClusteringReport.from_dict(raw)
