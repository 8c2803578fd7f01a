"""Dataset files, feature normalization, synthetic data, and result reports.

A dataset directory holds a JSON `manifest.json` (fields: name, view_files,
labels_file, k), one text matrix per view (rows = features, columns =
samples, no header) and an optional labels file with one 0-based integer
per line. In each UTF-8 text file the first non-empty line fixes the
delimiter, a comma if it has one and else whitespace, and a line in the
other style is an error; blank lines are skipped and there are no comment
lines. Reports are plain JSON carrying `schema_version`; read them with
`json.load`.
"""

from __future__ import annotations

import itertools
import json
import math
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DimensionMismatchError,
    InfeasibleGeometryError,
    LabelRangeError,
    MissingFileError,
    MissingManifestError,
    ParseError,
    ZeroColumnWarning,
)
from .types import MultiViewDataset, validate_dataset

Array = np.ndarray

REPORT_SCHEMA_VERSION = 1


@dataclass
class DatasetManifest:
    """Names the files of one dataset directory."""

    name: str
    view_files: list[str]
    labels_file: str | None = None
    k: int | None = None


def read_matrix(path) -> Array:
    """Parse a delimited text matrix; errors carry file/line/column."""
    return _read_table(path, np.float64)


def _read_table(path, dtype, width=None) -> Array:
    """A text file as a 2-D `dtype` array (`width` columns, if given), read by numpy."""
    path = Path(path)
    if not path.exists():
        raise MissingFileError(str(path))
    try:
        with open(path, encoding="utf-8") as fh:
            lines = (line for line in fh if line.strip())
            first = next(lines, "")
            if not first:
                raise ParseError(path, reason="empty file")
            delimiter = "," if "," in first else None
            table = np.loadtxt(
                itertools.chain([first], lines), dtype, delimiter=delimiter, comments=None, ndmin=2
            )
    except UnicodeDecodeError as e:
        raise ParseError(path, reason=f"not UTF-8 text ({e.reason})")
    except ValueError as e:  # numpy's rows skip blank lines; the scan names the file's line
        raise _first_bad_line(path, dtype, delimiter, width) or ParseError(path, reason=str(e))
    if width is not None and table.shape[1] != width:
        raise _first_bad_line(path, dtype, delimiter, width)
    return table


def _first_bad_line(path, dtype, delimiter, width) -> ParseError | None:
    """The first ragged line, or first token numpy's parser rejects, of a file numpy rejected."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            # the file's first row had no comma, so it may have held one column
            if delimiter is None and "," in line:
                return ParseError(path, lineno, reason="a comma-delimited line in a space-delimited file")
            tokens = line.split(delimiter)
            width = width or len(tokens)
            if len(tokens) != width:
                return ParseError(path, lineno, reason=f"expected {width} columns, found {len(tokens)}")
            for col, token in enumerate(tokens, start=1):
                try:  # numpy's own parser; it would skip a blank token, so "?" stands in
                    np.loadtxt([token.strip() or "?"], dtype, delimiter=delimiter, comments=None)
                except (ValueError, OverflowError):
                    return ParseError(path, lineno, col, reason=f"not {dtype.__name__}: {token.strip()!r}")
    return None


def read_manifest(directory) -> DatasetManifest:
    directory = Path(directory)
    p = directory / "manifest.json"
    if not p.exists():
        raise MissingManifestError(f"no manifest.json in {directory}")
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ParseError(p, e.lineno, e.colno, reason=e.msg)
    except UnicodeDecodeError as e:
        raise ParseError(p, reason=f"not UTF-8 text ({e.reason})")
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


def load_dataset(directory) -> MultiViewDataset:
    """Read and validate the dataset described by a directory's manifest."""
    directory = Path(directory)
    manifest = read_manifest(directory)
    views = [read_matrix(directory / f) for f in manifest.view_files]
    labels = None
    if manifest.labels_file is not None:
        labels = _read_table(directory / manifest.labels_file, np.int64, width=1)[:, 0]
    ds = validate_dataset(MultiViewDataset(views=views, labels=labels))
    if None not in (ds.k, manifest.k) and ds.k != manifest.k:
        raise LabelRangeError(f"{directory}: manifest k={manifest.k}, labels have {ds.k} classes")
    return ds


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


def normalize_views(ds: MultiViewDataset) -> MultiViewDataset:
    """Rescale every sample column to unit Euclidean norm before factorization.

    All-zero columns are left unchanged and flagged with ZeroColumnWarning.
    A column whose norm over- or underflows is divided by its largest
    magnitude first. Idempotent.
    """
    views = []
    zero_cols = 0
    for X in ds.views:
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(X, axis=0)
        out = X / np.where(norms == 0, 1.0, norms)[None, :]
        extreme = np.flatnonzero((norms == 0) | np.isinf(norms))
        peak = np.abs(X[:, extreme]).max(axis=0, initial=0.0)
        zero_cols += int((peak == 0).sum())
        extreme, peak = extreme[peak > 0], peak[peak > 0]
        Y = X[:, extreme] / peak
        out[:, extreme] = Y / np.linalg.norm(Y, axis=0)
        views.append(out)
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
    Raises InfeasibleGeometryError when k < 1, n < 2k, a view is too
    narrow, `separation` is not finite or `noise_sigma` is negative or not
    finite, and DimensionMismatchError unless `dims` has one entry per view.
    """
    if k < 1 or n < 2 * k:
        raise InfeasibleGeometryError(f"need k >= 1 and n >= 2k, got n={n}, k={k}")
    if not (math.isfinite(separation) and 0 <= noise_sigma < math.inf):
        raise InfeasibleGeometryError(
            f"need a finite separation and a finite noise_sigma >= 0, "
            f"got separation={separation}, noise_sigma={noise_sigma}"
        )
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
    schema_version: int = REPORT_SCHEMA_VERSION


def save_report(report: ClusteringReport, path) -> None:
    Path(path).write_text(json.dumps(asdict(report), indent=2) + "\n")
