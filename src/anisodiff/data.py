"""Datasets: file ingestion, synthetic generators, and label splitting.

Random generation uses numpy's Philox counter-based generator, so every
synthetic dataset and split is a pure function of its parameters and seed
and reproduces bit-for-bit across platforms.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError, ParameterError
from .graph import (
    max_asymmetry,
    pairwise_distances,
    validate_distances,
    validate_features,
)


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


@dataclass
class Dataset:
    """Points (features or a precomputed distance matrix) plus ground truth."""

    name: str
    labels: np.ndarray
    features: np.ndarray | None = None
    distances: np.ndarray | None = None
    label_mapping: dict[int, int] | None = None

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features is None and self.distances is None:
            raise ParameterError("dataset needs features or distances")
        n = len(self.labels)
        src = self.features if self.features is not None else self.distances
        if src.shape[0] != n:
            raise InputError(
                f"{n} labels but {src.shape[0]} data rows in dataset {self.name!r}"
            )
        classes = np.unique(self.labels)
        if not np.array_equal(classes, np.arange(len(classes))):
            raise InputError(
                f"classes must form a contiguous range [0, c), got {classes.tolist()}"
            )

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def c(self) -> int:
        return int(self.labels.max()) + 1

    @cached_property
    def distance_matrix(self) -> np.ndarray:
        if self.distances is not None:
            return self.distances
        return pairwise_distances(self.features)


@dataclass(frozen=True)
class SplitSpec:
    """Disjoint train/validation/test index sets; |validation| == |train|."""

    train: np.ndarray
    validation: np.ndarray
    test: np.ndarray
    seed: int


def two_moons(n: int, noise_sd: float, seed: int) -> Dataset:
    """Two interleaved unit half-circles with Gaussian coordinate noise.

    Class 0 is the upper arc, class 1 the lower one shifted to interleave;
    with noise_sd=0 the points lie exactly on the arcs.
    """
    if n < 4 or n % 2:
        raise ParameterError(f"n must be even and >= 4, got {n}")
    if noise_sd < 0:
        raise ParameterError("noise_sd must be >= 0")
    half = n // 2
    t = np.linspace(0.0, np.pi, half)
    upper = np.column_stack([np.cos(t), np.sin(t)])
    lower = np.column_stack([1.0 - np.cos(t), 0.5 - np.sin(t)])
    X = np.vstack([upper, lower])
    if noise_sd > 0:
        X = X + _rng(seed).normal(0.0, noise_sd, X.shape)
    y = np.repeat([0, 1], half)
    return Dataset("two-moons", y, features=X)


def gaussian_blobs(n: int, c: int, separation: float, d: int, seed: int) -> Dataset:
    """c unit-variance isotropic clusters with centers on the coordinate axes.

    Center k sits at separation * (k // d + 1) along axis k mod d, which for
    c <= d is simply separation * e_k.  Counts are balanced up to remainder.
    """
    if not (n >= c >= 2):
        raise ParameterError(f"need n >= c >= 2, got n={n}, c={c}")
    if d < 1:
        raise ParameterError("d must be >= 1")
    if separation < 0:
        raise ParameterError("separation must be >= 0")
    centers = np.zeros((c, d))
    for k in range(c):
        centers[k, k % d] = separation * (k // d + 1)
    counts = np.full(c, n // c)
    counts[: n % c] += 1
    y = np.repeat(np.arange(c), counts)
    X = centers[y] + _rng(seed).normal(size=(n, d))
    return Dataset("blobs", y, features=X)


def split_labels(dataset: Dataset, l: int, seed: int) -> SplitSpec:
    """Stratified train/validation draw of l labels each, test the rest.

    Indices are drawn round-robin over classes from per-class shuffled pools,
    so each class gets floor(l/c) or ceil(l/c) training labels.  When a pool
    runs dry the draw falls back to the largest remaining pool.
    """
    y = dataset.labels
    n, c = dataset.n, dataset.c
    if l < c:
        raise InputError(f"need l >= c for one train label per class, got l={l}, c={c}")
    if 2 * l > n:
        raise InputError(f"need 2l <= n, got l={l}, n={n}")
    rng = _rng(seed)
    pools = []
    for cls in range(c):
        members = np.nonzero(y == cls)[0]
        pools.append(list(rng.permutation(members)))

    def draw(count):
        picked = []
        for t in range(count):
            cls = t % c
            if not pools[cls]:
                sizes = [len(p) for p in pools]
                cls = int(np.argmax(sizes))
                if sizes[cls] == 0:
                    raise InputError("label pools exhausted; infeasible split")
            picked.append(pools[cls].pop())
        return np.sort(np.asarray(picked, dtype=np.int64))

    train = draw(l)
    validation = draw(l)
    taken = np.zeros(n, dtype=bool)
    taken[train] = True
    taken[validation] = True
    test = np.nonzero(~taken)[0]
    return SplitSpec(train, validation, test, seed)


# ---------------------------------------------------------------------------
# file formats


def _read_table(path):
    """Numeric text rows (whitespace- or comma-delimited), with line numbers."""
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.replace(",", " ").split()
            try:
                rows.append(([float(p) for p in parts], lineno))
            except ValueError as exc:
                raise InputError(f"{path}:{lineno}: {exc}") from exc
    if not rows:
        raise InputError(f"{path}: no data rows")
    width = len(rows[0][0])
    for values, lineno in rows:
        if len(values) != width:
            raise InputError(
                f"{path}:{lineno}: expected {width} columns, got {len(values)}"
            )
    return np.asarray([values for values, _ in rows])


def read_features(path) -> np.ndarray:
    return validate_features(_read_table(path))


def read_distances(path) -> np.ndarray:
    """Dense n x n matrix, or triplet lines "i j dist".

    Asymmetric inputs are symmetrized by averaging, with a warning.  A square
    table is read densely when it passes the distance-matrix checks (zero
    diagonal, nonnegative); a 3-column table that does not is read as
    triplets.
    """
    table = _read_table(path)
    square = table.shape[0] == table.shape[1]
    dense_plausible = (
        square
        and (np.abs(np.diagonal(table)) == 0).all()
        and (table >= 0).all()
    )
    if dense_plausible:
        D = table
        asym = max_asymmetry(D)
        if asym > 1e-12:
            warnings.warn(
                f"{path}: distances asymmetric by {asym:.3e}; averaging",
                stacklevel=2,
            )
            D = 0.5 * (D + D.T)
        return validate_distances(D)
    if table.shape[1] != 3:
        raise InputError(
            f"{path}: expected a square matrix or 'i j dist' triplets, "
            f"got shape {table.shape}"
        )
    ii = table[:, 0]
    jj = table[:, 1]
    dd = table[:, 2]
    if not (np.equal(np.mod(ii, 1), 0).all() and np.equal(np.mod(jj, 1), 0).all()):
        raise InputError(f"{path}: triplet indices must be integers")
    ii = ii.astype(np.int64)
    jj = jj.astype(np.int64)
    if (ii < 0).any() or (jj < 0).any():
        raise InputError(f"{path}: triplet indices must be >= 0")
    n = int(max(ii.max(), jj.max())) + 1
    D = np.full((n, n), np.nan)
    np.fill_diagonal(D, 0.0)
    for i, j, dv in zip(ii, jj, dd):
        if i == j:
            if dv != 0:
                raise InputError(f"{path}: nonzero self distance at {i}")
            continue
        D[i, j] = dv
    mirrored = D.T.copy()
    both = ~np.isnan(D) & ~np.isnan(mirrored)
    if (np.abs(D[both] - mirrored[both]) > 1e-12).any():
        warnings.warn(f"{path}: asymmetric triplet distances; averaging", stacklevel=2)
    merged = np.where(
        np.isnan(D), mirrored, np.where(np.isnan(mirrored), D, 0.5 * (D + mirrored))
    )
    if np.isnan(merged).any():
        i, j = np.argwhere(np.isnan(merged))[0]
        raise InputError(f"{path}: missing distance for pair ({i}, {j})")
    return validate_distances(merged)


def read_label_pairs(path):
    """Lines "index class" as raw (indices, classes) arrays, no remapping."""
    table = _read_table(path)
    if table.shape[1] != 2:
        raise InputError(
            f"{path}: expected 'index class' lines, got {table.shape[1]} columns"
        )
    if not np.equal(np.mod(table, 1), 0).all():
        raise InputError(f"{path}: indices and classes must be integers")
    idx = table[:, 0].astype(np.int64)
    cls = table[:, 1].astype(np.int64)
    if len(np.unique(idx)) != len(idx):
        raise InputError(f"{path}: duplicate indices")
    if (idx < 0).any() or (cls < 0).any():
        raise InputError(f"{path}: indices and classes must be >= 0")
    return idx, cls


def read_labels(path, n: int):
    """Full ground-truth label file covering every index in [0, n) once.

    Returns (labels, mapping): classes remapped to a contiguous range with
    the original -> contiguous mapping reported.
    """
    idx, cls = read_label_pairs(path)
    if len(idx) != n:
        raise InputError(f"{path}: {len(idx)} labels but dataset has {n} points")
    if idx.max() >= n:
        raise InputError(f"{path}: label index {idx.max()} outside [0, {n})")
    originals = np.unique(cls)
    mapping = {int(orig): new for new, orig in enumerate(originals)}
    out = np.empty(n, dtype=np.int64)
    out[idx] = np.asarray([mapping[int(v)] for v in cls], dtype=np.int64)
    return out, mapping


def load_dataset(path, format: str, labels_path, name: str | None = None) -> Dataset:
    """Read features or distances plus a full ground-truth label file."""
    if format == "features":
        X = read_features(path)
        n = X.shape[0]
        labels, mapping = read_labels(labels_path, n)
        return Dataset(name or str(path), labels, features=X, label_mapping=mapping)
    if format == "distances":
        D = read_distances(path)
        n = D.shape[0]
        labels, mapping = read_labels(labels_path, n)
        return Dataset(name or str(path), labels, distances=D, label_mapping=mapping)
    raise ParameterError(f"format must be 'features' or 'distances', got {format!r}")


def write_features(X, path):
    with open(path, "w") as fh:
        for row in np.asarray(X):
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def write_labels(labels, path, indices=None):
    """Lines "index class"; all nodes unless explicit indices are given."""
    labels = np.asarray(labels)
    if indices is None:
        indices = np.arange(len(labels))
    with open(path, "w") as fh:
        for i in indices:
            fh.write(f"{int(i)} {int(labels[i])}\n")


def write_manifest(entries: dict, path):
    with open(path, "w") as fh:
        for key, value in entries.items():
            fh.write(f"{key}={value}\n")


def read_manifest(path) -> dict:
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if "=" not in line:
                raise InputError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            out[key] = value
    return out
