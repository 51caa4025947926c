"""Datasets: text file formats, synthetic generators, and label splitting.

Random generation uses numpy's Philox counter-based generator, so every
synthetic dataset and split is a pure function of its parameters and seed
and reproduces bit-for-bit across platforms.
"""

from __future__ import annotations

import warnings
from array import array
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .diffusion import _check_integer
from .errors import InputError, ParameterError
from .graph import (
    DISTANCE_SYMMETRY_TOL,
    Graph,
    _scan_distances,
    pairwise_distances,
    validate_distances,
    validate_features,
)


def _rng(seed: int) -> np.random.Generator:
    _check_integer("seed", seed, 0)
    return np.random.Generator(np.random.Philox(seed))


@dataclass
class Dataset:
    """Points (features or a precomputed distance matrix) plus ground truth."""

    name: str
    labels: np.ndarray
    features: np.ndarray | None = None
    distances: np.ndarray | None = None

    def __post_init__(self):
        labels = np.asarray(self.labels)
        # a cast would truncate a fractional label into a class it never had
        if labels.ndim != 1 or labels.dtype.kind not in "biuf" or (np.mod(labels, 1) != 0).any():
            raise InputError(
                f"labels of dataset {self.name!r} must be whole numbers in a 1-D array"
            )
        if labels.size == 0:
            raise InputError(f"dataset {self.name!r} has no labels, so no points")
        self.labels = labels.astype(np.int64)
        if self.features is None and self.distances is None:
            raise ParameterError("dataset needs features or distances")
        if self.features is not None:
            self.features = np.asarray(self.features, dtype=np.float64)
        if self.distances is not None:
            self.distances = np.asarray(self.distances, dtype=np.float64)
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


def two_moons(n: int, noise_sd: float, seed: int) -> Dataset:
    """Two interleaved unit half-circles with Gaussian coordinate noise.

    Class 0 is the upper arc, class 1 the lower one shifted to interleave;
    with noise_sd=0 the points lie exactly on the arcs.
    """
    _check_integer("n", n, 0)
    if n < 4 or n % 2:
        raise ParameterError(f"n must be even and >= 4, got {n}")
    # NaN fails both comparisons
    if not 0 <= noise_sd < np.inf:
        raise ParameterError(f"noise_sd must be finite and >= 0, got {noise_sd}")
    half = n // 2
    t = np.linspace(0.0, np.pi, half)
    upper = np.column_stack([np.cos(t), np.sin(t)])
    lower = np.column_stack([1.0 - np.cos(t), 0.5 - np.sin(t)])
    # at noise_sd = 0 every draw is +-0.0, which changes no coordinate's bits
    X = np.vstack([upper, lower]) + _rng(seed).normal(0.0, noise_sd, (n, 2))
    y = np.repeat([0, 1], half)
    return Dataset("two-moons", y, features=X)


def gaussian_blobs(n: int, c: int, separation: float, d: int, seed: int) -> Dataset:
    """c unit-variance isotropic clusters with centers on the coordinate axes.

    Center k sits at separation * (k // d + 1) along axis k mod d, which for
    c <= d is simply separation * e_k.  Counts are balanced up to remainder.
    """
    for name, value in (("n", n), ("c", c), ("d", d)):
        _check_integer(name, value, 0)
    if not (n >= c >= 2):
        raise ParameterError(f"need n >= c >= 2, got n={n}, c={c}")
    if d < 1:
        raise ParameterError("d must be >= 1")
    if not 0 <= separation < np.inf:
        raise ParameterError(f"separation must be finite and >= 0, got {separation}")
    centers = np.zeros((c, d))
    for k in range(c):
        centers[k, k % d] = separation * (k // d + 1)
    counts = np.full(c, n // c)
    counts[: n % c] += 1
    y = np.repeat(np.arange(c), counts)
    X = centers[y] + _rng(seed).normal(size=(n, d))
    return Dataset("blobs", y, features=X)


def _check_label_count(dataset: Dataset, l: int) -> None:
    """Raise unless l train and l validation labels leave a test set."""
    _check_integer("l", l, 0)
    n, c = dataset.n, dataset.c
    if l < c:
        raise ParameterError(f"need l >= c for one train label per class, got l={l}, c={c}")
    if 2 * l >= n:
        raise ParameterError(f"need 2l < n, or the test set is empty, got l={l}, n={n}")


def split_labels(dataset: Dataset, l: int, seed: int) -> SplitSpec:
    """Stratified train/validation draw of l labels each, test the rest.

    Indices are drawn round-robin over classes from per-class shuffled pools,
    so each class gets floor(l/c) or ceil(l/c) training labels.  When a pool
    runs dry the draw falls back to the largest remaining pool.
    """
    _check_label_count(dataset, l)
    y = dataset.labels
    n, c = dataset.n, dataset.c
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
                cls = int(np.argmax([len(p) for p in pools]))
            picked.append(pools[cls].pop())
        return np.sort(np.asarray(picked, dtype=np.int64))

    train = draw(l)
    validation = draw(l)
    taken = np.zeros(n, dtype=bool)
    taken[train] = True
    taken[validation] = True
    test = np.nonzero(~taken)[0]
    return SplitSpec(train, validation, test)


# ---------------------------------------------------------------------------
# file formats: numeric tables, triplet edge lists, key=value manifests.
# Writers print 17 significant digits, so a file reads back the same floats.


def _read_table(path) -> np.ndarray:
    """Numeric text rows (whitespace- or comma-delimited) as a 2-D array.

    Values go into one flat float buffer that the result views without a
    copy, so reading a table peaks at about the table's own size.
    """
    values = array("d")
    width = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.replace(",", " ").split()
            if not parts:
                raise InputError(f"{path}:{lineno}: a row of only delimiters holds no values")
            if width is None:
                width = len(parts)
            elif len(parts) != width:
                raise InputError(
                    f"{path}:{lineno}: expected {width} columns, got {len(parts)}"
                )
            try:
                values.extend(map(float, parts))
            except ValueError as exc:
                raise InputError(f"{path}:{lineno}: {exc}") from exc
    if width is None:
        raise InputError(f"{path}: no data rows")
    return np.frombuffer(values).reshape(-1, width)


def _node_indices(path, columns):
    """Integer indices in [0, n) and n, the largest index + 1."""
    fractional = np.mod(columns, 1) != 0
    if fractional.any():
        raise InputError(
            f"{path}: node index {float(columns[fractional][0])} is not an integer"
        )
    # an int64 cast would wrap these round
    large = np.abs(columns) >= 2.0**63
    if large.any():
        raise InputError(f"{path}: node index {columns[large][0]:g} exceeds the int64 range")
    idx = columns.astype(np.int64)
    n = int(idx.max()) + 1
    if idx.min() < 0:
        raise InputError(f"{path}: node index {idx[idx < 0][0]} outside [0, {n})")
    return idx, n


def _validated(path, validate, table) -> np.ndarray:
    """``validate(table)``, with its ParameterError as an InputError naming ``path``."""
    try:
        return validate(table)
    except ParameterError as exc:
        raise InputError(f"{path}: {exc}") from exc


def read_features(path) -> np.ndarray:
    return _validated(path, validate_features, _read_table(path))


def read_distances(path) -> np.ndarray:
    """Dense n x n matrix, or triplet lines "i j dist".

    Asymmetric inputs are symmetrized by averaging, with a warning.  Only a
    3-column table can be triplets: a 3 x 3 table is read densely when it
    passes the distance-matrix checks (zero diagonal, nonnegative), any other
    square table always.  Of repeated triplet lines for one (i, j) the last
    counts; a pair given in one direction is mirrored.
    """
    table = _read_table(path)
    square = table.shape[0] == table.shape[1]
    # the minimum is NaN if any entry is, so a NaN table does not pass
    lo, asym = _scan_distances(table) if square else (np.nan, 0)
    passes = lo >= 0 and not np.diagonal(table).any()
    if square and (passes or table.shape[1] != 3):
        # an infinite asymmetry is an infinite entry, which the checks reject;
        # a table that fails them is not averaged, so the checks name its fault
        if passes and DISTANCE_SYMMETRY_TOL < asym < np.inf:
            warnings.warn(
                f"{path}: distances asymmetric by {asym:.3e}; averaging",
                stacklevel=2,
            )
            table = 0.5 * (table + table.T)
        return _validated(path, validate_distances, table)
    if table.shape[1] != 3:
        raise InputError(
            f"{path}: expected a square matrix or 'i j dist' triplets, "
            f"got shape {table.shape}"
        )
    idx, n = _node_indices(path, table[:, :2])
    # every off-diagonal pair needs a line, so this checks before D is allocated
    if len(table) < n * (n - 1) // 2:
        raise InputError(
            f"{path}: {len(table)} lines for n={n} nodes; distances are missing "
            f"for some of the {n * (n - 1) // 2} pairs"
        )
    ii, jj, dd = idx[:, 0], idx[:, 1], table[:, 2]
    nonzero_self = (ii == jj) & (dd != 0)
    if nonzero_self.any():
        raise InputError(f"{path}: nonzero self distance at {ii[nonzero_self][0]}")
    # first occurrences in the reversed lines are the last line of each (i, j)
    keys, last = np.unique((ii * n + jj)[::-1], return_index=True)
    i, j = np.divmod(keys, n)
    d = dd[::-1][last]
    D = np.full((n, n), np.nan)
    D[i, j] = d
    back = D[j, i]
    # match reverse lines by key, so a NaN distance makes its pair missing
    one_sided = ~np.isin(j * n + i, keys)
    if (np.abs(d - back)[~one_sided] > DISTANCE_SYMMETRY_TOL).any():
        warnings.warn(f"{path}: asymmetric triplet distances; averaging", stacklevel=2)
    D[j, i] = np.where(one_sided, d, 0.5 * (d + back))
    # zero self lines wrote their diagonal entry; nodes without one get it here
    np.fill_diagonal(D, 0.0)
    if np.isnan(D.min()):
        i, j = np.argwhere(np.isnan(D))[0]
        raise InputError(f"{path}: missing distance for pair ({i}, {j})")
    return _validated(path, validate_distances, D)


def read_label_pairs(path):
    """Lines "index class" as raw (indices, classes) arrays, no remapping."""
    table = _read_table(path)
    if table.shape[1] != 2:
        raise InputError(
            f"{path}: expected 'index class' lines, got {table.shape[1]} columns"
        )
    # values of 2**63 and above would wrap round in the int64 cast
    if (np.mod(table, 1) != 0).any() or (table < 0).any() or (table >= 2.0**63).any():
        raise InputError(f"{path}: indices and classes must be integers >= 0 and < 2**63")
    idx, cls = table.astype(np.int64).T
    if len(np.unique(idx)) != len(idx):
        raise InputError(f"{path}: duplicate indices")
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
    originals, remapped = np.unique(cls, return_inverse=True)
    out = np.empty(n, dtype=np.int64)
    out[idx] = remapped
    return out, dict(zip(originals.tolist(), range(len(originals))))


def write_features(X, path):
    np.savetxt(path, X, fmt="%.17g")


def write_labels(labels, path, indices=None):
    """Lines "index class"; all nodes unless explicit indices are given."""
    labels = np.asarray(labels)
    if indices is None:
        indices = np.arange(len(labels))
    np.savetxt(path, np.column_stack([indices, labels[indices]]), fmt="%d")


def write_graph_triplets(graph: Graph, path):
    """Write edges as lines "i j w" with i < j, 17 significant digits."""
    i, j, _ = graph.undirected_edges
    np.savetxt(path, np.column_stack([i, j, graph.edge_weights]), fmt="%d %d %.17g")


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
