"""kNN similarity graphs: neighborhoods, Gaussian weights, degrees.

The graph is the symmetric union of the K-nearest-neighbor relations, with
Gaussian edge weights and per-node degrees d_i = sum_j w_ij.  Everything
downstream (diffusivities, Laplacians, diffusion) operates on the CSR
structure built here.
"""

from __future__ import annotations

import warnings
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.spatial.distance import cdist

from .errors import DegenerateDataError, NonEdgeError, ParameterError

# Smallest positive normal float; weights and diffusivities are floored here
# so they stay strictly positive even when the Gaussian underflows.
TINY = float(np.finfo(np.float64).tiny)

DISTANCE_SYMMETRY_TOL = 1e-12


class ConnectivityWarning(UserWarning):
    """The graph has isolated nodes or more than one connected component."""


def validate_features(features) -> np.ndarray:
    """Check an n x d feature array: finite entries, n >= 2, d >= 1."""
    X = np.ascontiguousarray(features, dtype=np.float64)
    if X.ndim != 2:
        raise ParameterError(f"features must be 2-D, got shape {X.shape}")
    if X.shape[0] < 2 or X.shape[1] < 1:
        raise ParameterError(f"need n >= 2 points and d >= 1 columns, got {X.shape}")
    if not np.isfinite(X).all():
        raise ParameterError("features contain non-finite entries")
    return X


def validate_distances(dist) -> np.ndarray:
    """Check an n x n distance matrix: symmetric, zero diagonal, nonnegative."""
    D = np.ascontiguousarray(dist, dtype=np.float64)
    if D.ndim != 2 or D.shape[0] != D.shape[1]:
        raise ParameterError(f"distance matrix must be square, got shape {D.shape}")
    if D.shape[0] < 2:
        raise ParameterError("need at least 2 points")
    if not np.isfinite(D).all():
        raise ParameterError("distance matrix contains non-finite entries")
    if (D < 0).any():
        raise ParameterError("distance matrix contains negative entries")
    if np.abs(np.diagonal(D)).max() > 0:
        raise ParameterError("distance matrix diagonal must be zero")
    diff = D - D.T
    asym = np.abs(diff, out=diff).max()
    if asym > DISTANCE_SYMMETRY_TOL:
        raise ParameterError(
            f"distance matrix asymmetric by {asym:.3e} "
            f"(tolerance {DISTANCE_SYMMETRY_TOL:.0e}); symmetrize it first"
        )
    return D


def pairwise_distances(features) -> np.ndarray:
    """Euclidean distance matrix of an n x d feature array."""
    X = validate_features(features)
    return cdist(X, X)


class Graph:
    """Symmetric weighted graph in CSR form.

    Weights lie in (0, 1], there are no self loops, and w_ij == w_ji exactly.
    ``neighborhoods`` holds the (n, K) kNN index lists when the graph was
    built from kNN construction; graphs loaded from edge lists carry None and
    cannot drive the neighborhood-context diffusivities.

    Instances are treated as immutable and may be shared across threads.
    """

    def __init__(self, weights, neighborhoods=None):
        W = sp.csr_array(weights, dtype=np.float64)
        if W.shape[0] != W.shape[1]:
            raise ParameterError(f"adjacency must be square, got {W.shape}")
        W.sort_indices()
        self.weights = W
        self.n = W.shape[0]
        self.neighborhoods = None if neighborhoods is None else np.asarray(
            neighborhoods, dtype=np.int64
        )
        self._validate()
        # Degrees via the same matvec path used by the Laplacian, so that
        # L applied to a constant vanishes exactly, not just approximately.
        self.degrees = W @ np.ones(self.n)
        if (self.degrees == 0).any():
            warnings.warn(
                f"{int((self.degrees == 0).sum())} isolated node(s); "
                "diffusion operators are undefined there",
                ConnectivityWarning,
                stacklevel=2,
            )
        self.num_components = connected_components(
            W, directed=False, return_labels=False
        )
        if self.num_components > 1:
            warnings.warn(
                f"graph has {self.num_components} connected components; "
                "diffusion converges to per-component constants",
                ConnectivityWarning,
                stacklevel=2,
            )

    def _validate(self):
        W = self.weights
        if W.nnz == 0:
            raise ParameterError("graph has no edges")
        if np.count_nonzero(W.diagonal()) > 0:
            raise ParameterError("graph must not contain self loops")
        data = W.data
        if not np.isfinite(data).all():
            raise ParameterError("edge weights must be finite")
        if (data <= 0).any() or (data > 1).any():
            raise ParameterError("edge weights must lie in (0, 1]")
        mirrored = data[self.mirror]
        if not np.array_equal(mirrored, data):
            raise ParameterError("edge weights must be exactly symmetric")

    @cached_property
    def rows(self) -> np.ndarray:
        """Row index of every stored CSR entry (parallel to ``weights.data``)."""
        W = self.weights
        return np.repeat(
            np.arange(self.n, dtype=np.int64), np.diff(W.indptr)
        )

    @cached_property
    def mirror(self) -> np.ndarray:
        """Permutation p with data[p][k] = value stored for the reversed edge.

        Raises if the sparsity pattern itself is asymmetric.
        """
        W = self.weights
        nnz = W.nnz
        tagged = sp.csr_array(
            (np.arange(1, nnz + 1, dtype=np.float64), W.indices, W.indptr),
            shape=W.shape,
        )
        T = tagged.T.tocsr()
        T.sort_indices()
        if not (
            np.array_equal(T.indptr, W.indptr)
            and np.array_equal(T.indices, W.indices)
        ):
            raise ParameterError("graph sparsity pattern is not symmetric")
        return T.data.astype(np.int64) - 1

    @cached_property
    def upper(self) -> np.ndarray:
        """Positions of the stored entries with column > row (each edge once)."""
        return np.nonzero(self.weights.indices > self.rows)[0]

    @cached_property
    def knn_positions(self) -> np.ndarray:
        """(n, K) CSR positions of the edges (i, neighborhoods[i, a])."""
        if self.neighborhoods is None:
            raise ParameterError("graph was not built from kNN neighborhoods")
        n, K = self.neighborhoods.shape
        # row-major CSR keys i * n + j ascend because the indices are sorted
        keys = self.rows * n + self.weights.indices
        want = (np.arange(n, dtype=np.int64)[:, None] * n + self.neighborhoods).ravel()
        pos = np.searchsorted(keys, want)
        found = keys[np.minimum(pos, len(keys) - 1)] == want
        if not found.all():
            i = int(np.flatnonzero(~found)[0]) // K
            raise ParameterError(f"kNN list of node {i} not found in graph")
        return pos.reshape(n, K)

    @cached_property
    def mutual_structure(self):
        """Flattened mutual-neighborhood structure for the smooth diffusivity.

        Returns (edge, pos_ik, pos_kj, counts): for every directed stored edge
        p = (i, j), the common kNN members k of i and j contribute one entry
        with the CSR positions of (i, k) and (j, k); ``counts[p]`` is
        |N_K(i) & N_K(j)|.  k values are enumerated in ascending order so the
        accumulation order is identical for (i, j) and (j, i).
        """
        W = self.weights
        n = self.n
        cols = W.indices.astype(np.int64)
        # each kNN list in CSR order, i.e. by ascending k; the keys i * n + k
        # of all lists then form one ascending array
        kpos = np.sort(self.knn_positions, axis=1)
        K = kpos.shape[1]
        knn_keys = (self.rows[kpos] * n + cols[kpos]).ravel()
        # is k in N_K(j), for every stored (i, j) and every k in N_K(i)?
        query = cols[:, None] * n + cols[kpos][self.rows]
        loc = np.minimum(np.searchsorted(knn_keys, query), len(knn_keys) - 1)
        hit = knn_keys[loc] == query
        # flat indices are C-contiguous, unlike np.nonzero's views of a 2-D mask
        flat = np.flatnonzero(hit)
        edge, slot = np.divmod(flat, K)
        return (
            edge,
            kpos[self.rows[edge], slot],
            kpos.ravel()[loc.ravel()[flat]],
            np.count_nonzero(hit, axis=1),
        )

    @cached_property
    def match_structure(self):
        """Deduplicated (k, j) pairs behind the local-match diffusivity.

        Every directed edge (i, j) needs, for each k in N_K(i), the best
        cross-pair diffusivity against N_K(j); that value depends on (k, j)
        only, so it is computed once per distinct pair.  Returns
        (pair_k, pair_j, slot_map) where slot_map[p, a] is the pair index for
        edge position p and neighbor slot a.
        """
        if self.neighborhoods is None:
            raise ParameterError("graph was not built from kNN neighborhoods")
        nbrs = self.neighborhoods
        slot_k = nbrs[self.rows]
        flat = slot_k.astype(np.int64) * self.n + self.weights.indices[:, None]
        uniq, inverse = np.unique(flat, return_inverse=True)
        return (
            (uniq // self.n).astype(np.int64),
            (uniq % self.n).astype(np.int64),
            inverse.reshape(slot_k.shape).astype(np.int64),
        )

    @cached_property
    def cross_pairs(self):
        """Deduplicated cross pairs {k, l} behind the local-match kernel.

        Match pair p = (k, j) of :attr:`match_structure` needs the distance
        from k to every l in N_K(j).  These (k, l) repeat heavily across
        pairs, and the distance does not depend on their order, so each
        unordered pair is stored once.  Returns (cross_a, cross_b, cross_map)
        with cross_a <= cross_b and cross_map[b, p] the index of the pair
        {pair_k[p], neighborhoods[pair_j[p], b]}; the (K, P) layout puts the
        min over b along the outer axis, which reduces fastest.

        Built on the first local-match evaluation, not with match_structure,
        so graph set-up does not pay for it.
        """
        pair_k, pair_j, _ = self.match_structure
        l = np.ascontiguousarray(self.neighborhoods[pair_j].T)
        key = np.minimum(pair_k, l)
        key *= self.n
        key += np.maximum(pair_k, l, out=l)
        del l
        # np.unique(key, return_inverse=True) by hand, freeing (K, P)
        # temporaries as it goes: np.unique holds about twice as many at once,
        # which at n = 1500 raised a local-match run's peak RSS by 15%
        order = np.argsort(key, axis=None)
        key = key.ravel()[order]
        first = np.empty(key.size, dtype=bool)
        first[0] = True
        np.not_equal(key[1:], key[:-1], out=first[1:])
        uniq = key[first]
        del key
        rank = np.cumsum(first)
        rank -= 1
        cross_map = np.empty_like(rank)
        cross_map[order] = rank
        return uniq // self.n, uniq % self.n, cross_map.reshape(-1, len(pair_k))

    def edge_position(self, i, j) -> int:
        """CSR position of edge (i, j); raises NonEdgeError if absent."""
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise NonEdgeError((i, j))
        W = self.weights
        lo, hi = W.indptr[i], W.indptr[i + 1]
        row = W.indices[lo:hi]
        k = np.searchsorted(row, j)
        if k < hi - lo and row[k] == j:
            return int(lo + k)
        raise NonEdgeError((i, j))

    def edge_weight(self, i, j) -> float:
        return float(self.weights.data[self.edge_position(i, j)])


def knn_neighborhoods(dist, K: int) -> np.ndarray:
    """(n, K) nearest-neighbor index lists, self excluded.

    Lists are sorted by ascending distance; ties break by ascending index.
    """
    D = validate_distances(dist)
    n = D.shape[0]
    if not 1 <= K <= n - 1:
        raise ParameterError(f"K must satisfy 1 <= K <= n-1 = {n - 1}, got {K}")
    # stable sort of the natural index order == ascending-index tie-break
    order = np.argsort(D, axis=1, kind="stable")[:, : K + 1]
    # the zero diagonal sorts self among the first K + 1 unless more than K
    # duplicates precede it; stably moving it last leaves the others in the
    # order an infinite diagonal gives, without an n x n copy of D
    is_self = order == np.arange(n)[:, None]
    order = np.take_along_axis(order, np.argsort(is_self, axis=1, kind="stable"), axis=1)
    return order[:, :K].astype(np.int64)


def auto_sigma_x(dist, neighborhoods) -> float:
    """Squared mean distance of every point to its kNN list.

    The Gaussian weight divides the squared distance by this scale, so the
    exponent is O(1) at typical neighbor range.
    """
    D = np.asarray(dist, dtype=np.float64)
    nbrs = np.asarray(neighborhoods, dtype=np.int64)
    if nbrs.size == 0:
        raise ParameterError("neighborhoods are empty")
    mean = float(np.take_along_axis(D, nbrs, axis=1).mean())
    if mean == 0.0:
        raise DegenerateDataError("all neighbor distances are zero")
    return mean * mean


def gaussian_weights(dist, sigma_x: float, neighborhoods) -> Graph:
    """Graph with w_jk = exp(-dist(j,k)^2 / sigma_x) on the kNN union.

    An edge (j, k) exists when j is in the kNN list of k or vice versa.
    Weights are evaluated once per undirected pair, so symmetry is exact.
    """
    if not sigma_x > 0:
        raise ParameterError(f"sigma_x must be positive, got {sigma_x}")
    D = np.asarray(dist, dtype=np.float64)
    nbrs = np.asarray(neighborhoods, dtype=np.int64)
    n, K = nbrs.shape
    r = np.repeat(np.arange(n, dtype=np.int64), K)
    c = nbrs.ravel()
    pattern = sp.coo_array((np.ones(n * K), (r, c)), shape=(n, n)).tocsr()
    union = pattern.maximum(pattern.T).tocoo()
    keep = union.row < union.col
    ui, uj = union.row[keep], union.col[keep]
    d = D[ui, uj]
    w = np.exp(-(d * d) / sigma_x)
    w = np.maximum(w, TINY)  # keep (0, 1] under underflow
    W = sp.coo_array(
        (np.concatenate([w, w]), (np.concatenate([ui, uj]), np.concatenate([uj, ui]))),
        shape=(n, n),
    ).tocsr()
    return Graph(W, neighborhoods=nbrs)


def build_knn_graph(dist, K: int, sigma_x: float | None = None) -> Graph:
    """Convenience: kNN lists, auto sigma_x unless given, Gaussian weights."""
    # knn_neighborhoods validates D; a second pass would cost an n x n temporary
    D = np.ascontiguousarray(dist, dtype=np.float64)
    nbrs = knn_neighborhoods(D, K)
    if sigma_x is None:
        sigma_x = auto_sigma_x(D, nbrs)
    return gaussian_weights(D, sigma_x, nbrs)


def write_graph_triplets(graph: Graph, path):
    """Write edges as lines "i j w" with i < j, 17 significant digits."""
    W = graph.weights
    rows = graph.rows
    with open(path, "w") as fh:
        for p in graph.upper:
            fh.write(f"{rows[p]} {W.indices[p]} {W.data[p]:.17g}\n")


def read_graph_triplets(path, n: int | None = None) -> Graph:
    """Read a triplet edge list written by :func:`write_graph_triplets`."""
    from .errors import InputError

    ii, jj, ww = [], [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 3:
                raise InputError(f"{path}:{lineno}: expected 'i j w', got {line!r}")
            try:
                i, j, w = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError as exc:
                raise InputError(f"{path}:{lineno}: {exc}") from exc
            if i == j:
                raise InputError(f"{path}:{lineno}: self loop {i}")
            if not 0 < w <= 1:
                raise InputError(f"{path}:{lineno}: weight {w} outside (0, 1]")
            ii.append(i)
            jj.append(j)
            ww.append(w)
    if not ii:
        raise InputError(f"{path}: no edges")
    size = n if n is not None else max(max(ii), max(jj)) + 1
    W = sp.coo_array(
        (np.concatenate([ww, ww]), (np.concatenate([ii, jj]), np.concatenate([jj, ii]))),
        shape=(size, size),
    ).tocsr()
    # duplicate (i, j) lines would silently sum; reject them instead
    expected = 2 * len(ii)
    if W.nnz != expected:
        raise InputError(f"{path}: duplicate edges present")
    return Graph(W)
