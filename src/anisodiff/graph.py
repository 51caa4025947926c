"""kNN similarity graphs: neighborhoods, Gaussian weights, degrees.

The graph is the symmetric union of the K-nearest-neighbor relations, with
Gaussian edge weights and per-node degrees d_i = sum_j w_ij.  Everything
downstream (diffusivities, Laplacians, diffusion) operates on the CSR
structure built here.
"""

from __future__ import annotations

import operator
import os
import queue
import warnings
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.spatial.distance import cdist

from .errors import DegenerateDataError, ParameterError

# Smallest positive normal float; weights and diffusivities are floored here
# so they stay strictly positive even when the Gaussian underflows.
TINY = float(np.finfo(np.float64).tiny)

DISTANCE_SYMMETRY_TOL = 1e-12

# pairwise_distances and knn_neighborhoods work on blocks of this many rows,
# and the distance checks compare strips of this many rows with their
# mirror, so each thread's temporaries are a few (rows, n) arrays rather
# than n x n
_BLOCK_ROWS = 128
_SYMMETRY_STRIP_ROWS = 64

# the local-match kernel and the edge gradients work on blocks of index pairs
# whose temporaries, (pairs, c) row gathers or a (K, pairs) slice of the cross
# map and its distances, hold about this many 8-byte entries (512 KB), so
# they stay in a core's L2 cache
_BLOCK_ENTRIES = 1 << 16


class ConnectivityWarning(UserWarning):
    """The graph has isolated nodes or more than one connected component."""


def usable_cpus() -> int:
    """CPUs this process may run on: the graph build's threads and the
    processes ``benchmark`` runs in."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _split_rows(work, n: int, block_rows: int) -> list:
    """Run ``work(blocks)`` in one thread per usable CPU, the calling one included.

    Every thread's ``blocks`` pulls the row blocks [start, stop) of n rows
    from one shared queue until it meets one of the stop marks queued
    behind them, one per thread, so a thread slowed by other load takes
    fewer blocks.  Returns each thread's result, the calling thread's
    first.  Every thread is joined before this returns, and an exception
    raised in any thread is raised here.  ``work`` must make only large
    numpy or scipy calls, which release the GIL, and call no function of
    this package.
    """
    # imported here, so the package's import does not load it
    from concurrent.futures import ThreadPoolExecutor

    starts = range(0, n, block_rows)
    threads = max(1, min(usable_cpus(), len(starts)))
    todo = queue.SimpleQueue()
    for start in starts:
        todo.put((start, min(start + block_rows, n)))
    for _ in range(threads):
        todo.put(None)
    # leaving the with block joins the pool's threads
    with ThreadPoolExecutor(max(1, threads - 1)) as pool:
        futures = [pool.submit(work, iter(todo.get, None)) for _ in range(threads - 1)]
        first = work(iter(todo.get, None))
    return [first] + [future.result() for future in futures]


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
    lo, asym = _scan_distances(D)
    # two entries >= 0 differ by a finite amount unless one of them is +inf
    if not np.isfinite(lo) or (lo >= 0 and not np.isfinite(asym)):
        raise ParameterError("distance matrix contains non-finite entries")
    if lo < 0:
        raise ParameterError("distance matrix contains negative entries")
    if np.abs(np.diagonal(D)).max() > 0:
        raise ParameterError("distance matrix diagonal must be zero")
    if asym > DISTANCE_SYMMETRY_TOL:
        raise ParameterError(
            f"distance matrix asymmetric by {asym:.3e} "
            f"(tolerance {DISTANCE_SYMMETRY_TOL:.0e}); symmetrize it first"
        )
    return D


def _scan_distances(D):
    """(min D, max |D - D^T|) of a square float64 array.

    A NaN makes the minimum NaN, and as every entry meets its mirror, an
    infinity makes the asymmetry inf or NaN.  Each strip of rows is compared
    with its mirror from the diagonal on, in one strip buffer per thread, so
    no n x n temporary is made; neither value depends on that order.
    """
    n = D.shape[0]

    def work(strips):
        buf = np.empty((n, _SYMMETRY_STRIP_ROWS))
        lo, asym = np.inf, 0.0
        for a, b in strips:
            # np.minimum propagates NaN, so no n x n boolean mask is needed
            lo = np.minimum(lo, D[a:b].min())
            # the strip's columns against its rows: the strided operand's
            # inner loop then spans the strip's rows, which stay in cache.
            # inf - inf is NaN, and entries of opposite signs may overflow
            with np.errstate(invalid="ignore", over="ignore"):
                diff = np.subtract(D[a:, a:b], D[a:b, a:].T, out=buf[: n - a, : b - a])
            asym = np.maximum(asym, np.abs(diff, out=diff).max())
        return lo, asym

    lo, asym = zip(*_split_rows(work, n, _SYMMETRY_STRIP_ROWS))
    return np.minimum.reduce(lo), float(np.maximum.reduce(asym))


def validate_neighborhoods(neighborhoods, n: int) -> np.ndarray:
    """Check (n, K) kNN index lists: K >= 1, every entry in [0, n), and no
    list naming its own node or any node twice."""
    try:
        nbrs = np.asarray(neighborhoods)
    except ValueError:
        raise ParameterError("kNN lists must be an (n, K) array") from None
    # a cast to int64 would silently truncate fractional entries
    if not np.issubdtype(nbrs.dtype, np.integer):
        raise ParameterError(f"kNN lists must hold integer indices, got {nbrs.dtype}")
    nbrs = nbrs.astype(np.int64, copy=False)
    if nbrs.ndim != 2 or nbrs.shape[0] != n:
        raise ParameterError(f"kNN lists must have shape (n, K) with n={n}, got {nbrs.shape}")
    if nbrs.shape[1] < 1:
        raise ParameterError("kNN lists must hold K >= 1 neighbors per node")
    if ((nbrs < 0) | (nbrs >= n)).any():
        raise ParameterError(f"kNN list entries must lie in [0, {n})")
    if (nbrs == np.arange(n)[:, None]).any():
        raise ParameterError("kNN lists must not name their own node")
    # a sort of each row puts a repeated entry next to itself
    if (np.diff(np.sort(nbrs, axis=1), axis=1) == 0).any():
        raise ParameterError("kNN lists must not name a node twice")
    return nbrs


def pairwise_distances(features) -> np.ndarray:
    """Euclidean distance matrix of an n x d feature array."""
    X = validate_features(features)
    D = np.empty((len(X), len(X)))

    def work(blocks):
        for a, b in blocks:
            cdist(X[a:b], X, out=D[a:b])

    _split_rows(work, len(X), _BLOCK_ROWS)
    return D


class Graph:
    """Symmetric weighted graph in CSR form.

    Weights lie in (0, 1], there are no self loops, and w_ij == w_ji exactly.
    ``neighborhoods`` holds the (n, K) kNN index lists when the graph was
    built from kNN construction; a graph made as ``Graph(W)`` carries None
    and cannot drive the neighborhood-context diffusivities.  ``components``
    holds the connected-component label of every node.

    Instances are treated as immutable and may be shared across threads.
    """

    def __init__(self, weights, neighborhoods=None):
        W = sp.csr_array(weights, dtype=np.float64)
        if W.shape[0] != W.shape[1]:
            raise ParameterError(f"adjacency must be square, got {W.shape}")
        W.sort_indices()
        self.weights = W
        self.n = W.shape[0]
        self.neighborhoods = None if neighborhoods is None else validate_neighborhoods(
            neighborhoods, self.n
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
        self.num_components, self.components = connected_components(W, directed=False)
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
        # sorted indices leave only a repeated entry to break the strict
        # ascent that every key lookup relies on
        if not (np.diff(self._keys) > 0).all():
            raise ParameterError("graph stores an entry more than once")
        mirrored = data[self.mirror]
        if not np.array_equal(mirrored, data):
            raise ParameterError("edge weights must be exactly symmetric")

    @cached_property
    def rows(self) -> np.ndarray:
        """Row index of every stored CSR entry (parallel to ``weights.data``)."""
        return np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.weights.indptr))

    @cached_property
    def _keys(self) -> np.ndarray:
        """Row-major key i * n + j of every stored entry, strictly ascending."""
        return self.rows * self.n + self.weights.indices

    def _positions(self, i, j):
        """CSR positions of the entries (i, j), broadcast over i and j.

        Returns (pos, found).  Where ``found`` is False there is no such
        entry, and ``pos`` is some valid position that must not be read.
        """
        keys = self._keys
        want = np.asarray(i, dtype=np.int64) * self.n + j
        pos = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
        return pos, keys[pos] == want

    @cached_property
    def mirror(self) -> np.ndarray:
        """Permutation p with data[p][k] = value stored for the reversed edge.

        Raises if the sparsity pattern itself is asymmetric.
        """
        # sorting the transposed keys j * n + i lists, for each position of
        # the keys, the entry that transposes to it; p is an involution, so
        # that inverse permutation is p itself.  _validate has checked that
        # the keys are distinct, so every sort gives this one permutation.
        transposed = self.weights.indices * self.n + self.rows
        pos = np.argsort(transposed)
        if not np.array_equal(transposed[pos], self._keys):
            raise ParameterError("graph sparsity pattern is not symmetric")
        return pos

    @cached_property
    def upper(self) -> np.ndarray:
        """Positions of the stored entries with column > row (each edge once)."""
        return np.nonzero(self.weights.indices > self.rows)[0]

    @cached_property
    def undirected_edges(self):
        """Per-edge index arrays for fields computed once per undirected edge.

        Returns (i, j, edge_of): the endpoints i < j of every edge in the
        order of :attr:`upper`, and for every stored CSR entry the index of
        its edge, so ``a[edge_of]`` lays a per-edge array out over both
        stored directions.
        """
        up = self.upper
        edge_of = np.empty(self.weights.nnz, dtype=np.int64)
        edge_of[up] = edge_of[self.mirror[up]] = np.arange(len(up))
        return self.rows[up], self.weights.indices[up], edge_of

    @cached_property
    def edge_weights(self) -> np.ndarray:
        """w_ij of every undirected edge in the order of :attr:`upper` (read-only)."""
        w = self.weights.data[self.upper]
        w.flags.writeable = False
        return w

    @cached_property
    def knn_positions(self) -> np.ndarray:
        """(n, K) CSR positions of the edges (i, neighborhoods[i, a])."""
        if self.neighborhoods is None:
            raise ParameterError("graph was not built from kNN neighborhoods")
        nbrs = self.neighborhoods
        pos, found = self._positions(np.arange(len(nbrs))[:, None], nbrs)
        if not found.all():
            i = int(np.argwhere(~found)[0, 0])
            raise ParameterError(f"kNN list of node {i} not found in graph")
        return pos

    @cached_property
    def mutual_structure(self):
        """Index arrays of the smooth field, in edge ids of :attr:`undirected_edges`.

        Returns (knn, indptr, ik, kj).  ``knn`` is the (n, K) edge ids of the
        kNN edges (i, neighborhoods[i, a]) in list order.  ``indptr`` and
        ``ik`` are an int32 CSR pattern with one row per edge e = (i, j)
        listing, in ascending k, the edge ids of (i, k) over the k in
        N_K(i) & N_K(j), so ``np.diff(indptr)`` is |N_K(i) & N_K(j)|; ``kj``
        holds the edge ids of (j, k) for the same entries.  With data
        ``q[kj]`` the pattern's matvec against q sums q_ik q_kj per edge.
        """
        cols = self.weights.indices
        ei, ej, edge_of = self.undirected_edges
        # each kNN list in CSR order, i.e. by ascending k
        kpos = np.sort(self.knn_positions, axis=1)
        in_knn = np.zeros(len(cols), dtype=bool)
        in_knn[kpos] = True
        # is k in N_K(j), for every edge (i, j) and every k in N_K(i)?  Then
        # (j, k) is a stored entry, and pos is its CSR position
        pos, found = self._positions(ej[:, None], cols[kpos][ei])
        hit = found & in_knn[pos]
        idx = np.int32 if hit.size < 2**31 else np.int64
        indptr = np.zeros(len(hit) + 1, dtype=idx)
        np.cumsum(np.count_nonzero(hit, axis=1), out=indptr[1:])
        # a 2-D boolean mask reads its entries row by row, so by edge, then k
        return (
            edge_of[self.knn_positions],
            indptr,
            edge_of[kpos].astype(idx)[ei][hit],
            edge_of[pos[hit]].astype(idx),
        )

    @cached_property
    def match_structure(self):
        """Deduplicated (k, j) pairs behind the local-match diffusivity.

        Every directed edge (i, j) needs, for each k in N_K(i), the best
        cross-pair diffusivity against N_K(j); that value depends on (k, j)
        only, so it is computed once per distinct pair.  Returns
        (pairs, slot_map): the ascending keys k * n + j of the distinct
        pairs, and slot_map[p, a], the index into ``pairs`` for edge position
        p and neighbor slot a.
        """
        if self.neighborhoods is None:
            raise ParameterError("graph was not built from kNN neighborhoods")
        keys = self.neighborhoods[self.rows]
        keys *= self.n
        keys += self.weights.indices[:, None]
        pairs, inverse = np.unique(keys, return_inverse=True)
        return pairs, inverse.reshape(keys.shape)

    @cached_property
    def cross_pairs(self):
        """Deduplicated cross pairs {k, l} behind the local-match kernel.

        Match pair p = (k, j) of :attr:`match_structure` needs the distance
        from k to every l in N_K(j).  These (k, l) repeat heavily across
        pairs, and the distance does not depend on their order, so each
        unordered pair is stored once.  Returns (cross_a, cross_b, cross_map)
        with cross_a <= cross_b and cross_map a tuple of C-contiguous (K, B)
        int64 blocks over consecutive match pairs, B = _BLOCK_ENTRIES // K
        but in the last block.  Joined by ``np.concatenate(cross_map,
        axis=1)``, entry [b, p] is the index of the pair
        {k, neighborhoods[j, b]} for pairs[p] = k * n + j.  A block's gather
        of cross distances stays in cache, and its min over b runs along the
        outer axis, which reduces fastest.

        Built on the first local-match evaluation, not with match_structure,
        so graph set-up does not pay for it.
        """
        pairs, _ = self.match_structure
        pair_k, pair_j = np.divmod(pairs, self.n)
        P, K = len(pairs), self.neighborhoods.shape[1]
        B = max(1, _BLOCK_ENTRIES // K)
        blocks = [slice(s, min(s + B, P)) for s in range(0, P, B)]
        # the keys are laid out block after block, so the blocks of cross_map
        # are views of the one buffer that the inverse fills
        key = np.empty(K * P, dtype=np.int64)
        for b in blocks:
            k, l = pair_k[b], self.neighborhoods[pair_j[b]].T
            key[K * b.start : K * b.stop] = (np.minimum(k, l) * self.n + np.maximum(k, l)).ravel()
        # np.unique(key, return_inverse=True) by hand, freeing temporaries as
        # it goes: np.unique holds about twice as many at once, which at
        # n = 1500 raised a local-match run's peak RSS by 15%
        order = np.argsort(key)
        key = key[order]
        first = np.empty(key.size, dtype=bool)
        first[0] = True
        np.not_equal(key[1:], key[:-1], out=first[1:])
        uniq = key[first]
        del key
        rank = np.cumsum(first)
        rank -= 1
        cross_map = np.empty_like(rank)
        cross_map[order] = rank
        return (
            uniq // self.n,
            uniq % self.n,
            tuple(cross_map[K * b.start : K * b.stop].reshape(K, -1) for b in blocks),
        )


def knn_neighborhoods(dist, K: int) -> np.ndarray:
    """(n, K) nearest-neighbor index lists, self excluded.

    Lists are sorted by ascending distance; ties break by ascending index.
    The result equals a stable full sort of every row, but each row costs a
    partial selection unless a tie straddles its cutoff.
    """
    D = validate_distances(dist)
    n = D.shape[0]
    try:
        K = operator.index(K)
    except TypeError:
        raise ParameterError(f"K must be an integer, got {K!r}") from None
    if not 1 <= K <= n - 1:
        raise ParameterError(f"K must satisfy 1 <= K <= n-1 = {n - 1}, got {K}")
    # the K + 1 smallest entries of each row; they are the first K + 1 of a
    # stable sort unless more entries share the cutoff distance, the (K+1)-th
    # smallest, and such tied rows take the stable sort itself
    cand = np.empty((n, K + 1), dtype=np.int64)

    def select(blocks):
        for a, b in blocks:
            part = np.argpartition(D[a:b], K, axis=1)
            cand[a:b] = part[:, : K + 1]
            cutoff = np.take_along_axis(D[a:b], part[:, K : K + 1], axis=1)
            del part  # before the next block's, so a thread holds one at a time
            ties = a + np.flatnonzero(np.count_nonzero(D[a:b] <= cutoff, axis=1) > K + 1)
            cand[ties] = np.argsort(D[ties], axis=1, kind="stable")[:, : K + 1]

    _split_rows(select, n, _BLOCK_ROWS)
    # self last, then by (distance, index): the order an infinite diagonal
    # gives; self is a candidate unless over K duplicates precede it
    keys = (cand, np.take_along_axis(D, cand, axis=1), cand == np.arange(n)[:, None])
    return np.take_along_axis(cand, np.lexsort(keys, axis=1)[:, :K], axis=1)


def _distances_and_lists(dist, neighborhoods):
    """D, checked to be (n, n) by shape alone, and the kNN lists checked for n."""
    D = np.asarray(dist, dtype=np.float64)
    if D.ndim != 2 or D.shape[0] != D.shape[1]:
        raise ParameterError(f"distance matrix must be square, got shape {D.shape}")
    return D, validate_neighborhoods(neighborhoods, len(D))


def auto_sigma_x(dist, neighborhoods) -> float:
    """Squared mean distance of every point to its kNN list.

    The Gaussian weight divides the squared distance by this scale, so the
    exponent is O(1) at typical neighbor range.
    """
    D, nbrs = _distances_and_lists(dist, neighborhoods)
    mean = float(np.take_along_axis(D, nbrs, axis=1).mean())
    if mean == 0.0:
        raise DegenerateDataError("all neighbor distances are zero")
    return mean * mean


def gaussian_weights(dist, sigma_x: float, neighborhoods) -> Graph:
    """Graph with w_jk = exp(-dist(j,k)^2 / sigma_x) on the kNN union.

    An edge (j, k) exists when j is in the kNN list of k or vice versa.
    Both directions of a pair read D at (min, max), so symmetry is exact.
    """
    # an infinite scale makes every weight 1, an unweighted kNN graph
    if not 0 < sigma_x < np.inf:
        raise ParameterError(f"sigma_x must be positive and finite, got {sigma_x}")
    D, nbrs = _distances_and_lists(dist, neighborhoods)
    n, K = nbrs.shape
    # the union pattern P + P^T of the lists in one CSR
    P = sp.csr_array((np.ones(n * K), nbrs.ravel(), np.arange(0, n * K + 1, K)), shape=(n, n))
    W = P + P.T
    i, j = np.repeat(np.arange(n), np.diff(W.indptr)), W.indices
    d = D[np.minimum(i, j), np.maximum(i, j)]
    W.data = np.maximum(np.exp(-(d * d) / sigma_x), TINY)  # keep (0, 1] under underflow
    return Graph(W, neighborhoods=nbrs)


def build_knn_graph(dist, K: int) -> Graph:
    """Gaussian weights at :func:`auto_sigma_x` on the kNN lists of ``dist``."""
    # knn_neighborhoods validates D; a second pass would only repeat its scans
    D = np.ascontiguousarray(dist, dtype=np.float64)
    nbrs = knn_neighborhoods(D, K)
    return gaussian_weights(D, auto_sigma_x(D, nbrs), nbrs)
