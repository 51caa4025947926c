"""Independent brute-force reference implementations used by the tests.

Everything here works on dense matrices and explicit Python loops, never on
the package's CSR code paths, so agreement is meaningful.  The exceptions
are kept to check vectorized package code for exact equality:
``min_cross_sqdist_blocked`` is the undeduplicated local-match kernel, and
``knn_positions_loop`` and ``mutual_structure_loop`` build the cached graph
structures by per-node and per-edge loops over the CSR arrays.
"""

import math

import numpy as np


def knn_bruteforce(D, K):
    """Full sort of every distance row; ties by ascending index."""
    n = D.shape[0]
    out = []
    for i in range(n):
        others = [j for j in range(n) if j != i]
        others.sort(key=lambda j: (D[i, j], j))
        out.append(others[:K])
    return np.asarray(out)


def sigma_x_bruteforce(D, nbrs):
    total, count = 0.0, 0
    for j in range(len(nbrs)):
        for k in nbrs[j]:
            total += D[j, k]
            count += 1
    mean = total / count
    return mean * mean


def dense_weight_matrix(graph):
    return graph.weights.toarray()


def dense_isotropic_apply(W, d, f):
    n = W.shape[0]
    out = np.zeros_like(f, dtype=float)
    for i in range(n):
        acc = np.zeros(f.shape[1])
        for j in range(n):
            acc += W[j, i] * f[j]
        out[i] = f[i] - acc / d[i]
    return out


def dense_anisotropic_apply(WD, d, f):
    n = WD.shape[0]
    out = np.zeros_like(f, dtype=float)
    for i in range(n):
        s = 0.0
        acc = np.zeros(f.shape[1])
        for j in range(n):
            s += WD[i, j]
            acc += WD[i, j] * f[j]
        out[i] = (s * f[i] - acc) / d[i]
    return out


def dense_energy(WD, f):
    n = WD.shape[0]
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            diff = f[i] - f[j]
            total += WD[i, j] * float(diff @ diff)
    return total


def gaussian_diffusivity_bruteforce(W, f, sigma_f):
    """Per-edge scalar loop: edge gradient norm, then the Gaussian."""
    n = W.shape[0]
    Q = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if W[i, j] > 0:
                grad2 = W[i, j] * float(((f[j] - f[i]) ** 2).sum())
                Q[i, j] = math.exp(-grad2 / sigma_f**2)
    return Q


def smooth_weights_bruteforce(W, Q, nbrs):
    """Triple loop over i, j, k with mutual-neighborhood averaging."""
    n = W.shape[0]
    K = nbrs.shape[1]
    s = np.zeros(n)
    for i in range(n):
        for k in nbrs[i]:
            s[i] += Q[i, k]
    WD = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if W[i, j] <= 0:
                continue
            common = sorted(set(nbrs[i]) & set(nbrs[j]))
            if not common:
                WD[i, j] = W[i, j] * Q[i, j]
                continue
            total = 0.0
            for k in common:
                total += W[i, j] * (Q[i, j] + Q[i, k] * Q[k, j]) / (s[i] + s[j])
            WD[i, j] = total
    return 0.5 * (WD + WD.T)


def local_match_weights_bruteforce(W, Q, nbrs, f, sigma_f):
    """Triple loop with the cross-pair max over the other endpoint's kNN."""
    n = W.shape[0]
    K = nbrs.shape[1]
    WD = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if W[i, j] <= 0:
                continue
            total = 0.0
            for k in nbrs[i]:
                best = -np.inf
                for l in nbrs[j]:
                    qt = math.exp(-float(((f[k] - f[l]) ** 2).sum()) / sigma_f**2)
                    if qt > best:
                        best = qt
                total += 1.0 + best
            WD[i, j] = W[i, j] * Q[i, j] * total / (K + 1.0)
    return 0.5 * (WD + WD.T)


def min_cross_sqdist_blocked(pair_k, pair_j, nbrs, f):
    """min over l in nbrs[j] of ||f(k) - f(l)||^2 for every (k, j) pair.

    The local-match kernel as it was first written: one evaluation per
    (k, j, slot), no deduplication, blocked to bound the (block, K, c)
    temporaries.  Its float operations are the ones the package's kernel
    must reproduce bit for bit.
    """
    P = pair_k.shape[0]
    out = np.empty(P)
    block = 8192
    for start in range(0, P, block):
        sl = slice(start, min(start + block, P))
        diff = f[pair_k[sl], None, :] - f[nbrs[pair_j[sl]]]
        out[sl] = np.einsum("pkc,pkc->pk", diff, diff).min(axis=1)
    return out


def knn_positions_loop(graph):
    """(n, K) CSR positions of the kNN edges, one row search per node."""
    W = graph.weights
    nbrs = graph.neighborhoods
    pos = np.empty_like(nbrs)
    for i in range(graph.n):
        lo, hi = W.indptr[i], W.indptr[i + 1]
        row = W.indices[lo:hi]
        loc = np.searchsorted(row, nbrs[i])
        assert (loc < hi - lo).all() and (row[loc] == nbrs[i]).all()
        pos[i] = lo + loc
    return pos


def mutual_structure_loop(graph):
    """(edge, pos_ik, pos_kj, counts) by set intersection per stored edge."""
    nbrs = graph.neighborhoods
    kpos = knn_positions_loop(graph)
    rank = [dict(zip(nbrs[i].tolist(), range(nbrs.shape[1]))) for i in range(graph.n)]
    nbr_sets = [set(nbrs[i].tolist()) for i in range(graph.n)]
    W = graph.weights
    edge_ids, pos_ik, pos_kj = [], [], []
    counts = np.zeros(W.nnz, dtype=np.int64)
    for p in range(W.nnz):
        i = int(graph.rows[p])
        j = int(W.indices[p])
        common = sorted(nbr_sets[i] & nbr_sets[j])
        counts[p] = len(common)
        for k in common:
            edge_ids.append(p)
            pos_ik.append(kpos[i, rank[i][k]])
            pos_kj.append(kpos[j, rank[j][k]])
    return (
        np.asarray(edge_ids, dtype=np.int64),
        np.asarray(pos_ik, dtype=np.int64),
        np.asarray(pos_kj, dtype=np.int64),
        counts,
    )


def harmonic_bruteforce(W, f0, mask):
    """Dense blocked solve of the harmonic system, labeled rows fixed."""
    n = W.shape[0]
    d = W.sum(axis=1)
    L = np.diag(d) - W
    u = np.nonzero(~mask)[0]
    l = np.nonzero(mask)[0]
    A = L[np.ix_(u, u)]
    B = W[np.ix_(u, l)]
    fu = np.linalg.solve(A, B @ f0[l])
    out = f0.copy()
    out[u] = fu
    return out


def random_knn_graph(rng, n, K, d=2):
    """Random points -> (distances, neighborhoods, Graph) via the package."""
    from anisodiff.graph import build_knn_graph, pairwise_distances

    X = rng.normal(size=(n, d))
    D = pairwise_distances(X)
    graph = build_knn_graph(D, K)
    return D, graph
