"""Independent brute-force reference implementations used by the tests.

Everything here works on dense matrices and explicit Python loops, never on
the package's CSR code paths, so agreement is meaningful.  The exceptions
are kept to check vectorized package code for exact equality:
``mirror_tagged_transpose`` finds each reversed entry through a sparse
transpose, ``min_cross_sqdist_blocked`` is the undeduplicated local-match kernel,
``knn_positions_loop`` and ``mutual_structure_loop`` build the cached graph
structures by per-node and per-edge loops over the CSR arrays,
``smooth_weights_directed`` evaluates the smooth field on every stored
direction and averages the pair, ``trajectory_rebuild`` runs the diffusion
loop with a fresh operator and the energy on every step,
``benchmark_rerun_errors`` reruns each selected benchmark cell on its own,
and ``grid_search_exhaustive`` scores every grid cell by its own run,
skipping none.
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


def mirror_tagged_transpose(graph):
    """Graph.mirror by transposing a CSR copy whose data tag each position."""
    import scipy.sparse as sp

    W = graph.weights
    tagged = sp.csr_array(
        (np.arange(1, W.nnz + 1, dtype=np.float64), W.indices, W.indptr),
        shape=W.shape,
    )
    T = tagged.T.tocsr()
    T.sort_indices()
    assert np.array_equal(T.indptr, W.indptr)
    assert np.array_equal(T.indices, W.indices)
    return T.data.astype(np.int64) - 1


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


def smooth_weights_directed(graph, q):
    """The smooth field on every stored (i, j), then the mean with (j, i).

    Same float operations as the per-undirected-edge package code, over the
    directed layout of :func:`mutual_structure_loop`.
    """
    edge_ids, pos_ik, pos_kj, counts = mutual_structure_loop(graph)
    s = q[knn_positions_loop(graph)].sum(axis=1)
    denom = s[graph.rows] + s[graph.weights.indices]
    tri = np.bincount(edge_ids, weights=q[pos_ik] * q[pos_kj], minlength=graph.weights.nnz)
    w = graph.weights.data
    wd = np.where(counts > 0, w * (counts * q + tri) / denom, w * q)
    return 0.5 * (wd + wd[graph.mirror])


def _edge_sqnorms_gather(graph, f):
    """||f(j) - f(i)||^2 per stored entry, gathering the endpoints anew."""
    W = graph.weights
    up = graph.upper
    diff = f[W.indices[up]] - f[graph.rows[up]]
    g2u = np.einsum("ec,ec->e", diff, diff)
    g2 = np.empty(W.nnz)
    g2[up] = g2u
    g2[graph.mirror[up]] = g2u
    return g2


def trajectory_rebuild(config, graph, state):
    """(f^T, energies) of a diffusion run, rebuilding everything per step.

    A fresh operator is built for every warm-start and Euler step, and the
    squared norms and energy are computed after every step, whether or not
    anything reads them.
    """
    from anisodiff.diffusivity import variant_weights
    from anisodiff.laplacian import LaplacianOperator

    f = np.asarray(state.f, dtype=np.float64)
    clamp_rows = np.nonzero(state.labeled_mask)[0]
    clamp_values = f[clamp_rows].copy()
    for _ in range(config.warm_start_steps):
        f = LaplacianOperator(graph).step(f, config.delta)
    recompute = config.mode == "nonlinear" and config.variant != "isotropic"
    upper = graph.upper
    energies = np.empty(config.T + 1)
    g2 = _edge_sqnorms_gather(graph, f)
    weights = variant_weights(graph, f, config.sigma_f, config.variant, sqnorms=g2[upper])
    energies[0] = float(np.einsum("e,e->", weights.wD[upper], g2[upper]))
    for t in range(1, config.T + 1):
        if t > 1 and recompute:
            weights = variant_weights(
                graph, f, config.sigma_f, config.variant, sqnorms=g2[upper]
            )
        f = LaplacianOperator(graph, weights).step(f, config.delta)
        if config.clamp_labels:
            f[clamp_rows] = clamp_values
        g2 = _edge_sqnorms_gather(graph, f)
        energies[t] = float(np.einsum("e,e->", weights.wD[upper], g2[upper]))
    return f, energies


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


# (variant, mode) of every diffusion method of the benchmark
BENCHMARK_METHODS = {
    "I": ("isotropic", "linear"),
    "A_lin": ("plain", "linear"),
    "A_nlin": ("plain", "nonlinear"),
    "A_S": ("smooth", "nonlinear"),
    "A_LM": ("local_match", "nonlinear"),
}


def benchmark_rerun_errors(dataset, report, *, delta=1.0, warm_start_steps=20):
    """Per-method test errors from a fresh run of each reported selection.

    For every row and seed the ``selected`` cell is parsed back, the model is
    rerun on its own (a ``run_diffusion`` of that K, T and sigma_f, or the
    harmonic solve at that K) and scored on the seed's test split.
    """
    from anisodiff.baselines import grf_harmonic
    from anisodiff.data import split_labels
    from anisodiff.diffusion import DiffusionConfig, decode_labels, init_labels, run_diffusion
    from anisodiff.errors import UnlabeledComponentError
    from anisodiff.graph import build_knn_graph

    y = dataset.labels
    out = {}
    for row in report.rows:
        errors = []
        for seed, cell in zip(report.seeds, row.selected):
            split = split_labels(dataset, report.train_labels, seed)
            state = init_labels(zip(split.train, y[split.train]), dataset.n, dataset.c)
            params = dict(part.split(":") for part in cell.split(";"))
            graph = build_knn_graph(dataset.distance_matrix, int(params["K"]))
            if row.method == "GRF":
                try:
                    f = grf_harmonic(graph, state)
                except UnlabeledComponentError:
                    errors.append(100.0)
                    continue
            else:
                variant, mode = BENCHMARK_METHODS[row.method]
                config = DiffusionConfig(
                    K=int(params["K"]),
                    T=int(params["T"]),
                    sigma_f=float(params["sigma_f"]),
                    delta=delta,
                    warm_start_steps=warm_start_steps,
                    variant=variant,
                    mode=mode,
                )
                f = run_diffusion(config, graph, state).f
            wrong = np.count_nonzero(decode_labels(f)[split.test] != y[split.test])
            errors.append(100.0 * wrong / len(split.test))
        out[row.method] = tuple(errors)
    return out


def grid_search_exhaustive(grid, dataset, split, *, graph_cache=None):
    """Every (K, T, sigma_f) cell scored, none skipped: (config, error, labels).

    The selection rule of ``evaluation.grid_search``: the least key
    (validation error, T, K, sigma_f), a cell whose run diverged scoring 100
    with labels None, and for the isotropic variant one column at the first
    given sigma_f.  Each cell is its own ``run_diffusion``, so the reference
    does not lean on a shorter run being a prefix of a longer one.
    """
    from dataclasses import replace

    from anisodiff.diffusion import DiffusionConfig, decode_labels, init_labels, run_diffusion
    from anisodiff.errors import DivergenceError
    from anisodiff.graph import build_knn_graph

    y = dataset.labels
    state = init_labels(zip(split.train, y[split.train]), dataset.n, dataset.c)
    graphs = {} if graph_cache is None else graph_cache
    sigmas = grid.sigma_f_values[:1] if grid.variant == "isotropic" else grid.sigma_f_values
    cells = []
    for K in map(int, grid.K_values):
        if K not in graphs:
            graphs[K] = build_knn_graph(dataset.distance_matrix, K)
        for sigma_f in map(float, sigmas):
            column = DiffusionConfig(
                K=K,
                sigma_f=sigma_f,
                delta=grid.delta,
                warm_start_steps=grid.warm_start_steps,
                variant=grid.variant,
                mode=grid.mode,
            )
            for T in map(int, grid.T_values):
                config = replace(column, T=T)
                try:
                    labels = decode_labels(run_diffusion(config, graphs[K], state).f)
                    wrong = np.count_nonzero(labels[split.validation] != y[split.validation])
                    err = 100.0 * wrong / len(split.validation)
                except DivergenceError:
                    labels, err = None, 100.0
                cells.append(((err, T, K, sigma_f), config, labels))
    (err, *_), config, labels = min(cells, key=lambda cell: cell[0])
    return config, err, labels
