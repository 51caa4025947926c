import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anisodiff import diffusivity as diffusivity_mod
from anisodiff import graph as graph_mod
from anisodiff.data import two_moons
from anisodiff.diffusivity import (
    VARIANTS,
    MutualSums,
    edge_sqnorms,
    gaussian_diffusivity,
    local_match_weights,
    plain_weights,
    smooth_weights,
    variant_weights,
    _min_cross_sqdist,
)
from anisodiff.errors import ParameterError, ShapeError
from anisodiff.graph import Graph, build_knn_graph, pairwise_distances
from anisodiff.laplacian import LaplacianOperator, regularizer_energy

from conftest import triangle_graph
from oracles import (
    gaussian_diffusivity_bruteforce,
    local_match_weights_bruteforce,
    min_cross_sqdist_blocked,
    mutual_structure_loop,
    random_knn_graph,
    smooth_weights_bruteforce,
    smooth_weights_directed,
)


def dense_field(graph, values):
    """Scatter per-stored-entry values into a dense matrix for oracle comparison."""
    out = np.zeros((graph.n, graph.n))
    out[graph.rows, graph.weights.indices] = values
    return out


def per_entry(graph, q):
    """A per-edge q laid out over both stored directions of every edge."""
    return q[graph.undirected_edges[2]]


class TestGaussianDiffusivity:
    def test_equal_values_give_one(self, triangle):
        f = np.tile([1.5, -2.0], (3, 1))
        q = gaussian_diffusivity(triangle, f, 0.3)
        assert np.array_equal(q, np.ones(len(triangle.upper)))

    def test_unit_weight_norm_equal_sigma(self):
        D = np.zeros((2, 2))  # w = 1 edge
        from anisodiff.graph import gaussian_weights, knn_neighborhoods

        g = gaussian_weights(D, 1.0, knn_neighborhoods(D, 1))
        sigma_f = 0.7
        f = np.array([[0.0], [sigma_f]])  # ||f(j)-f(i)||^2 = sigma_f^2
        q = gaussian_diffusivity(g, f, sigma_f)
        assert q == pytest.approx([math.exp(-1)], rel=1e-15)

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(10)
        _, g = random_knn_graph(rng, 30, 4)
        f = rng.normal(size=(30, 3))
        q = gaussian_diffusivity(g, f, 0.5)
        Q = gaussian_diffusivity_bruteforce(g.weights.toarray(), f, 0.5)
        assert np.abs(dense_field(g, per_entry(g, q)) - Q).max() < 1e-12

    def test_bounds_and_exact_symmetry(self):
        rng = np.random.default_rng(11)
        _, g = random_knn_graph(rng, 60, 6)
        for scale in (1e-3, 1.0, 1e3):
            f = scale * rng.normal(size=(60, 2))
            q = gaussian_diffusivity(g, f, 0.05)
            assert q.shape == g.upper.shape
            assert (q > 0).all() and (q <= 1).all()
            q = per_entry(g, q)
            assert np.array_equal(q[g.mirror], q)

    def test_rejects_bad_sigma(self, triangle):
        with pytest.raises(ParameterError):
            gaussian_diffusivity(triangle, np.zeros((3, 1)), 0.0)

    def test_rejects_nonfinite_f(self, triangle):
        f = np.zeros((3, 1))
        f[0] = np.nan
        with pytest.raises(ShapeError):
            gaussian_diffusivity(triangle, f, 1.0)


def test_isotropic_variant_is_the_graph_weights():
    rng = np.random.default_rng(11)
    _, g = random_knn_graph(rng, 25, 3)
    f = rng.normal(size=(25, 2))
    wd = variant_weights(g, f, 0.3, "isotropic")
    assert np.array_equal(wd.wD, g.weights.data)
    assert regularizer_energy(g, wd, f) == regularizer_energy(g, None, f)


_TAKES_F = {
    "edge_sqnorms": lambda g, f: edge_sqnorms(g, f),
    "gaussian_diffusivity": lambda g, f: gaussian_diffusivity(g, f, 0.5),
    **{
        f"variant_weights-{v}": lambda g, f, v=v: variant_weights(g, f, 0.5, v)
        for v in VARIANTS
    },
    "local_match_weights": lambda g, f: local_match_weights(g, np.ones(len(g.upper)), f, 0.5),
    "operator": lambda g, f: LaplacianOperator(g)(f),
    "operator-step": lambda g, f: LaplacianOperator(g).step(f, 0.1),
    "regularizer_energy": lambda g, f: regularizer_energy(g, None, f),
}


@pytest.mark.parametrize("call", _TAKES_F.values(), ids=_TAKES_F)
def test_f_without_columns_is_rejected(call):
    # an (n, 0) f would make every q 1 and the operator's output (n, 0)
    ds = two_moons(30, 0.1, seed=0)
    g = build_knn_graph(ds.distance_matrix, 4)
    with pytest.raises(ShapeError, match="c >= 1"):
        call(g, np.zeros((30, 0)))


class TestPlainWeights:
    def test_identity_diffusivity_recovers_isotropic(self, triangle):
        f = np.zeros((3, 2))
        q = gaussian_diffusivity(triangle, f, 1.0)
        wd = plain_weights(triangle, q)
        assert np.array_equal(wd.wD, triangle.weights.data)

    def test_elementwise_product(self):
        rng = np.random.default_rng(12)
        _, g = random_knn_graph(rng, 25, 3)
        f = rng.normal(size=(25, 2))
        q = gaussian_diffusivity(g, f, 0.4)
        wd = plain_weights(g, q)
        q = per_entry(g, q)
        for p in range(g.weights.nnz):
            assert wd.wD[p] == g.weights.data[p] * q[p]


class TestSmoothWeights:
    def test_complete_triangle_all_q_one(self):
        w0 = 0.2
        g = triangle_graph(w0, w0, w0)
        f = np.zeros((3, 1))
        q = gaussian_diffusivity(g, f, 1.0)
        wd = smooth_weights(g, q)
        assert wd.wD == pytest.approx(np.full(6, 0.5 * w0), rel=1e-15)

    def test_empty_mutual_neighborhood_falls_back_to_plain(self):
        # path 0-1-2-3 with K=1: nbrs(1)={0} or {2}, mutual sets are empty
        x = np.array([0.0, 1.0, 2.1, 3.3])
        D = np.abs(x[:, None] - x[None, :])
        from anisodiff.graph import gaussian_weights, knn_neighborhoods

        nbrs = knn_neighborhoods(D, 1)
        g = gaussian_weights(D, 2.0, nbrs)
        rng = np.random.default_rng(13)
        f = rng.normal(size=(4, 2))
        q = gaussian_diffusivity(g, f, 0.8)
        wd = smooth_weights(g, q)
        # counts are per undirected edge, in the order of g.upper
        counts = np.diff(g.mutual_structure[1])
        plain = g.weights.data * per_entry(g, q)
        empty = g.upper[counts == 0]
        assert empty.size
        assert np.array_equal(wd.wD[empty], plain[empty])
        assert np.array_equal(wd.wD[g.mirror[empty]], plain[empty])

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(14)
        _, g = random_knn_graph(rng, 40, 6)
        f = rng.normal(size=(40, 2))
        q = gaussian_diffusivity(g, f, 0.3)
        wd = smooth_weights(g, q)
        oracle = smooth_weights_bruteforce(
            g.weights.toarray(), dense_field(g, per_entry(g, q)), g.neighborhoods
        )
        assert np.abs(dense_field(g, wd.wD) - oracle).max() < 1e-12

    @pytest.mark.parametrize("K", [1, 3, 8])
    def test_bitwise_equal_to_directed_mean_random_graphs(self, K):
        rng = np.random.default_rng(70 + K)
        for n in (K + 1, 40, 150):
            _, g = random_knn_graph(rng, n, K)
            for c, sigma_f in ((1, 0.05), (2, 0.3), (3, 2.0)):
                q = gaussian_diffusivity(g, rng.normal(size=(n, c)), sigma_f)
                expected = smooth_weights_directed(g, per_entry(g, q))
                assert np.array_equal(smooth_weights(g, q).wD, expected)

    def test_bitwise_equal_to_directed_mean_duplicate_heavy(self):
        from anisodiff.graph import build_knn_graph, pairwise_distances

        rng = np.random.default_rng(63)
        X = np.round(rng.normal(size=(300, 2)), 1)
        g = build_knn_graph(pairwise_distances(X), 8)
        # few distinct rows give many exactly equal diffusivities
        for f in (rng.normal(size=(300, 2)), rng.integers(0, 2, size=(300, 2)).astype(float)):
            q = gaussian_diffusivity(g, f, 0.2)
            expected = smooth_weights_directed(g, per_entry(g, q))
            assert np.array_equal(smooth_weights(g, q).wD, expected)

    def test_reused_sums_give_the_same_field(self):
        rng = np.random.default_rng(16)
        _, g = random_knn_graph(rng, 60, 5)
        sums = MutualSums(g)
        for sigma_f in (0.3, 0.3, 1.0):
            q = gaussian_diffusivity(g, rng.normal(size=(60, 2)), sigma_f)
            assert np.array_equal(smooth_weights(g, q, sums=sums).wD, smooth_weights(g, q).wD)

    def test_exactly_symmetric_and_positive(self):
        rng = np.random.default_rng(15)
        _, g = random_knn_graph(rng, 50, 5)
        f = rng.normal(size=(50, 3))
        wd = variant_weights(g, f, 0.1, "smooth")
        assert (wd.wD > 0).all()
        assert np.array_equal(wd.wD[g.mirror], wd.wD)


@pytest.mark.parametrize("weights", [plain_weights, smooth_weights, local_match_weights])
def test_q_per_edge_only(weights):
    rng = np.random.default_rng(17)
    _, g = random_knn_graph(rng, 30, 4)
    f = rng.normal(size=(30, 2))
    q = gaussian_diffusivity(g, f, 0.5)
    args = (f, 0.5) if weights is local_match_weights else ()
    assert weights(g, q, *args).wD.shape == (g.weights.nnz,)
    # a per-stored-entry q is refused, symmetric or not: a field that read
    # only its upper entries would ignore whatever the mirror entries hold
    entry = per_entry(g, q)
    asymmetric = entry.copy()
    asymmetric[g.mirror[g.upper]] = 0.5
    for bad in (q[:-1], np.append(q, 1.0), q[:, None], entry, asymmetric):
        with pytest.raises(ShapeError):
            weights(g, bad, *args)


def test_unknown_variant_raises():
    with pytest.raises(ParameterError, match="variant must be one of .* got 'bogus'"):
        variant_weights(triangle_graph(), np.zeros((3, 1)), 0.5, "bogus")


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
@pytest.mark.parametrize("weights", [plain_weights, smooth_weights, local_match_weights])
def test_non_positive_diffusivity_raises(weights, bad):
    rng = np.random.default_rng(18)
    _, g = random_knn_graph(rng, 30, 4)
    f = rng.normal(size=(30, 2))
    q = gaussian_diffusivity(g, f, 0.5)
    args = (f, 0.5) if weights is local_match_weights else ()
    q[3] = bad
    with pytest.raises(ParameterError, match="positive"):
        weights(g, q, *args)


class TestMutualSums:
    """The CSR matvec adds the same products in the same order as bincount."""

    @staticmethod
    def _assert_matches_bincount(g, qs):
        """Sums of every q in qs against the loop oracle's directed entries,
        read at the upper edges; returns the per-edge counts."""
        edge, pos_ik, pos_kj, counts = mutual_structure_loop(g)
        counts = counts[g.upper]
        _, indptr, ik, kj = g.mutual_structure
        assert indptr.dtype == ik.dtype == kj.dtype == np.int32
        assert np.array_equal(np.diff(indptr), counts)
        for q in qs:
            qe = per_entry(g, q)
            terms = qe[pos_ik] * qe[pos_kj]
            expected = np.bincount(edge, weights=terms, minlength=g.weights.nnz)[g.upper]
            assert np.array_equal(MutualSums(g)(q), expected)
        return counts

    @pytest.mark.parametrize("K", [1, 3, 8])
    def test_random_knn_graphs(self, K):
        rng = np.random.default_rng(80 + K)
        empty = 0
        for n in (K + 1, 40, 150):
            _, g = random_knn_graph(rng, n, K)
            qs = [
                gaussian_diffusivity(g, rng.normal(size=(n, 2)), sigma_f)
                for sigma_f in (0.05, 0.5, 5.0)
            ]
            counts = self._assert_matches_bincount(g, qs)
            empty += int((counts == 0).sum())
        # edges with an empty mutual neighborhood have an empty CSR row
        assert empty > 0

    def test_duplicate_points(self):
        from anisodiff.graph import build_knn_graph, pairwise_distances

        rng = np.random.default_rng(84)
        X = np.round(rng.normal(size=(300, 2)), 1)
        g = build_knn_graph(pairwise_distances(X), 8)
        fs = (rng.normal(size=(300, 2)), rng.integers(0, 2, size=(300, 2)).astype(float))
        self._assert_matches_bincount(g, [gaussian_diffusivity(g, f, 0.2) for f in fs])


class TestLocalMatchWeights:
    def test_complete_triangle_all_q_one(self):
        w0 = 0.4
        g = triangle_graph(w0, w0, w0)
        f = np.zeros((3, 1))
        q = gaussian_diffusivity(g, f, 1.0)
        wd = local_match_weights(g, q, f, 1.0)
        assert wd.wD == pytest.approx(np.full(6, (4.0 / 3.0) * w0), rel=1e-15)

    def test_constant_f_closed_form(self):
        rng = np.random.default_rng(16)
        _, g = random_knn_graph(rng, 30, 4)
        K = 4
        f = np.tile([2.0, -1.0], (30, 1))
        q = gaussian_diffusivity(g, f, 0.7)
        wd = local_match_weights(g, q, f, 0.7)
        expected = g.weights.data * (2.0 * K / (K + 1.0))
        assert wd.wD == pytest.approx(expected, rel=1e-14)

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(17)
        _, g = random_knn_graph(rng, 40, 6)
        f = rng.normal(size=(40, 2))
        sigma_f = 0.5
        q = gaussian_diffusivity(g, f, sigma_f)
        wd = local_match_weights(g, q, f, sigma_f)
        oracle = local_match_weights_bruteforce(
            g.weights.toarray(), dense_field(g, per_entry(g, q)), g.neighborhoods, f, sigma_f
        )
        assert np.abs(dense_field(g, wd.wD) - oracle).max() < 1e-12

    @staticmethod
    def _kernel_cases():
        """(graph, K) pairs and f's for the kernel tests, the graphs new, so
        their cross pairs are built at the block size in force."""
        rng = np.random.default_rng(18)
        _, g = random_knn_graph(rng, 35, 5)
        graphs = [(g, 5)]
        for K in (1, 3, 10):
            graphs.append((random_knn_graph(np.random.default_rng(K), 35, K)[1], K))
        # duplicate points: zero distances and tied kNN lists
        X = np.repeat(np.random.default_rng(4).normal(size=(12, 2)), 3, axis=0)[:35]
        graphs.append((build_knn_graph(pairwise_distances(X), 4), 4))
        fs = [
            rng.normal(size=(35, 1)),
            rng.normal(size=(35, 3)),
            # few distinct rows: tied minima and zero cross distances
            rng.integers(0, 2, size=(35, 3)).astype(float),
        ]
        return graphs, fs

    def test_deduplicated_kernel_matches_blocked_reference(self):
        graphs, fs = self._kernel_cases()
        for (g, K), f in itertools.product(graphs, fs):
            pairs, slot_map = g.match_structure
            pair_k, pair_j = np.divmod(pairs, g.n)
            f = np.ascontiguousarray(f)
            mu = min_cross_sqdist_blocked(pair_k, pair_j, g.neighborhoods, f)
            assert np.array_equal(_min_cross_sqdist(g, f), mu)
            sigma_f = 0.4
            q = gaussian_diffusivity(g, f, sigma_f)
            qstar = np.exp(-mu / (sigma_f * sigma_f))
            boost = (K + qstar[slot_map].sum(axis=1)) / (K + 1.0)
            direct = g.weights.data * per_entry(g, q) * boost
            sym = 0.5 * (direct + direct[g.mirror])
            assert np.array_equal(local_match_weights(g, q, f, sigma_f).wD, sym)

    @pytest.mark.parametrize("rows_entries, map_entries", [(3, 7), (7, 3)])
    def test_kernel_across_block_boundaries(self, monkeypatch, rows_entries, map_entries):
        # every input above fits in one block at the module's size; these
        # sizes give blocks of 1 to 7 pairs, so many blocks and short last ones
        monkeypatch.setattr(diffusivity_mod, "_BLOCK_ENTRIES", rows_entries)
        monkeypatch.setattr(graph_mod, "_BLOCK_ENTRIES", map_entries)
        graphs, fs = self._kernel_cases()
        for (g, K), f in itertools.product(graphs, fs):
            pair_k, pair_j = np.divmod(g.match_structure[0], g.n)
            f = np.ascontiguousarray(f)
            assert len(g.cross_pairs[2]) == -(-len(pair_k) // max(1, map_entries // K))
            mu = min_cross_sqdist_blocked(pair_k, pair_j, g.neighborhoods, f)
            assert np.array_equal(_min_cross_sqdist(g, f), mu)
            i, j, _ = g.undirected_edges
            diff = np.take(f, j, axis=0)
            diff -= np.take(f, i, axis=0)
            assert np.array_equal(edge_sqnorms(g, f), np.einsum("pc,pc->p", diff, diff))

    def test_exactly_symmetric_and_positive(self):
        rng = np.random.default_rng(19)
        _, g = random_knn_graph(rng, 45, 5)
        f = rng.normal(size=(45, 2))
        wd = variant_weights(g, f, 0.08, "local_match")
        assert (wd.wD > 0).all()
        assert np.array_equal(wd.wD[g.mirror], wd.wD)

    def test_requires_knn_graph(self):
        rng = np.random.default_rng(20)
        _, g = random_knn_graph(rng, 20, 3)
        bare = Graph(g.weights)
        f = rng.normal(size=(20, 2))
        q = gaussian_diffusivity(bare, f, 0.5)
        with pytest.raises(ParameterError):
            local_match_weights(bare, q, f, 0.5)

    def test_rejects_bad_sigma(self, triangle):
        f = np.zeros((3, 1))
        q = gaussian_diffusivity(triangle, f, 1.0)
        with pytest.raises(ParameterError):
            local_match_weights(triangle, q, f, 0.0)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2**31), st.floats(min_value=0.05, max_value=2.0))
def test_all_variants_positive_symmetric_property(seed, sigma_f):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 40))
    K = int(rng.integers(2, min(n - 1, 6) + 1))
    _, g = random_knn_graph(rng, n, K)
    f = rng.normal(size=(n, int(rng.integers(1, 4))))
    for variant in ("plain", "smooth", "local_match"):
        wd = variant_weights(g, f, sigma_f, variant)
        assert (wd.wD > 0).all()
        assert np.array_equal(wd.wD[g.mirror], wd.wD)
