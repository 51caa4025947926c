import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from anisodiff.errors import (
    DegenerateDataError,
    NonEdgeError,
    ParameterError,
)
from anisodiff.graph import (
    Graph,
    auto_sigma_x,
    build_knn_graph,
    gaussian_weights,
    knn_neighborhoods,
    pairwise_distances,
    read_graph_triplets,
    validate_distances,
    write_graph_triplets,
)

from oracles import (
    knn_bruteforce,
    knn_positions_loop,
    mutual_structure_loop,
    random_knn_graph,
    sigma_x_bruteforce,
)


def dist_from_points(x):
    x = np.asarray(x, dtype=float)
    return np.abs(x[:, None] - x[None, :])


class TestKnnNeighborhoods:
    def test_three_collinear_points(self):
        D = dist_from_points([0.0, 1.0, 3.0])
        nbrs = knn_neighborhoods(D, 1)
        assert nbrs.tolist() == [[1], [0], [1]]

    def test_k_equals_n_minus_one_is_exhaustive(self):
        rng = np.random.default_rng(0)
        D = pairwise_distances(rng.normal(size=(7, 3)))
        nbrs = knn_neighborhoods(D, 6)
        for i in range(7):
            assert sorted(nbrs[i]) == [j for j in range(7) if j != i]

    def test_excludes_self_and_has_exactly_k(self):
        rng = np.random.default_rng(1)
        D = pairwise_distances(rng.normal(size=(30, 2)))
        nbrs = knn_neighborhoods(D, 5)
        assert nbrs.shape == (30, 5)
        for i in range(30):
            assert i not in nbrs[i]
            assert len(set(nbrs[i])) == 5

    def test_matches_bruteforce_on_random_points(self):
        rng = np.random.default_rng(2)
        D = pairwise_distances(rng.normal(size=(50, 3)))
        assert np.array_equal(knn_neighborhoods(D, 5), knn_bruteforce(D, 5))

    def test_matches_bruteforce_at_n200(self):
        rng = np.random.default_rng(99)
        D = pairwise_distances(rng.normal(size=(200, 2)))
        for K in (1, 7, 199):
            assert np.array_equal(knn_neighborhoods(D, K), knn_bruteforce(D, K))

    def test_sorted_by_distance_ties_by_index(self):
        # three points at equal distance 1 from point 0
        D = np.zeros((4, 4))
        for j in (1, 2, 3):
            D[0, j] = D[j, 0] = 1.0
        D[1, 2] = D[2, 1] = 0.5
        D[1, 3] = D[3, 1] = 0.7
        D[2, 3] = D[3, 2] = 0.9
        nbrs = knn_neighborhoods(D, 3)
        assert nbrs[0].tolist() == [1, 2, 3]

    def test_duplicate_points_around_self(self):
        # node 3 has three zero-distance duplicates of lower index, more than
        # K = 2, so it sorts after its whole kNN list
        rng = np.random.default_rng(3)
        X = rng.normal(size=(12, 2))
        X[[1, 2, 3, 5]] = X[0]
        X[9] = X[4]
        D = pairwise_distances(X)
        for K in (1, 2, 3, 4, 11):
            assert np.array_equal(knn_neighborhoods(D, K), knn_bruteforce(D, K))

    @pytest.mark.parametrize("K", [0, -1, 5])
    def test_k_out_of_range(self, K):
        D = dist_from_points([0.0, 1.0, 3.0, 6.0, 7.0])
        with pytest.raises(ParameterError):
            knn_neighborhoods(D, K)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=3, max_value=40),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_bruteforce_oracle_property(self, n, seed):
        rng = np.random.default_rng(seed)
        D = pairwise_distances(rng.normal(size=(n, 2)))
        K = int(rng.integers(1, n))
        assert np.array_equal(knn_neighborhoods(D, K), knn_bruteforce(D, K))


class TestAutoSigmaX:
    def test_all_distances_two(self):
        # square of side 2 on a line: craft distances where each kNN list
        # sees only distance-2 neighbors
        D = np.array(
            [
                [0.0, 2.0, 9.0, 9.0],
                [2.0, 0.0, 9.0, 9.0],
                [9.0, 9.0, 0.0, 2.0],
                [9.0, 9.0, 2.0, 0.0],
            ]
        )
        nbrs = knn_neighborhoods(D, 1)
        assert auto_sigma_x(D, nbrs) == pytest.approx(4.0, abs=0)

    def test_single_edge_half_distance(self):
        D = dist_from_points([0.0, 0.5])
        nbrs = knn_neighborhoods(D, 1)
        assert auto_sigma_x(D, nbrs) == pytest.approx(0.25, abs=0)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(3)
        D = pairwise_distances(rng.normal(size=(100, 4)))
        nbrs = knn_neighborhoods(D, 5)
        assert auto_sigma_x(D, nbrs) == pytest.approx(
            sigma_x_bruteforce(D, nbrs), rel=1e-12
        )

    def test_degenerate_all_zero(self):
        D = np.zeros((3, 3))
        nbrs = knn_neighborhoods(D, 1)
        with pytest.raises(DegenerateDataError):
            auto_sigma_x(D, nbrs)


class TestGaussianWeights:
    def test_distance_squared_equal_sigma(self):
        D = dist_from_points([0.0, 2.0])
        nbrs = knn_neighborhoods(D, 1)
        g = gaussian_weights(D, 4.0, nbrs)
        assert g.edge_weight(0, 1) == pytest.approx(math.exp(-1), rel=1e-15)

    def test_duplicate_points_weight_one(self):
        D = np.zeros((3, 3))
        D[0, 2] = D[2, 0] = 1.0
        D[1, 2] = D[2, 1] = 1.0
        nbrs = knn_neighborhoods(D, 1)
        g = gaussian_weights(D, 1.0, nbrs)
        assert g.edge_weight(0, 1) == 1.0

    def test_triangle_degrees(self, triangle):
        assert np.allclose(triangle.degrees, [0.7, 0.8, 0.5], atol=1e-15)

    def test_weights_in_unit_interval_exactly_one_iff_zero_distance(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(40, 2))
        X[7] = X[21]  # a duplicate pair
        D = pairwise_distances(X)
        nbrs = knn_neighborhoods(D, 4)
        g = gaussian_weights(D, auto_sigma_x(D, nbrs), nbrs)
        w = g.weights.data
        assert ((w > 0) & (w <= 1)).all()
        rows = g.rows
        cols = g.weights.indices
        ones = w == 1.0
        assert np.array_equal(D[rows[ones], cols[ones]], np.zeros(ones.sum()))
        assert (D[rows[~ones], cols[~ones]] > 0).all()

    def test_symmetric_lookup(self):
        rng = np.random.default_rng(5)
        _, g = random_knn_graph(rng, 40, 5)
        for i, j in zip(g.rows[:50], g.weights.indices[:50]):
            assert g.edge_weight(int(j), int(i)) == g.edge_weight(int(i), int(j))

    def test_degree_consistency_random_graphs(self):
        rng = np.random.default_rng(6)
        for n in (50, 200, 500):
            _, g = random_knn_graph(rng, n, 7)
            W = g.weights.toarray()
            assert np.abs(W.sum(axis=1) - g.degrees).max() < 1e-12

    def test_bad_sigma(self):
        D = dist_from_points([0.0, 1.0])
        nbrs = knn_neighborhoods(D, 1)
        with pytest.raises(ParameterError):
            gaussian_weights(D, 0.0, nbrs)


class TestGraphValidation:
    def test_rejects_asymmetric_values(self):
        W = np.array([[0.0, 0.5, 0.0], [0.4, 0.0, 0.3], [0.0, 0.3, 0.0]])
        with pytest.raises(ParameterError):
            Graph(sp.csr_array(W))

    def test_rejects_self_loops(self):
        W = np.array([[0.2, 0.5], [0.5, 0.0]])
        with pytest.raises(ParameterError):
            Graph(sp.csr_array(W))

    def test_rejects_out_of_range_weights(self):
        W = np.array([[0.0, 1.5], [1.5, 0.0]])
        with pytest.raises(ParameterError):
            Graph(sp.csr_array(W))

    def test_mirror_permutation(self, triangle):
        data = triangle.weights.data
        mirrored = data[triangle.mirror]
        assert np.array_equal(mirrored, data)
        rows, cols = triangle.rows, triangle.weights.indices
        assert np.array_equal(rows[triangle.mirror], cols)

    def test_cross_pairs_map_every_slot_to_its_unordered_pair(self):
        rng = np.random.default_rng(4)
        _, g = random_knn_graph(rng, 40, 5)
        pair_k, pair_j, _ = g.match_structure
        cross_a, cross_b, cross_map = g.cross_pairs
        keys = list(zip(cross_a.tolist(), cross_b.tolist()))
        assert keys == sorted(set(keys))
        assert cross_map.shape == (5, len(pair_k))
        for p in range(len(pair_k)):
            k = int(pair_k[p])
            for b, l in enumerate(g.neighborhoods[pair_j[p]].tolist()):
                assert keys[cross_map[b, p]] == (min(k, l), max(k, l))
        assert set(cross_map.ravel().tolist()) == set(range(len(keys)))


class TestStructuresMatchLoopReferences:
    @staticmethod
    def _assert_matches(g):
        pairs = [(g.knn_positions, knn_positions_loop(g))]
        pairs += zip(g.mutual_structure, mutual_structure_loop(g))
        for got, ref in pairs:
            assert np.array_equal(got, ref)
            assert got.dtype == np.int64 and got.flags.c_contiguous

    @pytest.mark.parametrize("K", [1, 3, 8])
    def test_random_knn_graphs(self, K):
        rng = np.random.default_rng(60 + K)
        for n in (K + 1, 40, 150):
            _, g = random_knn_graph(rng, n, K)
            self._assert_matches(g)

    def test_duplicate_heavy_points(self):
        X = np.round(np.random.default_rng(63).normal(size=(300, 2)), 1)
        g = build_knn_graph(pairwise_distances(X), 8)
        self._assert_matches(g)

    def test_graph_without_neighborhoods_raises(self, triangle):
        g = Graph(triangle.weights)
        with pytest.raises(ParameterError):
            g.knn_positions
        with pytest.raises(ParameterError):
            g.mutual_structure

    def test_knn_list_off_the_graph_raises(self):
        # path 0 - 1 - 2; node 2 claims node 0 as its neighbor
        W = sp.csr_array(np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float))
        g = Graph(W, neighborhoods=[[1], [0], [0]])
        with pytest.raises(ParameterError, match="node 2"):
            g.knn_positions


class TestEdgePosition:
    def test_quarter_edge_weight(self):
        # craft a graph with w = 0.25: exp(-d^2/sigma) = 0.25
        d = math.sqrt(-math.log(0.25))
        D = dist_from_points([0.0, d])
        nbrs = knn_neighborhoods(D, 1)
        g = gaussian_weights(D, 1.0, nbrs)
        assert g.edge_weight(0, 1) == pytest.approx(0.25, rel=1e-15)

    def test_non_edge_raises(self, triangle):
        with pytest.raises(NonEdgeError):
            triangle.edge_position(0, 0)
        rng = np.random.default_rng(7)
        _, g = random_knn_graph(rng, 20, 2)
        dense = g.weights.toarray()
        zeros = np.argwhere(dense == 0)
        i, j = next((i, j) for i, j in zeros if i != j)
        with pytest.raises(NonEdgeError):
            g.edge_position(int(i), int(j))


class TestTripletRoundTrip:
    def test_round_trip_identical(self, tmp_path):
        rng = np.random.default_rng(8)
        _, g = random_knn_graph(rng, 30, 4)
        path = tmp_path / "graph.txt"
        write_graph_triplets(g, path)
        g2 = read_graph_triplets(path, n=30)
        assert np.array_equal(g2.weights.indptr, g.weights.indptr)
        assert np.array_equal(g2.weights.indices, g.weights.indices)
        assert np.array_equal(g2.weights.data, g.weights.data)

    def test_upper_triangle_format(self, tmp_path):
        rng = np.random.default_rng(9)
        _, g = random_knn_graph(rng, 10, 2)
        path = tmp_path / "graph.txt"
        write_graph_triplets(g, path)
        for line in path.read_text().splitlines():
            i, j, w = line.split()
            assert int(i) < int(j)
            assert 0 < float(w) <= 1


class TestValidateDistances:
    def test_rejects_asymmetric(self):
        D = np.array([[0.0, 1.0], [1.1, 0.0]])
        with pytest.raises(ParameterError):
            validate_distances(D)

    def test_rejects_nonzero_diagonal(self):
        D = np.array([[0.1, 1.0], [1.0, 0.0]])
        with pytest.raises(ParameterError):
            validate_distances(D)

    def test_rejects_negative(self):
        D = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(ParameterError):
            validate_distances(D)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_build_knn_graph_every_node_has_an_edge(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 60))
    K = int(rng.integers(1, min(n - 1, 8) + 1))
    _, g = random_knn_graph(rng, n, K)
    assert (np.diff(g.weights.indptr) >= 1).all()
    assert (g.degrees > 0).all()
