import contextlib
import math
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from anisodiff import graph as graph_mod
from anisodiff.data import write_graph_triplets
from anisodiff.errors import (
    DegenerateDataError,
    ParameterError,
)
from anisodiff.graph import (
    DISTANCE_SYMMETRY_TOL,
    Graph,
    auto_sigma_x,
    build_knn_graph,
    gaussian_weights,
    knn_neighborhoods,
    pairwise_distances,
    validate_distances,
    validate_features,
)

from oracles import (
    knn_bruteforce,
    knn_positions_loop,
    mirror_tagged_transpose,
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

    @pytest.mark.parametrize("K", [2.5, "3", None, np.float64(2.0)])
    def test_k_not_an_integer(self, K):
        D = dist_from_points([0.0, 1.0, 3.0, 6.0, 7.0])
        with pytest.raises(ParameterError, match="K must be an integer"):
            knn_neighborhoods(D, K)

    def test_numpy_integer_k(self):
        D = dist_from_points([0.0, 1.0, 3.0, 6.0, 7.0])
        assert np.array_equal(knn_neighborhoods(D, np.int64(2)), knn_bruteforce(D, 2))

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


class TestKnnAcrossBlocks:
    """Inputs with more rows than one selection block, ties everywhere."""

    @staticmethod
    def check(D, Ks):
        n = D.shape[0]
        full = knn_bruteforce(D, n - 1)  # each K's lists are a prefix of these
        for K in Ks:
            assert np.array_equal(knn_neighborhoods(D, K), full[:, :K]), K

    def test_integer_grid_every_row_tied(self):
        # 700 points on a 3 x 3 grid: about 78 duplicates per cell, so every
        # row has a tie at its cutoff and more than K duplicates around self
        i = np.arange(700)
        D = pairwise_distances(np.stack([i % 3, (i // 3) % 3], axis=1))
        self.check(D, (1, 5, 30, 699))

    def test_rounded_normal_duplicates(self):
        X = np.round(np.random.default_rng(7).normal(size=(650, 2)), 1)
        D = pairwise_distances(X)
        self.check(D, (1, 4, 10, 25, 649))

    def test_all_identical_points(self):
        D = np.zeros((600, 600))
        self.check(D, (1, 9, 599))

    def test_distinct_points(self):
        D = pairwise_distances(np.random.default_rng(8).normal(size=(600, 3)))
        self.check(D, (1, 10, 300, 599))


@pytest.mark.parametrize("K, bound", [(10, 0.25), (200, 1.6)])
def test_build_knn_graph_memory_is_below_the_distance_matrix(K, bound):
    # graph set-up may keep a few row blocks, never an n x n temporary, and
    # otherwise arrays that grow with the n * K kNN entries: at K = 200 the
    # union holds up to 2nK = 0.2 n^2 entries, each read through a few
    # index arrays; tracemalloc sees numpy's allocations
    D = pairwise_distances(np.random.default_rng(0).normal(size=(2000, 2)))
    tracemalloc.start()
    try:
        build_knn_graph(D, K)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * D.nbytes


@contextlib.contextmanager
def threads(count):
    """Run the graph build's row blocks over ``count`` threads."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph_mod, "usable_cpus", lambda: count)
        yield


THREAD_COUNTS = (1, 2, 3)


def _grid_points():
    i = np.arange(700)
    return np.stack([i % 3, (i // 3) % 3], axis=1).astype(float)


class TestThreadCountInvariance:
    """One thread or several: the same bytes, the same errors.

    The inputs are TestKnnAcrossBlocks's tie-heavy ones, with more rows than
    one block per thread.
    """

    # points, the K of each kNN list, the K of the graph (None where every
    # neighbor distance is 0, which has no Gaussian scale)
    INPUTS = {
        "grid": (_grid_points, (1, 5, 30, 699), 699),
        "rounded_normals": (
            lambda: np.round(np.random.default_rng(7).normal(size=(650, 2)), 1),
            (1, 4, 10, 25, 649),
            10,
        ),
        "identical": (lambda: np.zeros((600, 2)), (1, 9, 599), None),
    }

    @pytest.mark.parametrize("name", sorted(INPUTS))
    def test_distances_lists_and_graph(self, name):
        points, Ks, graph_K = self.INPUTS[name]
        X = points()
        runs = []
        for count in THREAD_COUNTS:
            with threads(count):
                D = pairwise_distances(X)
                lists = [knn_neighborhoods(D, K) for K in Ks]
                csr = ()
                if graph_K is not None:
                    W = build_knn_graph(D, graph_K).weights
                    csr = (W.indptr, W.indices, W.data)
                runs.append((D, lists, csr))
        D1, lists1, csr1 = runs[0]
        for D, lists, csr in runs[1:]:
            assert np.array_equal(D, D1)
            for got, want in zip(lists, lists1):
                assert np.array_equal(got, want)
            for got, want in zip(csr, csr1):
                assert np.array_equal(got, want)

    # n = 350 makes 6 strips of 64 rows, shared out among the threads; the
    # defects sit in the last one, rows 340 and 345
    @pytest.mark.parametrize(
        "defect, message",
        [
            ("nan", "non-finite"),
            ("inf", "non-finite"),
            ("-inf", "non-finite"),
            ("negative", "negative"),
            ("diagonal", "diagonal must be zero"),
            ("asymmetric", r"asymmetric by 2\.500e-01"),
        ],
    )
    def test_validate_distances_raises_the_same_message(self, defect, message):
        D = pairwise_distances(np.random.default_rng(9).normal(size=(350, 2)))
        if defect in ("nan", "inf", "-inf"):
            D[345, 340] = float(defect)
        elif defect == "negative":
            D[345, 340] = D[340, 345] = -1.0
        elif defect == "diagonal":
            D[345, 345] = 0.5
        else:
            D[340, 345] += 0.25
        messages = []
        for count in THREAD_COUNTS:
            with threads(count), pytest.raises(ParameterError, match=message) as err:
                validate_distances(D)
            messages.append(str(err.value))
        assert len(set(messages)) == 1, messages


class TestSplitRows:
    @pytest.mark.parametrize("count", THREAD_COUNTS)
    @pytest.mark.parametrize("n, block_rows", [(1000, 128), (130, 64), (100, 64)])
    def test_every_block_reaches_exactly_one_thread(self, count, n, block_rows):
        def work(blocks):
            return threading.current_thread(), list(blocks)

        with threads(count):
            results = graph_mod._split_rows(work, n, block_rows)
        starts = range(0, n, block_rows)
        # one call per CPU, but never more calls than blocks
        assert len(results) == min(count, len(starts))
        assert results[0][0] is threading.current_thread()
        got = sorted(block for _, blocks in results for block in blocks)
        assert got == [(a, min(a + block_rows, n)) for a in starts]


class TestNoThreadOutlivesACall:
    def test_builds_and_a_failed_check(self):
        X = np.random.default_rng(10).normal(size=(350, 2))
        with threads(3):
            before = threading.active_count()
            D = pairwise_distances(X)
            assert threading.active_count() == before
            build_knn_graph(D, 5)
            assert threading.active_count() == before
            D[345, 340] = np.nan
            with pytest.raises(ParameterError, match="non-finite"):
                validate_distances(D)
            assert threading.active_count() == before

    def test_a_worker_exception_reaches_the_caller(self):
        caller = threading.current_thread()

        def work(blocks):
            if threading.current_thread() is not caller:
                raise ValueError("worker")
            return sum(1 for _ in blocks)

        before = threading.active_count()
        with threads(3), pytest.raises(ValueError, match="worker"):
            graph_mod._split_rows(work, 7, 1)
        assert threading.active_count() == before


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
        assert g.weights[0, 1] == pytest.approx(math.exp(-1), rel=1e-15)

    def test_duplicate_points_weight_one(self):
        D = np.zeros((3, 3))
        D[0, 2] = D[2, 0] = 1.0
        D[1, 2] = D[2, 1] = 1.0
        nbrs = knn_neighborhoods(D, 1)
        g = gaussian_weights(D, 1.0, nbrs)
        assert g.weights[0, 1] == 1.0

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
            assert g.weights[j, i] == g.weights[i, j]

    def test_degree_consistency_random_graphs(self):
        rng = np.random.default_rng(6)
        for n in (50, 200, 500):
            _, g = random_knn_graph(rng, n, 7)
            W = g.weights.toarray()
            assert np.abs(W.sum(axis=1) - g.degrees).max() < 1e-12

    def test_both_directions_read_the_upper_entry(self):
        # D[j, i] differs from D[i, j] on a kNN pair, within the tolerance:
        # both stored directions take the weight of D[min, max], bitwise
        D = pairwise_distances(np.random.default_rng(12).normal(size=(50, 2)))
        nbrs = knn_neighborhoods(D, 4)
        i, j = sorted((7, int(nbrs[7, 0])))
        D[j, i] = D[i, j] + 5e-13
        validate_distances(D)  # asymmetric within the tolerance
        assert D[j, i] != D[i, j]
        sigma = auto_sigma_x(D, nbrs)
        g = gaussian_weights(D, sigma, nbrs)
        d = D[[i, j], [j, i]]
        upper, lower = np.maximum(np.exp(-(d * d) / sigma), graph_mod.TINY)
        assert upper != lower
        assert g.weights[i, j] == g.weights[j, i] == upper

    def test_a_listed_self_is_rejected(self):
        # node 0's list names node 0: it would add no edge, and the graph's
        # kNN positions could not find it
        D = dist_from_points([0.0, 1.0, 2.0, 3.0])
        with pytest.raises(ParameterError, match="own node"):
            gaussian_weights(D, 1.0, [[0], [0], [1], [2]])

    def test_bad_sigma(self):
        D = dist_from_points([0.0, 1.0])
        nbrs = knn_neighborhoods(D, 1)
        with pytest.raises(ParameterError):
            gaussian_weights(D, 0.0, nbrs)

    @pytest.mark.parametrize("sigma_x", [np.inf, np.nan])
    def test_sigma_must_be_finite(self, sigma_x):
        # an infinite scale would make every weight 1, an unweighted kNN graph
        D = dist_from_points([0.0, 1.0, 3.0])
        with pytest.raises(ParameterError, match="sigma_x must be positive and finite"):
            gaussian_weights(D, sigma_x, knn_neighborhoods(D, 1))


class TestGraphValidation:
    @pytest.mark.parametrize(
        "weights, message",
        [
            (np.ones((2, 3)), r"adjacency must be square, got \(2, 3\)"),
            (np.zeros((3, 3)), "graph has no edges"),
            (np.array([[0.0, np.nan], [np.nan, 0.0]]), "edge weights must be finite"),
        ],
        ids=["non-square", "empty", "nan-weight"],
    )
    def test_rejects_defect(self, weights, message):
        with pytest.raises(ParameterError, match=message):
            Graph(sp.csr_array(weights))

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

    def test_rejects_one_sided_entry(self):
        W = sp.csr_array(([0.5], [1], [0, 1, 1]), shape=(2, 2))
        with pytest.raises(ParameterError, match="not symmetric"):
            Graph(W)

    def test_rejects_duplicate_entry(self):
        # (0, 1) stored twice: degrees 1.0 and 0.5, though each stored value
        # has a stored mirror of the same value
        W = sp.csr_array(([0.5, 0.5, 0.5], [1, 1, 0], [0, 2, 3]), shape=(2, 2))
        with pytest.raises(ParameterError):
            Graph(W)

    def test_mirror_matches_tagged_transpose(self):
        rng = np.random.default_rng(9)
        for n, K in ((12, 1), (40, 5), (150, 8)):
            _, g = random_knn_graph(rng, n, K)
            assert np.array_equal(g.mirror, mirror_tagged_transpose(g))
        # an edge list: random pairs, no kNN structure, two isolated nodes
        i, j = np.triu_indices(48, 1)
        pick = rng.choice(len(i), 150, replace=False)
        W = sp.csr_array((rng.uniform(0.1, 1.0, 150), (i[pick], j[pick])), shape=(50, 50))
        with pytest.warns(UserWarning, match="isolated"):
            g = Graph(W + W.T)
        assert g.neighborhoods is None
        assert np.array_equal(g.mirror, mirror_tagged_transpose(g))

    def test_components_match_scipy(self):
        from scipy.sparse.csgraph import connected_components

        far = [[50.0, 50.0], [50.5, 50.0]]
        X = np.concatenate([np.random.default_rng(10).normal(size=(30, 2)), far])
        with pytest.warns(UserWarning, match="connected components"):
            g = build_knn_graph(pairwise_distances(X), 1)
        count, labels = connected_components(g.weights, directed=False)
        assert g.num_components == count > 1
        assert np.array_equal(g.components, labels)

    def test_mirror_permutation(self, triangle):
        data = triangle.weights.data
        mirrored = data[triangle.mirror]
        assert np.array_equal(mirrored, data)
        rows, cols = triangle.rows, triangle.weights.indices
        assert np.array_equal(rows[triangle.mirror], cols)

    def test_undirected_edges_cover_both_directions(self):
        rng = np.random.default_rng(3)
        _, g = random_knn_graph(rng, 40, 5)
        i, j, edge_of = g.undirected_edges
        assert (i < j).all() and len(i) == g.weights.nnz // 2
        pairs = set(zip(g.rows.tolist(), g.weights.indices.tolist()))
        for p, e in enumerate(edge_of.tolist()):
            r, c = int(g.rows[p]), int(g.weights.indices[p])
            assert (min(r, c), max(r, c)) == (i[e], j[e])
        assert pairs == set(zip(i.tolist(), j.tolist())) | set(zip(j.tolist(), i.tolist()))

    def test_cross_pairs_map_every_slot_to_its_unordered_pair(self, monkeypatch):
        # the module's block size (one block here), then blocks of 1 and 2
        # pairs at K = 5; P = 525 is odd, so the last block of 2 is short
        for entries in (graph_mod._BLOCK_ENTRIES, 7, 12):
            monkeypatch.setattr(graph_mod, "_BLOCK_ENTRIES", entries)
            _, g = random_knn_graph(np.random.default_rng(4), 40, 5)
            pairs, _ = g.match_structure
            pair_k, pair_j = np.divmod(pairs, g.n)
            cross_a, cross_b, cross_map = g.cross_pairs
            keys = list(zip(cross_a.tolist(), cross_b.tolist()))
            assert keys == sorted(set(keys))
            width = max(1, entries // 5)
            assert len(cross_map) == -(-len(pairs) // width)
            for block in cross_map:
                assert block.dtype == np.int64 and block.flags.c_contiguous
                assert block.shape[0] == 5 and 1 <= block.shape[1] <= width
            joined = np.concatenate(cross_map, axis=1)
            assert joined.shape == (5, len(pair_k))
            for p in range(len(pair_k)):
                k = int(pair_k[p])
                for b, l in enumerate(g.neighborhoods[pair_j[p]].tolist()):
                    assert keys[joined[b, p]] == (min(k, l), max(k, l))
            assert set(joined.ravel().tolist()) == set(range(len(keys)))


class TestStructuresMatchLoopReferences:
    @staticmethod
    def _smooth_pattern(g):
        """(knn, indptr, ik, kj) from the loop references: the entries of the
        upper edges, in ascending position, with positions mapped to edge ids."""
        edge, pos_ik, pos_kj, counts = mutual_structure_loop(g)
        _, _, edge_of = g.undirected_edges
        keep = g.rows[edge] < g.weights.indices[edge]
        indptr = np.concatenate([[0], np.cumsum(counts[g.upper])])
        return (
            edge_of[knn_positions_loop(g)],
            indptr,
            edge_of[pos_ik[keep]],
            edge_of[pos_kj[keep]],
        )

    def _assert_matches(self, g):
        knn, *pattern = g.mutual_structure
        ref_knn, *ref_pattern = self._smooth_pattern(g)
        pairs = [(g.knn_positions, knn_positions_loop(g), np.int64), (knn, ref_knn, np.int64)]
        pairs += [(got, ref, np.int32) for got, ref in zip(pattern, ref_pattern)]
        for got, ref, dtype in pairs:
            assert np.array_equal(got, ref)
            assert got.dtype == dtype and got.flags.c_contiguous

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


class TestNeighborhoodValidation:
    """kNN lists are checked where they enter the package: ``Graph``,
    ``auto_sigma_x`` and ``gaussian_weights`` all raise ParameterError."""

    BAD_LISTS = {
        # on the path below, the key 2 * 4 - 1 of (2, -1) is the key of the
        # stored entry (1, 3), and auto_sigma_x would read column n - 2
        "negative_entry": [[1], [2], [-2], [2]],
        "entry_minus_one": [[1], [2], [-1], [2]],
        "entry_past_n": [[1], [2], [4], [2]],
        # accepted by a graph, which then failed in its first smooth run
        "too_few_rows": [[1], [2]],
        "one_dimensional": [1, 2, 1, 2],
        "no_neighbors": np.empty((4, 0), dtype=np.int64),
        "ragged": [[1], [2, 3], [1], [2]],
        "fractional": [[1.5], [2.0], [1.0], [2.0]],
        # node 0 lists itself; node 0 lists node 1 twice
        "names_itself": [[0], [0], [1], [2]],
        "repeated_entry": [[1, 1], [0, 2], [1, 3], [2, 1]],
    }

    @pytest.mark.parametrize("case", sorted(BAD_LISTS))
    @pytest.mark.parametrize("entry", ["graph", "auto_sigma_x", "gaussian_weights"])
    def test_every_entry_point_rejects_every_defect(self, entry, case):
        nbrs = self.BAD_LISTS[case]
        D = dist_from_points([0.0, 1.0, 2.0, 3.0])
        # path 0 - 1 - 2 - 3 plus the edge (1, 3)
        A = np.zeros((4, 4))
        for i, j in ((0, 1), (1, 2), (2, 3), (1, 3)):
            A[i, j] = A[j, i] = 0.5
        with pytest.raises(ParameterError):
            if entry == "graph":
                Graph(sp.csr_array(A), neighborhoods=nbrs)
            elif entry == "auto_sigma_x":
                auto_sigma_x(D, nbrs)
            else:
                gaussian_weights(D, 1.0, nbrs)

    @pytest.mark.parametrize("shape", [(4, 2), (3, 4), (4,)])
    @pytest.mark.parametrize("entry", ["auto_sigma_x", "gaussian_weights"])
    def test_distances_must_be_n_by_n_for_the_lists(self, entry, shape):
        # valid lists for n = 4; a 4 x 2 D used to fail with a bare IndexError
        nbrs = [[3], [2], [1], [0]]
        D = np.ones(shape)
        with pytest.raises(ParameterError, match="square"):
            if entry == "auto_sigma_x":
                auto_sigma_x(D, nbrs)
            else:
                gaussian_weights(D, 1.0, nbrs)


class TestEdgePosition:
    def test_quarter_edge_weight(self):
        # craft a graph with w = 0.25: exp(-d^2/sigma) = 0.25
        d = math.sqrt(-math.log(0.25))
        D = dist_from_points([0.0, d])
        nbrs = knn_neighborhoods(D, 1)
        g = gaussian_weights(D, 1.0, nbrs)
        assert g.weights[0, 1] == pytest.approx(0.25, rel=1e-15)

    def test_matches_dense_lookup_for_every_pair(self):
        _, g = random_knn_graph(np.random.default_rng(11), 25, 3)
        stored = zip(g.rows.tolist(), g.weights.indices.tolist())
        position = {pair: p for p, pair in enumerate(stored)}
        i, j = np.meshgrid(np.arange(g.n), np.arange(g.n), indexing="ij")
        pos, found = g._positions(i, j)
        for a, b in zip(i.ravel().tolist(), j.ravel().tolist()):
            assert found[a, b] == ((a, b) in position)
            if found[a, b]:
                assert pos[a, b] == position[a, b]


class TestTripletExport:
    def test_upper_triangle_format(self, tmp_path):
        rng = np.random.default_rng(9)
        _, g = random_knn_graph(rng, 10, 2)
        path = tmp_path / "graph.txt"
        write_graph_triplets(g, path)
        for line in path.read_text().splitlines():
            i, j, w = line.split()
            assert int(i) < int(j)
            assert 0 < float(w) <= 1


@pytest.mark.parametrize(
    "features, message",
    [
        (np.zeros(4), r"features must be 2-D, got shape \(4,\)"),
        (np.zeros((1, 2)), r"need n >= 2 points and d >= 1 columns, got \(1, 2\)"),
        (np.zeros((3, 0)), r"need n >= 2 points and d >= 1 columns, got \(3, 0\)"),
        (np.array([[0.0, 1.0], [np.inf, 0.0]]), "features contain non-finite entries"),
    ],
    ids=["1-D", "one-point", "no-columns", "inf"],
)
def test_validate_features_rejects(features, message):
    with pytest.raises(ParameterError, match=message):
        validate_features(features)


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        D = np.array([[0.0, 1.0], [1.0, 0.0]])
        D[0, 1] = bad
        with pytest.raises(ParameterError, match="non-finite"):
            validate_distances(D)

    @pytest.mark.parametrize("shape", [(3, 4), (4,), (2, 2, 2)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(ParameterError, match="must be square"):
            validate_distances(np.zeros(shape))

    def test_asymmetry_in_one_far_tile(self):
        D = pairwise_distances(np.random.default_rng(4).normal(size=(700, 2)))
        D[450, 600] = 1.5
        D[600, 450] = 1.75
        with pytest.raises(
            ParameterError, match=r"asymmetric by 2\.500e-01 \(tolerance 1e-12\)"
        ):
            validate_distances(D)

    def test_asymmetry_at_tolerance_accepted(self):
        D = pairwise_distances(np.random.default_rng(5).normal(size=(300, 2)))
        D[20, 280] = DISTANCE_SYMMETRY_TOL
        D[280, 20] = 0.0
        validate_distances(D)
        D[20, 280] = np.nextafter(DISTANCE_SYMMETRY_TOL, 1.0)
        with pytest.raises(ParameterError, match="asymmetric"):
            validate_distances(D)

    @pytest.mark.parametrize(
        "entries, message",
        [
            ({(0, 2): np.inf}, "non-finite"),
            ({(2, 2): np.inf}, "non-finite"),
            ({(0, 2): np.inf, (2, 0): np.inf}, "non-finite"),
            # finite, but their difference overflows to inf
            ({(0, 2): 1e308, (2, 0): -1e308}, "negative"),
            ({(0, 2): np.inf, (1, 2): -1.0, (2, 1): -1.0}, "negative"),
        ],
        ids=["lone-inf", "inf-diagonal", "inf-pair", "overflowing-pair", "inf-and-negative"],
    )
    def test_error_precedence(self, entries, message):
        D = dist_from_points([0.0, 1.0, 3.0])
        for ij, value in entries.items():
            D[ij] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning before the error
            with pytest.raises(ParameterError, match=message):
                validate_distances(D)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_reported_before_negative(self, bad):
        D = pairwise_distances(np.random.default_rng(6).normal(size=(700, 2)))
        D[690, 5] = bad
        D[1, 2] = -1.0
        with pytest.raises(ParameterError, match="non-finite"):
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
