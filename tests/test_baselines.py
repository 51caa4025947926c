import pickle

import numpy as np
import pytest
import scipy.sparse as sp

from anisodiff.baselines import grf_harmonic
from anisodiff.diffusion import decode_labels, init_labels
from anisodiff.errors import (
    DegenerateDataError,
    DivergenceError,
    InputError,
    ParameterError,
    ShapeError,
    UnlabeledComponentError,
)
from anisodiff.graph import Graph

from oracles import harmonic_bruteforce, random_knn_graph


def path_graph(n=3):
    W = np.zeros((n, n))
    for i in range(n - 1):
        W[i, i + 1] = W[i + 1, i] = 1.0
    return Graph(sp.csr_array(W))


class TestGrfHarmonic:
    def test_path_midpoint(self):
        g = path_graph(3)
        state = init_labels([(0, 0), (2, 1)], 3, 2)
        sol = grf_harmonic(g, state)
        assert abs(sol[1, 0] - 0.5) <= 1e-12
        assert abs(sol[1, 1] - 0.5) <= 1e-12
        # labeled rows pass through untouched
        assert sol[0].tolist() == [1.0, 0.0]
        assert sol[2].tolist() == [0.0, 1.0]

    def test_all_labeled_identity(self):
        g = path_graph(4)
        state = init_labels([(i, i % 2) for i in range(4)], 4, 2)
        sol = grf_harmonic(g, state)
        assert np.array_equal(sol, state.f)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(60)
        _, g = random_knn_graph(rng, 40, 5)
        labels = [(int(i), int(rng.integers(0, 3))) for i in rng.choice(40, 8, replace=False)]
        state = init_labels(labels, 40, 3)
        sol = grf_harmonic(g, state)
        ref = harmonic_bruteforce(g.weights.toarray(), state.f, state.labeled_mask)
        assert np.abs(sol - ref).max() < 1e-8

    def test_larger_system_matches_dense(self):
        rng = np.random.default_rng(61)
        _, g = random_knn_graph(rng, 260, 6)
        labels = [(int(i), int(i % 2)) for i in rng.choice(260, 10, replace=False)]
        state = init_labels(labels, 260, 2)
        sol = grf_harmonic(g, state)
        ref = harmonic_bruteforce(g.weights.toarray(), state.f, state.labeled_mask)
        assert np.abs(sol - ref).max() < 1e-7

    def test_ten_class_blobs_match_dense_oracle(self):
        from anisodiff.data import gaussian_blobs, split_labels
        from anisodiff.graph import build_knn_graph

        ds = gaussian_blobs(300, 10, 4.0, 5, seed=3)
        g = build_knn_graph(ds.distance_matrix, 10)
        assert g.num_components == 1
        split = split_labels(ds, 30, seed=0)
        state = init_labels(zip(split.train, ds.labels[split.train]), ds.n, ds.c)
        sol = grf_harmonic(g, state)
        ref = harmonic_bruteforce(g.weights.toarray(), state.f, state.labeled_mask)
        assert np.abs(sol - ref).max() < 1e-10

    def test_maximum_principle(self):
        rng = np.random.default_rng(62)
        for _ in range(10):
            n = int(rng.integers(15, 45))
            _, g = random_knn_graph(rng, n, 4)
            k = int(rng.integers(2, 6))
            labels = [
                (int(i), int(rng.integers(0, 2)))
                for i in rng.choice(n, k, replace=False)
            ]
            state = init_labels(labels, n, 2)
            sol = grf_harmonic(g, state)
            unl = ~state.labeled_mask
            for col in range(2):
                lab_vals = state.f[state.labeled_mask, col]
                assert sol[unl, col].min() >= lab_vals.min() - 1e-8
                assert sol[unl, col].max() <= lab_vals.max() + 1e-8

    def test_harmonicity_at_unlabeled_nodes(self):
        rng = np.random.default_rng(63)
        _, g = random_knn_graph(rng, 30, 4)
        labels = [(0, 0), (7, 1), (19, 0)]
        state = init_labels(labels, 30, 2)
        sol = grf_harmonic(g, state)
        W = g.weights.toarray()
        for i in range(30):
            if state.labeled_mask[i]:
                continue
            avg = (W[i] @ sol) / W[i].sum()
            assert np.abs(sol[i] - avg).max() < 1e-8

    def test_unlabeled_component_error_lists_nodes(self):
        # two disjoint edges; only one side labeled
        W = np.zeros((4, 4))
        W[0, 1] = W[1, 0] = 1.0
        W[2, 3] = W[3, 2] = 1.0
        with pytest.warns(UserWarning):
            g = Graph(sp.csr_array(W))
        state = init_labels([(0, 0)], 4, 2)
        with pytest.raises(UnlabeledComponentError) as exc:
            grf_harmonic(g, state)
        assert set(exc.value.component_nodes) == {2, 3}

    def test_error_names_lowest_unlabeled_component(self):
        # components {0, 1}, {2, 3, 4} and {5, 6}; only the last one labeled
        W = np.zeros((7, 7))
        for i, j in ((0, 1), (2, 3), (3, 4), (5, 6)):
            W[i, j] = W[j, i] = 1.0
        with pytest.warns(UserWarning):
            g = Graph(sp.csr_array(W))
        state = init_labels([(6, 1)], 7, 2)
        with pytest.raises(UnlabeledComponentError) as exc:
            grf_harmonic(g, state)
        assert exc.value.component_nodes == [0, 1]
        state = init_labels([(1, 0), (6, 1)], 7, 2)
        with pytest.raises(UnlabeledComponentError) as exc:
            grf_harmonic(g, state)
        assert exc.value.component_nodes == [2, 3, 4]

    def test_unlabeled_component_error_survives_pickling(self):
        # an exception crosses a process boundary pickled
        error = UnlabeledComponentError(range(56))
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is UnlabeledComponentError
        assert copy.component_nodes == list(range(56))
        assert str(copy) == str(error)

    @pytest.mark.parametrize(
        "error_type",
        [ParameterError, DegenerateDataError, ShapeError, InputError, DivergenceError],
    )
    def test_library_errors_survive_pickling(self, error_type):
        error = error_type("K=3 does not match the graph's K=5")
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is error_type
        assert str(copy) == str(error)

    def test_decode_on_separated_clusters(self):
        from anisodiff.data import gaussian_blobs
        from anisodiff.graph import build_knn_graph

        ds = gaussian_blobs(60, 3, 12.0, 2, seed=4)
        g = build_knn_graph(ds.distance_matrix, 5)
        first = [int(np.nonzero(ds.labels == c)[0][0]) for c in range(3)]
        state = init_labels([(i, int(ds.labels[i])) for i in first], 60, 3)
        sol = grf_harmonic(g, state)
        assert np.array_equal(decode_labels(sol), ds.labels)
