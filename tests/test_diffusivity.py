import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anisodiff.diffusivity import (
    AnisotropicWeights,
    gaussian_diffusivity,
    local_match_weights,
    plain_weights,
    smooth_weights,
    symmetrize,
    variant_weights,
    _min_cross_sqdist,
)
from anisodiff.errors import ParameterError, ShapeError

from conftest import triangle_graph
from oracles import (
    gaussian_diffusivity_bruteforce,
    local_match_weights_bruteforce,
    min_cross_sqdist_blocked,
    random_knn_graph,
    smooth_weights_bruteforce,
)


def dense_field(graph, values):
    """Scatter per-edge values into a dense matrix for oracle comparison."""
    out = np.zeros((graph.n, graph.n))
    out[graph.rows, graph.weights.indices] = values
    return out


class TestGaussianDiffusivity:
    def test_equal_values_give_one(self, triangle):
        f = np.tile([1.5, -2.0], (3, 1))
        field = gaussian_diffusivity(triangle, f, 0.3)
        assert np.array_equal(field.q, np.ones(triangle.weights.nnz))

    def test_unit_weight_norm_equal_sigma(self):
        D = np.zeros((2, 2))  # w = 1 edge
        from anisodiff.graph import gaussian_weights, knn_neighborhoods

        g = gaussian_weights(D, 1.0, knn_neighborhoods(D, 1))
        sigma_f = 0.7
        f = np.array([[0.0], [sigma_f]])  # ||f(j)-f(i)||^2 = sigma_f^2
        field = gaussian_diffusivity(g, f, sigma_f)
        assert field.q == pytest.approx([math.exp(-1)] * 2, rel=1e-15)

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(10)
        _, g = random_knn_graph(rng, 30, 4)
        f = rng.normal(size=(30, 3))
        field = gaussian_diffusivity(g, f, 0.5)
        Q = gaussian_diffusivity_bruteforce(g.weights.toarray(), f, 0.5)
        assert np.abs(dense_field(g, field.q) - Q).max() < 1e-12

    def test_bounds_and_exact_symmetry(self):
        rng = np.random.default_rng(11)
        _, g = random_knn_graph(rng, 60, 6)
        for scale in (1e-3, 1.0, 1e3):
            f = scale * rng.normal(size=(60, 2))
            field = gaussian_diffusivity(g, f, 0.05)
            assert (field.q > 0).all() and (field.q <= 1).all()
            assert np.array_equal(field.q[g.mirror], field.q)

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
    wd = variant_weights(g, rng.normal(size=(25, 2)), 0.3, "isotropic")
    assert np.array_equal(wd.wD, g.weights.data)
    assert wd.variant == "isotropic"


class TestPlainWeights:
    def test_identity_diffusivity_recovers_isotropic(self, triangle):
        f = np.zeros((3, 2))
        field = gaussian_diffusivity(triangle, f, 1.0)
        wd = plain_weights(triangle, field)
        assert np.array_equal(wd.wD, triangle.weights.data)

    def test_elementwise_product(self):
        rng = np.random.default_rng(12)
        _, g = random_knn_graph(rng, 25, 3)
        f = rng.normal(size=(25, 2))
        field = gaussian_diffusivity(g, f, 0.4)
        wd = plain_weights(g, field)
        for p in range(g.weights.nnz):
            assert wd.wD[p] == g.weights.data[p] * field.q[p]


class TestSmoothWeights:
    def test_complete_triangle_all_q_one(self):
        w0 = 0.2
        g = triangle_graph(w0, w0, w0)
        f = np.zeros((3, 1))
        field = gaussian_diffusivity(g, f, 1.0)
        wd = smooth_weights(g, field)
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
        field = gaussian_diffusivity(g, f, 0.8)
        wd = smooth_weights(g, field)
        _, _, _, counts = g.mutual_structure
        plain = g.weights.data * field.q
        empty = counts == 0
        assert empty.any()
        assert np.array_equal(wd.wD[empty], plain[empty])

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(14)
        _, g = random_knn_graph(rng, 40, 6)
        f = rng.normal(size=(40, 2))
        field = gaussian_diffusivity(g, f, 0.3)
        wd = smooth_weights(g, field)
        oracle = smooth_weights_bruteforce(
            g.weights.toarray(), dense_field(g, field.q), g.neighborhoods
        )
        assert np.abs(dense_field(g, wd.wD) - oracle).max() < 1e-12

    def test_exactly_symmetric_and_positive(self):
        rng = np.random.default_rng(15)
        _, g = random_knn_graph(rng, 50, 5)
        f = rng.normal(size=(50, 3))
        wd = variant_weights(g, f, 0.1, "smooth")
        assert (wd.wD > 0).all()
        assert np.array_equal(wd.wD[g.mirror], wd.wD)


class TestLocalMatchWeights:
    def test_complete_triangle_all_q_one(self):
        w0 = 0.4
        g = triangle_graph(w0, w0, w0)
        f = np.zeros((3, 1))
        field = gaussian_diffusivity(g, f, 1.0)
        wd = local_match_weights(g, field, f)
        assert wd.wD == pytest.approx(np.full(6, (4.0 / 3.0) * w0), rel=1e-15)

    def test_constant_f_closed_form(self):
        rng = np.random.default_rng(16)
        _, g = random_knn_graph(rng, 30, 4)
        K = 4
        f = np.tile([2.0, -1.0], (30, 1))
        field = gaussian_diffusivity(g, f, 0.7)
        wd = local_match_weights(g, field, f)
        expected = g.weights.data * (2.0 * K / (K + 1.0))
        assert wd.wD == pytest.approx(expected, rel=1e-14)

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(17)
        _, g = random_knn_graph(rng, 40, 6)
        f = rng.normal(size=(40, 2))
        sigma_f = 0.5
        field = gaussian_diffusivity(g, f, sigma_f)
        wd = local_match_weights(g, field, f)
        oracle = local_match_weights_bruteforce(
            g.weights.toarray(), dense_field(g, field.q), g.neighborhoods, f, sigma_f
        )
        assert np.abs(dense_field(g, wd.wD) - oracle).max() < 1e-12

    def test_deduplicated_kernel_matches_blocked_reference(self):
        rng = np.random.default_rng(18)
        _, g = random_knn_graph(rng, 35, 5)
        K = 5
        pair_k, pair_j, slot_map = g.match_structure
        fs = [
            rng.normal(size=(35, 1)),
            rng.normal(size=(35, 3)),
            # few distinct rows: tied minima and zero cross distances
            rng.integers(0, 2, size=(35, 3)).astype(float),
        ]
        for f in fs:
            f = np.ascontiguousarray(f)
            mu = min_cross_sqdist_blocked(pair_k, pair_j, g.neighborhoods, f)
            assert np.array_equal(_min_cross_sqdist(g, f), mu)
            field = gaussian_diffusivity(g, f, 0.4)
            qstar = np.exp(-mu / (field.sigma_f * field.sigma_f))
            boost = (K + qstar[slot_map].sum(axis=1)) / (K + 1.0)
            direct = g.weights.data * field.q * boost
            sym = 0.5 * (direct + direct[g.mirror])
            assert np.array_equal(local_match_weights(g, field, f).wD, sym)

    def test_exactly_symmetric_and_positive(self):
        rng = np.random.default_rng(19)
        _, g = random_knn_graph(rng, 45, 5)
        f = rng.normal(size=(45, 2))
        wd = variant_weights(g, f, 0.08, "local_match")
        assert (wd.wD > 0).all()
        assert np.array_equal(wd.wD[g.mirror], wd.wD)

    def test_requires_knn_graph(self, tmp_path):
        from anisodiff.graph import read_graph_triplets, write_graph_triplets

        rng = np.random.default_rng(20)
        _, g = random_knn_graph(rng, 20, 3)
        path = tmp_path / "g.txt"
        write_graph_triplets(g, path)
        bare = read_graph_triplets(path, n=20)
        f = rng.normal(size=(20, 2))
        field = gaussian_diffusivity(bare, f, 0.5)
        with pytest.raises(ParameterError):
            local_match_weights(bare, field, f)


class TestSymmetrize:
    def test_averages_pair(self, triangle):
        wd = np.array(triangle.weights.data)
        p = triangle.edge_position(0, 1)
        p_rev = triangle.edge_position(1, 0)
        wd[p], wd[p_rev] = 0.2, 0.4
        sym = symmetrize(triangle, AnisotropicWeights(wd, "plain"))
        assert sym.wD[p] == sym.wD[p_rev]  # exact pairwise equality
        assert sym.wD[p] == pytest.approx(0.3, rel=1e-15)

    def test_already_symmetric_unchanged(self, triangle):
        wd = AnisotropicWeights(np.array(triangle.weights.data), "plain")
        sym = symmetrize(triangle, wd)
        assert np.array_equal(sym.wD, wd.wD)

    def test_random_field_zero_asymmetry(self):
        rng = np.random.default_rng(21)
        _, g = random_knn_graph(rng, 30, 4)
        raw = rng.uniform(0.1, 1.0, g.weights.nnz)
        sym = symmetrize(g, AnisotropicWeights(raw, "plain"))
        assert np.abs(sym.wD[g.mirror] - sym.wD).max() == 0.0


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
