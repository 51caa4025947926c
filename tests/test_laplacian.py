import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anisodiff.diffusivity import AnisotropicWeights, variant_weights
from anisodiff.errors import ParameterError, ShapeError
from anisodiff.laplacian import LaplacianOperator, regularizer_energy

from oracles import (
    dense_anisotropic_apply,
    dense_energy,
    dense_isotropic_apply,
    random_knn_graph,
)


class TestApplyIsotropic:
    def test_constant_in_null_space(self, triangle):
        f = np.full((3, 2), 3.7)
        assert np.abs(LaplacianOperator(triangle)(f)).max() < 1e-12
        # the all-ones vector maps to zero exactly
        assert np.abs(LaplacianOperator(triangle)(np.ones((3, 1)))).max() == 0.0

    def test_triangle_hand_value(self, triangle):
        f = np.array([[1.0], [0.0], [0.0]])
        out = LaplacianOperator(triangle)(f)
        assert out[:, 0] == pytest.approx([1.0, -0.625, -0.4], rel=1e-14)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(30)
        _, g = random_knn_graph(rng, 50, 5)
        f = rng.normal(size=(50, 3))
        out = LaplacianOperator(g)(f)
        oracle = dense_isotropic_apply(g.weights.toarray(), g.degrees, f)
        assert np.abs(out - oracle).max() < 1e-12

    def test_shape_mismatch(self, triangle):
        with pytest.raises(ShapeError):
            LaplacianOperator(triangle)(np.zeros((4, 2)))


class TestApplyAnisotropic:
    def test_constant_in_null_space(self):
        rng = np.random.default_rng(31)
        _, g = random_knn_graph(rng, 40, 4)
        f0 = rng.normal(size=(40, 2))
        for variant in ("plain", "smooth", "local_match"):
            wd = variant_weights(g, f0, 0.3, variant)
            out = LaplacianOperator(g, wd)(np.full((40, 2), -1.25))
            assert np.abs(out).max() < 1e-12

    def test_identity_diffusivity_equals_isotropic(self):
        rng = np.random.default_rng(32)
        _, g = random_knn_graph(rng, 30, 4)
        wd = AnisotropicWeights(np.array(g.weights.data))
        f = rng.normal(size=(30, 2))
        assert np.array_equal(LaplacianOperator(g, wd)(f), LaplacianOperator(g)(f))

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(33)
        _, g = random_knn_graph(rng, 50, 5)
        f0 = rng.normal(size=(50, 2))
        wd = variant_weights(g, f0, 0.4, "smooth")
        f = rng.normal(size=(50, 2))
        out = LaplacianOperator(g, wd)(f)
        WD = np.zeros((50, 50))
        WD[g.rows, g.weights.indices] = wd.wD
        oracle = dense_anisotropic_apply(WD, g.degrees, f)
        assert np.abs(out - oracle).max() < 1e-12


class TestRegularizerEnergy:
    def test_constant_is_zero(self, triangle):
        f = np.full((3, 3), 2.0)
        assert regularizer_energy(triangle, None, f) == 0.0

    def test_single_edge_value(self):
        from anisodiff.graph import Graph
        import scipy.sparse as sp

        W = sp.csr_array(np.array([[0.0, 1.0], [1.0, 0.0]]))
        g = Graph(W)
        wd = AnisotropicWeights(np.array([2.0, 2.0]))
        f = np.array([[0.0], [3.0]])
        assert regularizer_energy(g, wd, f) == pytest.approx(18.0, abs=0)

    def test_matches_dense_quadratic_form(self):
        rng = np.random.default_rng(34)
        _, g = random_knn_graph(rng, 40, 5)
        f0 = rng.normal(size=(40, 2))
        wd = variant_weights(g, f0, 0.5, "local_match")
        f = rng.normal(size=(40, 2))
        e = regularizer_energy(g, wd, f)
        WD = np.zeros((40, 40))
        WD[g.rows, g.weights.indices] = wd.wD
        assert e == pytest.approx(dense_energy(WD, f), rel=1e-10)
        # and equals the degree-weighted operator form
        Lf = LaplacianOperator(g, wd)(f)
        form = float(np.sum(g.degrees[:, None] * f * Lf))
        assert e == pytest.approx(form, rel=1e-8)

    def test_misaligned_weights_raise(self):
        # read at the upper positions, a longer wD would give a value and a
        # shorter one a bare IndexError
        rng = np.random.default_rng(37)
        _, g = random_knn_graph(rng, 20, 3)
        f = rng.normal(size=(20, 1))
        for size in (g.weights.nnz + 5, 3):
            with pytest.raises(ShapeError, match="not aligned"):
                regularizer_energy(g, AnisotropicWeights(np.ones(size)), f)

    def test_nonnegative_on_random_inputs(self):
        rng = np.random.default_rng(35)
        _, g = random_knn_graph(rng, 30, 4)
        wd = variant_weights(g, rng.normal(size=(30, 2)), 0.2, "plain")
        for _ in range(100):
            f = rng.normal(size=(30, 2))
            assert regularizer_energy(g, wd, f) >= 0.0


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_null_space_and_psd_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, 50))
    K = int(rng.integers(2, min(n - 1, 7) + 1))
    _, g = random_knn_graph(rng, n, K)
    ones = np.ones((n, 1))
    assert np.abs(LaplacianOperator(g)(ones)).max() < 1e-12
    f0 = rng.normal(size=(n, 2))
    for variant in ("plain", "smooth", "local_match"):
        wd = variant_weights(g, f0, 0.3, variant)
        assert np.abs(LaplacianOperator(g, wd)(ones)).max() < 1e-12
        f = rng.normal(size=(n, 2))
        Lf = LaplacianOperator(g, wd)(f)
        assert float(np.sum(g.degrees[:, None] * f * Lf)) >= -1e-10


@pytest.mark.parametrize("delta", [0.0, -1.0, np.nan, np.inf])
def test_step_rejects_nonpositive_delta(triangle, delta):
    # a negative delta would run an anti-diffusion step, an infinite one
    # overflows at once
    with pytest.raises(ParameterError, match="delta must be positive and finite"):
        LaplacianOperator(triangle).step(np.ones((3, 1)), delta)


def test_step_accepts_what_call_accepts(triangle):
    # a list or an int array steps like the float array __call__ makes of it
    op = LaplacianOperator(triangle)
    f = np.array([[1.0], [0.0], [0.0]])
    for given in ([1.0, 0.0, 0.0], [[1], [0], [0]], np.array([1, 0, 0])):
        assert np.array_equal(op.step(given, 0.5), op.step(f, 0.5))
    assert np.array_equal(op.step(f, 0.5), f - 0.5 * op(f))


def test_operator_reuse_matches_function():
    rng = np.random.default_rng(36)
    _, g = random_knn_graph(rng, 25, 3)
    wd = variant_weights(g, rng.normal(size=(25, 2)), 0.4, "plain")
    op = LaplacianOperator(g, wd)
    f = rng.normal(size=(25, 2))
    assert np.array_equal(op(f), LaplacianOperator(g, wd)(f))
