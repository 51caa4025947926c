"""Random-walk-normalized graph Laplacians as matrix-free sparse operators.

The isotropic operator is [Lf](i) = f(i) - (1/d_i) sum_j w_ji f(j).  The
anisotropic one replaces w by the anisotropic field w^D but keeps the
isotropic degrees d_i as normalization:

    [L^D f](i) = (1/d_i) (sum_j wD_ij) f(i) - (1/d_i) sum_j wD_ij f(j)

Both annihilate constants exactly: the row sums entering the diagonal are
computed through the same matvec path as the off-diagonal sums.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .diffusivity import AnisotropicWeights, _check_f, edge_sqnorms
from .errors import DivergenceError, ShapeError
from .graph import Graph


class LaplacianOperator:
    """Applies L (no weights) or L^D (anisotropic weights) to n x c arrays.

    Normalization always uses the isotropic degrees, for either flavor.
    """

    def __init__(self, graph: Graph, weights: AnisotropicWeights | None = None):
        self.graph = graph
        self.weights = weights
        W = graph.weights
        wd = W.data if weights is None else np.asarray(weights.wD, dtype=np.float64)
        if wd.shape != (W.nnz,):
            raise ShapeError("anisotropic weights not aligned with graph")
        self._WD = sp.csr_array((wd, W.indices, W.indptr), shape=W.shape)
        self._rowsum = self._WD @ np.ones(graph.n)

    def __call__(self, f) -> np.ndarray:
        # single formula for both flavors: (rowsum * f - W f) / d; the row
        # sums come from the same matvec path as the degrees, so constants map
        # to zero exactly and q == 1 reproduces the isotropic output bitwise
        f = _check_f(self.graph, f)
        return (self._rowsum[:, None] * f - self._WD @ f) / self.graph.degrees[:, None]

    def step(self, f: np.ndarray, delta: float) -> np.ndarray:
        """One explicit Euler step f - delta * L f of an (n, c) array."""
        with np.errstate(over="ignore", invalid="ignore"):
            out = f - delta * self(f)
        if not np.isfinite(out).all():
            raise DivergenceError(f"diffusion diverged at delta={delta}")
        return out


def apply_isotropic(graph: Graph, f) -> np.ndarray:
    """[Lf](i) = f(i) - (1/d_i) sum_j w_ji f(j)."""
    return LaplacianOperator(graph)(f)


def apply_anisotropic(graph: Graph, weights: AnisotropicWeights, f) -> np.ndarray:
    """[L^D f](i) with isotropic-degree normalization."""
    return LaplacianOperator(graph, weights)(f)


def regularizer_energy(
    graph: Graph, weights: AnisotropicWeights | None, f
) -> float:
    """sum_{i<j} wD_ij ||f(i) - f(j)||^2, the quadratic form f' Diag(d) L^D f.

    Nonnegative, and zero exactly when f is constant per connected component.
    ``weights=None`` evaluates the isotropic energy (wD = w).
    """
    wd = graph.weights.data if weights is None else np.asarray(weights.wD)
    p = graph.upper
    return float(wd[p] @ edge_sqnorms(graph, f)[p])
