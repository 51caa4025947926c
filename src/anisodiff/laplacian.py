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
from .errors import DivergenceError, ParameterError, ShapeError
from .graph import Graph


def _field_data(graph: Graph, weights: AnisotropicWeights | None) -> np.ndarray:
    """wD per stored entry, the graph weights for None; checked for length."""
    if weights is None:
        return graph.weights.data
    wd = np.ascontiguousarray(weights.wD, dtype=np.float64)
    if wd.shape != (graph.weights.nnz,):
        raise ShapeError("anisotropic weights not aligned with graph")
    return wd


class LaplacianOperator:
    """Applies L (no weights) or L^D (anisotropic weights) to n x c arrays.

    Normalization always uses the isotropic degrees, for either flavor.
    """

    def __init__(self, graph: Graph, weights: AnisotropicWeights | None = None):
        self.graph = graph
        W = graph.weights
        self._WD = sp.csr_array((W.data, W.indices, W.indptr), shape=W.shape)
        self.set_weights(weights)

    def set_weights(self, weights: AnisotropicWeights | None) -> None:
        """Swap in another weight field over the same CSR index arrays.

        The new array replaces the operator's data reference; nothing is
        written into the graph's arrays, so operators may share one graph.
        """
        self._WD.data = _field_data(self.graph, weights)
        self._rowsum = self._WD @ np.ones(self.graph.n)

    def __call__(self, f) -> np.ndarray:
        # single formula for both flavors: (rowsum * f - W f) / d; the row
        # sums come from the same matvec path as the degrees, so constants map
        # to zero exactly and q == 1 reproduces the isotropic output bitwise
        f = _check_f(self.graph, f)
        return (self._rowsum[:, None] * f - self._WD @ f) / self.graph.degrees[:, None]

    def step(self, f, delta: float) -> np.ndarray:
        """One explicit Euler step f - delta * L f; returns an (n, c) array.

        ``f`` is anything :meth:`__call__` accepts; a 1-D f of length n is
        taken as (n, 1).
        """
        if not delta > 0:
            raise ParameterError(f"delta must be positive, got {delta}")
        with np.errstate(over="ignore", invalid="ignore"):
            Lf = self(f)
            out = np.asarray(f, dtype=np.float64).reshape(Lf.shape) - delta * Lf
        if not np.isfinite(out).all():
            raise DivergenceError(f"diffusion diverged at delta={delta}")
        return out


def edge_energy(graph: Graph, wd: np.ndarray, g2: np.ndarray) -> float:
    """sum_e wD_e g2_e: ``wd`` per stored entry, ``g2`` per edge as :func:`edge_sqnorms`."""
    # einsum sums in one thread in a fixed order; a BLAS dot splits a long sum
    # over its threads, so its rounding would depend on their number
    return float(np.einsum("e,e->", wd[graph.upper], g2))


def regularizer_energy(
    graph: Graph, weights: AnisotropicWeights | None, f
) -> float:
    """sum_{i<j} wD_ij ||f(i) - f(j)||^2, the quadratic form f' Diag(d) L^D f.

    Nonnegative, and zero exactly when f is constant per connected component.
    ``weights=None`` evaluates the isotropic energy (wD = w).
    """
    return edge_energy(graph, _field_data(graph, weights), edge_sqnorms(graph, f))
