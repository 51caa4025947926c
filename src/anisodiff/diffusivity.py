"""Per-edge diffusivities and the anisotropic edge-weight fields.

The diffusivity q_ij multiplies the edge weight to form w^D_ij.  Besides
the isotropic case q == 1, three variants are provided: the plain product,
a smoothed field averaging diffusivities over the mutual kNN neighborhood of
the edge endpoints, and a local-match field that boosts an edge when the
endpoints' neighborhoods contain mutually similar function values.  All
fields are strictly positive and exactly symmetric, which is what makes the
resulting operator positive definite and the diffusion well posed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError
from .graph import TINY, Graph

VARIANTS = ("isotropic", "plain", "smooth", "local_match")


@dataclass(frozen=True)
class DiffusivityField:
    """Per-edge diffusivity eigenvalues aligned with the graph CSR data."""

    q: np.ndarray
    sigma_f: float


@dataclass(frozen=True)
class AnisotropicWeights:
    """Per-edge anisotropic weights w^D aligned with the graph CSR data."""

    wD: np.ndarray
    variant: str


def _check_f(graph: Graph, f) -> np.ndarray:
    f = np.ascontiguousarray(f, dtype=np.float64)
    if f.ndim == 1:
        f = f[:, None]
    if f.ndim != 2 or f.shape[0] != graph.n:
        raise ShapeError(f"f must be (n, c) with n={graph.n}, got {f.shape}")
    if not np.isfinite(f).all():
        raise ShapeError("f contains non-finite entries")
    return f


def edge_sqnorms(graph: Graph, f) -> np.ndarray:
    """||f(j) - f(i)||^2 per stored edge, computed once per undirected pair."""
    f = _check_f(graph, f)
    W = graph.weights
    up = graph.upper
    diff = f[W.indices[up]] - f[graph.rows[up]]
    g2u = np.einsum("ec,ec->e", diff, diff)
    g2 = np.empty(W.nnz)
    g2[up] = g2u
    g2[graph.mirror[up]] = g2u
    return g2


def _field_from_sqnorms(graph: Graph, g2, sigma_f: float) -> DiffusivityField:
    if not sigma_f > 0:
        raise ParameterError(f"sigma_f must be positive, got {sigma_f}")
    q = np.exp(-(graph.weights.data * g2) / (sigma_f * sigma_f))
    return DiffusivityField(np.maximum(q, TINY), float(sigma_f))


def gaussian_diffusivity(graph: Graph, f, sigma_f: float) -> DiffusivityField:
    """q_ij = exp(-|grad_i f(e_ij)|^2 / sigma_f^2).

    The squared edge gradient is w_ij * ||f(j) - f(i)||^2 with the Euclidean
    norm taken across the c output channels.  Values are floored at the
    smallest positive normal float so the field stays strictly positive.
    """
    return _field_from_sqnorms(graph, edge_sqnorms(graph, f), sigma_f)


def _check_field(graph: Graph, field: DiffusivityField) -> np.ndarray:
    q = np.asarray(field.q, dtype=np.float64)
    if q.shape != (graph.weights.nnz,):
        raise ShapeError(
            f"diffusivity has {q.shape} entries, graph stores {graph.weights.nnz}"
        )
    return q


def symmetrize(graph: Graph, weights: AnisotropicWeights) -> AnisotropicWeights:
    """Replace w^D_ij and w^D_ji by their arithmetic mean (exactly symmetric)."""
    wd = np.asarray(weights.wD, dtype=np.float64)
    sym = 0.5 * (wd + wd[graph.mirror])
    return AnisotropicWeights(sym, weights.variant)


def plain_weights(graph: Graph, field: DiffusivityField) -> AnisotropicWeights:
    """w^D_ij = w_ij * q_ij."""
    q = _check_field(graph, field)
    return AnisotropicWeights(graph.weights.data * q, "plain")


def smooth_weights(graph: Graph, field: DiffusivityField) -> AnisotropicWeights:
    """Average the diffusivity over the mutual neighborhood of each edge.

    w^D_ij = sum_{k in N_K(i) & N_K(j)} w_ij (q_ij + q_ik q_kj) / (s_i + s_j)
    with s_i = sum_{k in N_K(i)} q_ik.  Edges with an empty mutual
    neighborhood fall back to the plain product w_ij q_ij, preserving strict
    positivity.
    """
    q = _check_field(graph, field)
    edge_ids, pos_ik, pos_kj, counts = graph.mutual_structure
    s = q[graph.knn_positions].sum(axis=1)
    denom = s[graph.rows] + s[graph.weights.indices]
    if (denom <= 0).any():
        raise AssertionError("diffusivity sums must be positive")
    tri = np.bincount(edge_ids, weights=q[pos_ik] * q[pos_kj], minlength=graph.weights.nnz)
    w = graph.weights.data
    wd = np.where(counts > 0, w * (counts * q + tri) / denom, w * q)
    return symmetrize(graph, AnisotropicWeights(wd, "smooth"))


def _min_cross_sqdist(graph: Graph, f) -> np.ndarray:
    """min over l in N_K(j) of ||f(k) - f(l)||^2 per (k, j) match pair.

    Each distinct cross distance is computed once, over the unordered pairs
    of :attr:`Graph.cross_pairs`; (a - b)^2 == (b - a)^2 exactly, so the
    result does not depend on which endpoint comes first.
    """
    cross_a, cross_b, cross_map = graph.cross_pairs
    diff = f[cross_a]
    diff -= f[cross_b]
    return np.einsum("uc,uc->u", diff, diff)[cross_map].min(axis=0)


def local_match_weights(
    graph: Graph, field: DiffusivityField, f
) -> AnisotropicWeights:
    """Boost an edge by how well the endpoint neighborhoods match.

    w^D_ij = w_ij q_ij sum_{k in N_K(i)} (1 + q*_ik) / (K + 1) where q*_ik is
    the best unit-weight diffusivity exp(-||f(k) - f(l)||^2 / sigma_f^2) over
    l in N_K(j); the (k, l) pairs need not be graph edges, so no edge-weight
    factor enters the cross terms.  The directed evaluations (i, j) and
    (j, i) differ, and the result is their arithmetic mean.
    """
    if graph.neighborhoods is None:
        raise ParameterError("local-match weights need a kNN-built graph")
    q = _check_field(graph, field)
    f = _check_f(graph, f)
    K = graph.neighborhoods.shape[1]
    _, _, slot_map = graph.match_structure
    mu = _min_cross_sqdist(graph, f)
    qstar = np.exp(-mu / (field.sigma_f * field.sigma_f))
    boost = (K + qstar[slot_map].sum(axis=1)) / (K + 1.0)
    wd = graph.weights.data * q * boost
    return symmetrize(graph, AnisotropicWeights(wd, "local_match"))


def variant_weights(
    graph: Graph, f, sigma_f: float, variant: str, *, sqnorms=None
) -> AnisotropicWeights:
    """Compute the requested anisotropic weight field from function values.

    ``"isotropic"`` is the special case q == 1: the graph weights themselves.
    ``sqnorms`` may pass precomputed :func:`edge_sqnorms` output to avoid
    recomputing it inside a diffusion loop.
    """
    if variant not in VARIANTS:
        raise ParameterError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if variant == "isotropic":
        return AnisotropicWeights(graph.weights.data, "isotropic")
    if sqnorms is None:
        sqnorms = edge_sqnorms(graph, f)
    field = _field_from_sqnorms(graph, sqnorms, sigma_f)
    if variant == "plain":
        return plain_weights(graph, field)
    if variant == "smooth":
        return smooth_weights(graph, field)
    return local_match_weights(graph, field, f)
