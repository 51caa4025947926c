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
import scipy.sparse as sp

from .errors import ParameterError, ShapeError
from .graph import TINY, Graph

VARIANTS = ("isotropic", "plain", "smooth", "local_match")


@dataclass(frozen=True)
class AnisotropicWeights:
    """Anisotropic weights w^D per stored CSR entry, one value per undirected edge."""

    wD: np.ndarray


def _check_f(graph: Graph, f) -> np.ndarray:
    f = np.ascontiguousarray(f, dtype=np.float64)
    if f.ndim == 1:
        f = f[:, None]
    if f.ndim != 2 or f.shape[0] != graph.n:
        raise ShapeError(f"f must be (n, c) with n={graph.n}, got {f.shape}")
    if not np.isfinite(f).all():
        raise ShapeError("f contains non-finite entries")
    return f


def _sqdist(f: np.ndarray, a, b) -> np.ndarray:
    """||f(a) - f(b)||^2 over the columns of f, per index pair (a, b)."""
    # np.take of whole rows is much faster than fancy indexing of a 2-D array
    diff = np.take(f, a, axis=0)
    diff -= np.take(f, b, axis=0)
    return np.einsum("pc,pc->p", diff, diff)


def edge_sqnorms(graph: Graph, f) -> np.ndarray:
    """||f(j) - f(i)||^2 per undirected edge (i, j), in the order of ``upper``."""
    i, j, _ = graph.undirected_edges
    return _sqdist(_check_f(graph, f), j, i)


def _check_sigma_f(sigma_f: float) -> None:
    if not sigma_f > 0:
        raise ParameterError(f"sigma_f must be positive, got {sigma_f}")


def _field_from_sqnorms(graph: Graph, g2, sigma_f: float) -> np.ndarray:
    """q per undirected edge from the per-edge squared norms g2."""
    _check_sigma_f(sigma_f)
    q = np.exp(-(graph.edge_weights * g2) / (sigma_f * sigma_f))
    return np.maximum(q, TINY)


def gaussian_diffusivity(graph: Graph, f, sigma_f: float) -> np.ndarray:
    """q_ij = exp(-|grad_i f(e_ij)|^2 / sigma_f^2) per stored edge.

    The squared edge gradient is w_ij * ||f(j) - f(i)||^2 with the Euclidean
    norm taken across the c output channels.  Values are floored at the
    smallest positive normal float so the field stays strictly positive.
    Returns one value per stored entry, exactly symmetric.
    """
    _, _, edge_of = graph.undirected_edges
    return _field_from_sqnorms(graph, edge_sqnorms(graph, f), sigma_f)[edge_of]


def _check_q(graph: Graph, q) -> np.ndarray:
    """q per undirected edge, in the order of :attr:`Graph.upper`, all > 0.

    A q with one value per stored entry is read at the upper entries only,
    so it must be exactly symmetric, as :func:`gaussian_diffusivity` gives.
    """
    q = np.asarray(q, dtype=np.float64)
    up = graph.upper
    if q.shape == (graph.weights.nnz,):
        q = q[up]
    elif q.shape != up.shape:
        raise ShapeError(
            f"diffusivity has {q.shape} entries, graph stores {graph.weights.nnz} "
            f"entries over {len(up)} edges"
        )
    # not > 0 also catches NaN
    if not (q > 0).all():
        raise ParameterError("diffusivity must be positive on every edge")
    return q


def plain_weights(graph: Graph, q) -> AnisotropicWeights:
    """w^D_ij = w_ij * q_ij, evaluated once per undirected edge.

    ``q`` holds one value per undirected edge or per stored entry, as for
    every weight field here; of the latter only the :attr:`Graph.upper`
    entries are read, so it must be exactly symmetric.
    """
    q = _check_q(graph, q)
    _, _, edge_of = graph.undirected_edges
    return AnisotropicWeights((graph.edge_weights * q)[edge_of])


class MutualSums:
    """tri_e = sum_{k in N_K(i) & N_K(j)} q_ik q_kj for every edge e = (i, j).

    One CSR matvec over the int32 pattern of :attr:`Graph.mutual_structure`:
    the data of row e are the q_kj, its columns the edge ids of (i, k), so
    the product adds 0 + q_ik q_kj + ... in ascending k.  The matrix owns its
    data buffer, so each thread or trajectory needs its own instance; the
    graph is only read.
    """

    def __init__(self, graph: Graph):
        _, indptr, ik, self._kj = graph.mutual_structure
        E = len(indptr) - 1
        self._A = sp.csr_array(
            (np.empty(len(ik)), ik, indptr), shape=(E, E), copy=False
        )

    def __call__(self, q: np.ndarray) -> np.ndarray:
        # mode="clip" writes straight into out; the default buffers it
        np.take(q, self._kj, out=self._A.data, mode="clip")
        return self._A @ q


def smooth_weights(
    graph: Graph, q, *, sums: MutualSums | None = None
) -> AnisotropicWeights:
    """Average the diffusivity over the mutual neighborhood of each edge.

    w^D_ij = sum_{k in N_K(i) & N_K(j)} w_ij (q_ij + q_ik q_kj) / (s_i + s_j)
    with s_i = sum_{k in N_K(i)} q_ik.  Edges with an empty mutual
    neighborhood fall back to the plain product w_ij q_ij, preserving strict
    positivity.  For an exactly symmetric q, as :func:`gaussian_diffusivity`
    gives, the formula is symmetric in i and j term by term and in the same
    order of k, so it is evaluated once per undirected edge.  The sums over
    k are one :class:`MutualSums` matvec; ``sums`` reuses one across calls.
    """
    q = _check_q(graph, q)
    i, j, edge_of = graph.undirected_edges
    knn, indptr, _, _ = graph.mutual_structure
    # q > 0 and K >= 1 make every s, so every denominator, positive
    s = q[knn].sum(axis=1)
    denom = s[i] + s[j]
    tri = (MutualSums(graph) if sums is None else sums)(q)
    counts = np.diff(indptr)
    w = graph.edge_weights
    wd = np.where(counts > 0, w * (counts * q + tri) / denom, w * q)
    return AnisotropicWeights(wd[edge_of])


def _min_cross_sqdist(graph: Graph, f) -> np.ndarray:
    """min over l in N_K(j) of ||f(k) - f(l)||^2 per (k, j) match pair.

    Each distinct cross distance is computed once, over the unordered pairs
    of :attr:`Graph.cross_pairs`; (a - b)^2 == (b - a)^2 exactly, so the
    result does not depend on which endpoint comes first.
    """
    cross_a, cross_b, cross_map = graph.cross_pairs
    return _sqdist(f, cross_a, cross_b)[cross_map].min(axis=0)


def local_match_weights(graph: Graph, q, f, sigma_f: float) -> AnisotropicWeights:
    """Boost an edge by how well the endpoint neighborhoods match.

    w^D_ij = w_ij q_ij sum_{k in N_K(i)} (1 + q*_ik) / (K + 1) where q*_ik is
    the best unit-weight diffusivity exp(-||f(k) - f(l)||^2 / sigma_f^2) over
    l in N_K(j); the (k, l) pairs need not be graph edges, so no edge-weight
    factor enters the cross terms.  The directed boosts of (i, j) and (j, i)
    differ; w^D is the mean of the two, once per undirected edge.
    ``sigma_f`` is the scale that ``q`` was computed with.
    """
    _check_sigma_f(sigma_f)
    q = _check_q(graph, q)
    f = _check_f(graph, f)
    # raises ParameterError for a graph without kNN neighborhoods
    _, slot_map = graph.match_structure
    K = slot_map.shape[1]
    mu = _min_cross_sqdist(graph, f)
    qstar = np.exp(-mu / (sigma_f * sigma_f))
    boost = (K + qstar[slot_map].sum(axis=1)) / (K + 1.0)
    up = graph.upper
    # both directions share w_ij q_ij: bitwise the mean of the directed w q boost
    wq = graph.edge_weights * q
    wd = 0.5 * (wq * boost[up] + wq * boost[graph.mirror[up]])
    return AnisotropicWeights(wd[graph.undirected_edges[2]])


def variant_weights(
    graph: Graph, f, sigma_f: float, variant: str, *, sqnorms=None, sums=None
) -> AnisotropicWeights:
    """Compute the requested anisotropic weight field from function values.

    ``"isotropic"`` is the special case q == 1: the graph weights themselves.
    ``sqnorms`` may pass precomputed :func:`edge_sqnorms` output to avoid
    recomputing it inside a diffusion loop, and ``sums`` a
    :class:`MutualSums` for the smooth field to reuse.  q is computed per
    undirected edge; ``wD`` holds one value per stored entry.
    """
    if variant not in VARIANTS:
        raise ParameterError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if variant == "isotropic":
        return AnisotropicWeights(graph.weights.data)
    if sqnorms is None:
        sqnorms = edge_sqnorms(graph, f)
    q = _field_from_sqnorms(graph, sqnorms, sigma_f)
    if variant == "plain":
        return plain_weights(graph, q)
    if variant == "smooth":
        return smooth_weights(graph, q, sums=sums)
    return local_match_weights(graph, q, f, sigma_f)
