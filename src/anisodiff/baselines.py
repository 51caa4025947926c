"""Harmonic-function baseline: labeled rows fixed, unlabeled rows solved.

Solves the combinatorial-Laplacian system (D_uu - W_uu) f_u = W_ul f_l, i.e.
every unlabeled node takes the weight-averaged value of its neighbors.  The
system is symmetric positive definite as long as every connected component
contains at least one labeled node.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .diffusion import LabelState
from .errors import ShapeError, UnlabeledComponentError
from .graph import Graph


def grf_harmonic(graph: Graph, state: LabelState) -> np.ndarray:
    """Harmonic interpolation of the labeled one-hot rows over the graph.

    Returns the n x c values: the state's labeled rows passed through, the
    rest harmonic.
    """
    f = np.asarray(state.f, dtype=np.float64)
    mask = np.asarray(state.labeled_mask, dtype=bool)
    if f.shape[0] != graph.n or mask.shape != (graph.n,):
        raise ShapeError(
            f"label state shape {f.shape} does not match graph n={graph.n}"
        )
    if mask.all():
        return f.copy()

    # the lowest-id component with no labeled node makes the system singular
    comp = graph.components
    unlabeled = np.bincount(comp[mask], minlength=comp.max() + 1) == 0
    if unlabeled.any():
        raise UnlabeledComponentError(np.nonzero(comp == np.argmax(unlabeled))[0])

    u = np.nonzero(~mask)[0]
    Wu = sp.csr_matrix(graph.weights)[u]
    # full degrees (labeled neighbors included) on the diagonal; one LU
    # factorization solves every class column at once
    A = sp.diags(graph.degrees[u]) - Wu[:, u]
    fu = splu(A.tocsc()).solve(Wu[:, mask] @ f[mask])

    out = f.copy()
    out[u] = fu
    return out
