"""Output checks computed without the code under test.

They use numpy and scipy only and read the program's results through public
attributes (``Graph.weights``, ``Graph.neighborhoods``, ``.wD``, ``.f``), so a
rewritten kernel cannot pass them by returning the wrong values.  Each check
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial.distance import cdist

TINY = float(np.finfo(np.float64).tiny)
MAX_REPORTED = 3

# the reference sums each edge's cross terms in another order than the
# vectorized kernel; float64 round-off stays far below this
FIELD_RTOL = 1e-12


def sample(count: int, population: int, seed: int) -> np.ndarray:
    """Sorted sample of ``count`` distinct indices, a pure function of seed."""
    rng = np.random.Generator(np.random.Philox(seed))
    return np.sort(rng.choice(population, size=min(count, population), replace=False))


def _cap(problems):
    if len(problems) > MAX_REPORTED:
        return problems[:MAX_REPORTED] + [f"... and {len(problems) - MAX_REPORTED} more"]
    return problems


def knn_problems(X, neighborhoods, rows) -> list[str]:
    """Compare kNN lists of ``rows`` with a stable argsort of their distances.

    Self is excluded; equal distances rank by ascending index, which is what
    a stable sort of the natural index order gives.
    """
    nbrs = np.asarray(neighborhoods)
    K = nbrs.shape[1]
    D = cdist(X[rows], X)
    D[np.arange(len(rows)), rows] = np.inf
    expected = np.argsort(D, axis=1, kind="stable")[:, :K]
    return _cap([
        f"kNN list of row {r}: got {nbrs[r].tolist()}, expected {e.tolist()}"
        for r, e in zip(rows, expected)
        if not np.array_equal(nbrs[r], e)
    ])


def csr_rows(indptr) -> np.ndarray:
    return np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))


def mirror_positions(indptr, indices) -> np.ndarray:
    """Position of the stored entry (j, i) for every stored entry (i, j)."""
    n = len(indptr) - 1
    rows = csr_rows(indptr)
    keys = rows * n + indices
    order = np.argsort(keys, kind="stable")
    target = indices * n + rows
    loc = np.minimum(np.searchsorted(keys[order], target), len(keys) - 1)
    pos = order[loc]
    if not np.array_equal(keys[pos], target):
        raise ValueError("sparsity pattern is not symmetric")
    return pos


def field_problems(indptr, indices, wD) -> list[str]:
    """A weight field must be aligned, finite, strictly positive and exactly symmetric."""
    wD = np.asarray(wD)
    if wD.shape != (len(indices),):
        return [f"field has shape {wD.shape}, graph stores {len(indices)} entries"]
    problems = []
    if not np.isfinite(wD).all():
        problems.append("field has non-finite entries")
    if not (wD > 0).all():
        problems.append(f"field has {int((wD <= 0).sum())} entries <= 0")
    try:
        mirror = mirror_positions(indptr, indices)
    except ValueError as exc:
        return problems + [str(exc)]
    asym = np.flatnonzero(wD != wD[mirror])
    if asym.size:
        problems.append(f"field is not exactly symmetric at {asym.size} entries")
    return problems


def local_match_reference(indptr, indices, w, nbrs, f, sigma_f, positions) -> np.ndarray:
    """Local-match weights at the given CSR positions, one edge at a time.

    For the directed edge (i, j): w_ij q_ij (K + sum_{k in N(i)} max_{l in
    N(j)} exp(-||f(k) - f(l)||^2 / sigma_f^2)) / (K + 1), with q_ij =
    exp(-w_ij ||f(j) - f(i)||^2 / sigma_f^2) floored at the smallest normal
    float; the stored weight is the mean of the two directions.
    """
    rows = csr_rows(indptr)
    mirror = mirror_positions(indptr, indices)
    f = np.asarray(f, dtype=np.float64).reshape(len(indptr) - 1, -1)
    s2 = sigma_f * sigma_f
    K = nbrs.shape[1]

    def directed(p):
        i, j = rows[p], indices[p]
        g2 = float(np.sum((f[j] - f[i]) ** 2))
        q = max(math.exp(-(w[p] * g2) / s2), TINY)
        total = 0.0
        for k in nbrs[i]:
            best = 0.0
            for l in nbrs[j]:
                best = max(best, math.exp(-float(np.sum((f[k] - f[l]) ** 2)) / s2))
            total += best
        return w[p] * q * (K + total) / (K + 1.0)

    return np.array([0.5 * (directed(p) + directed(mirror[p])) for p in positions])


def local_match_problems(graph, f, sigma_f, wD, positions) -> list[str]:
    """Check a local-match field of ``graph`` at ``f`` against the reference."""
    W = graph.weights
    problems = field_problems(W.indptr, W.indices, wD)
    if problems:
        return problems
    ref = local_match_reference(
        W.indptr, W.indices, W.data, np.asarray(graph.neighborhoods), f, sigma_f, positions
    )
    got = np.asarray(wD)[positions]
    bad = np.flatnonzero(~np.isclose(got, ref, rtol=FIELD_RTOL, atol=0.0))
    return _cap([
        f"local-match weight at entry {positions[b]}: got {float(got[b])!r}, expected {float(ref[b])!r}"
        for b in bad
    ])


def local_match_energy_problems(graph, f, sigma_f, energy) -> list[str]:
    """Check a diffusion run's reported energy of ``f`` under the local-match
    field of ``f`` itself: sum over edges i < j of w^D_ij ||f(j) - f(i)||^2.

    ``DiffusionResult.energies[0]`` is this value for the field the step loop
    really used, so a loop that builds a wrong first field fails here even if
    the package's ``variant_weights`` is right.  Only edges whose endpoints
    differ contribute; for a one-hot f^0 those are the edges at labeled rows,
    and the reference is computed on each of them.
    """
    W = graph.weights
    rows = csr_rows(W.indptr)
    f = np.asarray(f, dtype=np.float64).reshape(len(W.indptr) - 1, -1)
    g2 = np.sum((f[W.indices] - f[rows]) ** 2, axis=1)
    positions = np.flatnonzero((W.indices > rows) & (g2 > 0))
    ref = local_match_reference(
        W.indptr, W.indices, W.data, np.asarray(graph.neighborhoods), f, sigma_f, positions
    )
    expected = math.fsum(ref * g2[positions])
    if math.isclose(float(energy), expected, rel_tol=FIELD_RTOL, abs_tol=0.0):
        return []
    return [f"energy over {positions.size} edges: got {float(energy)!r}, expected {expected!r}"]
