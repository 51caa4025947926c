"""Label propagation by explicit-Euler diffusion on the graph.

Labels start as one-hot rows of f^0.  An isotropic warm start spreads them
for a fixed number of steps (default 20), after which the anisotropic loop
runs T steps of f <- f - delta * L^D f.  Linear mode computes the
anisotropic weights once from the warm-started f and freezes them; nonlinear
mode recomputes them from f^t before every step.  The final classes are the
per-row argmax of f^T.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .diffusivity import (
    VARIANTS, MutualSums, _check_sigma_f, edge_sqnorms, variant_weights
)
from .errors import DivergenceError, InputError, ParameterError
from .graph import Graph
from .laplacian import LaplacianOperator, edge_energy

MODES = ("linear", "nonlinear")


def _check_integer(name: str, value, low: int) -> None:
    """Raise ParameterError unless ``value`` is an integer >= ``low``."""
    # int() would silently truncate a fractional value
    if not isinstance(value, numbers.Integral) or value < low:
        raise ParameterError(f"{name} must be an integer >= {low}, got {value!r}")


@dataclass
class LabelState:
    """One-hot label matrix f (n x c) plus the labeled-row mask."""

    f: np.ndarray
    labeled_mask: np.ndarray
    c: int


@dataclass(frozen=True)
class DiffusionConfig:
    """Hyper-parameters of one propagation run.

    ``sigma_f`` is ignored by the isotropic variant.  ``delta`` defaults to 1
    and the warm start to 20 isotropic steps.
    """

    K: int = 10
    T: int = 100
    sigma_f: float = 0.1
    delta: float = 1.0
    warm_start_steps: int = 20
    variant: str = "plain"
    mode: str = "nonlinear"
    clamp_labels: bool = False

    def __post_init__(self):
        _check_integer("K", self.K, 1)
        _check_integer("T", self.T, 0)
        _check_integer("warm_start_steps", self.warm_start_steps, 0)
        _check_sigma_f(self.sigma_f)
        if not self.delta > 0:
            raise ParameterError(f"delta must be positive, got {self.delta}")
        if self.variant not in VARIANTS:
            raise ParameterError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.mode not in MODES:
            raise ParameterError(f"mode must be one of {MODES}, got {self.mode!r}")


@dataclass
class DiffusionResult:
    """Final function values and the per-step regularizer energy trace.

    ``energies[t]`` is the energy of f^t under the weight field used to
    produce it; index 0 holds the warm-started state under the initial field.
    """

    f: np.ndarray
    energies: np.ndarray


def init_labels(labels, n: int, c: int) -> LabelState:
    """One-hot f^0 from (index, class) pairs; unlabeled rows are zero."""
    if n < 1 or c < 1:
        raise ParameterError(f"need n >= 1 and c >= 1, got n={n}, c={c}")
    f = np.zeros((n, c))
    mask = np.zeros(n, dtype=bool)
    for idx, cls in labels:
        # int() would silently truncate a fractional index or class
        if not (isinstance(idx, numbers.Integral) and isinstance(cls, numbers.Integral)):
            raise InputError(f"label ({idx!r}, {cls!r}) must be an integer pair")
        if not 0 <= idx < n:
            raise InputError(f"label index {idx} outside [0, {n})")
        if not 0 <= cls < c:
            raise InputError(f"class {cls} outside [0, {c})")
        if mask[idx]:
            raise InputError(f"duplicate label for index {idx}")
        mask[idx] = True
        f[idx, cls] = 1.0
    return LabelState(f, mask, c)


def warm_start(graph: Graph, f0, steps: int, delta: float) -> np.ndarray:
    """Run `steps` isotropic Euler steps to smooth the initial distribution."""
    _check_integer("steps", steps, 0)
    if not delta > 0:
        raise ParameterError(f"delta must be positive, got {delta}")
    f = np.array(f0, dtype=np.float64)
    if steps == 0:
        return f
    op = LaplacianOperator(graph)
    for _ in range(steps):
        f = op.step(f, delta)
    return f


def _trajectory(
    config: DiffusionConfig, graph: Graph, state: LabelState, *, energies: bool = True
):
    """Yield (t, f^t, energy_t) for t = 0 .. T.

    energy_t is the regularizer value of f^t under the weight field used to
    produce it (the isotropic weights for that variant); index 0 carries the
    warm-started state and the initial field.  The per-edge squared norms of
    f^t feed both the energy and the next step's diffusivity, so they are
    computed once, and only when one of the two reads them: with
    ``energies=False`` every energy_t is None.  One operator serves the
    whole trajectory; a nonlinear step swaps in the new field, and a smooth
    one refills the same :class:`MutualSums`.
    """
    f = np.asarray(state.f, dtype=np.float64)
    if f.shape != (graph.n, state.c):
        raise ParameterError(
            f"label state shape {f.shape} does not match graph n={graph.n}, c={state.c}"
        )
    nbrs = graph.neighborhoods  # None for a Graph(W) made without kNN lists
    if nbrs is not None and nbrs.shape[1] != config.K:
        raise ParameterError(f"config K={config.K} does not match the graph's K={nbrs.shape[1]}")
    if not state.labeled_mask.any():
        warnings.warn(
            "no labeled nodes: the labeled-row mask is empty, so no row "
            "is held as a label",
            stacklevel=3,
        )
    clamp_rows = np.nonzero(state.labeled_mask)[0]
    clamp_values = f[clamp_rows].copy()

    f = warm_start(graph, f, config.warm_start_steps, config.delta)
    # the isotropic field q == 1 does not depend on f
    recompute = config.mode == "nonlinear" and config.variant != "isotropic"
    g2 = edge_sqnorms(graph, f) if energies or config.variant != "isotropic" else None
    sums = MutualSums(graph) if config.variant == "smooth" else None
    weights = variant_weights(
        graph, f, config.sigma_f, config.variant, sqnorms=g2, sums=sums
    )
    op = LaplacianOperator(graph, weights)
    yield 0, f, edge_energy(graph, weights.wD, g2) if energies else None
    for t in range(1, config.T + 1):
        if t > 1 and recompute:
            weights = variant_weights(
                graph, f, config.sigma_f, config.variant, sqnorms=g2, sums=sums
            )
            op.set_weights(weights)
        f = op.step(f, config.delta)
        if config.clamp_labels:
            f[clamp_rows] = clamp_values
        if energies or (recompute and t < config.T):
            g2 = edge_sqnorms(graph, f)
        yield t, f, edge_energy(graph, weights.wD, g2) if energies else None


def run_diffusion(
    config: DiffusionConfig, graph: Graph, state: LabelState
) -> DiffusionResult:
    """Warm start, then T (an)isotropic steps; returns f^T and energy trace."""
    energies = np.empty(config.T + 1)
    for t, f, energy in _trajectory(config, graph, state):
        energies[t] = energy
    return DiffusionResult(f, energies)


def snapshots_at(
    config: DiffusionConfig, graph: Graph, state: LabelState, steps
) -> dict[int, np.ndarray]:
    """f^t at the requested step counts, sharing one trajectory.

    A nonlinear trajectory at step t is a prefix of any longer run with the
    same config, so evaluating several T values this way is exactly
    equivalent to independent runs.  If the trajectory diverges, the steps
    already passed are returned and later ones are missing.  No energy is
    computed.
    """
    wanted = set(steps)
    for t in wanted:
        _check_integer("snapshot step", t, 0)
    if wanted and max(wanted) != config.T:
        config = replace(config, T=max(wanted))
    out: dict[int, np.ndarray] = {}
    try:
        for t, f, _ in _trajectory(config, graph, state, energies=False):
            if t in wanted:
                out[t] = f.copy()
    except DivergenceError:
        pass
    return out


def decode_labels(f) -> np.ndarray:
    """Per-row argmax; ties resolve to the lowest class index."""
    f = np.asarray(f)
    if f.ndim != 2 or f.shape[1] < 1:
        raise ParameterError(f"f must be (n, c) with c >= 1, got {f.shape}")
    return np.argmax(f, axis=1)


def write_energy_trace(energies, path):
    """CSV lines "t,energy" with 17 significant digits."""
    np.savetxt(path, list(enumerate(energies)), fmt="%d,%.17g")
