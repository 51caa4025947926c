"""Anisotropic diffusion on weighted graphs for semi-supervised label propagation."""

from .baselines import HarmonicSolution, grf_harmonic
from .data import (
    Dataset,
    SplitSpec,
    gaussian_blobs,
    split_labels,
    two_moons,
)
from .diffusion import (
    DiffusionConfig,
    DiffusionResult,
    LabelState,
    decode_labels,
    init_labels,
    run_diffusion,
    warm_start,
)
from .diffusivity import (
    AnisotropicWeights,
    gaussian_diffusivity,
    local_match_weights,
    plain_weights,
    smooth_weights,
    symmetrize,
    variant_weights,
)
from .evaluation import (
    BenchmarkReport,
    GridSpec,
    MethodResult,
    benchmark,
    error_rate,
    grid_search,
)
from .graph import (
    Graph,
    auto_sigma_x,
    build_knn_graph,
    gaussian_weights,
    knn_neighborhoods,
    pairwise_distances,
)
from .laplacian import LaplacianOperator, regularizer_energy

__version__ = "0.1.0"
