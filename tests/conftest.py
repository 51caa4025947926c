import numpy as np
import pytest

from anisodiff.graph import Graph

import scipy.sparse as sp


def triangle_graph(w12=0.5, w13=0.2, w23=0.3):
    """The 3-node example graph used throughout the spec-level tests."""
    W = np.array(
        [
            [0.0, w12, w13],
            [w12, 0.0, w23],
            [w13, w23, 0.0],
        ]
    )
    nbrs = np.array([[1, 2], [0, 2], [0, 1]])
    return Graph(sp.csr_array(W), neighborhoods=nbrs)


@pytest.fixture
def triangle():
    return triangle_graph()

