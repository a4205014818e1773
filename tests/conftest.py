import numpy as np
import pytest

from georay.grids import Box, ConvexGridFunction, Grid, GridFunction


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def quad_17():
    """x^2/2 on [-1, 1], 17 nodes."""
    g = Grid(Box((-1.0,), (1.0,)), 17)
    return ConvexGridFunction.certify(
        GridFunction.from_callable(g, lambda x: x * x / 2)
    )
