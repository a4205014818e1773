import numpy as np
import pytest

from georay.grids import Box, Grid, GridFunction, require_convex


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def quad_17():
    """x^2/2 on [-1, 1], 17 nodes."""
    g = Grid(Box((-1.0,), (1.0,)), 17)
    return require_convex("quad_17", GridFunction.from_callable(g, lambda x: x * x / 2))


@pytest.fixture(scope="session")
def three_point():
    """P1 = {0, 1, 2} with weights (1, 0, 2) over 2 filtration_base(129),
    whose slope set is conv(P1) = [0, 2]."""
    from georay.filtration import BergmanInstance, WeightedLatticeData
    from georay.instances import filtration_base
    from georay.legendre import default_dual_grid

    base = filtration_base(129)
    phi = GridFunction(base.grid, 2.0 * base.values)
    data = WeightedLatticeData(np.array([[0], [1], [2]]), np.array([1, 0, 2]))
    return BergmanInstance(phi, default_dual_grid(phi, 129)), data


@pytest.fixture(scope="session")
def simplex_2d():
    """The 2-D Phong-Sturm case at 17^2: phi is the conjugate of |y|^2/2 on
    the standard simplex (65^2 samples of [0, 1]^2) on [-3, 3]^2, the dual
    grid is [-0.5, 1.5]^2, and P1 = {0, e1, e2} carries weights (0, 1, 0)."""
    from georay.filtration import BergmanInstance, WeightedLatticeData

    g = Grid(Box((-3.0, -3.0), (3.0, 3.0)), (17, 17))
    ys = np.linspace(0.0, 1.0, 65)
    y = np.stack(np.meshgrid(ys, ys, indexing="ij"), -1).reshape(-1, 2)
    y = y[y.sum(axis=1) <= 1.0 + 1e-12]
    phi = GridFunction(g, (g.coords() @ y.T - (y * y).sum(axis=1) / 2).max(axis=1))
    inst = BergmanInstance(phi, Grid(Box((-0.5, -0.5), (1.5, 1.5)), (17, 17)))
    data = WeightedLatticeData(np.array([[0, 0], [1, 0], [0, 1]]), np.array([0, 1, 0]))
    return inst, data
