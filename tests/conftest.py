import itertools

import numpy as np
import pytest

from georay.grids import Box, Grid, GridFunction, require_convex


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def caratheodory_envelopes(pts, vals, qs):
    """(lower convex, upper concave) envelopes of (pts (N, n), vals) at qs,
    +inf and -inf off the hull of pts.  By Caratheodory, they are the min
    and the max, over the n-simplices of the points with non-zero volume
    that contain q, of the barycentric interpolation of the values."""
    tri = np.array(list(itertools.combinations(range(len(pts)), pts.shape[1] + 1)))
    edges = pts[tri[:, 1:]] - pts[tri[:, :1]]
    keep = np.abs(np.linalg.det(edges)) > 1e-12
    tri, inv = tri[keep], np.linalg.inv(edges[keep])
    lower = np.empty(len(qs))
    upper = np.empty(len(qs))
    for i, q in enumerate(qs):
        b = np.einsum("tj,tjk->tk", q - pts[tri[:, 0]], inv)
        lam = np.column_stack([1.0 - b.sum(axis=1), b])
        inside = (lam >= -1e-13).all(axis=1)
        interp = (lam[inside] * vals[tri[inside]]).sum(axis=1)
        lower[i], upper[i] = interp.min(initial=np.inf), interp.max(initial=-np.inf)
    return lower, upper


@pytest.fixture(scope="session")
def caratheodory():
    """The brute-force envelope oracle ``caratheodory_envelopes``."""
    return caratheodory_envelopes


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
