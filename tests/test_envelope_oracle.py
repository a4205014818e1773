"""Convex and concave envelopes against the brute-force Caratheodory oracle.

g-hat, the concave envelope of the degree-1 weights, is linear on each of
``weight_facets``; the concave envelope of the normalized degree-k weights
(alpha / k, weight(alpha) / k) is g-hat for every k, which the oracle
confirms at degree k.
"""

import numpy as np
import pytest

from georay.filtration import WeightedLatticeData, weight_envelope, weight_facets
from georay.grids import Box, Grid, GridFunction, lower_convex_envelope


def sample_g(data, rng, count):
    """P1 and ``count`` random points of the facets of g-hat, with
    ``weight_envelope`` there; on a facet it is the barycentric
    interpolation of the corner weights."""
    facets = weight_facets(data)
    facets = facets[rng.integers(0, len(facets), count)]
    lam = rng.dirichlet(np.ones(facets.shape[1]), size=count)
    nodes = data.points.astype(float)
    qs = np.vstack([nodes, np.einsum("qi,qij->qj", lam, nodes[facets])])
    at = weight_envelope(data, qs)
    scale = max(1.0, float(np.abs(data.weights).max()))
    assert np.abs(at[len(nodes):] - (lam * data.weights[facets]).sum(axis=1)).max() <= 1e-12 * scale
    return qs, at


def assert_concave_transform_matches(caratheodory, data, k, rng):
    pts, w = data.reachable(k)
    x, v = pts / k, w / k
    qs, at = sample_g(data, rng, 40)
    _, upper = caratheodory(x, v, qs)
    scale = max(1.0, float(np.abs(v).max()))
    assert np.abs(at - upper).max() <= 1e-12 * scale


RIDGE = WeightedLatticeData(np.array([[0, 0], [1, 0], [0, 1], [1, 1]]), np.array([0, 1, 1, 0]))
SIMPLEX = np.array([[0, 0], [1, 0], [0, 1]])


def test_ridge_concave_transform(caratheodory):
    # the envelope is min(x + y, 2 - x - y), which is 1 on the ridge
    qs, at = sample_g(RIDGE, np.random.default_rng(1), 40)
    assert np.abs(at - np.minimum(qs.sum(axis=1), 2 - qs.sum(axis=1))).max() <= 1e-12
    assert_concave_transform_matches(caratheodory, RIDGE, 1, np.random.default_rng(0))


@pytest.mark.parametrize("seed", range(4))
def test_random_concave_transform(caratheodory, seed):
    rng = np.random.default_rng(seed)
    box = [(a, b) for a in range(3) for b in range(3)]
    pick = rng.choice(len(box), size=5, replace=False)
    data = WeightedLatticeData(np.array([box[i] for i in pick]), rng.integers(-4, 5, size=5))
    for k in (1, 2):
        assert_concave_transform_matches(caratheodory, data, k, rng)


@pytest.mark.parametrize(
    "weights, plane", [((3, 3, 3), (3.0, 0.0, 0.0)), ((0, 1, 2), (0.0, 1.0, 2.0))]
)
@pytest.mark.parametrize("k", [1, 4])
def test_flat_concave_transform(caratheodory, weights, plane, k):
    # affine weights on the standard simplex: g is the plane c + a.q
    data = WeightedLatticeData(SIMPLEX, np.array(weights))
    qs, at = sample_g(data, np.random.default_rng(k), 20)
    c, a1, a2 = plane
    assert np.abs(at - (c + a1 * qs[:, 0] + a2 * qs[:, 1])).max() <= 1e-12 * 3
    assert_concave_transform_matches(caratheodory, data, k, np.random.default_rng(k))


def test_fifteen_points_on_a_65_grid(caratheodory):
    # C(15, 3) simplices times 65^2 nodes is over the size cap, so g-hat
    # cannot be a max over every simplex of P1 at each node
    rng = np.random.default_rng(15)
    box = np.array([(a, b) for a in range(5) for b in range(5)])
    data = WeightedLatticeData(box[rng.choice(25, size=15, replace=False)], rng.integers(-6, 7, size=15))
    ys = Grid(Box((-0.5, -0.5), (4.5, 4.5)), (65, 65)).coords()
    _, upper = caratheodory(data.points.astype(float), data.weights.astype(float), ys)
    at = weight_envelope(data, ys)
    assert np.array_equal(np.isfinite(at), np.isfinite(upper))
    on = np.isfinite(upper)
    assert np.abs(at[on] - upper[on]).max() <= 1e-12 * 6


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("seed", range(3))
def test_grid_convex_envelope(caratheodory, n, seed):
    rng = np.random.default_rng(seed)
    g = Grid(Box((-1.0, 0.0), (2.0, 1.5)), (n, n))
    vals = rng.normal(size=(n, n))
    env = lower_convex_envelope(GridFunction(g, vals)).values.ravel()
    lower, _ = caratheodory(g.coords(), vals.ravel(), g.coords())
    assert np.abs(env - lower).max() <= 1e-12 * max(1.0, float(np.abs(vals).max()))
