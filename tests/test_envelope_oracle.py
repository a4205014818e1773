"""2-D convex and concave envelopes against a brute-force Caratheodory oracle.

In the plane, the lower convex envelope of data (p_i, v_i) at q is the min,
over the node triangles of non-zero area that contain q, of the barycentric
interpolation of the values; the upper concave envelope is the max.
"""

import itertools

import numpy as np
import pytest

from georay.filtration import WeightedLatticeData, concave_transform_g
from georay.grids import Box, Grid, GridFunction, lower_convex_envelope


def caratheodory_envelopes(pts, vals, qs):
    """(lower convex, upper concave) envelopes of (pts, vals) at qs."""
    tri = np.array(list(itertools.combinations(range(len(pts)), 3)))
    a, b, c = pts[tri[:, 0]], pts[tri[:, 1]], pts[tri[:, 2]]
    ab, ac = b - a, c - a
    det = ab[:, 0] * ac[:, 1] - ab[:, 1] * ac[:, 0]
    keep = np.abs(det) > 1e-12
    tri, a, b, c, det = tri[keep], a[keep], b[keep], c[keep], det[keep]
    lower = np.empty(len(qs))
    upper = np.empty(len(qs))
    for i, q in enumerate(qs):
        l1 = ((b[:, 0] - q[0]) * (c[:, 1] - q[1]) - (b[:, 1] - q[1]) * (c[:, 0] - q[0])) / det
        l2 = ((c[:, 0] - q[0]) * (a[:, 1] - q[1]) - (c[:, 1] - q[1]) * (a[:, 0] - q[0])) / det
        lam = np.column_stack([l1, l2, 1.0 - l1 - l2])
        inside = (lam >= -1e-13).all(axis=1)
        assert inside.any(), f"query {q} lies outside the node hull"
        interp = (lam[inside] * vals[tri[inside]]).sum(axis=1)
        lower[i], upper[i] = interp.min(), interp.max()
    return lower, upper


def sample_g(g, rng, count):
    """g's nodes and ``count`` random points of its facets, with the values
    of g there: on a facet, g is the barycentric interpolation of its
    corner values."""
    facets = g.facets[rng.integers(0, len(g.facets), count)]
    lam = rng.dirichlet(np.ones(facets.shape[1]), size=count)
    qs = np.vstack([g.nodes, np.einsum("qi,qij->qj", lam, g.nodes[facets])])
    return qs, np.concatenate([g.values, (lam * g.values[facets]).sum(axis=1)])


def assert_concave_transform_matches(data, k, rng):
    g = concave_transform_g(data, k)
    pts, w = data.reachable(k)
    x, v = pts / k, w / k
    qs, at = sample_g(g, rng, 40)
    _, upper = caratheodory_envelopes(x, v, qs)
    scale = max(1.0, float(np.abs(v).max()))
    assert np.abs(at - upper).max() <= 1e-12 * scale


RIDGE = WeightedLatticeData(np.array([[0, 0], [1, 0], [0, 1], [1, 1]]), np.array([0, 1, 1, 0]))
SIMPLEX = np.array([[0, 0], [1, 0], [0, 1]])


def test_ridge_concave_transform():
    # the envelope is min(x + y, 2 - x - y), which is 1 on the ridge
    qs, at = sample_g(concave_transform_g(RIDGE, 1), np.random.default_rng(1), 40)
    assert np.abs(at - np.minimum(qs.sum(axis=1), 2 - qs.sum(axis=1))).max() <= 1e-12
    assert_concave_transform_matches(RIDGE, 1, np.random.default_rng(0))


@pytest.mark.parametrize("seed", range(4))
def test_random_concave_transform(seed):
    rng = np.random.default_rng(seed)
    box = [(a, b) for a in range(3) for b in range(3)]
    pick = rng.choice(len(box), size=5, replace=False)
    data = WeightedLatticeData(np.array([box[i] for i in pick]), rng.integers(-4, 5, size=5))
    for k in (1, 2):
        assert_concave_transform_matches(data, k, rng)


@pytest.mark.parametrize(
    "weights, plane", [((3, 3, 3), (3.0, 0.0, 0.0)), ((0, 1, 2), (0.0, 1.0, 2.0))]
)
@pytest.mark.parametrize("k", [1, 4])
def test_flat_concave_transform(weights, plane, k):
    # affine weights on the standard simplex: g is the plane c + a.q
    data = WeightedLatticeData(SIMPLEX, np.array(weights))
    qs, at = sample_g(concave_transform_g(data, k), np.random.default_rng(k), 20)
    c, a1, a2 = plane
    assert np.abs(at - (c + a1 * qs[:, 0] + a2 * qs[:, 1])).max() <= 1e-12 * 3
    assert_concave_transform_matches(data, k, np.random.default_rng(k))


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("seed", range(3))
def test_grid_convex_envelope(n, seed):
    rng = np.random.default_rng(seed)
    g = Grid(Box((-1.0, 0.0), (2.0, 1.5)), (n, n))
    vals = rng.normal(size=(n, n))
    env = lower_convex_envelope(GridFunction(g, vals)).values.ravel()
    lower, _ = caratheodory_envelopes(g.coords(), vals.ravel(), g.coords())
    assert np.abs(env - lower).max() <= 1e-12 * max(1.0, float(np.abs(vals).max()))
