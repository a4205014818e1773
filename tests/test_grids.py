import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from georay.errors import DomainError
from georay.grids import (
    Box,
    ConvexGridFunction,
    Grid,
    GridFunction,
    NEG_INF,
    is_convex,
    lower_convex_envelope,
    lower_envelope,
)


def chord_envelope_1d(xs, vals):
    """O(N^2) oracle: min over all chords through pairs of data points."""
    n = len(xs)
    out = np.array(vals, dtype=float)
    for i in range(n):
        for k in range(i + 1, n):
            t = (xs[i:k + 1] - xs[i]) / (xs[k] - xs[i])
            chord = (1 - t) * vals[i] + t * vals[k]
            out[i:k + 1] = np.minimum(out[i:k + 1], chord)
    return out


class TestBoxAndGrid:
    def test_box_rejects_degenerate(self):
        with pytest.raises(DomainError):
            Box((0.0,), (0.0,))
        with pytest.raises(DomainError):
            Box((1.0,), (0.0,))

    def test_box_rejects_dim_3(self):
        with pytest.raises(DomainError):
            Box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))

    def test_grid_needs_three_nodes(self):
        with pytest.raises(DomainError):
            Grid(Box((0.0,), (1.0,)), 2)

    def test_exact_node_coordinates(self):
        g = Grid(Box((-1.0,), (2.0,)), 7)
        h = 3.0 / 6
        assert np.array_equal(g.axis(0), -1.0 + h * np.arange(7))

    def test_cell_volume_2d(self):
        g = Grid(Box((0.0, 0.0), (1.0, 2.0)), (5, 9))
        assert g.cell_volume == pytest.approx((1 / 4) * (2 / 8))


class TestGridFunction:
    def test_rejects_pos_inf_and_nan(self):
        g = Grid(Box((0.0,), (1.0,)), 3)
        with pytest.raises(DomainError):
            GridFunction(g, np.array([0.0, np.inf, 0.0]))
        with pytest.raises(DomainError):
            GridFunction(g, np.array([0.0, np.nan, 0.0]))

    def test_allows_neg_inf(self):
        g = Grid(Box((0.0,), (1.0,)), 3)
        f = GridFunction(g, np.array([0.0, NEG_INF, 0.0]))
        assert f.finite_mask.sum() == 2

    def test_rejects_huge_values(self):
        g = Grid(Box((0.0,), (1.0,)), 3)
        with pytest.raises(DomainError):
            GridFunction(g, np.array([0.0, 1e13, 0.0]))

    def test_shape_mismatch(self):
        g = Grid(Box((0.0,), (1.0,)), 3)
        with pytest.raises(DomainError):
            GridFunction(g, np.zeros(4))

    def test_certify_rejects_nonconvex(self):
        g = Grid(Box((-1.0,), (1.0,)), 5)
        f = GridFunction.from_callable(g, lambda x: -x * x)
        with pytest.raises(DomainError):
            ConvexGridFunction.certify(f)


class TestEnvelope1D:
    def test_matches_chord_oracle_random(self, rng):
        g = Grid(Box((-2.0,), (2.0,)), 33)
        for _ in range(20):
            vals = rng.uniform(-1.0, 1.0, 33)
            env = lower_convex_envelope(GridFunction(g, vals))
            oracle = chord_envelope_1d(g.axis(0), vals)
            assert np.abs(env.values - oracle).max() < 1e-12

    def test_frozen_w_shape(self):
        # f = (1, 0, 1, -1, 1); hull vertices (0,1), (1,0), (3,-1), (4,1)
        g = Grid(Box((0.0,), (4.0,)), 5)
        env = lower_convex_envelope(GridFunction(g, np.array([1.0, 0.0, 1.0, -1.0, 1.0])))
        assert env.values == pytest.approx([1.0, 0.0, -0.5, -1.0, 1.0])

    def test_neg_inf_input_collapses(self):
        g = Grid(Box((0.0,), (1.0,)), 3)
        env = lower_convex_envelope(GridFunction(g, np.array([0.0, NEG_INF, 1.0])))
        assert env.is_identically_neg_inf


class TestEnvelope2D:
    def test_frozen_pyramid(self):
        # spike at the center is cut off by the four corner planes
        g = Grid(Box((-1.0, -1.0), (1.0, 1.0)), (3, 3))
        vals = np.zeros((3, 3))
        vals[1, 1] = 1.0
        env = lower_convex_envelope(GridFunction(g, vals))
        assert env.values == pytest.approx(np.zeros((3, 3)))

    def test_affine_data_is_fixed(self):
        g = Grid(Box((0.0, 0.0), (1.0, 1.0)), (5, 5))
        f = GridFunction.from_callable(g, lambda x, y: 2 * x - 3 * y + 1)
        env = lower_convex_envelope(f)
        assert np.abs(env.values - f.values).max() < 1e-10

    def test_paraboloid_fixed(self):
        g = Grid(Box((-1.0, -1.0), (1.0, 1.0)), (9, 9))
        f = GridFunction.from_callable(g, lambda x, y: x * x + y * y)
        env = lower_convex_envelope(f)
        assert np.abs(env.values - f.values).max() < 1e-10

    def test_collinear_points_raise(self):
        # a plane fitted through a line is not determined: the fallback gave
        # [0, 1, 1] here, not the envelope [0, 0.5, 1] along the line
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        with pytest.raises(DomainError, match="collinear"):
            lower_envelope(pts, np.array([0.0, 2.0, 1.0]))


class TestIsConvex:
    def test_witness_location(self):
        g = Grid(Box((0.0,), (4.0,)), 5)
        f = GridFunction(g, np.array([0.0, 0.0, 1.0, 0.0, 0.0]))
        ok, witness, dev = is_convex(f, tol=1e-9)
        assert not ok
        assert witness == (2,)
        assert dev == pytest.approx(1.0)

    def test_convex_passes(self, quad_17):
        ok, witness, dev = is_convex(quad_17, tol=1e-9)
        assert ok and witness is None


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-100, 100), min_size=4, max_size=40))
def test_envelope_properties(vals):
    vals = np.asarray(vals)
    g = Grid(Box((0.0,), (1.0,)), vals.size)
    f = GridFunction(g, vals)
    env = lower_convex_envelope(f)
    scale = max(1.0, np.abs(vals).max())
    # below the data
    assert (env.values <= vals + 1e-9 * scale).all()
    # convex
    ok, _, _ = is_convex(env, tol=1e-8 * scale)
    assert ok
    # idempotent
    env2 = lower_convex_envelope(env)
    assert np.abs(env2.values - env.values).max() <= 1e-9 * scale


@settings(max_examples=30, deadline=None)
@given(st.floats(-50, 50), st.lists(st.floats(-10, 10), min_size=4, max_size=20))
def test_envelope_shift_equivariance(c, vals):
    vals = np.asarray(vals)
    g = Grid(Box((0.0,), (1.0,)), vals.size)
    e1 = lower_convex_envelope(GridFunction(g, vals + c))
    e2 = lower_convex_envelope(GridFunction(g, vals))
    e2 = GridFunction(e2.grid, e2.values + c)
    scale = max(1.0, np.abs(vals).max() + abs(c))
    assert np.abs(e1.values - e2.values).max() <= 1e-9 * scale
