import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from georay import grids
from georay.curves import TestCurve as Curve
from georay.errors import DomainError
from georay.grids import (
    Box,
    GridFunction,
    Grid,
    GridFunction,
    NEG_INF,
    lower_convex_envelope,
    lower_envelope,
    require_convex,
)
from georay.rays import Ray


def _family(kind, grid, values):
    """A ray, or a test curve, of three functions on ``grid``."""
    if kind == "ray":
        return Ray(np.array([0.0, 0.5, 1.0]), grid, values)
    return Curve(np.array([-1.0, 0.0, 1.0]), grid, values, lambda_head=-1.0, lambda_c=1.0)


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

    # a span that is infinite, NaN or overflows would reach the conjugate
    @pytest.mark.parametrize(
        "lower, upper, ax",
        [((0.0,), (np.inf,), 0), ((-np.inf,), (0.0,), 0), ((-1e308,), (1e308,), 0),
         ((0.0, np.nan), (1.0, 1.0), 1), ((0.0, 0.0), (1.0, np.inf), 1)],
    )
    def test_box_rejects_non_finite_span(self, lower, upper, ax):
        with pytest.raises(DomainError, match=f"box axis {ax} .* has no finite positive span"):
            Box(lower, upper)

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e13], ids=["nan", "pos-inf", "over-cap"])
    @pytest.mark.parametrize("family", ["ray", "curve"])
    def test_families_reject_what_a_function_rejects(self, family, bad):
        # a ray or a test curve checks its stack of functions, with the
        # message GridFunction gives for the offending one
        g = Grid(Box((0.0, 0.0), (1.0, 2.0)), (3, 4))
        values = np.zeros((3,) + g.shape)
        values[1, 2, 3] = bad
        with pytest.raises(DomainError) as one:
            GridFunction(g, values[1])
        with pytest.raises(DomainError) as stack:
            _family(family, g, values)
        assert str(stack.value) == str(one.value)

    @pytest.mark.parametrize("family", ["ray", "curve"])
    def test_families_reject_wrong_counts(self, family):
        g = Grid(Box((0.0,), (1.0,)), 3)
        with pytest.raises(DomainError, match="^expected 9 values, got 6$"):
            _family(family, g, np.zeros((2, 3)))
        with pytest.raises(DomainError, match="^expected 9 values, got 8$"):
            _family(family, g, np.zeros(8))
        assert _family(family, g, np.arange(9.0)).values.shape == (3, 3)

    def test_certify_rejects_nonconvex(self):
        g = Grid(Box((-1.0,), (1.0,)), 5)
        f = GridFunction.from_callable(g, lambda x: -x * x)
        with pytest.raises(DomainError):
            require_convex("f", f)


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


class TestRequireConvex:
    def test_witness_location(self):
        g = Grid(Box((0.0,), (4.0,)), 5)
        f = GridFunction(g, np.array([0.0, 0.0, 1.0, 0.0, 0.0]))
        message = r"^f is not convex at node 2 \(x = 2\): deviation 1 > 1e-09$"
        with pytest.raises(DomainError, match=message):
            require_convex("f", f)

    def test_convex_passes(self, quad_17):
        assert require_convex("f", quad_17) is quad_17

    def test_concave_parabola_rejected_at_65537_nodes(self):
        # each node stands h^2 / 2 = 4.7e-10 above its neighbours' mean, under
        # the tolerance 5e-10, but the middle of the run stands 0.5 above the chord
        g = Grid(Box((-1.0,), (1.0,)), 65537)
        f = GridFunction.from_callable(g, lambda x: -x * x / 2)
        with pytest.raises(DomainError, match=r"at node 32768 \(x = 0\): deviation 0.5 > 5e-10"):
            require_convex("f", f)

    def test_identically_neg_inf_passes(self):
        f = GridFunction.neg_inf(Grid(Box((0.0, 0.0), (1.0, 1.0)), (3, 3)))
        assert require_convex("f", f) is f
        assert require_convex("f", f, concave=True) is f

    def test_partly_neg_inf(self):
        g = Grid(Box((0.0,), (4.0,)), 5)
        f = GridFunction(g, np.array([NEG_INF, -1.0, 0.0, -1.0, NEG_INF]))
        assert require_convex("u", f, concave=True) is f
        with pytest.raises(DomainError, match=r"^f is -inf at node 0$"):
            require_convex("f", f)
        hole = GridFunction(g, np.array([-1.0, NEG_INF, 0.0, -1.0, NEG_INF]))
        with pytest.raises(DomainError, match=r"^u is -inf at node 1, inside its finite run$"):
            require_convex("u", hole, concave=True)

    def test_2d_names_the_node(self):
        g = Grid(Box((-1.0, -1.0), (1.0, 1.0)), (3, 3))
        vals = np.zeros((3, 3))
        vals[1, 2] = 1.0
        with pytest.raises(DomainError, match=r"at node \(1, 2\) \(x = 0, 1\): deviation 1 > 1e-09"):
            require_convex("f", GridFunction(g, vals))

    def test_no_hull_when_the_bound_holds(self, monkeypatch, rng):
        # a Huber bowl, whose linear runs have second differences of
        # rounding size, plus noise of a few ulps: the second-difference bound
        # certifies it, and the hull is never built
        calls = []
        monkeypatch.setattr(grids, "lower_envelope", lambda *a: calls.append(a))
        g = Grid(Box((-3.0,), (3.0,)), 513)
        f = GridFunction.from_callable(g, lambda x: np.where(np.abs(x) <= 1, x * x / 2, np.abs(x) - 0.5))
        noisy = GridFunction(g, f.values * (1.0 + 1e-15 * rng.standard_normal(513)))
        require_convex("f", noisy)
        require_convex("u", GridFunction(g, -noisy.values), concave=True)
        assert calls == []

    @pytest.mark.parametrize("scale", [1e-13, 1e-11, 1e-9, 1e-7])
    def test_verdict_is_the_hull_height(self, rng, scale):
        # noise around the tolerance: the fast bound and the hull give one verdict
        g = Grid(Box((-1.0,), (1.0,)), 257)
        for _ in range(20):
            x = g.axis(0)
            f = GridFunction(g, x * x / 2 + scale * rng.standard_normal(x.size))
            height = float((f.values - lower_convex_envelope(f).values).max())
            tol = max(grids.TOL_CONVEX_REL * f.value_range(), 1e-12)
            if height > tol:
                with pytest.raises(DomainError):
                    require_convex("f", f)
            else:
                assert require_convex("f", f) is f


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
