import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from georay.errors import DomainError
from georay.grids import Box, ConvexGridFunction, GridFunction, NEG_INF, _lower_hull_1d, make_grid
from georay.instances import (
    linear_growth_bowl,
    quadratic_1d,
    quadratic_2d,
    random_convex_1d,
    random_nonconvex_1d,
)
from georay.legendre import (
    SlopeRegion,
    _transform_1d,
    _transform_brute,
    biconjugate,
    check_dual_contains_slopes,
    default_dual_grid,
    legendre,
    subgradient_range,
    superlevel_of_concave,
)
from georay.monge_ampere import _energy_dual_grid


def conjugate_oracle(f, dual):
    """Exhaustive double-loop conjugate; the reference for both methods."""
    xs = f.grid.coords()
    ys = dual.coords()
    vals = f.values.ravel()
    out = np.empty(dual.num_nodes)
    wit = np.empty(dual.num_nodes, dtype=np.int64)
    for j, y in enumerate(ys):
        # same association as the library: x1*y1 + (x2*y2 - f)
        scores = xs[:, 0] * y[0] - vals if xs.shape[1] == 1 else (
            xs[:, 0] * y[0] + (xs[:, 1] * y[1] - vals)
        )
        wit[j] = int(np.argmax(scores))
        out[j] = scores[wit[j]]
    return out.reshape(dual.shape), wit.reshape(dual.shape)


class TestDefaultDualGrid:
    def test_contains_all_slopes(self, rng):
        for _ in range(5):
            f = random_convex_1d(rng, nodes=33)
            dual = default_dual_grid(f)
            check_dual_contains_slopes(f, dual)

    def test_degenerate_constant(self):
        g = make_grid(Box((0.0,), (1.0,)), 9)
        f = GridFunction(g, np.zeros(9))
        dual = default_dual_grid(f)
        assert dual.box.lower[0] < 0.0 < dual.box.upper[0]

    def test_scalar_node_count_broadcasts_2d(self):
        assert default_dual_grid(quadratic_2d(17), 33).shape == (33, 33)


class TestTransform:
    def test_quadratic_closed_form(self):
        # (x^2/2)* = y^2/2 exactly at slopes hit by grid nodes
        f = quadratic_1d(257)
        dual = default_dual_grid(f, 257)
        star = legendre(f, dual)
        ys = dual.axis(0)
        h = f.grid.spacing[0]
        inside = np.abs(ys) <= 1.0
        assert np.abs(star.values[inside] - ys[inside] ** 2 / 2).max() <= h * h

    def test_abs_conjugate_is_zero_inside(self):
        g = make_grid(Box((-1.0,), (1.0,)), 129)
        f = GridFunction.from_callable(g, np.abs)
        dual = make_grid(Box((-1.0,), (1.0,)), 65)
        star = legendre(f, dual)
        assert np.abs(star.values).max() <= 1e-12

    def test_fast_equals_brute_exactly(self, rng):
        for nodes in (33, 64):
            f = random_nonconvex_1d(rng, nodes=nodes)
            dual = default_dual_grid(f)
            vf, wf = legendre(f, dual, method="fast", return_witness=True)
            vb, wb = legendre(f, dual, method="brute", return_witness=True)
            assert np.array_equal(vf.values, vb.values)
            assert np.array_equal(wf, wb)

    def test_fast_equals_oracle_2d(self, rng):
        g = make_grid(Box((-1.0, -1.0), (1.0, 1.0)), (9, 11))
        f = GridFunction(g, rng.uniform(-1, 1, (9, 11)))
        dual = make_grid(Box((-2.0, -2.0), (2.0, 2.0)), (7, 8))
        vf, wf = legendre(f, dual, method="fast", return_witness=True)
        ov, ow = conjugate_oracle(f, dual)
        assert np.array_equal(vf.values, ov)
        assert np.array_equal(wf, ow)

    def test_tie_break_lowest_index(self):
        # constant data: every x attains the max at y = 0
        g = make_grid(Box((-1.0,), (1.0,)), 11)
        f = GridFunction(g, np.zeros(11))
        dual = make_grid(Box((-1.0,), (1.0,)), 3)
        _, wit = legendre(f, dual, return_witness=True)
        assert wit[1] == 0  # y = 0 ties everywhere; first node wins

    def test_partial_neg_inf_rejected(self):
        # any -inf node makes the conjugate +inf at every slope
        g = make_grid(Box((0.0,), (1.0,)), 3)
        f = GridFunction(g, np.array([0.0, NEG_INF, 0.0]))
        dual = make_grid(Box((-1.0,), (1.0,)), 3)
        with pytest.raises(DomainError):
            legendre(f, dual)

    def test_identically_neg_inf_rejected(self):
        g = make_grid(Box((0.0,), (1.0,)), 3)
        dual = make_grid(Box((-1.0,), (1.0,)), 3)
        with pytest.raises(DomainError):
            legendre(GridFunction.neg_inf(g), dual)


class TestKernel1D:
    """The certified hull-guided 1-D kernel against the dense argmax."""

    @pytest.mark.parametrize("make", [quadratic_1d, linear_growth_bowl])
    def test_certifies_nearly_every_node(self, make):
        # a silent fall back to the dense path must fail here, not only slow down
        f = make(513)
        for dual in (default_dual_grid(f), _energy_dual_grid(f)):
            _, _, dense = _transform_1d(f.grid.axis(0), f.values, dual.axis(0))
            assert dense <= 0.01 * dual.num_nodes

    def test_neg_inf_entries_match_brute(self):
        # curve samples loaded from files are trusted and may be partly -inf
        x = np.linspace(-1.0, 1.0, 7)
        v = np.array([0.0, NEG_INF, 1.0, 0.5, NEG_INF, 0.0, 2.0])
        y = np.linspace(-2.0, 2.0, 9)
        vals, wit, _ = _transform_1d(x, v, y)
        bvals, bwit = _transform_brute([x], v, [y])
        assert np.array_equal(vals, bvals)
        assert np.array_equal(wit, bwit)

    def test_memory_stays_linear(self):
        # a dense m x n temporary here would take 2 GB
        f = quadratic_1d(16385)
        dual = default_dual_grid(f)
        tracemalloc.start()
        try:
            legendre(f, dual)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


@st.composite
def kernel_inputs(draw):
    """Primal data with ties, runs and roundings, and dual nodes that include
    every hull slope exactly."""
    n = draw(st.one_of(st.sampled_from([1, 2, 3]), st.integers(4, 40)))
    lo = draw(st.floats(-3, 0))
    x = np.linspace(lo, lo + draw(st.floats(0.5, 4)), n)
    kind = draw(st.sampled_from(["random", "rounded", "constant", "linear", "kinked"]))
    a, b = draw(st.floats(-5, 5)), draw(st.floats(-5, 5))
    if kind in ("random", "rounded"):
        v = np.asarray(draw(st.lists(st.floats(-10, 10), min_size=n, max_size=n)))
        if kind == "rounded":
            v = np.round(v)
    elif kind == "constant":
        v = np.full(n, a)
    elif kind == "linear":
        v = a * x + b
    else:
        v = np.maximum(a * x, b * x + 1.0)
    hull = _lower_hull_1d(x, v)
    slopes = np.diff(v[hull]) / np.diff(x[hull])
    extra = draw(st.lists(st.floats(-20, 20), min_size=1, max_size=30))
    y = np.sort(np.concatenate([slopes, [a, b], extra]))
    return x, v, y


@settings(max_examples=300, deadline=None)
@given(kernel_inputs())
def test_kernel_1d_equals_brute(data):
    x, v, y = data
    vals, wit, _ = _transform_1d(x, v, y)
    bvals, bwit = _transform_brute([x], v, [y])
    assert np.array_equal(vals, bvals)
    assert np.array_equal(wit, bwit)


class TestBiconjugate:
    def test_fixed_point_on_convex(self, rng):
        f = random_convex_1d(rng, nodes=129)
        dual = default_dual_grid(f)
        bound = 2 * f.grid.box.diameter * dual.spacing[0]
        assert np.abs(biconjugate(f, dual).values - f.values).max() <= bound

    def test_below_original(self, rng):
        f = random_nonconvex_1d(rng, nodes=65)
        dual = default_dual_grid(f)
        assert (biconjugate(f, dual).values <= f.values + 1e-9).all()

    def test_triple_conjugate_equals_conjugate(self, rng):
        # f*** = f* exactly: the conjugate is already convex
        f = random_nonconvex_1d(rng, nodes=65)
        dual = default_dual_grid(f)
        star = legendre(f, dual)
        star3 = legendre(biconjugate(f, dual), dual)
        assert np.abs(star3.values - star.values).max() <= 1e-10 * max(
            1.0, np.abs(star.values).max()
        )


class TestSubgradientRange:
    def test_quadratic_recovers_slope_interval(self):
        f = quadratic_1d(257)
        dual = default_dual_grid(f, 257)
        region = subgradient_range(f, dual)
        ys = dual.axis(0)[region.mask]
        hd = dual.spacing[0]
        assert ys.min() == pytest.approx(-1.0, abs=2 * hd)
        assert ys.max() == pytest.approx(1.0, abs=2 * hd)

    def test_abs_recovers_interval(self):
        g = make_grid(Box((-2.0,), (2.0,)), 129)
        f = GridFunction.from_callable(g, np.abs)
        dual = make_grid(Box((-2.0,), (2.0,)), 129)
        region = subgradient_range(f, dual)
        ys = dual.axis(0)[region.mask]
        hd = dual.spacing[0]
        assert ys.min() == pytest.approx(-1.0, abs=2 * hd)
        assert ys.max() == pytest.approx(1.0, abs=2 * hd)

    def test_region_is_convex_1d(self, rng):
        f = random_convex_1d(rng, nodes=65)
        dual = default_dual_grid(f)
        idx = np.flatnonzero(subgradient_range(f, dual).mask)
        assert np.array_equal(idx, np.arange(idx.min(), idx.max() + 1))


class TestSuperlevel:
    def test_nesting(self):
        dual = make_grid(Box((-1.0,), (1.0,)), 33)
        u = GridFunction.from_callable(dual, lambda y: -np.abs(y))
        regions = [superlevel_of_concave(u, lam) for lam in (-0.8, -0.4, -0.1)]
        for big, small in zip(regions, regions[1:]):
            assert (big.mask | small.mask == big.mask).all()

    def test_empty_above_max(self):
        dual = make_grid(Box((-1.0,), (1.0,)), 33)
        u = GridFunction.from_callable(dual, lambda y: -np.abs(y))
        assert superlevel_of_concave(u, 0.5).node_count == 0


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=3, max_size=25))
def test_young_fenchel(vals):
    vals = np.asarray(vals)
    g = make_grid(Box((-1.0,), (1.0,)), vals.size)
    f = GridFunction(g, vals)
    dual = default_dual_grid(f)
    star = legendre(f, dual)
    gap = np.min(
        g.axis(0)[:, None] * dual.axis(0)[None, :]
        - vals[:, None]
        - star.values[None, :]
    )
    scale = max(1.0, np.abs(vals).max())
    assert gap <= 1e-9 * scale  # <x, y> <= f(x) + f*(y)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=3, max_size=25), st.floats(0.01, 5))
def test_order_reversal(vals, bump):
    vals = np.asarray(vals)
    g = make_grid(Box((-1.0,), (1.0,)), vals.size)
    f = GridFunction(g, vals)
    bigger = GridFunction(g, vals + bump)
    dual = default_dual_grid(f)
    sf = legendre(f, dual)
    sb = legendre(bigger, dual)
    assert (sb.values <= sf.values + 1e-12).all()
