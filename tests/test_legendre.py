import tracemalloc
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import georay.grids as GRIDS
import georay.legendre as LEGENDRE
from georay.curves import envelope
from georay.errors import DomainError
from georay.grids import Box, Grid, GridFunction, NEG_INF, _lower_hull_1d, require_convex
from georay.instances import (
    linear_growth_bowl,
    quadratic_1d,
    quadratic_2d,
    random_convex_1d,
    random_nonconvex_1d,
)
from georay.legendre import (
    _convex_fill,
    _transform_1d,
    _transform_brute,
    biconjugate,
    conjugate,
    default_dual_grid,
    dual_base,
    integral,
    legendre,
    slope_regions,
    trapezoid_weights,
)
from georay.monge_ampere import _energy_dual_grid
from georay.rays import ray_dual


def conjugate_oracle(f, dual):
    """Exhaustive double-loop conjugate; the reference for the kernel and the brute force."""
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


def same_bits(a, b):
    """Equal arrays bit for bit, signs of zero included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def values_only(fn, *args):
    """The values of a kernel call without witnesses; checks that it
    returns no witness."""
    out = fn(*args)
    assert all(o is None for o in out[1:3 if fn is _transform_1d else 2])
    return out[0]


def test_package_does_not_shadow_the_module():
    assert isinstance(LEGENDRE, types.ModuleType)


class TestDefaultDualGrid:
    def test_contains_all_slopes(self, rng):
        for _ in range(5):
            f = random_convex_1d(rng, nodes=33)
            dual_base(f, default_dual_grid(f))  # raises where the box misses a slope

    def test_degenerate_constant(self):
        g = Grid(Box((0.0,), (1.0,)), 9)
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
        g = Grid(Box((-1.0,), (1.0,)), 129)
        f = GridFunction.from_callable(g, np.abs)
        dual = Grid(Box((-1.0,), (1.0,)), 65)
        star = legendre(f, dual)
        assert np.abs(star.values).max() <= 1e-12

    def test_fast_equals_brute_exactly(self, rng):
        for nodes in (33, 64):
            f = random_nonconvex_1d(rng, nodes=nodes)
            dual = default_dual_grid(f)
            axes, dual_axes = f.grid.axes(), dual.axes()
            vf, wf = conjugate(axes, f.values, dual_axes, witness=True)
            vb, wb = _transform_brute(axes, f.values, dual_axes)
            assert np.array_equal(vf, vb)
            assert np.array_equal(wf, wb)

    def test_fast_equals_oracle_2d(self, rng):
        g = Grid(Box((-1.0, -1.0), (1.0, 1.0)), (9, 11))
        f = GridFunction(g, rng.uniform(-1, 1, (9, 11)))
        dual = Grid(Box((-2.0, -2.0), (2.0, 2.0)), (7, 8))
        vf, wf = conjugate(f.grid.axes(), f.values, dual.axes(), witness=True)
        ov, ow = conjugate_oracle(f, dual)
        assert np.array_equal(vf, ov)
        assert np.array_equal(wf, ow)

    def test_tie_break_lowest_index(self):
        # constant data: every x attains the max at y = 0
        g = Grid(Box((-1.0,), (1.0,)), 11)
        f = GridFunction(g, np.zeros(11))
        dual = Grid(Box((-1.0,), (1.0,)), 3)
        _, wit = conjugate(f.grid.axes(), f.values, dual.axes(), witness=True)
        assert wit[1] == 0  # y = 0 ties everywhere; first node wins

    def test_tied_signed_zeros_keep_the_first_maximizer(self):
        # at y = 0, x*y - f is -0.0 - 0.0 = -0.0 at x = -4 and -0.0 - (-0.0)
        # = 0.0 at x = -3: the window settles the pair and takes the first
        x = np.arange(-8.0, 1.0)
        f = np.array([16.0, 9.0, 4.0, 1.0, 0.0, -0.0, 1.0, 4.0, 9.0])
        y = np.array([0.0])
        vals, wit, _, dense = _transform_1d(x, f, y, True)
        assert not dense.any()
        assert same_bits(vals[0], np.array([-0.0])) and wit[0, 0] == 4
        assert same_bits(values_only(conjugate, [x], f, [y]), vals[0])
        bvals, bwit = _transform_brute([x], f, [y])
        assert same_bits(bvals, vals[0]) and np.array_equal(bwit, wit[0])

    def test_partial_neg_inf_rejected(self):
        # any -inf node makes the conjugate +inf at every slope
        g = Grid(Box((0.0,), (1.0,)), 3)
        f = GridFunction(g, np.array([0.0, NEG_INF, 0.0]))
        dual = Grid(Box((-1.0,), (1.0,)), 3)
        with pytest.raises(DomainError):
            legendre(f, dual)

    def test_identically_neg_inf_rejected(self):
        g = Grid(Box((0.0,), (1.0,)), 3)
        dual = Grid(Box((-1.0,), (1.0,)), 3)
        with pytest.raises(DomainError):
            legendre(GridFunction(g, np.full(3, NEG_INF)), dual)

    def test_neg_inf_error_names_the_node(self):
        g = Grid(Box((0.0, -1.0), (1.0, 1.0)), (3, 5))
        v = np.zeros(g.shape)
        v[1, 3] = NEG_INF
        dual = Grid(Box((-1.0, -1.0), (1.0, 1.0)), (3, 3))
        want = r"^conjugate of a function that is -inf at node \(1, 3\) \(x = 0.5, 0.5\) is \+inf everywhere$"
        with pytest.raises(DomainError, match=want):
            legendre(GridFunction(g, v), dual)


class TestKernel1D:
    """The certified hull-guided 1-D kernel against the dense argmax."""

    @pytest.mark.parametrize("make", [quadratic_1d, linear_growth_bowl])
    def test_certifies_nearly_every_node(self, make):
        # a silent fall back to the dense path must fail here, not only slow down
        f = make(513)
        for dual in (default_dual_grid(f), _energy_dual_grid(f)):
            _, _, _, dense = _transform_1d(f.grid.axis(0), f.values, dual.axis(0))
            assert dense.sum() <= 0.01 * dual.num_nodes

    def test_masked_row_is_cut_not_dense(self):
        # a contiguous selection is cut to its run and stays certified
        f = linear_growth_bowl(513)
        mask = np.abs(f.grid.axis(0)) <= 2.0
        y = _energy_dual_grid(f).axis(0)
        vals, _, _, dense = _transform_1d(f.grid.axis(0), np.where(mask, f.values, np.inf), y)
        assert dense.sum() <= 0.01 * y.size
        ovals, _ = masked_oracle([f.grid.axis(0)], f.values, mask, [y])
        assert np.array_equal(vals[0], ovals)

    def test_descending_nodes_rejected(self):
        x = np.linspace(-1.0, 1.0, 7)
        with pytest.raises(ValueError):
            _transform_1d(x, x * x, np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            _transform_1d(x[::-1], x * x, np.array([0.0, 1.0]))

    def test_neg_inf_entries_match_brute(self):
        # curve samples loaded from files are trusted and may be partly -inf
        x = np.linspace(-1.0, 1.0, 7)
        v = np.array([0.0, NEG_INF, 1.0, 0.5, NEG_INF, 0.0, 2.0])
        y = np.linspace(-2.0, 2.0, 9)
        vals, wit, _, _ = _transform_1d(x, v, y, True)
        bvals, bwit = _transform_brute([x], v, [y])
        assert np.array_equal(vals[0], bvals)
        assert np.array_equal(wit[0], bwit)
        assert same_bits(values_only(_transform_1d, x, v, y), vals)

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
    vals, wit, _, _ = _transform_1d(x, v, y, True)
    bvals, bwit = _transform_brute([x], v, [y])
    assert np.array_equal(vals[0], bvals)
    assert np.array_equal(wit[0], bwit)
    assert same_bits(values_only(_transform_1d, x, v, y), vals)


def huber_bowl_2d(n):
    """Sum of 1-D Huber bowls on [-3, 3]^2 with a small tilt: linear runs,
    quadratic patches and a kink in every row and column."""
    g = Grid(Box((-3.0, -3.0), (3.0, 3.0)), (n, n))
    x1, x2 = np.meshgrid(g.axis(0), g.axis(1), indexing="ij")
    hub = lambda x: np.where(np.abs(x) <= 1.0, x * x / 2, np.abs(x) - 0.5)
    return require_convex(
        "huber_bowl_2d", GridFunction(g, hub(x1) + hub(x2) + 0.13 * x1 - 0.27 * x2)
    )


def slope_mask(f, dual):
    """The slope-region mask of one function: ``slope_regions`` on the batch of one."""
    mask, _, _ = next(slope_regions(f.grid, f.values[None], dual))
    return mask


def noisy_bowl_2d(n=33, seed=0):
    """(x^2 + y^2)/2 plus 1e-3 standard-normal noise on [-1, 1]^2: not
    convex, and 2-D, so ``georay ray`` takes it uncertified."""
    g = Grid(Box((-1.0, -1.0), (1.0, 1.0)), (n, n))
    x1, x2 = np.meshgrid(g.axis(0), g.axis(1), indexing="ij")
    noise = np.random.default_rng(seed).standard_normal(g.shape)
    return GridFunction(g, (x1 * x1 + x2 * x2) / 2 + 1e-3 * noise)


def bowl_instance_2d(n):
    """The 2-D bowl with u = -(|y1| + |y2|)/2 on its slope region."""
    phi = huber_bowl_2d(n)
    dual = default_dual_grid(phi)
    y1, y2 = np.meshgrid(*dual.axes(), indexing="ij")
    uvals = np.where(slope_mask(phi, dual), -(np.abs(y1) + np.abs(y2)) / 2, -np.inf)
    return phi, dual, GridFunction(dual, uvals)


def masked_oracle(axes, values, mask, dual_axes):
    """Max of the shared expression over the selected nodes only, with the
    lowest selected flat index as witness; -inf where nothing is selected."""
    mesh = np.meshgrid(*axes, indexing="ij")
    xs = [a.ravel()[mask.ravel()] for a in mesh]
    idx = np.flatnonzero(mask.ravel())
    v = values.ravel()[idx]
    shape = tuple(len(a) for a in dual_axes)
    out = np.full(shape, -np.inf)
    wit = np.zeros(shape, dtype=np.intp)
    for q in np.ndindex(shape):
        ys = [a[i] for a, i in zip(dual_axes, q)]
        if len(axes) == 1:
            cand = xs[0] * ys[0] - v
        else:
            cand = xs[0] * ys[0] + (xs[1] * ys[1] - v)
        if cand.size:
            k = int(np.argmax(cand))
            out[q], wit[q] = cand[k], idx[k]
    return out, wit


def _data(draw, kind, x1, x2):
    """Values on the grid x1 x x2 of one kind, plus the slopes they use."""
    a, b, c = (draw(st.floats(-5, 5)) for _ in range(3))
    X1, X2 = np.meshgrid(x1, x2, indexing="ij")
    if kind in ("random", "rounded"):
        v = np.asarray(
            draw(st.lists(st.floats(-10, 10), min_size=X1.size, max_size=X1.size))
        ).reshape(X1.shape)
        v = np.round(v) if kind == "rounded" else v
    elif kind == "constant":
        v = np.full(X1.shape, a)
    elif kind == "linear":
        v = a * X1 + b * X2 + c
    elif kind == "kinked":
        v = np.maximum(a * X1 + b * X2, b * X1 - a * X2 + 1.0)
    else:  # bowl: quadratic rows whose slopes meet dual nodes at midpoints
        v = (X1 * X1 + X2 * X2) / 2 + a * X1 + b * X2
    return v, [a, b, c]


@st.composite
def grid_inputs(draw):
    """2-D primal axes (3 nodes and up, n1 != n2 allowed), data of every kind,
    and ascending dual axes that include the data's slopes exactly: those it
    was built with, and the chord slopes of one row and one column."""
    axes = []
    for _ in range(2):
        lo = draw(st.floats(-3, 0))
        axes.append(np.linspace(lo, lo + draw(st.floats(0.5, 4)), draw(st.integers(3, 12))))
    kind = draw(st.sampled_from(["random", "rounded", "constant", "linear", "kinked", "bowl"]))
    v, slopes = _data(draw, kind, *axes)
    i = draw(st.integers(0, v.shape[0] - 1))
    j = draw(st.integers(0, v.shape[1] - 1))
    chords = [np.diff(v[:, j]) / np.diff(axes[0]), np.diff(v[i]) / np.diff(axes[1])]
    dual_axes = []
    for chord in chords:
        extra = draw(st.lists(st.floats(-20, 20), min_size=1, max_size=9))
        dual_axes.append(np.sort(np.concatenate([slopes, chord, extra])))
    return axes, v, dual_axes


@settings(max_examples=300, deadline=None)
@given(grid_inputs())
def test_conjugate_2d_equals_brute(data):
    axes, v, dual_axes = data
    vals, wit = conjugate(axes, v, dual_axes, True)
    bvals, bwit = _transform_brute(axes, v, dual_axes)
    assert np.array_equal(vals, bvals)
    assert np.array_equal(wit, bwit)
    assert same_bits(values_only(conjugate, axes, v, dual_axes), vals)


@st.composite
def row_inputs(draw):
    """Rows of every kind, 1 to 40 nodes on a shared x, some with a +inf
    hole, cut to a run of 1 to 5 nodes, or with a -inf entry; and ascending
    dual nodes that include the chord slope of every pair of adjacent nodes."""
    n = draw(st.one_of(st.sampled_from([1, 2, 3]), st.integers(4, 40)))
    lo = draw(st.floats(-3, 0))
    x = np.linspace(lo, lo + draw(st.floats(0.5, 4)), n)
    rows, ys = [], [draw(st.lists(st.floats(-20, 20), min_size=1, max_size=9))]
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["random", "rounded", "constant", "linear", "kinked", "bowl"]))
        v, slopes = _data(draw, kind, x, np.zeros(1))
        row = v[:, 0]
        ys += [slopes, np.diff(row) / np.diff(x)]
        extra = draw(st.sampled_from(["none", "hole", "short run", "-inf"]))
        i = draw(st.integers(0, n - 1))
        if extra == "hole":
            row[i] = np.inf
        elif extra == "short run":
            row = np.where(np.abs(np.arange(n) - i) < draw(st.integers(1, 3)), row, np.inf)
        elif extra == "-inf":
            row[i] = -np.inf
        rows.append(row)
    return x, np.array(rows), np.sort(np.concatenate(ys))


def kinked_row(n, a, b):
    """A kink joining two linear runs, with dual nodes on every chord slope:
    along a run the chord slopes differ in their last bits, and only the
    certificate's margin keeps a rounded-down bound from settling a pair."""
    x = np.linspace(-1.0, 2.0, n)
    v = np.maximum(a * x, b * x + 1.0)
    return x, v[None, :], np.sort(np.concatenate([np.diff(v) / np.diff(x), [a, b]]))


@settings(max_examples=300, deadline=None)
@given(row_inputs())
@example(kinked_row(12, 3.9, 0.5))
@example(kinked_row(10, 0.2, 1.3))
def test_row_kernel_equals_brute(data):
    # every row is a separate 1-D problem on the shared x
    x, v, y = data
    vals, wit, gap, _ = _transform_1d(x, v, y, True)
    assert same_bits(values_only(_transform_1d, x, v, y), vals)
    for r in range(v.shape[0]):
        bvals, bwit = _transform_brute([x], v[r], [y])
        assert np.array_equal(vals[r], bvals)
        assert np.array_equal(wit[r], bwit)
        # gap bounds vals minus every candidate below the witness
        for q, w in enumerate(wit[r]):
            below = x[:w] * y[q] - v[r, :w]
            assert not (vals[r, q] - below < gap[r, q]).any()


@st.composite
def masked_inputs(draw):
    axes, v, dual_axes = draw(grid_inputs())
    X1, X2 = np.meshgrid(*axes, indexing="ij")
    kind = draw(st.sampled_from(["convex", "nonconvex", "empty rows", "empty"]))
    if kind == "nonconvex":
        bits = draw(st.lists(st.booleans(), min_size=X1.size, max_size=X1.size))
        mask = np.asarray(bits).reshape(X1.shape)
    elif kind == "empty":
        mask = np.zeros(X1.shape, dtype=bool)
    else:
        c1, c2 = draw(st.floats(-3, 3)), draw(st.floats(-3, 3))
        mask = (X1 - c1) ** 2 + (X2 - c2) ** 2 <= draw(st.floats(0.1, 9)) ** 2
        if kind == "empty rows":
            mask[draw(st.integers(0, X1.shape[0] - 1)) :] = False
    return axes, v, mask, dual_axes


@settings(max_examples=300, deadline=None)
@given(masked_inputs())
def test_masked_conjugate_equals_masked_max(data):
    axes, v, mask, dual_axes = data
    masked = np.where(mask, v, np.inf)
    vals, wit = conjugate(axes, masked, dual_axes, True)
    ovals, owit = masked_oracle(axes, v, mask, dual_axes)
    assert np.array_equal(vals, ovals)
    hit = np.isfinite(ovals)
    assert np.array_equal(wit[hit], owit[hit])
    assert same_bits(values_only(conjugate, axes, masked, dual_axes), vals)
    # the same masks row by row, through the row kernel
    (_, x), (_, y) = axes, dual_axes
    rvals, rwit, _, _ = _transform_1d(x, masked, y, True)
    assert same_bits(values_only(_transform_1d, x, masked, y), rvals)
    for r in range(v.shape[0]):
        ovals, owit = masked_oracle([x], v[r], mask[r], [y])
        assert np.array_equal(rvals[r], ovals)
        assert np.array_equal(rwit[r][np.isfinite(ovals)], owit[np.isfinite(ovals)])


@pytest.mark.parametrize(
    "shape, dual_shape",
    # the oracle's blocks hold 31 of 65 dual nodes in 1-D and 15 of 65
    # columns at 65 x 33; the 9 x 14 grid takes its 65 columns in one block
    [((513,), (65,)), ((65, 33), (17, 65)), ((9, 14), (23, 65))],
)
@pytest.mark.parametrize("neg_inf", [False, True], ids=["finite", "-inf"])
def test_brute_equals_masked_oracle(rng, shape, dual_shape, neg_inf):
    """The blocked oracle against the per-node loop with every node selected:
    ties from rounded values, n1 != n2 and m1 != m2, and rows with -inf."""
    axes = [np.linspace(-1.0, 2.0, n) for n in shape]
    dual_axes = [np.linspace(-3.0, 2.5, m) for m in dual_shape]
    v = np.round(rng.uniform(-2.0, 2.0, shape), 1)
    if neg_inf:
        v.flat[rng.choice(v.size, 3, replace=False)] = -np.inf
    vals, wit = _transform_brute(axes, v, dual_axes)
    ovals, owit = masked_oracle(axes, v, np.ones(shape, dtype=bool), dual_axes)
    assert np.array_equal(vals, ovals)
    assert np.array_equal(wit, owit)


@st.composite
def batch_inputs(draw):
    """A stack of 1 to 7 functions on shared 1-D or 2-D axes: data of every
    kind, some with +inf masks, all +inf, or one -inf or NaN entry; dual axes
    holding their slopes; and a block size from one row per block up."""
    dim = draw(st.sampled_from([1, 2]))
    axes = []
    for _ in range(dim):
        lo = draw(st.floats(-3, 0))
        axes.append(np.linspace(lo, lo + draw(st.floats(0.5, 4)), draw(st.integers(3, 12))))
    shape = tuple(len(a) for a in axes)
    items, slopes = [], []
    for _ in range(draw(st.integers(1, 7))):
        kind = draw(st.sampled_from(["random", "rounded", "constant", "linear", "kinked", "bowl"]))
        v, used = _data(draw, kind, axes[0], axes[1] if dim == 2 else np.zeros(1))
        v = v.reshape(shape)
        slopes += used
        extra = draw(st.sampled_from(["none", "mask", "all +inf", "-inf", "nan"]))
        if extra == "mask":
            bits = draw(st.lists(st.booleans(), min_size=v.size, max_size=v.size))
            v = np.where(np.reshape(bits, shape), v, np.inf)
        elif extra == "all +inf":
            v = np.full(shape, np.inf)
        elif extra != "none":
            v.flat[draw(st.integers(0, v.size - 1))] = -np.inf if extra == "-inf" else np.nan
        items.append(v)
    extra = [draw(st.lists(st.floats(-20, 20), min_size=1, max_size=9)) for _ in range(dim)]
    dual_axes = [np.sort(np.concatenate([slopes, e])) for e in extra]
    block = draw(st.one_of(st.just(GRIDS._BLOCK), st.integers(1, 300)))
    return axes, np.stack(items), dual_axes, block


@settings(max_examples=300, deadline=None)
@given(batch_inputs())
def test_batched_conjugate_equals_single_calls(data):
    # small blocks split the stack's rows across the kernel's row blocks
    axes, stack, dual_axes, block = data
    with mock.patch.object(GRIDS, "_BLOCK", block):
        # the groups follow the patched block, so the patch reached its owner
        assert len(list(GRIDS._chunks(10**4, 1))) == -(-(10**4) // block)
        vals, wit = conjugate(axes, stack, dual_axes, True)
        plain = values_only(conjugate, axes, stack, dual_axes)
    assert vals.shape == wit.shape == (len(stack),) + tuple(len(a) for a in dual_axes)
    assert same_bits(plain, vals)
    for v, bvals, bwit in zip(stack, vals, wit):
        svals, swit = conjugate(axes, v, dual_axes, True)
        assert np.array_equal(bvals, svals, equal_nan=True)
        assert np.array_equal(bwit, swit)
        assert same_bits(values_only(conjugate, axes, v, dual_axes), svals)


class TestKernel2D:
    def test_absorbed_ties_match_brute(self):
        # y2 equal to the slope of linear data: the inner candidates differ
        # by rounding only, and adding x1*y1 can round a lower index up to
        # the max, which brute force then reports
        x1, x2 = np.linspace(-3.0, 1.0, 7), np.linspace(-1.0, 2.5, 9)
        v = 0.3 * x1[:, None] + 1.7 * x2[None, :] - 0.1
        dual_axes = [np.array([-9.0, 0.3, 7.5]), np.array([-2.0, 1.7, 4.0])]
        vals, wit = conjugate([x1, x2], v, dual_axes, True)
        bvals, bwit = _transform_brute([x1, x2], v, dual_axes)
        assert np.array_equal(vals, bvals)
        assert np.array_equal(wit, bwit)
        # the tie redo fixes witnesses only
        assert same_bits(values_only(conjugate, [x1, x2], v, dual_axes), vals)

    def test_certifies_nearly_every_pair(self):
        # a silent fall back to the dense path must fail here, not only slow down
        f = huber_bowl_2d(65)
        dual = _energy_dual_grid(f)
        (x1, x2), (y1, y2) = f.grid.axes(), dual.axes()
        t, _, _, dense_inner = _transform_1d(x2, f.values, y2)
        _, _, _, dense_outer = _transform_1d(x1, -t.T, y1)
        dense = dense_inner.sum() + dense_outer.sum()
        assert dense <= 0.05 * (dense_inner.size + dense_outer.size)

    def test_envelope_memory_2d(self):
        # the dense (primal x selected dual) matmul it replaced peaked at 256 MB
        phi, dual, u = bowl_instance_2d(65)
        lambdas = np.linspace(-1.0, 0.0, 5)
        star = legendre(phi, dual)
        tracemalloc.start()
        try:
            envelope(star, u, lambdas, phi.grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_envelope_2d_matches_masked_max(self):
        phi, dual, u = bowl_instance_2d(17)
        lam = -0.5
        star = legendre(phi, dual)
        tc = envelope(star, u, [lam], phi.grid)
        sel = u.values >= lam - 1e-12
        want, _ = masked_oracle(dual.axes(), star.values, sel, phi.grid.axes())
        assert np.array_equal(tc.values[0], want)


class TestOneDimensionalCallers:
    """1-D envelopes and dual rays are the brute-force conjugates of phi*
    (phi* - t u) set to +inf off their selections, signs of zero included:
    a stack of 0 / +inf offsets added to phi* instead turns phi*(0) = -0.0
    into 0.0, which ``np.array_equal`` cannot see."""

    @staticmethod
    def instances():
        from georay.instances import constant_u_instance, huber_instance

        return huber_instance(nodes=129, lambda_spacing=0.125), constant_u_instance()

    @staticmethod
    def assert_brute(inst, got, values):
        want, _ = _transform_brute(inst.dual.axes(), values, inst.phi.grid.axes())
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_envelope_from_u_bytes(self):
        for inst in self.instances():
            star = legendre(inst.phi, inst.dual).values
            for lam, s in zip(inst.curve.lambdas, inst.curve.values):
                sel = inst.u.values >= lam - 1e-12
                if sel.any():
                    self.assert_brute(inst, s, np.where(sel, star, np.inf))

    def test_ray_dual_bytes(self):
        ts = np.linspace(0.0, 1.0, 5)
        for inst in self.instances():
            star = legendre(inst.phi, inst.dual)
            ray = ray_dual(star, inst.u, inst.phi.grid, ts)
            sel = inst.u.finite_mask
            for t, fr in zip(ts, ray.values):
                mod = np.full(inst.dual.shape, np.inf)
                mod[sel] = star.values[sel] - t * inst.u.values[sel]
                self.assert_brute(inst, fr, mod)


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


def convex_fill_qhull(grid, mask):
    """The former float-coordinate fill: Qhull's hull of the true nodes with
    a 1e-9 * scale tolerance; flat or single-line sets fill their index box."""
    from scipy.spatial import ConvexHull, QhullError

    if mask.sum() <= 1:
        return mask
    ii, jj = np.nonzero(mask)
    box = np.zeros_like(mask)
    box[ii.min() : ii.max() + 1, jj.min() : jj.max() + 1] = True
    pts = grid.coords()[mask.ravel()]
    if np.ptp(pts[:, 0]) < 1e-15 or np.ptp(pts[:, 1]) < 1e-15:
        return box
    try:
        hull = ConvexHull(pts)
    except QhullError:
        return box
    eq = hull.equations
    scale = max(1.0, float(np.abs(pts).max()))
    inside = np.all(grid.coords() @ eq[:, :2].T + eq[:, 2] <= 1e-9 * scale, axis=1)
    return inside.reshape(grid.shape)


@st.composite
def fill_masks(draw):
    n1, n2 = draw(st.integers(3, 40)), draw(st.integers(3, 40))
    lo = (draw(st.floats(-5, 0)), draw(st.floats(-5, 0)))
    hi = (draw(st.floats(0.5, 5)), draw(st.floats(0.5, 5)))
    grid = Grid(Box(lo, hi), (n1, n2))
    I, J = np.meshgrid(np.arange(n1), np.arange(n2), indexing="ij")
    kind = draw(st.sampled_from(["random", "sparse", "diagonal", "line", "ellipse"]))
    if kind == "random":
        bits = draw(st.lists(st.booleans(), min_size=I.size, max_size=I.size))
        mask = np.asarray(bits).reshape(I.shape)
    elif kind == "sparse":
        mask = np.zeros(I.shape, dtype=bool)
        for _ in range(draw(st.integers(1, 5))):
            mask[draw(st.integers(0, n1 - 1)), draw(st.integers(0, n2 - 1))] = True
    elif kind == "diagonal":
        step = draw(st.integers(1, 3))
        a, b = draw(st.integers(-2, 2)), draw(st.integers(0, n2 - 1))
        mask = (J - b == a * I) & (I % step == 0) if a else J == b
        mask &= draw(st.integers(0, n1 - 1)) <= I
    elif kind == "line":
        mask = (I == draw(st.integers(0, n1 - 1))) & (J % draw(st.integers(1, 4)) == 0)
    else:
        c1, c2 = draw(st.floats(0, n1)), draw(st.floats(0, n2))
        r1, r2 = draw(st.floats(0.5, n1)), draw(st.floats(0.5, n2))
        mask = ((I - c1) / r1) ** 2 + ((J - c2) / r2) ** 2 <= 1.0
    return grid, mask


@settings(max_examples=400, deadline=None)
@given(fill_masks())
def test_convex_fill_matches_qhull(data):
    grid, mask = data
    assert np.array_equal(_convex_fill(grid, mask), convex_fill_qhull(grid, mask))


class TestSubgradientRange:
    def test_quadratic_recovers_slope_interval(self):
        f = quadratic_1d(257)
        dual = default_dual_grid(f, 257)
        ys = dual.axis(0)[slope_mask(f, dual)]
        hd = dual.spacing[0]
        assert ys.min() == pytest.approx(-1.0, abs=2 * hd)
        assert ys.max() == pytest.approx(1.0, abs=2 * hd)

    def test_abs_recovers_interval(self):
        g = Grid(Box((-2.0,), (2.0,)), 129)
        f = GridFunction.from_callable(g, np.abs)
        dual = Grid(Box((-2.0,), (2.0,)), 129)
        ys = dual.axis(0)[slope_mask(f, dual)]
        hd = dual.spacing[0]
        assert ys.min() == pytest.approx(-1.0, abs=2 * hd)
        assert ys.max() == pytest.approx(1.0, abs=2 * hd)

    def test_region_is_convex_1d(self, rng):
        f = random_convex_1d(rng, nodes=65)
        dual = default_dual_grid(f)
        idx = np.flatnonzero(slope_mask(f, dual))
        assert np.array_equal(idx, np.arange(idx.min(), idx.max() + 1))


class TestDualBase:
    """``dual_base``: the one entry for a base function on its dual grid."""

    def test_region_and_star_of_one_slope_regions_step(self):
        f = noisy_bowl_2d()
        dual = default_dual_grid(f)
        mask, star = dual_base(f, dual)
        want, wstar, _ = next(slope_regions(f.grid, f.values[None], dual))
        assert np.array_equal(mask, want)
        assert star.grid == dual and same_bits(star.values, wstar)
        assert same_bits(star.values, legendre(f, dual).values)

    def test_neg_inf_node_named_first(self):
        # the dual has the other two faults too: 1-D, and far from f's slopes
        g = Grid(Box((0.0, -1.0), (1.0, 1.0)), (3, 5))
        v = np.zeros(g.shape)
        v[1, 3] = NEG_INF
        want = r"^conjugate of a function that is -inf at node \(1, 3\) \(x = 0.5, 0.5\) is \+inf everywhere$"
        with pytest.raises(DomainError, match=want):
            dual_base(GridFunction(g, v), Grid(Box((5.0,), (6.0,)), 5))

    @pytest.mark.parametrize(
        "f, dual, want",
        [
            (quadratic_2d(9), Grid(Box((-2.0,), (2.0,)), 17), "1-D dual grid for a 2-D function"),
            (quadratic_1d(9), Grid(Box((-2.0, -2.0), (2.0, 2.0)), (5, 5)), "2-D dual grid for a 1-D function"),
        ],
        ids=["1d-dual-2d-f", "2d-dual-1d-f"],
    )
    def test_dimension_mismatch(self, f, dual, want):
        with pytest.raises(DomainError, match=f"^{want}$"):
            dual_base(f, dual)

    def test_box_missing_slopes(self):
        # the slopes of x^2/2 on 9 nodes of [-1, 1] run from -0.875 to 0.875
        dual = Grid(Box((-0.5,), (2.0,)), 9)
        want = r"^dual box axis 0 \[-0.5, 2.0\] does not contain slope range \[-0.875, 0.875\]$"
        with pytest.raises(DomainError, match=want):
            dual_base(quadratic_1d(9), dual)


class TestSlopeRegions:
    def test_identically_neg_inf_row_is_named(self):
        g = Grid(Box((-1.0,), (1.0,)), 5)
        V = np.zeros((3, 5))
        V[2] = NEG_INF
        with pytest.raises(DomainError, match="^row 2 of the stack is identically -inf: it has no subgradients$"):
            next(slope_regions(g, V, g))


    def test_fill_closes_the_gaps_of_a_noisy_bowl(self):
        # the dual nodes whose max is attained at an interior node leave gaps
        # inside the edge rows of the region; the returned mask closes them
        f = noisy_bowl_2d()
        dual = default_dual_grid(f)
        mask, star, _ = next(slope_regions(f.grid, f.values[None], dual))
        full, _ = conjugate(f.grid.axes(), f.values, dual.axes())
        inner, _ = conjugate([a[1:-1] for a in f.grid.axes()], f.values[1:-1, 1:-1], dual.axes())
        raw = inner >= full - 1e-8 * max(1.0, np.ptp(f.values), np.abs(full).max())
        assert np.array_equal(star, full)
        # a gap: a node off the raw mask with raw nodes on both sides in its row
        run = np.maximum.accumulate(raw, axis=1) & np.maximum.accumulate(raw[:, ::-1], axis=1)[:, ::-1]
        gaps = run & ~raw
        assert gaps.any()
        assert mask[raw].all() and mask[gaps].all()
        assert np.array_equal(mask, _convex_fill(dual, raw))


class TestTrapezoidWeights:
    def test_run_ends_weigh_half_1d(self):
        mask = np.array([0, 1, 1, 1, 0, 1, 1, 0, 1], dtype=bool)
        want = [0, 0.5, 1, 0.5, 0, 0.5, 0.5, 0, 0]
        assert np.array_equal(trapezoid_weights(mask), want)

    @pytest.mark.parametrize("shape", [(7,), (5, 6)])
    def test_empty_and_single_node_weigh_zero(self, shape):
        mask = np.zeros(shape, dtype=bool)
        assert np.array_equal(trapezoid_weights(mask), np.zeros(shape))
        mask[(2,) * len(shape)] = True
        assert np.array_equal(trapezoid_weights(mask), np.zeros(shape))

    def test_rectangle_counts_its_cells_2d(self):
        mask = np.zeros((5, 6), dtype=bool)
        mask[1:4, 1:5] = True
        w = trapezoid_weights(mask)
        assert w.sum() == 2 * 3
        assert w[1, 1] == 0.25 and w[1, 2] == 0.5 and w[2, 2] == 1.0

    def test_huber_bowl_slope_set_has_area_4(self):
        phi = huber_bowl_2d(65)
        dual = default_dual_grid(phi)
        area = trapezoid_weights(slope_mask(phi, dual)).sum() * dual.cell_volume
        assert abs(area - 4.0) <= 1e-12

    def test_integral_of_u_on_the_tilted_bowl(self):
        # phi = huber(x1) + huber(x2) + <a, x> + b has slope set a + [-1, 1]^2;
        # the integral of u = -s (|y1 - a1| + |y2 - a2|) / 2 over it is -2 s
        a1, a2, b, s = 0.21, -0.34, 0.4, 0.93
        g = Grid(Box((-3.0, -3.0), (3.0, 3.0)), (65, 65))
        x1, x2 = np.meshgrid(*g.axes(), indexing="ij")
        hub = lambda x: np.where(np.abs(x) <= 1.0, x * x / 2, np.abs(x) - 0.5)
        phi = GridFunction(g, hub(x1) + hub(x2) + a1 * x1 + a2 * x2 + b)
        dual = default_dual_grid(phi)
        y1, y2 = np.meshgrid(*dual.axes(), indexing="ij")
        uvals = -s * (np.abs(y1 - a1) + np.abs(y2 - a2)) / 2
        u = GridFunction(dual, np.where(slope_mask(phi, dual), uvals, -np.inf))
        assert abs(integral(u) + 2 * s) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=3, max_size=25))
def test_young_fenchel(vals):
    vals = np.asarray(vals)
    g = Grid(Box((-1.0,), (1.0,)), vals.size)
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
    g = Grid(Box((-1.0,), (1.0,)), vals.size)
    f = GridFunction(g, vals)
    bigger = GridFunction(g, vals + bump)
    dual = default_dual_grid(f)
    sf = legendre(f, dual)
    sb = legendre(bigger, dual)
    assert (sb.values <= sf.values + 1e-12).all()
