"""Discrete Legendre-Fenchel transform, biconjugation, and slope regions.

The transform phi*(y) = max_x <x,y> - phi(x) is computed two ways: a
brute-force maximum over all primal nodes, and a fast method.  Every
candidate either method evaluates uses the *same* floating-point
expression, namely

    x1*y1 + (x2*y2 - f(x1, x2))        (1-D: x*y - f(x))

and ties break toward the lowest row-major primal index, so the two are
bit-identical, argmax witnesses included -- a property the test suite
asserts.

In 2-D the fast method is an axis-separable sweep (the max factors one
axis at a time) that evaluates every candidate.  In 1-D it is a certified
hull-guided kernel that evaluates a few candidates per dual node, after
Lucet's linear-time Legendre transform (Numer. Algorithms 16, 1997) and
the lower-envelope scan of Felzenszwalb-Huttenlocher (Theory of
Computing 8, 2012):

1. H is a convex minorant of f: the lower hull of (x, f) with its slopes
   forced nondecreasing, rebuilt by a cumulative sum and shifted down to
   lie at or below f.
2. For each dual node y, the hull vertex J whose slopes bracket y is found
   by binary search, and the window of nodes J-2..J+2 is evaluated with
   the shared expression; its lowest-index argmax is the candidate answer.
3. g(x) = x*y - H(x) is concave and bounds x*y - f(x) from above.  If the
   window max exceeds g at the nearest node outside the window on each
   side by more than a rounding margin, no node beyond the window can
   reach the window max, so the window's value and witness are exactly
   the dense argmax's.  The margin, (64 + hull size) * eps * (max|x| *
   max|y| + max|f| + max|H|), covers the rounding of each evaluation and
   the error the cumulative sum accumulates along the hull.
4. Dual nodes the certificate does not settle (exact or near ties, e.g. y
   equal to the slope of a linear run) fall back to the dense expression
   over all primal nodes, in row chunks capped by ``_CHUNK_ELEMS``.

For n primal nodes, m dual nodes and the window width w = 5, the 1-D
cost is O(n + m * (w + log n)), plus O(n) per uncertified dual node, and
memory is O(n + m).

Slope regions (the numerical Delta_phi) keep only dual nodes whose max is
attained at an interior primal node: boundary attainment encodes the box
truncation, not a genuine subgradient, and is discarded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .grids import (
    Box,
    ConvexGridFunction,
    Grid,
    GridFunction,
    NEG_INF,
    _lower_hull_1d,
)

# A dual grid is an ordinary Grid over the slope box.
DualGrid = Grid

_CHUNK_ELEMS = 1 << 24  # soft cap on temporary array size in elements


def default_dual_grid(f: GridFunction, nodes_per_axis=None) -> Grid:
    """Dual grid covering the slope range of f, padded by one dual spacing.

    The raw range per axis is [min, max] of forward differences of the
    finite values; padding one spacing on each side keeps Delta_f strictly
    inside the dual box.  A scalar ``nodes_per_axis`` applies to every axis.
    """
    if f.is_identically_neg_inf:
        raise DomainError("no slopes: function is identically -inf")
    if nodes_per_axis is None:
        nodes_per_axis = f.grid.nodes_per_axis
    counts = np.broadcast_to(np.atleast_1d(nodes_per_axis), (f.grid.dim,))
    nodes = tuple(max(int(m), 5) for m in counts)
    lo, hi = [], []
    v = f.values
    for ax in range(f.grid.dim):
        h = f.grid.spacing[ax]
        d = np.diff(v, axis=ax) / h
        d = d[np.isfinite(d)]
        if d.size == 0 or d.max() - d.min() < 1e-12:
            center = float(d[0]) if d.size else 0.0
            mn, mx = center - 0.5, center + 0.5
        else:
            mn, mx = float(d.min()), float(d.max())
        pad = (mx - mn) / (nodes[ax] - 3)
        lo.append(mn - pad)
        hi.append(mx + pad)
    return Grid(Box(tuple(lo), tuple(hi)), nodes)


def check_dual_contains_slopes(f: GridFunction, dual: Grid):
    """DualGrid invariant: slope range of f inside the dual box."""
    v = f.values
    for ax in range(f.grid.dim):
        d = np.diff(v, axis=ax) / f.grid.spacing[ax]
        d = d[np.isfinite(d)]
        if d.size == 0:
            continue
        if d.min() < dual.box.lower[ax] - 1e-12 or d.max() > dual.box.upper[ax] + 1e-12:
            raise DomainError(
                f"dual box axis {ax} [{dual.box.lower[ax]}, {dual.box.upper[ax]}] "
                f"does not contain slope range [{d.min():g}, {d.max():g}]"
            )


def _transform_brute(axes, values, dual_axes):
    """Brute-force conjugate over arbitrary axis data.

    Returns (vals, witness) where witness holds flat row-major primal
    indices (first maximizer).
    """
    dim = len(axes)
    vflat = values.ravel()
    if dim == 1:
        x = axes[0]
        out = np.empty(len(dual_axes[0]))
        wit = np.empty(len(dual_axes[0]), dtype=np.intp)
        for q, y in enumerate(dual_axes[0]):
            cand = x * y - vflat
            wit[q] = np.argmax(cand)
            out[q] = cand[wit[q]]
        return out, wit
    mesh = np.meshgrid(axes[0], axes[1], indexing="ij")
    x1f, x2f = mesh[0].ravel(), mesh[1].ravel()
    m1, m2 = len(dual_axes[0]), len(dual_axes[1])
    out = np.empty((m1, m2))
    wit = np.empty((m1, m2), dtype=np.intp)
    for p, y1 in enumerate(dual_axes[0]):
        for q, y2 in enumerate(dual_axes[1]):
            cand = x1f * y1 + (x2f * y2 - vflat)
            wit[p, q] = np.argmax(cand)
            out[p, q] = cand[wit[p, q]]
    return out, wit


def _transform_1d(x, v, y):
    """Hull-guided 1-D conjugate, bit-identical to the dense argmax.

    Returns (vals, witness, dense_nodes): the last entry counts the dual
    nodes the certificate could not settle, which were evaluated densely.
    """
    n = len(x)
    if not np.isfinite(v).all():
        # +inf candidates: only the dense argmax reproduces their tie-break
        vals, wit = _dense_1d(x, v, y, np.arange(len(y)))
        return vals, wit, len(y)
    # H: convex minorant of v from the lower hull; forcing the slopes
    # nondecreasing makes it exactly convex up to the rounding of the sum
    hull = np.asarray(_lower_hull_1d(x, v))
    dx = np.diff(x[hull])
    slopes = np.maximum.accumulate(np.diff(v[hull]) / dx)
    hv = v[0] + np.concatenate(([0.0], np.cumsum(slopes * dx)))
    H = np.interp(x, x[hull], hv)
    H -= max(0.0, float((H - v).max()))
    # window of five nodes around the hull vertex whose slopes bracket y
    J = hull[np.searchsorted(slopes, y)]
    idx = np.clip(J[:, None] + np.arange(-2, 3), 0, n - 1)
    cand = x[idx] * y[:, None] - v[idx]
    k = np.argmax(cand, axis=1)
    rows = np.arange(len(y))
    wit = idx[rows, k]
    vals = cand[rows, k]
    # certificate: g = x*y - H is concave and g >= x*y - v, so the nearest
    # node outside the window on each side bounds every node beyond it
    bound = np.full(len(y), -np.inf)
    for j in (J - 3, J + 3):
        jc = np.clip(j, 0, n - 1)
        g = x[jc] * y - H[jc]
        bound = np.maximum(bound, np.where(j == jc, g, -np.inf))
    scale = np.abs(x).max() * np.abs(y).max() + np.abs(v).max() + np.abs(H).max()
    margin = (64 + len(hull)) * np.finfo(float).eps * scale
    dense = np.flatnonzero(~(bound + margin < vals))
    if dense.size:
        vals[dense], wit[dense] = _dense_1d(x, v, y, dense)
    return vals, wit, dense.size


def _dense_1d(x, v, y, rows):
    """Dense argmax over all primal nodes for the dual nodes ``rows``."""
    vals = np.empty(len(rows))
    wit = np.empty(len(rows), dtype=np.intp)
    step = max(1, _CHUNK_ELEMS // len(x))
    for s in range(0, len(rows), step):
        cand = x[None, :] * y[rows[s : s + step], None] - v[None, :]
        w = np.argmax(cand, axis=1)
        wit[s : s + step] = w
        vals[s : s + step] = cand[np.arange(len(w)), w]
    return vals, wit


def _transform_fast(axes, values, dual_axes):
    """Hull-guided kernel in 1-D, axis-separable sweep in 2-D; both use the
    same candidates and tie-break as brute."""
    if len(axes) == 1:
        vals, wit, _ = _transform_1d(axes[0], values, dual_axes[0])
        return vals, wit
    x1, x2 = axes
    y1, y2 = dual_axes
    n1, n2 = values.shape
    m1, m2 = len(y1), len(y2)
    inner = x2[None, :, None] * y2[None, None, :] - values[:, :, None]  # (n1,n2,m2)
    w2 = np.argmax(inner, axis=1)  # (n1, m2)
    t = np.take_along_axis(inner, w2[:, None, :], axis=1)[:, 0, :]  # (n1, m2)
    out = np.empty((m1, m2))
    w1 = np.empty((m1, m2), dtype=np.intp)
    step = max(1, _CHUNK_ELEMS // (n1 * m2))
    for s in range(0, m1, step):
        yb = y1[s : s + step]
        outer = x1[:, None, None] * yb[None, :, None] + t[:, None, :]  # (n1,b,m2)
        wb = np.argmax(outer, axis=0)
        w1[s : s + step] = wb
        out[s : s + step] = np.take_along_axis(outer, wb[None, :, :], axis=0)[0]
    wit = w1 * n2 + w2[w1, np.arange(m2)[None, :]]
    return out, wit


def legendre(
    f: GridFunction,
    dual: Grid,
    method: str = "fast",
    return_witness: bool = False,
):
    """phi*(y) = max over primal nodes of <x,y> - phi(x), on the dual grid.

    method is "fast" (hull-guided kernel in 1-D, axis-separable sweep in
    2-D) or "brute"; the two agree bit-for-bit including the argmax witness.
    """
    if not f.finite_mask.all():
        # any -inf node would push the max to +inf at every slope
        raise DomainError("conjugate of a function with -inf values is +inf everywhere")
    if method == "fast":
        vals, wit = _transform_fast(f.grid.axes(), f.values, dual.axes())
    elif method == "brute":
        vals, wit = _transform_brute(f.grid.axes(), f.values, dual.axes())
    else:
        raise ValueError(f"unknown method {method!r}")
    out = ConvexGridFunction.trusted(GridFunction(dual, vals.reshape(dual.shape)))
    if return_witness:
        return out, wit.reshape(dual.shape)
    return out


def biconjugate(f: GridFunction, dual: Grid, method: str = "fast") -> ConvexGridFunction:
    """Legendre transform applied twice; lands back on the primal grid."""
    g = legendre(f, dual, method=method)
    return legendre(g, f.grid, method=method)


@dataclass(frozen=True, eq=False)
class SlopeRegion:
    """Discretely convex set of dual-grid nodes (the numerical Delta_f)."""

    grid: Grid
    mask: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.mask, dtype=bool).reshape(self.grid.shape)
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "mask", m)

    @property
    def cell_volume(self) -> float:
        return self.grid.cell_volume

    @property
    def node_count(self) -> int:
        return int(self.mask.sum())

    @property
    def volume(self) -> float:
        return self.node_count * self.cell_volume

    def intersect(self, other: "SlopeRegion") -> "SlopeRegion":
        if self.grid != other.grid:
            raise DomainError("grid mismatch")
        return SlopeRegion(self.grid, self.mask & other.mask)


def _convex_fill(grid: Grid, mask: np.ndarray) -> np.ndarray:
    """Close a node mask under the discrete convex hull of its true-set."""
    if mask.sum() <= 1:
        return mask
    if grid.dim == 1:
        idx = np.nonzero(mask)[0]
        out = np.zeros_like(mask)
        out[idx[0] : idx[-1] + 1] = True
        return out
    pts = grid.coords()[mask.ravel()]
    # collinear point sets: fill the contiguous range along the common line
    if np.ptp(pts[:, 0]) < 1e-15 or np.ptp(pts[:, 1]) < 1e-15:
        ii, jj = np.nonzero(mask)
        out = np.zeros_like(mask)
        out[ii.min() : ii.max() + 1, jj.min() : jj.max() + 1] = True
        return out
    from scipy.spatial import ConvexHull, QhullError

    try:
        hull = ConvexHull(pts)
    except QhullError:
        ii, jj = np.nonzero(mask)
        out = np.zeros_like(mask)
        out[ii.min() : ii.max() + 1, jj.min() : jj.max() + 1] = True
        return out
    eq = hull.equations
    coords = grid.coords()
    scale = max(1.0, float(np.abs(pts).max()))
    inside = np.all(coords @ eq[:, :2].T + eq[:, 2] <= 1e-9 * scale, axis=1)
    return inside.reshape(grid.shape)


def subgradient_range(
    f: ConvexGridFunction, dual: Grid, tol: float | None = None
) -> SlopeRegion:
    """Dual nodes whose conjugate max is attained at an interior primal node.

    Attainment is tested by comparing the full conjugate against the
    conjugate restricted to interior primal nodes; nodes passing within
    ``tol`` are kept, and the set is closed under the discrete convex hull.
    """
    if f.is_identically_neg_inf:
        raise DomainError("identically -inf function has no subgradients")
    full, _ = _transform_fast(f.grid.axes(), f.values, dual.axes())
    int_axes = [a[1:-1] for a in f.grid.axes()]
    sl = tuple(slice(1, -1) for _ in range(f.grid.dim))
    interior, _ = _transform_fast(int_axes, f.values[sl], dual.axes())
    if tol is None:
        scale = max(1.0, f.value_range(), float(np.abs(full).max()))
        tol = 1e-8 * scale
    mask = (interior >= full - tol).reshape(dual.shape)
    return SlopeRegion(dual, _convex_fill(dual, mask))


def _concave_envelope_on_points(pts: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Upper concave envelope of scattered data, evaluated at the data points."""
    if pts.shape[1] == 1:
        order = np.argsort(pts[:, 0], kind="stable")
        x, v = pts[order, 0], vals[order]
        hull = _lower_hull_1d(x, -v)
        env = np.empty_like(vals)
        env[order] = -np.interp(x, x[hull], -v[hull])
        return env
    from scipy.spatial import ConvexHull, QhullError

    cloud = np.column_stack([pts, vals])
    try:
        hull = ConvexHull(cloud)
    except QhullError:
        return vals.copy()
    eq = hull.equations[hull.equations[:, 2] > 1e-12]
    if eq.shape[0] == 0:
        return vals.copy()
    planes = -(pts @ eq[:, :2].T + eq[:, 3]) / eq[:, 2]
    return planes.min(axis=1)


def is_concave_on_support(u: GridFunction, tol: float) -> tuple[bool, tuple | None, float]:
    """Concavity of u restricted to its finite nodes (hull-based check)."""
    fin = u.finite_mask
    if not fin.any():
        return True, None, 0.0
    pts = u.grid.coords()[fin.ravel()]
    vals = u.values[fin]
    env = _concave_envelope_on_points(pts, vals)
    dev = env - vals
    worst = int(np.argmax(dev))
    if dev[worst] <= tol:
        return True, None, float(dev[worst])
    flat = np.nonzero(fin.ravel())[0][worst]
    return False, np.unravel_index(flat, u.grid.shape), float(dev[worst])


def superlevel_of_concave(
    u: GridFunction, lam: float, region: SlopeRegion | None = None, tol: float | None = None
) -> SlopeRegion:
    """{y : u(y) >= lam}, optionally intersected with a slope region."""
    if tol is None:
        tol = max(1e-9 * max(1.0, u.value_range()), 1e-12)
    ok, witness, dev = is_concave_on_support(u, tol)
    if not ok:
        raise DomainError(f"u is not concave: deviation {dev:g} at node {witness}")
    mask = u.finite_mask & (u.values >= lam)
    out = SlopeRegion(u.grid, mask)
    if region is not None:
        out = out.intersect(region)
    return out
