"""Uniform grids on boxes, extended-real grid functions, convex envelopes,
and the one convexity certificate.

Values are stored as float64 arrays shaped like the grid.  The only
extended value allowed is -inf (the sentinel for the "identically minus
infinity" convention and for cut-off samples of test curves); +inf and NaN
are rejected at construction, by ``grid_values``, for one function and for
the stacks of rays and test curves alike.  Finite entries are capped in
magnitude so that exp/log-sum-exp further down the pipeline cannot overflow.

A grid function carries no convexity flag.  ``require_convex`` certifies
one: its height above the lower convex envelope must be within
``TOL_CONVEX_REL`` times its value range (at least 1e-12).  In 1-D a bound
on the second differences settles most inputs in O(n); only the others
cost a hull, through ``lower_envelope``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ResourceError

NEG_INF = float("-inf")

#: Magnitude cap on finite values (keeps transforms and LSE stable).
VALUE_CAP = 1e12

#: Default relative tolerance for convexity certification.
TOL_CONVEX_REL = 1e-9

#: Cap on the node count of a grid and on the entries of a lattice array.
SIZE_CAP = 10**6


def require_within_cap(what: str, count: float, nodes: int):
    """count samples of a grid of ``nodes`` nodes fit under the size cap;
    checked before the samples are allocated."""
    if count * nodes > SIZE_CAP:
        raise ResourceError(
            f"{what} of {count:.0f} x {nodes} nodes exceeds the size cap {SIZE_CAP}"
        )


def fork_cpus() -> int:
    """The CPUs this process may run on (its affinity, where the platform
    reports one), or 1 where it cannot fork: the one rule for whether georay
    spreads work over forked processes, which pays only when this is 2 or more."""
    if not hasattr(os, "fork"):
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return cpus or 1


@dataclass(frozen=True)
class Box:
    """Axis-aligned box in R^n, n in {1, 2}, with finite bounds and spans."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self):
        lo = tuple(float(v) for v in np.atleast_1d(self.lower))
        hi = tuple(float(v) for v in np.atleast_1d(self.upper))
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if len(lo) != len(hi):
            raise DomainError("lower and upper must have the same length")
        if len(lo) not in (1, 2):
            raise DomainError("only dimensions 1 and 2 are supported")
        for ax, (a, b) in enumerate(zip(lo, hi)):
            if not (a < b and math.isfinite(b - a)):
                raise DomainError(f"box axis {ax} [{a}, {b}] has no finite positive span")

    @property
    def dim(self) -> int:
        return len(self.lower)

    @property
    def diameter(self) -> float:
        return float(np.sqrt(sum((b - a) * (b - a) for a, b in zip(self.lower, self.upper))))


@dataclass(frozen=True)
class Grid:
    """Uniform tensor-product grid over a box.

    Node coordinates along axis i are exactly lower[i] + j * h[i] with
    h[i] = (upper[i] - lower[i]) / (nodes_per_axis[i] - 1).
    """

    box: Box
    nodes_per_axis: tuple[int, ...]

    def __post_init__(self):
        n = tuple(int(m) for m in np.atleast_1d(self.nodes_per_axis))
        object.__setattr__(self, "nodes_per_axis", n)
        if len(n) != self.box.dim:
            raise DomainError("nodes_per_axis length must match box dimension")
        for m in n:
            if m < 3:
                raise DomainError("need at least 3 nodes per axis")
        if self.num_nodes > SIZE_CAP:
            raise ResourceError(
                f"grid of {' x '.join(map(str, n))} nodes exceeds the size cap {SIZE_CAP}"
            )

    @property
    def dim(self) -> int:
        return self.box.dim

    @property
    def shape(self) -> tuple[int, ...]:
        return self.nodes_per_axis

    @property
    def num_nodes(self) -> int:
        return math.prod(self.nodes_per_axis)

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(
            (b - a) / (m - 1)
            for a, b, m in zip(self.box.lower, self.box.upper, self.nodes_per_axis)
        )

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def axis(self, i: int) -> np.ndarray:
        a = self.box.lower[i]
        h = self.spacing[i]
        return a + h * np.arange(self.nodes_per_axis[i])

    def axes(self) -> list[np.ndarray]:
        return [self.axis(i) for i in range(self.dim)]

    def coords(self) -> np.ndarray:
        """All node coordinates, row-major, shape (num_nodes, dim)."""
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)


def grid_values(grid: Grid, values, count: int | None = None) -> np.ndarray:
    """values as a read-only float64 copy shaped like ``grid``, or for a
    family of ``count`` functions (k, *grid.shape); ``DomainError`` for a
    wrong count, NaN, +inf or a finite value over ``VALUE_CAP``."""
    shape = grid.shape if count is None else (count,) + grid.shape
    v = np.asarray(values, dtype=float)
    if v.size != math.prod(shape):
        raise DomainError(f"expected {math.prod(shape)} values, got {v.size}")
    v = v.reshape(shape)
    if np.any(np.isnan(v)) or np.any(v == np.inf):
        raise DomainError("grid function values must be finite or -inf")
    if np.any(np.abs(v[np.isfinite(v)]) > VALUE_CAP):
        raise DomainError(f"finite values exceed the cap {VALUE_CAP:g}")
    v = v.copy()
    v.setflags(write=False)
    return v


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Extended-real values on a grid (-inf allowed, +inf and NaN rejected)."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values", grid_values(self.grid, self.values))

    @property
    def is_identically_neg_inf(self) -> bool:
        return bool(np.all(self.values == NEG_INF))

    @property
    def finite_mask(self) -> np.ndarray:
        return np.isfinite(self.values)

    def value_range(self) -> float:
        fin = self.values[self.finite_mask]
        if fin.size == 0:
            return 0.0
        return float(fin.max() - fin.min())

    @staticmethod
    def neg_inf(grid: Grid) -> "GridFunction":
        return GridFunction(grid, np.full(grid.shape, NEG_INF))

    @staticmethod
    def from_callable(grid: Grid, fn) -> "GridFunction":
        mesh = np.meshgrid(*grid.axes(), indexing="ij")
        return GridFunction(grid, fn(*mesh))


def _lower_hull_1d(x: np.ndarray, v: np.ndarray):
    """Indices of the lower convex hull vertices of points (x, v) sorted by
    (x, v): Andrew's monotone chain.  Points in reverse order give the
    upper hull."""
    # Python floats: same IEEE double arithmetic as numpy scalars, less overhead
    x, v = np.asarray(x, dtype=float).tolist(), np.asarray(v, dtype=float).tolist()
    hull: list[int] = []
    for i in range(len(x)):
        while len(hull) >= 2:
            j, m = hull[-2], hull[-1]
            # pop m if it lies on or above segment (j, i)
            cross = (x[m] - x[j]) * (v[i] - v[j]) - (v[m] - v[j]) * (x[i] - x[j])
            if cross <= 0.0:
                hull.pop()
            else:
                break
        hull.append(i)
    return hull


def lower_envelope(pts: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """The lower convex envelope of scattered data (pts (N, d), vals (N,))
    at the data points, where it is clipped to the data.  The upper concave
    envelope is minus the lower envelope of the negated data.

    In 1-D it interpolates the lower hull of the sorted points.  In 2-D it is
    the max of the planes of the downward-facing facets of the hull of
    (pts, vals), each of which supports the cloud from below; a flat cloud,
    which qhull rejects, is its own least-squares plane.  Collinear 2-D
    points raise ``DomainError``.
    """
    if pts.shape[1] == 1:
        order = np.argsort(pts[:, 0], kind="stable")
        hull = order[_lower_hull_1d(pts[order, 0], vals[order])]
        out = np.interp(pts[:, 0], pts[hull, 0], vals[hull])
    else:
        from scipy.spatial import ConvexHull, QhullError

        try:
            hull = ConvexHull(np.column_stack([pts, vals]))
            eq = hull.equations[hull.equations[:, 2] < -1e-12]  # n.p + off <= 0 inside
        except QhullError:
            # the plane z = c0 p1 + c1 p2 + c2, as one downward facet equation
            lift = np.column_stack([pts, np.ones(len(pts))])
            c, _, rank, _ = np.linalg.lstsq(lift, vals, rcond=None)
            if rank < 3:
                raise DomainError(f"2-D points {pts.tolist()} are collinear: they span no triangle")
            eq = np.array([[c[0], c[1], -1.0, c[2]]])
        nxy, nz, off = eq[:, :2], eq[:, 2], eq[:, 3]
        out = np.empty(len(pts))
        chunk = 4096
        for s in range(0, len(pts), chunk):
            out[s : s + chunk] = (-(pts[s : s + chunk] @ nxy.T + off) / nz).max(axis=1)
    # the hull surface interpolates the data; guard fp drift above it
    return np.minimum(out, vals)


def lower_convex_envelope(f: GridFunction) -> GridFunction:
    """Pointwise-largest convex minorant of f, sampled at the nodes.

    A convex function that is -inf anywhere is -inf everywhere, so any
    -inf entry collapses the envelope to the identically -inf function.
    """
    if not np.all(f.finite_mask):
        return GridFunction.neg_inf(f.grid)
    return GridFunction(f.grid, lower_envelope(f.grid.coords(), f.values.ravel()))


def require_convex(name: str, f: GridFunction, concave: bool = False) -> GridFunction:
    """f, certified convex (``concave``: concave), or ``DomainError`` naming
    the node, x, the deviation and the tolerance.

    The deviation is the height of f above its lower convex envelope (below
    its upper concave one); the tolerance is ``TOL_CONVEX_REL`` times the
    value range, at least 1e-12.  An identically -inf f passes.  A convex f
    must be finite everywhere; a concave f is tested on its finite nodes,
    which in 1-D must form one run.

    In 1-D, when no node exceeds the mean of its neighbours by more than D,
    a run of m nodes stands at most D (m - 1)^2 / 4 above its envelope (it
    minus D i (m - 1 - i) is convex), so a run within the tolerance by that
    bound passes in O(n) without a hull.
    """
    if f.is_identically_neg_inf:
        return f
    v = -f.values.ravel() if concave else f.values.ravel()
    fin = np.flatnonzero(f.finite_mask.ravel())
    if f.grid.dim == 1 or not concave:
        run = np.arange(fin[0], fin[-1] + 1) if concave else np.arange(v.size)
        if fin.size < run.size:
            node = run[np.argmin(np.isfinite(v[run]))]
            where = ", inside its finite run" if concave else ""
            raise DomainError(f"{name} is -inf at node {_node(f.grid, node)}{where}")
    w = v[fin]
    tol = max(TOL_CONVEX_REL * f.value_range(), 1e-12)
    if f.grid.dim == 1:
        excess = (w[1:-1] - (w[:-2] + w[2:]) / 2).max() if w.size >= 3 else 0.0
        if excess * (w.size - 1) ** 2 / 4 <= tol:
            return f
    env = lower_envelope(f.grid.coords()[fin], w)
    dev = w - env
    i = int(np.argmax(dev))
    if dev[i] > tol:
        raise DomainError(
            f"{name} is not {'concave' if concave else 'convex'} at {_at(f.grid, fin[i])}: "
            f"deviation {dev[i]:g} > {tol:g}"
        )
    return f


def _node(grid: Grid, flat: int):
    """A node's index in the grid: an int in 1-D, a tuple in 2-D."""
    idx = tuple(int(i) for i in np.unravel_index(flat, grid.shape))
    return idx[0] if grid.dim == 1 else idx


def _at(grid: Grid, flat: int) -> str:
    """A node named for an error message: its index and its x."""
    x = ", ".join(f"{c:g}" for c in grid.coords()[flat])
    return f"node {_node(grid, flat)} (x = {x})"
