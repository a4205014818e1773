"""Bounded multiplicative filtrations as weighted lattice-point data.

Degree-1 lattice points with integer weights generate all higher degrees
through a tropical (max-plus) convolution; the resulting weight arrays
model a multiplicative filtration.  From them we build sup-norm extremal
metrics, the Fekete limit curve and the Phong-Sturm ray, a log-sum-exp
over the N sections that lies between max_i (e_i + t w_i / k) and that
max plus ln N / k, together with the equivalence check against the
closed-form toric ray (phi* - t g-hat)*, where g-hat is the concave
envelope of the degree-1 weights over the polytope (Song-Zelditch, Adv.
Math. 229, 2012).  g-hat is evaluated, and its moments integrated, on the
simplices of P1 it is linear on, ``weight_facets``, with no hull.  The
paper's route to that ray (limit curve, maximal envelope, lambda-transform)
stays in the library, as the check that it converges to the closed form.
Both routes enter through ``_degrees``: the degree list, P1's dimension
and the section cap are checked once, before any closure is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .curves import TestCurve
from .errors import DomainError, ResourceError
from .grids import Grid, GridFunction, NEG_INF, SIZE_CAP, _chunks, require_within_cap
from .legendre import check_dual_contains_slopes, conjugate, legendre
from .rays import Ray, _t_values, compare_rays, default_t_grid, ray_dual


@dataclass(eq=False)
class WeightedLatticeData:
    """Integer weights on degree-1 lattice points, closed multiplicatively.

    ``closures[k]`` maps the reachable points of k * conv(P1) to the
    maximal sum of k degree-1 weights; unreachable points carry -inf.
    """

    points: np.ndarray  # (P, n) integers
    weights: np.ndarray  # (P,) integers

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=np.int64))
        if pts.shape[0] == 0:
            raise DomainError("need at least one lattice point")
        if pts.shape[1] not in (1, 2):
            raise DomainError("lattice dimension must be 1 or 2")
        w = np.asarray(self.weights, dtype=np.int64).ravel()
        if w.size != pts.shape[0]:
            raise DomainError("one weight per point required")
        self.points = pts
        self.weights = w
        self.closures: dict[int, np.ndarray] = {}
        # degree-1 closure is the input itself on its bounding lattice box
        self.closures[1] = self._degree_one_array()

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def _origin(self, k: int) -> np.ndarray:
        return k * self.points.min(axis=0)

    def _shape(self, k: int) -> tuple[int, ...]:
        """The degree-k lattice box, under the size cap: the one check for
        every degree, made before any array of it is built."""
        span = (int(a) - int(b) for a, b in zip(self.points.max(axis=0), self.points.min(axis=0)))
        shape = tuple(k * s + 1 for s in span)
        require_within_cap(f"degree-{k} lattice box", shape[0], math.prod(shape[1:]))
        return shape

    def _degree_one_array(self) -> np.ndarray:
        arr = np.full(self._shape(1), NEG_INF)
        # a point listed twice keeps its largest weight, as at every degree
        np.maximum.at(arr, tuple((self.points - self._origin(1)).T), self.weights.astype(float))
        return arr

    def reachable(self, k: int):
        """(points (R, n), normalized weights (R,)) at degree k, row-major."""
        arr = multiplicative_closure(self, k)
        mask = np.isfinite(arr)
        idx = np.argwhere(mask)
        pts = idx + self._origin(k)
        return pts, arr[mask]


def multiplicative_closure(data: WeightedLatticeData, k: int) -> np.ndarray:
    """Degree-k weights by max-plus convolution of the degree-1 weights.

    lambda_k(alpha) = max over decompositions alpha = a_1 + ... + a_k of
    sum of degree-1 weights; computed by the dynamic program
    lambda_k = lambda_{k-1} (max-plus) w1.
    """
    if k < 1:
        raise DomainError("degree must be >= 1")
    data._shape(k)  # the cap, before any degree is built
    have = max(j for j in data.closures if j <= k)
    arr = data.closures[have]
    for j in range(have, k):
        new = np.full(data._shape(j + 1), NEG_INF)
        base = data.points.min(axis=0)
        for p, w in zip(data.points, data.weights):
            off = p - base
            sl = tuple(slice(o, o + s) for o, s in zip(off, arr.shape))
            np.maximum(new[sl], arr + float(w), out=new[sl])
        arr = new
        data.closures[j + 1] = arr
    return data.closures[k]


def weight_histogram(data: WeightedLatticeData, k: int):
    """Multiplicities per weight and cumulative-from-above dimensions.

    Returns (weights desc, dim V_lambda, dim F_lambda); the cumulative
    identity dim F_lambda = sum of multiplicities above holds by
    construction and is asserted.
    """
    _, w = data.reachable(k)
    vals, counts = np.unique(w.astype(np.int64), return_counts=True)
    vals, counts = vals[::-1], counts[::-1]
    cum = np.cumsum(counts)
    assert cum[-1] == w.size
    return vals, counts, cum


@dataclass(eq=False)
class BergmanInstance:
    """Base metric phi on a dual grid that contains its slopes; the
    sections are affine functions with slopes at normalized lattice points."""

    phi: GridFunction
    dual: Grid

    def __post_init__(self):
        check_dual_contains_slopes(self.phi, self.dual)
        self._coords = self.phi.grid.coords()

    def conj_at(self, y: np.ndarray) -> np.ndarray:
        """phi*(y) at the normalized lattice points of ``section_values``."""
        y = np.atleast_2d(y)
        lo, hi = self.dual.box.lower, self.dual.box.upper
        out = (y < np.array(lo) - 1e-12) | (y > np.array(hi) + 1e-12)
        if out.any():
            i, ax = np.argwhere(out)[0]
            raise DomainError(
                f"normalized lattice point {y[i].tolist()} outside the dual box: "
                f"axis {ax} coordinate {float(y[i, ax])!r} not in [{lo[ax]!r}, {hi[ax]!r}]"
            )
        # the points lie on the tensor grid of their distinct coordinates
        axes, where = zip(*(np.unique(c, return_inverse=True) for c in y.T))
        vals, _ = conjugate(self.phi.grid.axes(), self.phi.values, axes)
        return vals[where]

    def section_values(self, data: WeightedLatticeData, k: int):
        """e_i(x) = <alpha_i/k, x> - phi*(alpha_i/k) for reachable alpha_i.

        Returns read-only (E (num_nodes, R), weights (R,)) in row-major
        point order.  E must fit under the size cap.
        """
        pts, w = data.reachable(k)
        require_within_cap(f"degree-{k} section matrix", w.size, self.phi.grid.num_nodes)
        slopes = pts.astype(float) / k
        E = self._coords @ slopes.T - self.conj_at(slopes)
        E.setflags(write=False)
        w.setflags(write=False)
        return E, w


def extremal_metric(
    inst: BergmanInstance, data: WeightedLatticeData, k: int, lambdas
) -> np.ndarray:
    """Sup-norm extremal metrics of degree k, one row per lambda.

    Row i is the max of e_i over the sections with weight >= k*lambdas[i]
    (-inf where there is none), shape (len(lambdas), num_nodes).  The
    sections are ordered by decreasing weight and their running max taken
    once; each lambda reads it at its last selected section.
    """
    E, w = inst.section_values(data, k)
    order = np.argsort(-w, kind="stable")
    running = np.maximum.accumulate(E.T[order], axis=0)
    lam = np.asarray(lambdas, dtype=float).ravel()
    # selected sections: w >= k*lam - 1e-9, counted on the ascending weights
    count = w.size - np.searchsorted(w[order[::-1]], k * lam - 1e-9, side="left")
    hit = count > 0
    out = np.full((lam.size, E.shape[0]), NEG_INF)
    out[hit] = running[count[hit] - 1]
    return out


def phong_sturm_ray(inst: BergmanInstance, data: WeightedLatticeData, k: int, t_grid=None):
    """frame(t) = (1/k) log sum over all sections of exp(t w_i + k e_i).

    One ``exp`` over nodes x sections per run of t, the t >= t0 with (t - t0)
    (W - w_min) <= 600, W = max w: with a = kE + t0 w and M its row max, frame(t)
    = (log(exp(a - M) . exp((w - W)(t - t0))) + M + W(t - t0)) / k.  Relative to
    exp(M + W(t - t0)), a row's largest term is at least e^-600 and one that
    underflows is below e^-745, float64's floor: each dropped term is below
    e^-145 of its row's largest, whatever the data.  The section sum is an
    einsum, as through BLAS its bytes would vary with the thread count.
    """
    ts = _t_values(default_t_grid() if t_grid is None else t_grid)
    E, w = inst.section_values(data, k)
    W, frames, start = w.max(), np.empty((ts.size, E.shape[0])), 0
    while start < ts.size:
        dt = ts[start:] - ts[start]
        dt = dt[: np.searchsorted(dt * (W - w.min()), 600.0, side="right")]
        a = k * E + ts[start] * w
        m = a.max(axis=1, keepdims=True)
        s = np.einsum("ir,rt->it", np.exp(a - m), np.exp(np.outer(w - W, dt)))
        frames[start : start + dt.size] = ((np.log(s) + m + W * dt) / k).T
        start += dt.size
    return Ray(ts, inst.phi.grid, frames)


def _degrees(inst: BergmanInstance, data: WeightedLatticeData, k_list) -> list[int]:
    """The distinct degrees of k_list, ascending, checked before any closure
    is built: not empty, P1 of phi's dimension, and the largest degree's
    section matrix under the cap (``ResourceError``): a P1 of affine rank r
    reaches C(k + r, r) points at degree k, the sums of an r-simplex."""
    ks = sorted(set(int(k) for k in k_list))
    if not ks:
        raise DomainError("empty degree list")
    if data.dim != inst.phi.grid.dim:
        raise DomainError(f"{data.dim}-D weight data on a {inst.phi.grid.dim}-D base")
    k, r = ks[-1], int(np.linalg.matrix_rank(data.points - data.points[0]))
    nodes = inst.phi.grid.num_nodes
    if math.comb(k + r, r) * nodes > SIZE_CAP:
        raise ResourceError(f"degree-{k} section matrix of at least {math.comb(k + r, r)} x "
                            f"{nodes} nodes exceeds the size cap {SIZE_CAP}")
    return ks


def limit_curve(
    inst: BergmanInstance, data: WeightedLatticeData, k_list
) -> TestCurve:
    """Fekete supremum of extremal metrics over k, one row per lambda.

    The lambda grid is {j / k_max} over the normalized weight range; the
    critical value is the largest normalized weight.  Each finite sample is
    a max of the affine e_i, so it is convex by construction and is not
    re-hulled.
    """
    k_list = _degrees(inst, data, k_list)
    k_max = k_list[-1]
    grid = inst.phi.grid
    norm_min = math.inf
    norm_max = -math.inf
    for k in k_list:
        _, w = data.reachable(k)
        norm_min = min(norm_min, float(w.min()) / k)
        norm_max = max(norm_max, float(w.max()) / k)
    j_lo = math.floor(norm_min * k_max + 1e-9)
    j_hi = math.ceil(norm_max * k_max - 1e-9)
    require_within_cap("limit-curve table", j_hi - j_lo + 1, grid.num_nodes)
    lambdas = np.arange(j_lo, j_hi + 1) / k_max
    table = np.full((lambdas.size, grid.num_nodes), NEG_INF)
    for k in k_list:
        np.maximum(table, extremal_metric(inst, data, k, lambdas), out=table)
    # a row is -inf everywhere or nowhere: each e_i is finite
    live = np.flatnonzero(np.isfinite(table[:, 0]))
    if not live.size:
        raise DomainError("limit curve has no finite samples")
    return TestCurve(lambdas, grid, table, float(lambdas[0]), float(lambdas[live[-1]]))


def weight_facets(data: WeightedLatticeData) -> np.ndarray:
    """The n-simplices of P1 ((F, n + 1) point indices) that tile conv(P1)
    and on each of which g-hat is linear: its regular subdivision.

    A simplex of P1 (one point per location, the first of its largest
    weight) is kept when no lifted point (p, w) lies above its lifted plane,
    the sign of an integer determinant, so exact.  Within a face of coplanar
    lifted points, only the cone from its lexicographically least point over
    each boundary cell stays: the far endpoint in 1-D, a boundary edge with
    no face point inside it in 2-D.  The simplices times the points are
    size-capped; a P1 that spans no n-simplex raises ``DomainError``.
    """
    p, w, n = data.points, data.weights, data.dim
    # heights are at most 12 span^2 max|w|, and int64 sums wrap: only they must fit
    if 12 * int(np.ptp(p)) ** 2 * int(np.abs(w).max()) >= 2**63:
        raise DomainError("P1 and its weights are too large for exact int64 tests")
    order = np.lexsort((-w, *p.T[::-1]))
    idx = order[np.r_[True, (np.diff(p[order], axis=0) != 0).any(axis=1)]]
    q, lift = p[idx], np.column_stack([p[idx], w[idx]])
    require_within_cap(f"{n}-simplex table of P1", math.comb(len(q), n + 1), len(q))
    s = np.array(list(combinations(range(len(q)), n + 1)), dtype=np.int64).reshape(-1, n + 1)
    e = lift[s[:, 1:]] - lift[s[:, :1]]
    # the lifted simplex's normal, whose last entry is its edges' determinant
    normal = np.cross(e[:, 0], e[:, 1]) if n == 2 else np.column_stack([-e[:, 0, 1], e[:, 0, 0]])
    up = normal[:, -1] != 0
    if not up.any():
        raise DomainError(f"{n}-D points {p.tolist()} span no {n}-simplex")
    s, normal = s[up], normal[up] * np.sign(normal[up, -1:])
    # height of every lifted point over each simplex's plane, times a positive
    h = normal @ lift.T - (normal * lift[s[:, 0]]).sum(axis=1, keepdims=True)
    s, face = s[(h <= 0).all(axis=1)], h[(h <= 0).all(axis=1)] == 0
    # the apex s[:, 0] is the face's least point (q is sorted), and no face
    # point lies beyond the cell s[:, 1:] from it
    r = q - q[s[:, 1], None]
    if n == 1:
        side, inner = r[..., 0], False
    else:
        cell = q[s[:, 2]] - q[s[:, 1]]
        side = cell[:, None, 0] * r[..., 1] - cell[:, None, 1] * r[..., 0]
        along = (r * cell[:, None]).sum(axis=2)
        inner = (side == 0) & (along > 0) & (along < (cell * cell).sum(axis=1)[:, None])
    side = side * np.sign(side[np.arange(len(s)), s[:, 0]])[:, None]
    tile = (face.argmax(axis=1) == s[:, 0]) & ~(face & ((side < 0) | inner)).any(axis=1)
    return idx[s[tile]]


def moment_check(data: WeightedLatticeData, k: int, p: int):
    """((1/k^n) sum of normalized degree-k weights^p, integral of g-hat^p
    over the polytope), g-hat being their concave envelope for every k.

    g-hat is linear on each of ``weight_facets``, an n-simplex S with vertex
    weights a, so the integral is exact: |S| sum(a) / (n+1) for p = 1 and
    |S| ((sum a)^2 + sum a^2) / ((n+1)(n+2)) for p = 2.
    """
    if p not in (1, 2):
        raise DomainError("only moments p in {1, 2} are supported")
    _, w = data.reachable(k)
    n, facets = data.dim, weight_facets(data)
    lhs = float(((w / k) ** p).sum()) / k**n
    corners = data.points[facets].astype(float)
    vol = np.abs(np.linalg.det(corners[:, 1:] - corners[:, :1])) / math.factorial(n)
    a = data.weights[facets].astype(float)
    s = a.sum(axis=1)
    mean = s / (n + 1) if p == 1 else (s * s + (a * a).sum(axis=1)) / ((n + 1) * (n + 2))
    return lhs, float((vol * mean).sum())


def weight_envelope(data: WeightedLatticeData, pts: np.ndarray) -> np.ndarray:
    """g-hat at points (M, n): the concave envelope of the degree-1 weights
    over the polytope conv(P1), -inf off it.

    g-hat(y) is the barycentric interpolation of the weights of the facet of
    ``weight_facets`` that contains y (barycentric coordinates >= -1e-9),
    the max over them where facets meet: exact, and without a hull.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    facets, p, n = weight_facets(data), data.points, data.dim
    corner, w = p[facets[:, 0]].astype(float), data.weights[facets].astype(float)
    inv = np.linalg.inv(p[facets[:, 1:]] - corner[:, None])
    out = np.full(len(pts), NEG_INF)
    for g in _chunks(len(corner), len(pts) * n):
        # barycentric coordinates of every point in each facet of the group
        bary = (pts - corner[g, None]) @ inv[g]
        inside = (bary >= -1e-9).all(axis=2) & (bary.sum(axis=2) <= 1.0 + 1e-9)
        vals = w[g, :1] + (bary @ (w[g, 1:] - w[g, :1])[..., None])[..., 0]
        np.maximum(out, np.where(inside, vals, NEG_INF).max(axis=0), out=out)
    return out


def toric_ray(inst: BergmanInstance, data: WeightedLatticeData, t_grid) -> Ray:
    """The closed-form limit of the Phong-Sturm rays: frame(t) is the
    conjugate of phi* - t g-hat over the dual nodes of the polytope, onto
    phi's grid, with g-hat from ``weight_envelope`` and phi* from
    ``legendre``, which names a -inf node of phi."""
    dual = inst.dual
    g = weight_envelope(data, dual.coords()).reshape(dual.shape)
    if not np.isfinite(g).any():
        raise DomainError("no dual node lies in the polytope of the weights")
    return ray_dual(legendre(inst.phi, dual), GridFunction(dual, g), inst.phi.grid, t_grid)


def equivalence_check(
    inst: BergmanInstance, data: WeightedLatticeData, t_grid, k_list
) -> tuple[np.ndarray, list[Ray]]:
    """Per-t sup-norm gaps between the Phong-Sturm rays of the degrees k_list
    and their limit, the closed-form ``toric_ray``.

    A P1 that spans no n-simplex is rejected first, then the degrees are
    checked by ``_degrees`` before any closure is built, and the target is
    built before any Phong-Sturm ray.  Returns (gaps, rays): row i of the
    (degrees, t) table ``gaps`` is the gap at the i-th distinct degree of
    k_list in ascending order, and ``rays[i]`` is the Phong-Sturm ray it was
    measured against.
    """
    weight_facets(data)
    ks = _degrees(inst, data, k_list)
    target = toric_ray(inst, data, t_grid)
    rays = [phong_sturm_ray(inst, data, k, t_grid) for k in ks]
    return np.array([compare_rays(target, ray) for ray in rays]), rays
