"""Bounded multiplicative filtrations as weighted lattice-point data.

Degree-1 lattice points with integer weights generate all higher degrees
through a tropical (max-plus) convolution; the resulting weight arrays
model a multiplicative filtration.  From them we build sup-norm Bergman
metrics, their log-sum-exp sandwich, the concave transform of the
weights on the polytope, the Fekete limit curve, and the Phong-Sturm ray,
together with the equivalence check against the closed-form toric ray
(phi* - t g-hat)*, where g-hat is the concave envelope of the degree-1
weights over the polytope (Song-Zelditch, Adv. Math. 229, 2012).  The
paper's route to that ray (limit curve, maximal envelope, lambda-transform)
stays in the library, as the check that it converges to the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .curves import ConcaveTransform, TestCurve
from .errors import DomainError, ResourceError
from .grids import (
    Grid, GridFunction, NEG_INF, SIZE_CAP, lower_envelope, require_within_cap,
)
from .legendre import SlopeRegion, _chunks, check_dual_contains_slopes, conjugate
from .rays import Ray, compare_rays, default_t_grid, ray_dual


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """log sum exp along the rows of a 2-D array.

    Takes the steps of scipy 1.17's ``scipy.special.logsumexp(a, axis=1)``
    for real input, so the bits agree: the tied row maxima are counted as m
    and left out of the shifted sum s, which is divided by m when nonzero,
    and the result is log1p(s) + log(m) + max.  Every row needs a finite
    entry (the section values are finite); -inf entries add nothing.
    """
    a_max = a.max(axis=1, keepdims=True)
    top = a == a_max
    m = top.sum(axis=1, keepdims=True, dtype=float)
    s = np.exp(np.where(top, NEG_INF, a) - a_max).sum(axis=1, keepdims=True)
    s = np.where(s == 0, s, s / m)
    return (np.log1p(s) + np.log(m) + a_max)[:, 0]


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
        span = self.points.max(axis=0) - self.points.min(axis=0)
        return tuple(int(k * s + 1) for s in span)

    def _degree_one_array(self) -> np.ndarray:
        arr = np.full(self._shape(1), NEG_INF)
        origin = self._origin(1)
        for p, w in zip(self.points, self.weights):
            arr[tuple(p - origin)] = float(w)
        return arr

    def closure(self, k: int) -> np.ndarray:
        if k not in self.closures:
            multiplicative_closure(self, k)
        return self.closures[k]

    def reachable(self, k: int):
        """(points (R, n), normalized weights (R,)) at degree k, row-major."""
        arr = self.closure(k)
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
    if math.prod(data._shape(k)) > SIZE_CAP:
        raise ResourceError(f"degree-{k} lattice exceeds the size cap {SIZE_CAP}")
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
    """Base metric phi plus cached conjugate values at normalized points."""

    phi: GridFunction
    dual: Grid

    def __post_init__(self):
        check_dual_contains_slopes(self.phi, self.dual)
        self._coords = self.phi.grid.coords()
        self._sections: dict[tuple[int, int], tuple] = {}

    def conj_at(self, y: np.ndarray) -> np.ndarray:
        """phi*(y) at arbitrary slope points (exact max over primal nodes)."""
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
        point order, cached per (data, k).  E must fit under the size cap.
        """
        key = (id(data), k)
        if key not in self._sections:
            pts, w = data.reachable(k)
            require_within_cap(f"degree-{k} section matrix", w.size, self.phi.grid.num_nodes)
            slopes = pts.astype(float) / k
            E = self._coords @ slopes.T - self.conj_at(slopes)
            E.setflags(write=False)
            w.setflags(write=False)
            # holding data keeps its id from being reused by another object
            self._sections[key] = (data, E, w)
        return self._sections[key][1:]


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


def phong_sturm_ray(
    inst: BergmanInstance, data: WeightedLatticeData, k: int, t_grid=None
):
    """frame(t) = (1/k) log sum over all sections of exp(t w_i + k e_i)."""
    if t_grid is None:
        t_grid = default_t_grid()
    ts = np.asarray(t_grid, dtype=float).ravel()
    E, w = inst.section_values(data, k)
    kE = k * E
    frames = np.array([_logsumexp(kE + t * w[None, :]) / k for t in ts])
    return Ray(ts, inst.phi.grid, frames)


def _require_sections_within_cap(inst: BergmanInstance, data: WeightedLatticeData, k: int):
    """Two distinct degree-1 points reach at least k + 1 points at degree k,
    so the degree-k section matrix can be over the cap before any closure
    is built (whose cost is quadratic in k): ``ResourceError`` then."""
    nodes = inst.phi.grid.num_nodes
    if (data.points != data.points[0]).any() and (k + 1) * nodes > SIZE_CAP:
        raise ResourceError(
            f"degree-{k} section matrix of at least {k + 1} x {nodes} "
            f"nodes exceeds the size cap {SIZE_CAP}"
        )


def limit_curve(
    inst: BergmanInstance, data: WeightedLatticeData, k_list
) -> TestCurve:
    """Fekete supremum of extremal metrics over k, one row per lambda.

    The lambda grid is {j / k_max} over the normalized weight range; the
    critical value is the largest normalized weight.  Each finite sample is
    a max of the affine e_i, so it is convex by construction and is not
    re-hulled.
    """
    k_list = sorted(set(int(k) for k in k_list))
    if not k_list:
        raise DomainError("empty degree list")
    k_max = k_list[-1]
    grid = inst.phi.grid
    _require_sections_within_cap(inst, data, k_max)
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


@dataclass(frozen=True, eq=False)
class ConcaveTransformG:
    """Piecewise-linear concave envelope of normalized weight data.

    It is linear on each of its facets, segments (1-D) or triangles (2-D)
    of node indices that tile the polytope; ``weight_envelope`` evaluates g-hat."""

    nodes: np.ndarray  # (R, n) normalized lattice points
    values: np.ndarray  # (R,) concave-envelope values at the nodes
    facets: np.ndarray  # (F, n + 1) node indices of the simplices g is linear on


def concave_transform_g(data: WeightedLatticeData, k: int) -> ConcaveTransformG:
    """Concave envelope of {(alpha/k, weight(alpha)/k)} on the polytope."""
    pts, w = data.reachable(k)
    x = pts.astype(float) / k
    env, facets = lower_envelope(x, -w / k)
    return ConcaveTransformG(x, -env, facets)


def moment_check(g: ConcaveTransformG, data: WeightedLatticeData, k: int, p: int):
    """((1/k^n) sum of normalized weights^p, integral of g^p over the polytope).

    g is linear on each facet, an n-simplex S with vertex values a, so the
    integral is exact: |S| sum(a) / (n+1) for p = 1 and
    |S| ((sum a)^2 + sum a^2) / ((n+1)(n+2)) for p = 2.
    """
    if p not in (1, 2):
        raise DomainError("only moments p in {1, 2} are supported")
    _, w = data.reachable(k)
    n = data.dim
    lhs = float(((w / k) ** p).sum()) / k**n
    corners = g.nodes[g.facets]
    vol = np.abs(np.linalg.det(corners[:, 1:] - corners[:, :1])) / math.factorial(n)
    a = g.values[g.facets]
    s = a.sum(axis=1)
    mean = s / (n + 1) if p == 1 else (s * s + (a * a).sum(axis=1)) / ((n + 1) * (n + 2))
    return lhs, float((vol * mean).sum())


def log_sum_exp_sandwich_gap(
    inst: BergmanInstance, data: WeightedLatticeData, k: int, lam: float = -np.inf
):
    """Worst node-wise violation of max <= bergman <= max + ln|I|/k.

    Returns (low_violation, high_violation); both should be ~ 0.
    """
    E, w = inst.section_values(data, k)
    sel = w >= k * lam - 1e-9 if np.isfinite(lam) else np.ones(w.size, dtype=bool)
    if not sel.any():
        raise DomainError("empty selection")
    block = E[:, sel]
    mx = block.max(axis=1)
    lse = _logsumexp(k * block) / k
    budget = math.log(int(sel.sum())) / k
    low = float((mx - lse).max())
    high = float((lse - (mx + budget)).max())
    return low, high


def weight_envelope(data: WeightedLatticeData, pts: np.ndarray) -> np.ndarray:
    """g-hat at points (M, n): the concave envelope of the degree-1 weights
    over the polytope conv(P1), -inf off it.

    By Caratheodory, g-hat(y) is the max of a linear program over convex
    combinations of P1 whose optimum uses at most n + 1 affinely independent
    points, which zero weights extend to an n-simplex of P1.  So g-hat(y) is
    the max, over the n-simplices of P1 that contain y (barycentric
    coordinates >= -1e-9), of the barycentric interpolation of their
    weights: exact, and without a hull.  The simplices times the points are
    size-capped; a P1 that spans no n-simplex raises ``DomainError``.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    p, n = data.points, data.dim
    require_within_cap(f"{n}-simplex table of P1", math.comb(len(p), n + 1), len(pts))
    simplices = np.array(list(combinations(range(len(p)), n + 1)), dtype=np.int64).reshape(-1, n + 1)
    corner = p[simplices[:, 0]].astype(float)
    edges = p[simplices[:, 1:]] - corner[:, None]
    # integer edges: a nonzero determinant is at least 1 in magnitude
    keep = np.abs(np.linalg.det(edges)) > 0.5
    if not keep.any():
        raise DomainError(f"{n}-D points {p.tolist()} span no {n}-simplex")
    corner, inv = corner[keep], np.linalg.inv(edges[keep])
    w = data.weights[simplices[keep]].astype(float)
    out = np.full(len(pts), NEG_INF)
    for g in _chunks(len(corner), len(pts) * n):
        # barycentric coordinates of every point in each simplex of the group
        bary = (pts - corner[g, None]) @ inv[g]
        inside = (bary >= -1e-9).all(axis=2) & (bary.sum(axis=2) <= 1.0 + 1e-9)
        vals = w[g, :1] + (bary @ (w[g, 1:] - w[g, :1])[..., None])[..., 0]
        np.maximum(out, np.where(inside, vals, NEG_INF).max(axis=0), out=out)
    return out


def toric_ray(inst: BergmanInstance, data: WeightedLatticeData, t_grid) -> Ray:
    """The closed-form limit of the Phong-Sturm rays: frame(t) is the
    conjugate of phi* - t g-hat over the dual nodes of the polytope, onto
    phi's grid, with g-hat from ``weight_envelope`` and phi* from
    ``conj_at``."""
    dual = inst.dual
    g = weight_envelope(data, dual.coords()).reshape(dual.shape)
    on = np.isfinite(g)
    if not on.any():
        raise DomainError("no dual node lies in the polytope of the weights")
    star = inst.conj_at(dual.coords()).reshape(dual.shape)
    u = ConcaveTransform(GridFunction(dual, g), SlopeRegion(dual, on))
    return ray_dual(GridFunction(dual, star), u, inst.phi.grid, t_grid)


def equivalence_check(
    inst: BergmanInstance,
    data: WeightedLatticeData,
    t_grid,
    k_list,
) -> tuple[np.ndarray, list[Ray]]:
    """Per-t sup-norm gaps between the Phong-Sturm rays of the degrees k_list
    and their limit, the closed-form ``toric_ray``.

    The degree cap is checked before any closure is built, and the target
    is built before any Phong-Sturm ray.  Returns (gaps, rays): row i of the
    (degrees, t) table ``gaps`` is the gap at the i-th distinct degree of
    k_list in ascending order, and ``rays[i]`` is the Phong-Sturm ray it was
    measured against.
    """
    ks = sorted(set(int(k) for k in k_list))
    _require_sections_within_cap(inst, data, ks[-1])
    target = toric_ray(inst, data, t_grid)
    rays = [phong_sturm_ray(inst, data, k, t_grid) for k in ks]
    return np.array([compare_rays(target, ray) for ray in rays]), rays
