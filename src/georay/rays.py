"""Geodesic rays: Legendre transform in lambda, the dual construction,
and energy linearity.

A ray is a t-indexed family of grid functions.  Two constructions are
implemented and compared: the lambda-supremum of a test curve,
frame(t) = max over lambda of (phi_lambda + t lambda), and the dual route
frame(t) = conjugate of (phi* - t u) on the finite-u region.  Their
agreement, and the energy E(frame(t), phi) = int of (phi* - frame(t)*) over
the slope set being t times the integral of u there, are the model
identities the acceptance suite pins down.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import ConcaveTransform, TestCurve, concave_transform
from .errors import DomainError
from .grids import Grid, GridFunction, NEG_INF
from .legendre import _chunks, conjugate
from .monge_ampere import _energy_dual_grid, dual_energies


@dataclass(frozen=True, eq=False)
class Ray:
    """Frames of grid functions indexed by a sorted t grid starting at 0."""

    t_grid: np.ndarray
    frames: tuple[GridFunction, ...]
    curve: TestCurve | None = None

    def __post_init__(self):
        ts = np.asarray(self.t_grid, dtype=float).ravel()
        ts.setflags(write=False)
        object.__setattr__(self, "t_grid", ts)
        object.__setattr__(self, "frames", tuple(self.frames))
        if ts.size == 0 or ts[0] != 0.0 or np.any(np.diff(ts) <= 0):
            raise DomainError("t grid must start at 0 and increase strictly")
        if len(self.frames) != ts.size:
            raise DomainError("one frame per t required")

    @property
    def grid(self) -> Grid:
        return self.frames[0].grid


@dataclass(frozen=True)
class LinearityReport:
    slope: float
    intercept: float
    max_abs_residual: float
    predicted_slope: float


def default_t_grid() -> np.ndarray:
    return np.linspace(0.0, 1.0, 11)


def ray_from_curve(tc: TestCurve, t_grid=None) -> Ray:
    """frame(t) = node-wise max over stored lambda of (phi_lambda + t lambda).

    The finite samples are stacked, and each t takes one max over a group of
    ``_chunks`` samples at a time.
    """
    if t_grid is None:
        t_grid = default_t_grid()
    ts = np.asarray(t_grid, dtype=float).ravel()
    if tc.head.is_identically_neg_inf:
        raise DomainError("test curve head is identically -inf")
    live = [j for j, s in enumerate(tc.samples) if not s.is_identically_neg_inf]
    values = np.stack([tc.samples[j].values.ravel() for j in live])
    lam = tc.lambdas[live, None]
    frames = []
    for t in ts:
        acc = np.full(tc.grid.num_nodes, NEG_INF)
        for g in _chunks(len(live), tc.grid.num_nodes):
            np.maximum(acc, (values[g] + t * lam[g]).max(axis=0), out=acc)
        frames.append(GridFunction(tc.grid, acc.reshape(tc.grid.shape)))
    return Ray(ts, tuple(frames), curve=tc)


def ray_dual(phistar: GridFunction, u: ConcaveTransform, grid: Grid, t_grid) -> Ray:
    """frame(t) = conjugate (dual -> primal ``grid``) of phi* - t u on the
    u-region, from phi* on u's dual grid."""
    ts = np.asarray(t_grid, dtype=float).ravel()
    dual = u.u.grid
    if phistar.grid != dual:
        raise DomainError("phi* and u live on different dual grids")
    sel = u.base.mask & np.isfinite(u.u.values)
    if not sel.any():
        raise DomainError("empty slope region for the dual ray")
    star, uv = phistar.values[sel], u.u.values[sel]
    frames = []
    for g in _chunks(ts.size, grid.num_nodes):
        mod = np.full((ts[g].size,) + dual.shape, np.inf)
        mod[:, sel] = star - ts[g, None] * uv
        vals, _ = conjugate(dual.axes(), mod, grid.axes())
        frames += [GridFunction(grid, v) for v in vals]
    return Ray(ts, tuple(frames))


def compare_rays(r1: Ray, r2: Ray) -> np.ndarray:
    """Per-t sup-norm over nodes where both frames are finite."""
    if not np.array_equal(r1.t_grid, r2.t_grid):
        raise DomainError("mismatched t grids")
    if r1.grid != r2.grid:
        raise DomainError("mismatched primal grids")
    out = np.empty(r1.t_grid.size)
    for i, (a, b) in enumerate(zip(r1.frames, r2.frames)):
        both = a.finite_mask & b.finite_mask
        out[i] = float(np.abs(a.values[both] - b.values[both]).max()) if both.any() else 0.0
    return out


def energy_linearity(
    ray: Ray, f0: GridFunction, u: ConcaveTransform | None = None
) -> LinearityReport:
    """Least-squares line through (t, E(frame(t), f0)), the ``dual_energies``
    of the frames, with predicted slope ``u.integral()``.

    Without u, the concave transform of ray.curve on the energy grid of f0
    is integrated; rays with neither get predicted_slope = NaN.
    """
    energies = dual_energies(ray.frames, f0)
    slope, intercept = np.polyfit(ray.t_grid, energies, 1)
    resid = float(np.abs(energies - (slope * ray.t_grid + intercept)).max())
    if u is None and ray.curve is not None:
        u = concave_transform(ray.curve, _energy_dual_grid(f0))
    return LinearityReport(
        slope=float(slope),
        intercept=float(intercept),
        max_abs_residual=resid,
        predicted_slope=float("nan") if u is None else u.integral(),
    )
