"""Geodesic rays: Legendre transform in lambda, the dual construction,
and energy linearity.

A ray is one array of frames on one grid, indexed by t.  Two constructions
are compared: the lambda-supremum of a test curve, frame(t) = max over
lambda of (phi_lambda + t lambda), a conjugate in lambda, and the dual
route frame(t) = conjugate of (phi* - t u) on the finite-u region, with u
a plain ``GridFunction`` on the dual grid, -inf off its base.  Their
agreement, and the energy E(frame(t), phi) = int of (phi* - frame(t)*) over
the slope set being t times the integral of u there, are the model
identities the acceptance suite pins down.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .curves import TestCurve
from .errors import DomainError
from .grids import Grid, GridFunction, grid_values
from .legendre import conjugate, integral, masked_conjugates
from .monge_ampere import _require_equivalent, dual_energies


def _t_values(t_grid) -> np.ndarray:
    """A t grid, read-only; ``DomainError`` unless finite, from 0 and strictly increasing."""
    ts = np.asarray(t_grid, dtype=float).ravel()
    if ts.size == 0 or ts[0] != 0.0 or not np.isfinite(ts).all() or np.any(np.diff(ts) <= 0):
        raise DomainError("t grid must be finite, start at 0 and increase strictly")
    ts.setflags(write=False)
    return ts


@dataclass(frozen=True, eq=False)
class Ray:
    """Frames on one grid indexed by a sorted t grid starting at 0:
    values[i] is the frame at t_grid[i]."""

    t_grid: np.ndarray
    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        ts = _t_values(self.t_grid)
        object.__setattr__(self, "t_grid", ts)
        object.__setattr__(self, "values", grid_values(self.grid, self.values, ts.size))


@dataclass(frozen=True)
class LinearityReport:
    slope: float
    intercept: float
    max_abs_residual: float
    predicted_slope: float


def default_t_grid() -> np.ndarray:
    return np.linspace(0.0, 1.0, 11)


def ray_from_curve(tc: TestCurve, t_grid=None) -> Ray:
    """frame(t) = node-wise max over stored lambda of (phi_lambda + t lambda):
    one ``conjugate`` from the finite samples' lambdas to the t grid, a row
    per node, whose candidate lambda t - (-phi_lambda) is that bit for bit."""
    live = tc.live
    if not live[0]:
        raise DomainError("test curve head is identically -inf")
    ts = _t_values(default_t_grid() if t_grid is None else t_grid)
    lam, rows = tc.lambdas[live], tc.values[live].reshape(live.sum(), -1)
    # over decreasing lambda, so that of tied candidates (0.0 and -0.0) a
    # frame keeps the last lambda's, as np.maximum over increasing lambdas
    # does; (-lambda)(-t) is lambda t bit for bit
    vals, _ = conjugate([-lam[::-1]], -rows[::-1].T, [-ts[::-1]])
    vals = vals[:, ::-1]
    return Ray(ts, tc.grid, vals.T)


def ray_dual(phistar: GridFunction, u: GridFunction, grid: Grid, t_grid) -> Ray:
    """frame(t) = conjugate (dual -> primal ``grid``) of phi* - t u on u's
    finite set, from phi* on u's dual grid."""
    ts = _t_values(t_grid)
    if phistar.grid != u.grid:
        raise DomainError("phi* and u live on different dual grids")
    sel = u.finite_mask
    if not sel.any():
        raise DomainError("empty slope region for the dual ray")
    uv = np.where(sel, u.values, 0.0)  # no 0 * -inf off the selection
    frames = masked_conjugates(
        u.grid, ts.size, lambda g: (phistar.values - np.multiply.outer(ts[g], uv), sel), grid
    )
    return Ray(ts, grid, frames)


def compare_rays(r1: Ray, r2: Ray) -> np.ndarray:
    """Per-t sup-norm over nodes where both frames are finite, 0 where none are."""
    if not np.array_equal(r1.t_grid, r2.t_grid):
        raise DomainError("mismatched t grids")
    if r1.grid != r2.grid:
        raise DomainError("mismatched primal grids")
    both = np.isfinite(r1.values) & np.isfinite(r2.values)
    gap = np.subtract(r1.values, r2.values, out=np.zeros(both.shape), where=both)
    return np.abs(gap).reshape(len(gap), -1).max(axis=1)


def energy_linearity(ray: Ray, f0: GridFunction, u: GridFunction) -> LinearityReport:
    """Least-squares line through (t, E(frame(t), f0)), the ``dual_energies``
    of the frames, with predicted slope ``integral(u)``."""
    _require_equivalent(ray.grid, ray.values, f0)
    energies = dual_energies(ray.values, f0)
    slope, intercept = np.polyfit(ray.t_grid, energies, 1)
    resid = float(np.abs(energies - (slope * ray.t_grid + intercept)).max())
    return LinearityReport(float(slope), float(intercept), resid, integral(u))
