"""Test curves, their concave transform on the dual, and maximal envelopes.

A test curve is a lambda-indexed family of convex functions, one array on
one grid: constant below ``lambda_head``, decreasing and concave in lambda,
and identically -inf past the critical value ``lambda_c``; every lambda is
finite.  ``validate`` is the one test of these invariants: it raises
``DomainError`` at the first broken one, naming its lambda.  The curve's
concave transform u(y) is the largest lambda whose member still has y
among its subgradients, and -inf off its base, the first finite member's
slope region; the regions come from one ``slope_regions`` pass over the
curve's array.  A ``ConcaveTransform`` holds u alone: its ``base`` is u's
finite set.  The maximal envelope runs the other way: from an obstacle phi,
its conjugate and superlevel regions {u >= lambda} it rebuilds the curve as
a restricted biconjugate, a supremum of affine functions with slopes
confined to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .grids import NEG_INF, Grid, GridFunction, _at, grid_values, require_convex
from .legendre import (
    SlopeRegion,
    _chunks,
    check_dual_contains_slopes,
    conjugate,
    legendre,
    slope_regions,
    trapezoid_weights,
)


@dataclass(frozen=True, eq=False)
class TestCurve:
    """Sorted lambda samples on one grid: values[i], a convex function (or
    identically -inf), is the sample at lambdas[i]."""

    lambdas: np.ndarray
    grid: Grid
    values: np.ndarray = field(repr=False)
    lambda_head: float
    lambda_c: float

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float).ravel()
        lam.setflags(write=False)
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "values", grid_values(self.grid, self.values, lam.size))
        if lam.size == 0:
            raise DomainError("empty test curve")
        if not np.isfinite([*lam, self.lambda_head, self.lambda_c]).all():
            raise DomainError("test curve lambdas, lambda_head and lambda_c must be finite")
        if np.any(np.diff(lam) <= 0):
            raise DomainError("lambda grid must be strictly increasing")

    @property
    def live(self) -> np.ndarray:
        """Per sample, whether it is finite somewhere."""
        return (self.values > NEG_INF).any(axis=tuple(range(1, self.values.ndim)))

    @property
    def head(self) -> GridFunction:
        return GridFunction(self.grid, self.values[0])


def validate(tc: TestCurve, tol_scale: float = 1.0):
    """``DomainError`` at the first broken invariant of a test curve, in this
    order: a finite sample past lambda_c, a -inf sample at or below it, a
    partly -inf sample, a head sample unlike the first, an increase in lambda
    over 1e-12, and lambda-concavity off by over tol_scale (h + least lambda
    step), as discrete envelopes are lambda-concave only up to a cell.  The
    error names the lambda and any node, x and deviation.  In 1-D each
    finite sample is then certified by ``require_convex``."""
    lam, live, grid = tc.lambdas, tc.live, tc.grid
    V = tc.values.reshape(len(lam), -1)

    def first(what, rows, dev, tol):
        """Raise at the first of ``rows`` (indices of lambdas) whose deviations
        ``dev`` (a row of nodes each) exceed ``tol``, at its worst node."""
        bad = np.flatnonzero((dev > tol).any(axis=1))
        if bad.size:
            i, j = bad[0], int(np.argmax(dev[bad[0]]))
            raise DomainError(
                f"{what} at lambda={lam[rows[i]]:g}, {_at(grid, j)}: "
                f"deviation {dev[i, j]:g} > {tol:g}"
            )

    for l, fin in zip(lam, live):
        if fin and l > tc.lambda_c + 1e-12:
            raise DomainError(f"finite sample at lambda={l:g} past lambda_c={tc.lambda_c:g}")
        if not fin and l <= tc.lambda_c - 1e-12:
            raise DomainError(f"-inf sample at lambda={l:g} <= lambda_c={tc.lambda_c:g}")
    for l, v in zip(lam[live], V[live]):
        if (v == NEG_INF).any():
            raise DomainError(f"sample at lambda={l:g} is partly -inf, at {_at(grid, int(np.argmin(v)))}")
    head = np.flatnonzero(lam <= tc.lambda_head + 1e-12)
    if live[0]:  # else every head sample is -inf, by the checks above
        first("sample differs from the head", head, np.abs(V[head] - V[0]), 0.0)
    prev = np.flatnonzero(live[1:])
    first("curve increases in lambda", prev + 1, V[prev + 1] - V[prev], 1e-12)
    fin = np.flatnonzero(live)
    a, b, c = fin[:-2], fin[1:-1], fin[2:]
    w = ((lam[b] - lam[a]) / (lam[c] - lam[a]))[:, None]
    dlam = float(np.diff(lam).min()) if lam.size > 1 else 0.0
    tol = tol_scale * (max(grid.spacing) + dlam)
    first("curve is not concave in lambda", b, (1 - w) * V[a] + w * V[c] - V[b], tol)
    if grid.dim == 1:
        for l, sample in zip(lam[live], tc.values[live]):
            require_convex(f"curve sample at lambda={l:g}", GridFunction(grid, sample))


@dataclass(frozen=True, eq=False)
class ConcaveTransform:
    """u(y) = sup{lambda : y in Delta of the lambda-sample}, -inf off its
    base, which is derived as u's finite set."""

    u: GridFunction
    base: SlopeRegion = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "base", SlopeRegion(self.u.grid, self.u.finite_mask))

    def integral(self) -> float:
        """int of u over its base, by the trapezoid rule."""
        sel = self.base.mask
        wu = trapezoid_weights(sel)[sel] * self.u.values[sel]
        return float(wu.sum()) * self.u.grid.cell_volume


def concave_transform(tc: TestCurve, dual: Grid) -> ConcaveTransform:
    """Largest sample lambda whose slope region still contains each dual
    node of the base, the first finite sample's region; -inf off the base.
    One ``slope_regions`` pass takes every finite sample's region."""
    live = np.flatnonzero(tc.live)
    if not live.size:
        raise DomainError("test curve has no finite samples")
    regions = slope_regions(tc.grid, tc.values[live], dual)
    base, _, _ = next(regions)
    u = np.where(base, tc.lambdas[live[0]], NEG_INF)
    for j, (mask, _, _) in zip(live[1:], regions):
        u[mask & base] = tc.lambdas[j]
    return ConcaveTransform(GridFunction(dual, u))


def envelope_from_u(
    phi: GridFunction,
    u: ConcaveTransform,
    lambdas,
    phistar: GridFunction,
    lambda_head: float | None = None,
) -> TestCurve:
    """Maximal-envelope curve of phi with slopes confined to {u >= lambda},
    from phi's conjugate ``phistar`` on u's grid.

    phi_lambda(x) = max over dual nodes y with u(y) >= lambda of
    <x,y> - phi*(y); empty selections give -inf samples.
    """
    dual = phistar.grid
    if u.u.grid != dual:
        raise DomainError("phi* is not sampled on the grid of u")
    lam = np.asarray(lambdas, dtype=float).ravel()
    sels = [u.base.mask & (u.u.values >= l - 1e-12) for l in lam]
    live = [j for j, sel in enumerate(sels) if sel.any()]
    if not live:
        raise DomainError("every lambda selection is empty")
    lambda_c = lam[live[-1]]
    values = np.full((lam.size,) + phi.grid.shape, NEG_INF)
    for g in _chunks(len(live), phi.grid.num_nodes):
        stack = np.stack([np.where(sels[j], phistar.values, np.inf) for j in live[g]])
        values[live[g]] = conjugate(dual.axes(), stack, phi.grid.axes())[0]
    if lambda_head is None:
        lambda_head = float(lam[0])
    return TestCurve(lam, phi.grid, values, lambda_head=lambda_head, lambda_c=lambda_c)


def maximal_envelope(phi: GridFunction, tc: TestCurve, dual: Grid) -> TestCurve:
    """Envelope curve of phi driven by the concave transform of tc."""
    u = concave_transform(tc, dual)
    check_dual_contains_slopes(phi, dual)
    return envelope_from_u(phi, u, tc.lambdas, legendre(phi, dual), lambda_head=tc.lambda_head)


def default_contact_tol(phi: GridFunction) -> float:
    """10 h (slope bound): the contact set needs a band on grids."""
    h = max(phi.grid.spacing)
    slope = max(
        float(np.abs(np.diff(phi.values, axis=ax)).max()) / phi.grid.spacing[ax]
        for ax in range(phi.grid.dim)
    )
    return 10.0 * h * max(slope, 1.0)


def contact_set(phi: GridFunction, values: np.ndarray, tol: float | None = None) -> np.ndarray:
    """Nodes where an envelope sample, ``values`` on phi's grid, touches the
    obstacle: values >= phi - tol (never at a -inf node)."""
    if np.shape(values) != phi.grid.shape:
        raise DomainError("grid mismatch")
    if tol is None:
        tol = default_contact_tol(phi)
    return values >= phi.values - tol
