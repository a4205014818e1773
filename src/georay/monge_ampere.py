"""Discrete real Monge-Ampère measures and the relative energy functional.

The MA measure of a convex grid function is the pullback of dual-grid
Lebesgue measure under the (discrete) gradient map: every node of the slope
region sends one dual-cell volume, times a weight, to the primal node where
its conjugate max is attained.  ``_deposit`` is that one step;
``region_masses`` takes it over the slope regions of a stack of functions
on one grid, (k, *grid.shape), under a weight rule (the region mask, or
its trapezoid weights).  Energy comes in two independent forms -- Simpson
quadrature in t of MA deposits on the base's slope region along the affine
path, and the dual formula E(f_t, f) = int over Delta_f of (f* - f_t*) dy
under trapezoid weights, taken for many f_t at once -- whose agreement is
one of the identities the verification suite checks.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .grids import Grid, GridFunction, _chunks
from .legendre import _require_finite, conjugate, default_dual_grid, dual_base, slope_regions, trapezoid_weights


def _deposit(grid: Grid, wit: np.ndarray, dual: Grid, weights: np.ndarray) -> np.ndarray:
    """The MA deposit: each dual node sends its weight times the dual-cell
    volume to the primal node of ``grid`` at its witness; a mask weighs its
    nodes 1.  Accumulation runs in row-major dual order, so it is
    deterministic."""
    w = np.asarray(weights, dtype=float)
    on = w != 0
    masses = np.zeros(grid.num_nodes)
    np.add.at(masses, wit[on], dual.cell_volume * w[on])
    return masses.reshape(grid.shape)


def region_masses(grid: Grid, values: np.ndarray, dual: Grid, weigh):
    """Yield (mask, masses) for each function of the stack ``values``
    (k, *grid.shape), every one finite: the mask of its slope region and
    the MA deposit of that region, each node weighted by ``weigh(mask)``
    (the mask itself, or ``trapezoid_weights`` for a total that is the
    trapezoid area of the region).

    The masks and witnesses come from one ``slope_regions`` pass, which
    conjugates the functions in groups.
    """
    _require_finite(grid, values)
    for mask, _, wit in slope_regions(grid, values, dual, witness=True):
        yield mask, _deposit(grid, wit, dual, weigh(mask))


def _require_equivalent(grid: Grid, values: np.ndarray, f0: GridFunction):
    """``values`` on ``grid``, one function or a stack, has f0's grid and finite support."""
    if grid != f0.grid:
        raise DomainError("grid mismatch")
    if not (np.isfinite(values) == f0.finite_mask).all():
        raise DomainError("non-equivalent inputs: finite supports differ")
    if not f0.finite_mask.any():
        raise DomainError("both functions are identically -inf")


def _energy_dual_grid(f: GridFunction) -> Grid:
    """Refined dual grid for energy integrals (MA error scales with dual h)."""
    mult = 4 if f.grid.dim == 1 else 2
    nodes = tuple(mult * m + 1 for m in f.grid.nodes_per_axis)
    return default_dual_grid(f, nodes)


def energy_quadrature(f1: GridFunction, f0: GridFunction, dual: Grid | None = None) -> float:
    """E(f1, f0) = int_0^1 int (f1 - f0) MA(f_t) dt, composite Simpson on 11
    nodes in t.

    The MA measures along the path are taken with the dual box of the base
    f0: equivalent functions share one slope set, and on a box that shared
    set is realized by fixing the base's dual box for the whole path.
    """
    _require_equivalent(f1.grid, f1.values, f0)
    if dual is None:
        dual = _energy_dual_grid(f0)
    region, _ = dual_base(f0, dual)
    diff = f1.values - f0.values
    ts = np.linspace(0.0, 1.0, 11)
    w = np.ones(ts.size)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= (ts[1] - ts[0]) / 3.0
    total = 0.0
    # the path nodes, conjugated in groups; they lie between f0 and f1, so
    # need no validation, and the one at t = 0 is f0 up to the sign of zero
    shape = (-1,) + (1,) * f0.grid.dim
    for g in _chunks(ts.size, dual.num_nodes):
        t = ts[g].reshape(shape)
        path = (1.0 - t) * f0.values + t * f1.values
        _, wits = conjugate(f0.grid.axes(), path, dual.axes(), witness=True)
        for wt, wit in zip(w[g], wits):
            total += wt * float((diff * _deposit(f0.grid, wit, dual, region)).sum())
    return total


def dual_energies(values: np.ndarray, f: GridFunction) -> np.ndarray:
    """E(f_t, f) = int over Delta_f of (f* - f_t*) dy for each f_t of the
    stack ``values`` (k, *f.grid.shape), which the caller has checked with
    ``_require_equivalent``.

    The integral is the trapezoid rule on the nodes of the slope region of
    f (``trapezoid_weights``) on ``_energy_dual_grid(f)``.  The region and
    conjugate of f come from ``dual_base``, and the f_t are conjugated in
    groups of ``_chunks`` items; no witness is computed.
    """
    dual = _energy_dual_grid(f)
    mask, fstar = dual_base(f, dual)
    w = trapezoid_weights(mask)[mask]
    fstar = fstar.values[mask]
    out = np.empty(len(values))
    for g in _chunks(len(values), dual.num_nodes):
        stars, _ = conjugate(f.grid.axes(), values[g], dual.axes())
        out[g] = [(w * (fstar - s[mask])).sum() for s in stars]
    return out * dual.cell_volume


def energy_dual(f_t: GridFunction, f: GridFunction) -> float:
    """E(f_t, f) by the dual formula: ``dual_energies`` of the one function."""
    _require_equivalent(f_t.grid, f_t.values, f)
    return float(dual_energies(f_t.values[None], f)[0])


def cocycle_residual(
    f0: GridFunction,
    f1: GridFunction,
    f2: GridFunction,
) -> float:
    """|E(f2,f0) - E(f2,f1) - E(f1,f0)| by quadrature, relative to the
    largest of the three energies.

    All three energies share the base f0's dual grid (equivalent inputs
    share one slope set).
    """
    dual = _energy_dual_grid(f0)
    e20 = energy_quadrature(f2, f0, dual=dual)
    e21 = energy_quadrature(f2, f1, dual=dual)
    e10 = energy_quadrature(f1, f0, dual=dual)
    return abs(e20 - e21 - e10) / max(abs(e20), abs(e21), abs(e10), 1e-30)
