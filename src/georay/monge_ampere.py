"""Discrete real Monge-Ampère measures and the relative energy functional.

The MA measure of a convex grid function is the pullback of dual-grid
Lebesgue measure under the (discrete) gradient map: every dual node sends
one dual-cell volume to the primal node where its conjugate max is
attained.  Energy comes in two independent forms -- Simpson quadrature in
t along the affine path, and the dual Legendre formula -- whose agreement
is one of the identities the verification suite checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .grids import ConvexGridFunction, Grid, GridFunction
from .legendre import (
    _chunks,
    _require_finite,
    check_dual_contains_slopes,
    conjugate,
    default_dual_grid,
    legendre,
    slope_regions,
    subgradient_range,
)


@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """Nonnegative masses on primal grid nodes."""

    grid: Grid
    masses: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.masses, dtype=float).reshape(self.grid.shape)
        if np.any(m < 0) or not np.all(np.isfinite(m)):
            raise DomainError("masses must be finite and nonnegative")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "masses", m)

    @property
    def total(self) -> float:
        return float(self.masses.sum())


@dataclass(frozen=True)
class EnergyReport:
    value: float
    method: str  # "quadrature" or "dual"
    t_samples: int = 0


def _deposit(f: GridFunction, wit: np.ndarray, dual: Grid, mask=None) -> np.ndarray:
    """One dual-cell volume at the primal node of each witness (of the dual
    nodes in ``mask`` only, when given), accumulated in row-major order."""
    masses = np.zeros(f.grid.num_nodes)
    np.add.at(masses, (wit if mask is None else wit[mask]).ravel(), dual.cell_volume)
    return masses.reshape(f.grid.shape)


def ma_measure(
    f: ConvexGridFunction, dual: Grid | None = None, region=None
) -> DiscreteMeasure:
    """Alexandrov MA measure of f via dual-node pullback.

    Each dual node deposits one dual-cell volume at the (first, row-major)
    primal maximizer of <x,y> - f(x).  When ``region`` (a SlopeRegion) is
    given, only dual nodes inside it deposit; this realizes the pullback of
    Lebesgue measure restricted to a fixed slope set.  Accumulation order
    is fixed, so the result is deterministic.
    """
    if f.is_identically_neg_inf:
        raise DomainError("MA measure of the identically -inf function")
    if dual is None:
        dual = default_dual_grid(f)
    _, wit = legendre(f, dual, return_witness=True)
    if region is not None and region.grid != dual:
        raise DomainError("region grid does not match dual grid")
    return DiscreteMeasure(f.grid, _deposit(f, wit, dual, None if region is None else region.mask))


def region_measures(fs, dual: Grid):
    """Yield (mask, masses) for each function f of ``fs`` (one primal grid,
    none identically -inf): the node mask of ``subgradient_range(f, dual)``
    and the masses of ``ma_measure(f, dual, region=...)`` on it.

    Both come from ``slope_regions``, which conjugates the functions in
    groups; the deposit reuses the witnesses of its full conjugate.
    """
    for f in fs:
        _require_finite(f)
    for f, (mask, wit) in zip(fs, slope_regions(fs, dual)):
        yield mask, _deposit(f, wit, dual, mask)


def total_mass_identity_check(f: ConvexGridFunction, dual: Grid | None = None) -> float:
    """|total MA mass - volume of the slope region|, computed independently."""
    if dual is None:
        dual = default_dual_grid(f)
    mass = ma_measure(f, dual).total
    vol = subgradient_range(f, dual).volume
    return abs(mass - vol)


def _require_equivalent(f1: GridFunction, f0: GridFunction):
    if f1.grid != f0.grid:
        raise DomainError("grid mismatch")
    if not np.array_equal(f1.finite_mask, f0.finite_mask):
        raise DomainError("non-equivalent inputs: finite supports differ")
    if not f1.finite_mask.any():
        raise DomainError("both functions are identically -inf")


def _energy_dual_grid(f: GridFunction) -> Grid:
    """Refined dual grid for energy integrals (MA error scales with dual h)."""
    mult = 4 if f.grid.dim == 1 else 2
    nodes = tuple(mult * m + 1 for m in f.grid.nodes_per_axis)
    return default_dual_grid(f, nodes)


def energy_base(f0: ConvexGridFunction, dual: Grid):
    """The slope region of f0 and the t = 0 measure of every path from f0,
    whose node (1 - t) f0 + t f1 is f0 there up to the sign of zero."""
    region = subgradient_range(f0, dual)
    return region, ma_measure(f0, dual, region=region)


def energy_quadrature(
    f1: ConvexGridFunction,
    f0: ConvexGridFunction,
    t_samples: int = 11,
    dual: Grid | None = None,
    base: tuple | None = None,
) -> EnergyReport:
    """E(f1, f0) = int_0^1 int (f1 - f0) MA(f_t) dt, composite Simpson in t.

    The MA measures along the path are taken with the dual box of the base
    f0: equivalent functions share one slope set, and on a box that shared
    set is realized by fixing the base's dual box for the whole path.
    ``base`` is ``energy_base(f0, dual)``, reused across many f1.
    """
    _require_equivalent(f1, f0)
    if t_samples < 3 or t_samples % 2 == 0:
        raise DomainError("t_samples must be odd and >= 3")
    if dual is None:
        dual = _energy_dual_grid(f0)
    region, mu0 = energy_base(f0, dual) if base is None else base
    diff = np.where(f1.finite_mask, f1.values - f0.values, 0.0)
    ts = np.linspace(0.0, 1.0, t_samples)
    w = np.ones(t_samples)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= (ts[1] - ts[0]) / 3.0
    total = 0.0
    total += w[0] * float((diff * mu0.masses).sum())  # t = 0: f0 itself
    # the later nodes, validated one by one and conjugated in groups
    axes = f1.grid.axes()
    for g in _chunks(t_samples - 1, dual.num_nodes):
        fts = [
            ConvexGridFunction(
                f1.grid, np.where(f1.finite_mask, (1.0 - t) * f0.values + t * f1.values, -np.inf)
            )
            for t in ts[1:][g]
        ]
        for ft in fts:
            _require_finite(ft)
        _, wits = conjugate(axes, np.stack([ft.values for ft in fts]), dual.axes())
        for wt, wit in zip(w[1:][g], wits):
            masses = _deposit(f1, wit, dual, region.mask)
            total += wt * float((diff * masses).sum())
    return EnergyReport(value=total, method="quadrature", t_samples=t_samples)


def energy_dual(
    f_t: ConvexGridFunction,
    f: ConvexGridFunction,
    dual: Grid | None = None,
) -> EnergyReport:
    """E(f_t, f) = int over Delta_f of (f* - f_t*) dy (cell-weighted sum)."""
    _require_equivalent(f_t, f)
    if dual is None:
        dual = _energy_dual_grid(f)
    else:
        check_dual_contains_slopes(f, dual)
    region = subgradient_range(f, dual)
    fstar = legendre(f, dual)
    ftstar = legendre(f_t, dual)
    diff = (fstar.values - ftstar.values)[region.mask]
    return EnergyReport(value=float(diff.sum()) * region.cell_volume, method="dual")


def cocycle_residual(
    f0: ConvexGridFunction,
    f1: ConvexGridFunction,
    f2: ConvexGridFunction,
    t_samples: int = 11,
) -> float:
    """|E(f2,f0) - E(f2,f1) - E(f1,f0)| by quadrature.

    All three energies share the base f0's dual grid (equivalent inputs
    share one slope set).
    """
    dual = _energy_dual_grid(f0)
    e20 = energy_quadrature(f2, f0, t_samples, dual=dual).value
    e21 = energy_quadrature(f2, f1, t_samples, dual=dual).value
    e10 = energy_quadrature(f1, f0, t_samples, dual=dual).value
    return abs(e20 - e21 - e10)
