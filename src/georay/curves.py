"""Test curves, their concave transform on the dual, and maximal envelopes.

A test curve is a lambda-indexed family of convex functions, one array on
one grid: constant below ``lambda_head``, decreasing and concave in lambda,
and identically -inf past the critical value ``lambda_c``.  Its concave
transform u(y) is the largest lambda whose member still has y among its
subgradients.  The maximal envelope runs the other way: from an obstacle
phi and superlevel regions {u >= lambda} it rebuilds the curve as a
restricted biconjugate, a supremum of affine functions with slopes
confined to the region.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .grids import Grid, GridFunction, NEG_INF, grid_values
from .legendre import (
    SlopeRegion,
    _chunks,
    check_dual_contains_slopes,
    conjugate,
    legendre,
    slope_regions,
    subgradient_range,
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
        if np.any(np.diff(lam) <= 0):
            raise DomainError("lambda grid must be strictly increasing")

    @property
    def live(self) -> np.ndarray:
        """Per sample, whether it is finite somewhere."""
        return (self.values > NEG_INF).any(axis=tuple(range(1, self.values.ndim)))

    @property
    def head(self) -> GridFunction:
        return GridFunction(self.grid, self.values[0])


@dataclass(frozen=True)
class CurveDiagnostics:
    valid: bool
    issues: tuple[str, ...]
    witness: tuple | None  # (lambda, node multi-index) of first violation


def validate(tc: TestCurve, tol_concave: float = 1e-9) -> CurveDiagnostics:
    """Check all TestCurve invariants; reports the first violating node."""
    issues: list[str] = []
    witness = None

    def note(msg, lam=None, node=None):
        nonlocal witness
        issues.append(msg)
        if witness is None and lam is not None:
            witness = (lam, node)

    lam, live = tc.lambdas, tc.live
    V = tc.values.reshape(len(lam), -1)

    def worst(dev):
        """Per row: its first node of largest deviation, and that deviation."""
        j = np.argmax(dev, axis=1)
        return j, dev[np.arange(len(dev)), j]

    # finite exactly for lambda <= lambda_c
    for l, fin in zip(lam, live):
        if fin and l > tc.lambda_c + 1e-12:
            note(f"finite sample past lambda_c at lambda={l:g}", l)
        if not fin and l <= tc.lambda_c - 1e-12:
            note(f"-inf sample at lambda={l:g} <= lambda_c", l)

    # mixed supports are not allowed within a sample
    for l in lam[live & (V == NEG_INF).any(axis=1)]:
        note(f"partially -inf sample at lambda={l:g}", l)

    # constant head
    head = np.flatnonzero(lam <= tc.lambda_head + 1e-12)
    for l in lam[head[~(V[head] == V[0]).all(axis=1)]]:
        note(f"sample at lambda={l:g} differs from head", l)

    # node-wise decreasing in lambda, up to each finite sample
    prev = np.flatnonzero(live[1:])
    at, dev = worst(V[prev + 1] - V[prev])
    bad = dev > 1e-12
    for i, j in zip(prev[bad], at[bad]):
        note(
            f"curve increases in lambda between {lam[i]:g} and {lam[i + 1]:g}",
            lam[i + 1],
            np.unravel_index(j, tc.grid.shape),
        )

    # concavity in lambda: interior samples above the chord of their neighbors
    fin = np.flatnonzero(live)
    a, b, c = fin[:-2], fin[1:-1], fin[2:]
    w = ((lam[b] - lam[a]) / (lam[c] - lam[a]))[:, None]
    at, dev = worst((1 - w) * V[a] + w * V[c] - V[b])
    bad = dev > tol_concave
    for lb, j, d in zip(lam[b][bad], at[bad], dev[bad]):
        note(
            f"concavity in lambda fails at lambda={lb:g} (deviation {d:g})",
            lb,
            np.unravel_index(j, tc.grid.shape),
        )

    return CurveDiagnostics(len(issues) == 0, tuple(issues), witness)


@dataclass(frozen=True, eq=False)
class ConcaveTransform:
    """u(y) = sup{lambda : y in Delta of the lambda-sample}, -inf off base."""

    u: GridFunction
    base: SlopeRegion

    def __post_init__(self):
        if self.u.grid != self.base.grid:
            raise DomainError("u and base live on different dual grids")

    def integral(self) -> float:
        """int of u over the finite part of the base, by the trapezoid rule."""
        sel = self.base.mask & np.isfinite(self.u.values)
        wu = trapezoid_weights(sel)[sel] * self.u.values[sel]
        return float(wu.sum()) * self.u.grid.cell_volume


def concave_transform(tc: TestCurve, dual: Grid) -> ConcaveTransform:
    """Largest sample lambda whose slope region still contains each dual node."""
    live = np.flatnonzero(tc.live)
    if not live.size:
        raise DomainError("test curve has no finite samples")
    samples = [GridFunction(tc.grid, tc.values[j]) for j in live]
    # the first finite sample's slope region is the base
    base = subgradient_range(samples[0], dual)
    u = np.full(dual.shape, NEG_INF)
    u[base.mask] = tc.lambdas[live[0]]
    for j, (mask, _, _) in zip(live[1:], slope_regions(samples[1:], dual)):
        u[mask] = tc.lambdas[j]
    return ConcaveTransform(GridFunction(dual, u), base)


def envelope_from_u(
    phi: GridFunction,
    u: ConcaveTransform,
    lambdas,
    dual: Grid,
    lambda_head: float | None = None,
) -> TestCurve:
    """Maximal-envelope curve of phi with slopes confined to {u >= lambda}.

    phi_lambda(x) = max over dual nodes y with u(y) >= lambda of
    <x,y> - phi*(y); empty selections give -inf samples.
    """
    check_dual_contains_slopes(phi, dual)
    phistar = legendre(phi, dual)
    lam = np.asarray(lambdas, dtype=float).ravel()
    usable = u.base.mask & np.isfinite(u.u.values)
    sels = [usable & (u.u.values >= l - 1e-12) for l in lam]
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


def maximal_envelope(
    phi: GridFunction, tc: TestCurve, dual: Grid
) -> TestCurve:
    """Envelope curve of phi driven by the concave transform of tc."""
    u = concave_transform(tc, dual)
    return envelope_from_u(phi, u, tc.lambdas, dual, lambda_head=tc.lambda_head)


def default_contact_tol(phi: GridFunction) -> float:
    """10 h (slope bound): the contact set needs a band on grids."""
    h = max(phi.grid.spacing)
    slope = max(
        float(np.abs(np.diff(phi.values, axis=ax)).max()) / phi.grid.spacing[ax]
        for ax in range(phi.grid.dim)
    )
    return 10.0 * h * max(slope, 1.0)


def contact_set(
    phi: GridFunction,
    phi_lambda: GridFunction,
    tol: float | None = None,
) -> np.ndarray:
    """Nodes where the envelope touches the obstacle: phi_lambda >= phi - tol."""
    if phi_lambda.grid != phi.grid:
        raise DomainError("grid mismatch")
    if tol is None:
        tol = default_contact_tol(phi)
    if phi_lambda.is_identically_neg_inf:
        return np.zeros(phi.grid.shape, dtype=bool)
    return phi_lambda.values >= phi.values - tol

