"""Test curves, their concave transform on the dual, and maximal envelopes.

A test curve is a lambda-indexed family of convex grid functions: constant
below ``lambda_head``, node-wise decreasing and concave in lambda, and
identically -inf past the critical value ``lambda_c``.  Its concave
transform u(y) is the largest lambda whose member still has y among its
subgradients.  The maximal envelope runs the other way: from an obstacle
phi and superlevel regions {u >= lambda} it rebuilds the curve as a
restricted biconjugate, a supremum of affine functions with slopes
confined to the region.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .grids import Grid, GridFunction, NEG_INF
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
    """Sorted lambda samples with one convex grid function each."""

    lambdas: np.ndarray
    samples: tuple[GridFunction, ...]
    lambda_head: float
    lambda_c: float

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float).ravel()
        lam.setflags(write=False)
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "samples", tuple(self.samples))
        if len(self.samples) != lam.size:
            raise DomainError("one sample per lambda required")
        if lam.size == 0:
            raise DomainError("empty test curve")
        if np.any(np.diff(lam) <= 0):
            raise DomainError("lambda grid must be strictly increasing")

    @property
    def grid(self) -> Grid:
        return self.samples[0].grid

    @property
    def head(self) -> GridFunction:
        return self.samples[0]


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

    grid = tc.grid
    for s in tc.samples:
        if s.grid != grid:
            note("samples live on different grids")
            return CurveDiagnostics(False, tuple(issues), witness)

    finite = [not s.is_identically_neg_inf for s in tc.samples]
    # finite exactly for lambda <= lambda_c
    for lam, fin in zip(tc.lambdas, finite):
        if fin and lam > tc.lambda_c + 1e-12:
            note(f"finite sample past lambda_c at lambda={lam:g}", lam)
        if not fin and lam <= tc.lambda_c - 1e-12:
            note(f"-inf sample at lambda={lam:g} <= lambda_c", lam)

    # mixed supports are not allowed within a sample
    for lam, s in zip(tc.lambdas, tc.samples):
        if not s.is_identically_neg_inf and not s.finite_mask.all():
            note(f"partially -inf sample at lambda={lam:g}", lam)

    # constant head
    head_idx = np.nonzero(tc.lambdas <= tc.lambda_head + 1e-12)[0]
    for i in head_idx:
        if not np.array_equal(tc.samples[i].values, tc.head.values):
            note(f"sample at lambda={tc.lambdas[i]:g} differs from head", tc.lambdas[i])

    # node-wise decreasing in lambda
    for i in range(len(tc.samples) - 1):
        a, b = tc.samples[i], tc.samples[i + 1]
        if b.is_identically_neg_inf:
            continue
        dev = b.values - a.values
        j = int(np.argmax(dev))
        if dev.ravel()[j] > 1e-12:
            note(
                f"curve increases in lambda between {tc.lambdas[i]:g} and "
                f"{tc.lambdas[i + 1]:g}",
                tc.lambdas[i + 1],
                np.unravel_index(j, grid.shape),
            )

    # concavity in lambda: interior samples above the chord of their neighbors
    fin_idx = np.nonzero(finite)[0]
    for a, b, c in zip(fin_idx, fin_idx[1:], fin_idx[2:]):
        la, lb, lc = tc.lambdas[a], tc.lambdas[b], tc.lambdas[c]
        w = (lb - la) / (lc - la)
        chord = (1 - w) * tc.samples[a].values + w * tc.samples[c].values
        dev = chord - tc.samples[b].values
        j = int(np.argmax(dev))
        if dev.ravel()[j] > tol_concave:
            note(
                f"concavity in lambda fails at lambda={lb:g} "
                f"(deviation {dev.ravel()[j]:g})",
                lb,
                np.unravel_index(j, grid.shape),
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
    live = [j for j, s in enumerate(tc.samples) if not s.is_identically_neg_inf]
    if not live:
        raise DomainError("test curve has no finite samples")
    # the first finite sample's slope region is the base
    base = subgradient_range(tc.samples[live[0]], dual)
    u = np.full(dual.shape, NEG_INF)
    u[base.mask] = tc.lambdas[live[0]]
    regions = slope_regions([tc.samples[j] for j in live[1:]], dual)
    for j, (mask, _, _) in zip(live[1:], regions):
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
    samples = [GridFunction.neg_inf(phi.grid)] * lam.size
    for g in _chunks(len(live), phi.grid.num_nodes):
        stack = np.stack([np.where(sels[j], phistar.values, np.inf) for j in live[g]])
        vals, _ = conjugate(dual.axes(), stack, phi.grid.axes())
        for j, v in zip(live[g], vals):
            samples[j] = GridFunction(phi.grid, v)
    if lambda_head is None:
        lambda_head = float(lam[0])
    return TestCurve(lam, tuple(samples), lambda_head=lambda_head, lambda_c=lambda_c)


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

