"""Test curves, their concave transform on the dual, and maximal envelopes.

A test curve is a lambda-indexed family of convex functions, one array on
one grid: constant below ``lambda_head``, decreasing and concave in lambda,
and identically -inf past the critical value ``lambda_c``; every lambda is
finite, and ``lambda_c`` is the largest with a finite sample.  ``validate``
is the one test of these invariants: it raises ``DomainError`` at the
first broken one, naming its lambda.  The curve's concave transform u(y),
a ``GridFunction`` on the dual grid, is the largest lambda whose member
still has y among its subgradients, and -inf off its base, the first
finite member's slope region; the regions come from one ``slope_regions``
pass over the curve's array.  The maximal envelope runs the other way:
from an obstacle's conjugate phi* and the regions {u >= lambda},
``envelope`` rebuilds the curve as the conjugates of phi* set to +inf off
each region (``legendre.masked_conjugates``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .grids import NEG_INF, Grid, GridFunction, _at, grid_values, require_convex
from .legendre import dual_base, masked_conjugates, slope_regions


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
    order: a finite sample past lambda_c, a -inf sample at or below it,
    lambda_c past the last finite sample, a partly -inf sample, a head
    sample unlike the first, an increase in lambda over 1e-12, and
    lambda-concavity off by over tol_scale (h + least lambda step), as
    discrete envelopes are lambda-concave only up to a cell.  The error
    names the lambda and any node, x and deviation.  In 1-D each finite
    sample is then certified by ``require_convex``."""
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
    if live.any() and tc.lambda_c > lam[live][-1] + 1e-12:
        raise DomainError(f"lambda_c={tc.lambda_c:g} past the last finite sample, at lambda={lam[live][-1]:g}")
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


def concave_transform(tc: TestCurve, dual: Grid) -> GridFunction:
    """u: the largest sample lambda whose slope region still contains each
    dual node of the base, the first finite sample's region; -inf off the
    base.  One ``slope_regions`` pass takes every finite sample's region."""
    live = np.flatnonzero(tc.live)
    if not live.size:
        raise DomainError("test curve has no finite samples")
    regions = slope_regions(tc.grid, tc.values[live], dual)
    base, _, _ = next(regions)
    u = np.where(base, tc.lambdas[live[0]], NEG_INF)
    for j, (mask, _, _) in zip(live[1:], regions):
        u[mask & base] = tc.lambdas[j]
    return GridFunction(dual, u)


def envelope(
    phistar: GridFunction, u: GridFunction, lambdas, grid: Grid, lambda_head: float | None = None
) -> TestCurve:
    """Maximal-envelope curve on ``grid`` with slopes confined to
    {u >= lambda}, from the obstacle's conjugate ``phistar`` on u's grid.

    phi_lambda(x) = max over dual nodes y with u(y) >= lambda of
    <x,y> - phi*(y); empty selections give -inf samples.
    """
    dual = phistar.grid
    if u.grid != dual:
        raise DomainError("phi* is not sampled on the grid of u")
    lam = np.asarray(lambdas, dtype=float).ravel()
    # u is -inf off its base, so no selection reaches past it
    sels = np.less_equal.outer(lam - 1e-12, u.values)
    live = np.flatnonzero(sels.reshape(lam.size, -1).any(axis=1))
    if not live.size:
        raise DomainError("every lambda selection is empty")
    # an empty selection excludes every node: its sample is -inf
    values = masked_conjugates(dual, lam.size, lambda g: (phistar.values, sels[g]), grid)
    head = float(lam[0]) if lambda_head is None else lambda_head
    return TestCurve(lam, grid, values, lambda_head=head, lambda_c=lam[live[-1]])


def maximal_envelope(phi: GridFunction, tc: TestCurve, dual: Grid) -> TestCurve:
    """Envelope curve of phi driven by the concave transform of tc."""
    u = concave_transform(tc, dual)
    return envelope(dual_base(phi, dual)[1], u, tc.lambdas, phi.grid, lambda_head=tc.lambda_head)


def contact_set(phi: GridFunction, values: np.ndarray, tol: float | None = None) -> np.ndarray:
    """Nodes where an envelope sample, ``values`` on phi's grid, touches the
    obstacle: values >= phi - tol (never at a -inf node).  tol defaults to
    10 h (slope bound): the contact set needs a band on grids."""
    if np.shape(values) != phi.grid.shape:
        raise DomainError("grid mismatch")
    if tol is None:
        hs = phi.grid.spacing
        slope = max(float(np.abs(np.diff(phi.values, axis=ax)).max()) / h for ax, h in enumerate(hs))
        tol = 10.0 * max(hs) * max(slope, 1.0)
    return values >= phi.values - tol
