"""Canonical problem instances shared by the check suite and the tests.

The workhorse is the "huber instance": a quadratic bowl continued with
linear growth past |x| = 1, so its slope set [-1, 1] sits strictly inside
the primal box and dual-ray maximizers stay interior for every t in
[0, 1].  Its lambda-envelopes are the Huber functions, whence the name.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import TestCurve, envelope
from .grids import Box, Grid, GridFunction, require_convex
from .legendre import default_dual_grid, dual_base


def quadratic_1d(nodes: int = 257) -> GridFunction:
    """x^2/2 on [-1, 1]."""
    g = Grid(Box((-1.0,), (1.0,)), nodes)
    return require_convex("quadratic_1d", GridFunction.from_callable(g, lambda x: x * x / 2))


def abs_1d(nodes: int = 257) -> GridFunction:
    g = Grid(Box((-1.0,), (1.0,)), nodes)
    return require_convex("abs_1d", GridFunction.from_callable(g, np.abs))


def quadratic_2d(nodes: int = 65) -> GridFunction:
    g = Grid(Box((-1.0, -1.0), (1.0, 1.0)), (nodes, nodes))
    # convex by construction; certification at large 2-D sizes costs a hull
    return GridFunction.from_callable(g, lambda x, y: (x * x + y * y) / 2)


def linear_growth_bowl(nodes: int = 129) -> GridFunction:
    """x^2/2 for |x| <= 1, |x| - 1/2 beyond, on [-3, 3]; slope set exactly [-1, 1]."""
    g = Grid(Box((-3.0,), (3.0,)), nodes)

    def fn(x):
        return np.where(np.abs(x) <= 1.0, x * x / 2, np.abs(x) - 0.5)

    return require_convex("linear_growth_bowl", GridFunction.from_callable(g, fn))


def filtration_base(nodes: int = 257) -> GridFunction:
    """Base metric with slope set exactly [0, 1] = conv(P1) for P1 = {0, 1}.

    0 for x <= 0, x^2/2 on [0, 1], x - 1/2 beyond, on the box [-2, 3].
    """
    g = Grid(Box((-2.0,), (3.0,)), nodes)

    def fn(x):
        return np.where(x <= 0.0, 0.0, np.where(x <= 1.0, x * x / 2, x - 0.5))

    return require_convex("filtration_base", GridFunction.from_callable(g, fn))


def random_convex_1d(rng: np.random.Generator, nodes: int = 257) -> GridFunction:
    """Random convex function on [-1, 1] with slopes in [-1, 1]; the end
    slopes are pinned to -1 and 1, so all share the slope set."""
    g = Grid(Box((-1.0,), (1.0,)), nodes)
    s = np.concatenate([[-1.0], np.sort(rng.uniform(-1.0, 1.0, nodes - 3)), [1.0]])
    v = np.concatenate([[0.0], np.cumsum(s * g.spacing[0])])
    v -= v.mean()
    return require_convex("random_convex_1d", GridFunction(g, v))


def random_nonconvex_1d(rng: np.random.Generator, nodes: int = 257) -> GridFunction:
    g = Grid(Box((-1.0,), (1.0,)), nodes)
    x = g.axis(0)
    a, b, c = rng.uniform(1, 4), rng.uniform(2, 6), rng.uniform(0.2, 1.0)
    return GridFunction(g, np.sin(a * np.pi * x) * c + b * 0.05 * x)


@dataclass(frozen=True)
class RayInstance:
    """Base obstacle, dual grid, phi's conjugate on it, concave dual data u
    (-inf off phi's slope region), and the envelope curve."""

    phi: GridFunction
    dual: Grid
    star: GridFunction
    u: GridFunction
    curve: TestCurve
    lambda_spacing: float


def _bowl_instance(nodes, u_of_y, lambdas, lambda_head, lambda_spacing) -> RayInstance:
    """The linear-growth bowl, u = u_of_y on its slope region of its default
    dual grid, and its envelope curve at ``lambdas``; phi is conjugated once."""
    phi = linear_growth_bowl(nodes)
    dual = default_dual_grid(phi)
    mask, star = dual_base(phi, dual)
    u = GridFunction(dual, np.where(mask, u_of_y(dual.axis(0)), -np.inf))
    curve = envelope(star, u, lambdas, phi.grid, lambda_head)
    return RayInstance(phi, dual, star, u, curve, lambda_spacing)


def huber_instance(nodes: int = 129, lambda_spacing: float = 2.0**-5) -> RayInstance:
    """phi with slope set [-1, 1], u(y) = -|y|; envelopes are Huber functions."""
    lambdas = np.arange(-1.0, 1e-12, lambda_spacing)
    return _bowl_instance(nodes, lambda y: -np.abs(y), lambdas, -1.0, lambda_spacing)


def constant_u_instance(nodes: int = 129) -> RayInstance:
    """u identically 1 on the slope set: pure-translation dynamics."""
    return _bowl_instance(nodes, lambda y: 1.0, np.array([0.0, 1.0]), 1.0, 1.0)
