import numpy as np
import pytest

from georay.errors import DomainError
from georay.grids import Box, Grid, GridFunction
from georay.instances import abs_1d, quadratic_1d, random_convex_1d
from georay.legendre import default_dual_grid, trapezoid_weights
from georay.monge_ampere import (
    _energy_dual_grid,
    cocycle_residual,
    energy_dual,
    energy_quadrature,
    region_masses,
)


def whole_cells(mask):
    return mask


def masses(f, dual, weigh=whole_cells):
    """The slope-region mask of f and its MA deposit under ``weigh``."""
    return next(region_masses(f.grid, f.values[None], dual, weigh))


class TestMeasure:
    def test_abs_concentrates_at_kink(self):
        f = abs_1d(257)
        dual = default_dual_grid(f, 257)
        _, mu = masses(f, dual)
        center = 128  # x = 0
        # all interior slopes [-1, 1] map to the kink
        assert mu[center] >= 2.0 - 2 * dual.cell_volume
        off = np.delete(mu, center)
        assert off.sum() <= 4 * dual.cell_volume

    def test_shift_invariance(self, rng):
        f = random_convex_1d(rng, nodes=65)
        dual = default_dual_grid(f)
        g = GridFunction(f.grid, f.values + 3.7)
        for weigh in (whole_cells, trapezoid_weights):
            (mf, muf), (mg, mug) = masses(f, dual, weigh), masses(g, dual, weigh)
            assert np.array_equal(mf, mg)
            assert np.array_equal(muf, mug)

    def test_region_restriction_reduces_mass(self):
        f = quadratic_1d(65)
        dual = default_dual_grid(f, 65)
        mask, mu = masses(f, dual)
        assert mask.sum() < dual.num_nodes
        assert mu.sum() == pytest.approx(mask.sum() * dual.cell_volume)
        # the trapezoid rule weighs each end of the region 1/2
        _, mu = masses(f, dual, trapezoid_weights)
        assert mu.sum() == pytest.approx((mask.sum() - 1) * dual.cell_volume)

    def test_rejects_neg_inf(self):
        g = Grid(Box((0.0,), (1.0,)), 3)
        with pytest.raises(DomainError):
            masses(GridFunction.neg_inf(g), g)

    def test_neg_inf_error_names_the_row(self):
        g = Grid(Box((-1.0,), (1.0,)), 5)
        V = np.zeros((2, 5))
        V[1, 4] = -np.inf
        want = r"-inf at node 4 \(x = 1\) \(row 1 of the stack\) is \+inf everywhere$"
        with pytest.raises(DomainError, match=want):
            next(region_masses(g, V, g, whole_cells))


class TestEnergy:
    def test_constant_shift_exact(self):
        # E(f + c, f) = c * total MA mass, exactly linear path
        f = quadratic_1d(129)
        g = GridFunction(f.grid, f.values + 0.75)
        dual = _energy_dual_grid(f)
        e_quad = energy_quadrature(g, f)
        mass = masses(f, dual)[1].sum()
        assert e_quad == pytest.approx(0.75 * mass, rel=1e-12)
        # the dual route integrates over the slope set [-1 + h/2, 1 - h/2]
        # of the discrete quadratic under trapezoid weights
        e_dual = energy_dual(g, f)
        assert e_dual == pytest.approx(0.75 * (2.0 - f.grid.spacing[0]), rel=1e-12)
        # the quadrature's node count holds one dual cell more
        assert e_quad - e_dual == pytest.approx(0.75 * dual.cell_volume, rel=1e-6)
        # mass over the slope set of the quadratic on [-1,1] is 2
        assert e_quad == pytest.approx(0.75 * 2.0, rel=0.02)
        assert e_dual == pytest.approx(0.75 * 2.0, rel=0.02)

    def test_quadrature_matches_dual_quadratic_pair(self):
        f0 = quadratic_1d(257)
        f1 = GridFunction(f0.grid, f0.values + 0.25 * (1 - f0.grid.axis(0) ** 2))
        eq = energy_quadrature(f1, f0)
        ed = energy_dual(f1, f0)
        assert eq == pytest.approx(ed, rel=1e-2)

    def test_antisymmetry_via_cocycle(self, rng):
        f0 = random_convex_1d(rng, nodes=65)
        f1 = random_convex_1d(rng, nodes=65)
        # f2 = f0: E(f0,f0) = 0, so resid = |E(f0,f1) + E(f1,f0)| relative
        # to the larger of the two
        assert cocycle_residual(f0, f1, f0) <= 0.05

    def test_zero_on_equal_inputs(self):
        f = quadratic_1d(65)
        assert energy_quadrature(f, f) == 0.0
        assert abs(energy_dual(f, f)) == 0.0

    def test_rejects_mismatched_support(self):
        g = Grid(Box((0.0,), (1.0,)), 5)
        a = GridFunction(g, np.zeros(5))
        vals = np.zeros(5)
        vals[0] = -np.inf
        b = GridFunction(g, vals)
        with pytest.raises(DomainError):
            energy_quadrature(a, b)

    def test_even_t_samples_rejected(self):
        f = quadratic_1d(65)
        with pytest.raises(DomainError):
            energy_quadrature(f, f, t_samples=10)
