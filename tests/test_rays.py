import numpy as np
import pytest

from georay.curves import concave_transform, envelope
from georay.errors import DomainError
from georay.grids import Box, Grid, GridFunction, lower_envelope
from georay.instances import (
    constant_u_instance,
    huber_instance,
    linear_growth_bowl,
    quadratic_1d,
)
from georay.legendre import default_dual_grid, integral, legendre, trapezoid_weights
from georay.monge_ampere import _energy_dual_grid
from georay.rays import Ray, compare_rays, energy_linearity, ray_dual, ray_from_curve
from test_legendre import slope_mask


@pytest.fixture(scope="module")
def huber():
    return huber_instance()


class TestRayConstruction:
    def test_t0_frame_is_head(self, huber):
        ray = ray_from_curve(huber.curve)
        h = huber.phi.grid.spacing[0]
        hd = huber.dual.spacing[0]
        assert np.abs(ray.values[0] - huber.phi.values).max() <= h + hd

    def test_frames_convex_in_t(self, huber):
        # midpoint test along t at every node: sup of linear-in-t terms
        ray = ray_from_curve(huber.curve)
        stack = ray.values
        mid = stack[1:-1]
        chord = (stack[:-2] + stack[2:]) / 2
        assert (mid <= chord + 1e-9).all()

    def test_frames_increase_with_nonneg_lambda_head(self):
        inst = constant_u_instance()
        ray = ray_from_curve(inst.curve)
        for a, b in zip(ray.values, ray.values[1:]):
            assert (b >= a - 1e-12).all()

    def test_quadratic_dual_u_closed_form(self):
        # phi = x^2/2, u(y) = 1 - y^2/2: frame(t) = x^2/(2(1+t)) + t where
        # the maximizing slope is interior
        phi = quadratic_1d(257)
        dual = Grid(Box((-1.5,), (1.5,)), 257)
        ys = dual.axis(0)
        u = GridFunction(dual, np.where(slope_mask(phi, dual), 1 - ys**2 / 2, -np.inf))
        ts = np.linspace(0.0, 1.0, 6)
        ray = ray_dual(legendre(phi, dual), u, phi.grid, ts)
        xs = phi.grid.axis(0)
        h = phi.grid.spacing[0]
        hd = dual.spacing[0]
        for t, fr in zip(ts, ray.values):
            interior = np.abs(xs / (1 + t)) <= 1.0 - 3 * hd
            exact = xs**2 / (2 * (1 + t)) + t
            assert np.abs(fr[interior] - exact[interior]).max() <= 2 * (h + hd)


    def test_dual_ray_needs_phistar_on_the_dual_grid_of_u(self, huber):
        other = default_dual_grid(huber.phi, 65)
        with pytest.raises(DomainError, match="different dual grids"):
            ray_dual(legendre(huber.phi, other), huber.u, huber.phi.grid, [0.0, 1.0])


    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_t_rejected(self, huber, bad):
        # np.diff(t) <= 0 is False at nan and at +inf: finiteness is its own test
        ts, grid = [0.0, bad], huber.phi.grid
        with pytest.raises(DomainError, match="t grid must be finite"):
            Ray(ts, grid, np.zeros((2,) + grid.shape))
        with pytest.raises(DomainError, match="t grid must be finite"):
            ray_dual(legendre(huber.phi, huber.dual), huber.u, grid, ts)


class TestRayEquality:
    def test_hat_equals_dual(self, huber):
        hat = ray_from_curve(huber.curve)
        tilde = ray_dual(legendre(huber.phi, huber.dual), huber.u, huber.phi.grid, hat.t_grid)
        gaps = compare_rays(hat, tilde)
        h = huber.phi.grid.spacing[0]
        hd = huber.dual.spacing[0]
        budget = 10 * (h + hd + huber.lambda_spacing) * (1 + hat.t_grid)
        assert (gaps <= budget).all()

    def test_gap_scales_with_resolution(self):
        def worst_ratio(inst):
            hat = ray_from_curve(inst.curve)
            tilde = ray_dual(legendre(inst.phi, inst.dual), inst.u, inst.phi.grid, hat.t_grid)
            gaps = compare_rays(hat, tilde)
            h = inst.phi.grid.spacing[0]
            hd = inst.dual.spacing[0]
            denom = (h + hd + inst.lambda_spacing) * (1 + hat.t_grid)
            return float((gaps / denom).max())

        coarse = worst_ratio(huber_instance(65, 65, 2.0**-4))
        fine = worst_ratio(huber_instance(257, 257, 2.0**-6))
        # the normalized gap is resolution-stable: the raw gap scales
        # linearly with the spacings
        assert fine <= 3 * max(coarse, 0.05)


def _curve_u(inst):
    """The concave transform of the instance's curve on phi's energy grid,
    the predicted slope ``georay ray`` reports for kind curve."""
    return concave_transform(inst.curve, _energy_dual_grid(inst.phi))


@pytest.mark.parametrize(
    "nodes, spacing", [(65, 0.125), (129, 2.0**-5), (257, 2.0**-6)], ids=["65", "129", "257"]
)
def test_curve_predicted_slope_brackets_fitted(nodes, spacing):
    """For kind curve the predicted slope integrates floor(u), the concave
    transform of the sampled curve, a step function in lambda; the ray's
    energy follows the concave envelope u-hat of those steps.  The fitted
    slope lies between the two integrals (65 nodes: the ``curve.spec``
    fixture of the CLI tests, -1.151 <= -1.026 <= -1.0)."""
    tc = huber_instance(nodes, nodes, spacing).curve
    phi = tc.head  # as ``georay ray`` takes it when the spec names no phi
    floor = concave_transform(tc, _energy_dual_grid(phi))
    fin = floor.finite_mask
    hat = np.full(floor.grid.shape, -np.inf)
    hat[fin] = -lower_envelope(floor.grid.coords()[fin.ravel()], -floor.values[fin])
    rep = energy_linearity(ray_from_curve(tc, np.linspace(0.0, 1.0, 5)), phi, floor)
    assert rep.predicted_slope == integral(floor)
    assert integral(floor) <= rep.slope <= integral(GridFunction(floor.grid, hat))


class TestEnergyLinearity:
    def test_constant_u_slope_is_volume(self):
        inst = constant_u_instance()
        ray = ray_from_curve(inst.curve)
        rep = energy_linearity(ray, inst.phi, _curve_u(inst))
        # the slope set of the bowl is [-1, 1]
        area = trapezoid_weights(slope_mask(inst.phi, inst.dual)).sum() * inst.dual.cell_volume
        assert area == pytest.approx(2.0, abs=1e-12)
        assert rep.slope == pytest.approx(1.0 * area, rel=0.02)
        assert rep.max_abs_residual <= 1e-2 * abs(rep.slope)

    def test_huber_slope_matches_stieltjes(self, huber):
        ray = ray_from_curve(huber.curve)
        rep = energy_linearity(ray, huber.phi, _curve_u(huber))
        assert rep.max_abs_residual <= 1e-2 * abs(rep.slope)
        assert rep.slope == pytest.approx(rep.predicted_slope, rel=0.05)



def _bowl2():
    """The 17 x 17 bowl of the CLI's 2-D fixture, with u = -(|y1| + |y2|)/2."""
    g = Grid(Box((-3.0, -3.0), (3.0, 3.0)), (17, 17))
    phi = GridFunction.from_callable(g, lambda x, y: np.hypot(x, y) ** 2 / 4 + x / 8)
    dual = default_dual_grid(phi, 17)
    y1, y2 = np.meshgrid(*dual.axes(), indexing="ij")
    u = np.where(slope_mask(phi, dual), -(np.abs(y1) + np.abs(y2)) / 2, -np.inf)
    return phi, dual, GridFunction(dual, u)


@pytest.mark.parametrize("case", ["huber-1d", "bowl2-2d"])
def test_lambda_route_is_dual_route_of_floored_u(case):
    """max over lambda in a grid L of (phi_lambda + t lambda) is the conjugate
    of phi* - t floor_L(u), u rounded down to L (-inf below its first point),
    to a few ulps: the lambda route of kind curve and of the filtration is
    the dual route of ``georay ray`` on a quantised u."""
    if case == "huber-1d":
        inst = huber_instance(nodes=129, dual_nodes=129, lambda_spacing=2.0**-5)
        phi, dual, u, lambdas = inst.phi, inst.dual, inst.u, inst.curve.lambdas
    else:
        phi, dual, u = _bowl2()
        finite = u.values[u.finite_mask]
        lambdas = np.arange(finite.min(), finite.max() + 1 / 64, (finite.max() - finite.min()) / 32)
    ts = np.linspace(0.0, 1.0, 11)
    hat = ray_from_curve(envelope(legendre(phi, dual), u, lambdas, phi.grid), ts)
    # envelope selects the nodes with u >= lambda - 1e-12
    below = np.searchsorted(lambdas - 1e-12, u.values, side="right")
    floor = np.where(below > 0, lambdas[np.maximum(below - 1, 0)], -np.inf)
    dual_ray = ray_dual(legendre(phi, dual), GridFunction(dual, floor), phi.grid, ts)
    base = u.finite_mask
    assert np.any(floor[base] < u.values[base])  # the floor bites
    for a, b in zip(hat.values, dual_ray.values):
        assert np.array_equal(np.isfinite(a), np.isfinite(b))
        fin = np.isfinite(a)
        ulp = np.spacing(np.maximum(np.abs(a[fin]), 1.0))
        assert np.abs(a[fin] - b[fin]).max() <= 4 * ulp.max()
