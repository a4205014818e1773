import numpy as np
import pytest

from georay.curves import (
    TestCurve as Curve,
)
from georay.curves import (
    concave_transform,
    contact_set,
    envelope_from_u,
    maximal_envelope,
    validate,
)
from georay.errors import DomainError
from georay.grids import GridFunction
from georay.instances import huber_instance, linear_growth_bowl
from georay.legendre import default_dual_grid


def huber_closed_form(x, lam):
    """Envelope of the bowl under the slope cap |y| <= -lam."""
    c = -lam
    return np.where(np.abs(x) <= c, x * x / 2, c * np.abs(x) - c * c / 2)


@pytest.fixture(scope="module")
def huber():
    return huber_instance()


class TestEnvelopeConstruction:
    def test_matches_closed_form(self, huber):
        xs = huber.phi.grid.axis(0)
        h = huber.phi.grid.spacing[0]
        hd = huber.dual.spacing[0]
        for lam, s in zip(huber.curve.lambdas, huber.curve.values):
            if np.all(s == -np.inf):
                continue
            exact = huber_closed_form(xs, lam)
            assert np.abs(s - exact).max() <= h + hd

    def test_head_is_phi(self, huber):
        # lambda = -1 allows every slope of phi, so the envelope is phi back
        h = huber.phi.grid.spacing[0]
        hd = huber.dual.spacing[0]
        assert np.abs(huber.curve.values[0] - huber.phi.values).max() <= h + hd

    def test_monotone_decreasing_in_lambda(self, huber):
        for a, b in zip(huber.curve.values, huber.curve.values[1:]):
            if np.all(b == -np.inf):
                continue
            assert (b <= a + 1e-9).all()

    def test_below_obstacle(self, huber):
        for s in huber.curve.values:
            assert (s <= huber.phi.values + 1e-9).all()

    def test_empty_level_gives_neg_inf(self, huber):
        # lambda above the top of u selects no slopes
        with pytest.raises(DomainError):
            envelope_from_u(
                huber.phi, huber.u, np.array([0.5, 1.0]), huber.dual, lambda_head=0.5
            )


class TestValidate:
    def test_huber_curve_valid(self, huber):
        h = huber.phi.grid.spacing[0]
        diag = validate(huber.curve, tol_concave=h + huber.lambda_spacing)
        assert diag.valid, diag.issues

    def test_detects_increasing_family(self, huber):
        phi = huber.phi
        bigger = GridFunction(phi.grid, phi.values + 1.0)
        tc = Curve(
            np.array([-1.0, 0.0]),
            phi.grid,
            [phi.values, bigger.values],
            lambda_head=-1.0,
            lambda_c=0.0,
        )
        diag = validate(tc)
        assert not diag.valid
        assert any("increases" in i for i in diag.issues)

    def test_rejects_unsorted_lambdas(self, huber):
        with pytest.raises(DomainError):
            Curve(
                np.array([0.0, -1.0]),
                huber.phi.grid,
                [huber.phi.values, huber.phi.values],
                lambda_head=-1.0,
                lambda_c=0.0,
            )


class TestConcaveTransformRoundTrip:
    def test_recovers_u(self, huber):
        ct = concave_transform(huber.curve, huber.dual)
        ys = huber.dual.axis(0)
        mask = ct.base.mask & np.isfinite(ct.u.values)
        err = np.abs(ct.u.values[mask] - (-np.abs(ys[mask])))
        # u is recovered up to the lambda grid resolution
        assert err.max() <= huber.lambda_spacing + 1e-9

    def test_superlevel_monotone(self, huber):
        ct = concave_transform(huber.curve, huber.dual)
        vals = ct.u.values[np.isfinite(ct.u.values)]
        assert vals.min() >= huber.curve.lambdas[0] - 1e-9
        assert vals.max() <= huber.curve.lambda_c + 1e-9


class TestIdempotenceAndContact:
    def test_idempotence_zero(self, huber):
        once = maximal_envelope(huber.phi, huber.curve, huber.dual)
        twice = maximal_envelope(huber.phi, once, huber.dual)
        assert twice.lambda_c == once.lambda_c
        assert np.array_equal(once.values, twice.values)

    def test_contact_band_location(self, huber):
        # at lambda the envelope touches phi exactly on |x| <= -lambda
        xs = huber.phi.grid.axis(0)
        h = huber.phi.grid.spacing[0]
        for lam, s in zip(huber.curve.lambdas, huber.curve.values):
            if lam >= huber.curve.lambda_c or not 4 * h < -lam < 1 - 4 * h:
                continue
            band = contact_set(huber.phi, GridFunction(huber.phi.grid, s), tol=h * h)
            touched = np.abs(xs[band])
            assert touched.max() <= -lam + 2 * h

    def test_maximal_envelope_reproduces_samples(self, huber):
        tc2 = maximal_envelope(huber.phi, huber.curve, huber.dual)
        hd = huber.dual.spacing[0]
        h = huber.phi.grid.spacing[0]
        assert np.array_equal(huber.curve.live, tc2.live)
        for a, b in zip(huber.curve.values[tc2.live], tc2.values[tc2.live]):
            assert np.abs(a - b).max() <= 2 * (h + hd + huber.lambda_spacing)
