import numpy as np
import pytest

from georay.curves import (
    TestCurve as Curve,
)
from georay import curves
from georay.curves import (
    concave_transform,
    contact_set,
    envelope,
    validate,
)
from georay.errors import DomainError
from georay.grids import Box, Grid, GridFunction
from georay.instances import huber_instance, linear_growth_bowl
from georay.legendre import default_dual_grid, dual_base, slope_regions


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
            envelope(huber.star, huber.u, np.array([0.5, 1.0]), huber.phi.grid, lambda_head=0.5)


def _small_curve(change=()):
    """A valid curve on 9 nodes of [-1, 1]: x^2/2 - c at lambda = -1, -0.5
    and 0 (c = 0, 0.25, 1) and -inf at 0.5.  ``change`` maps a field name
    to its new value, or (row, node) to a value added to that sample's node
    (node None: to the whole sample)."""
    x = np.linspace(-1.0, 1.0, 9)
    values = np.array([x * x / 2, x * x / 2 - 0.25, x * x / 2 - 1.0, np.full(9, -np.inf)])
    fields = dict(lambda_head=-1.0, lambda_c=0.0)
    for key, v in dict(change).items():
        if key in fields:
            fields[key] = v
        else:
            row, node = key
            values[row, slice(None) if node is None else node] += v
    grid = Grid(Box((-1.0,), (1.0,)), 9)
    return Curve(np.array([-1.0, -0.5, 0.0, 0.5]), grid, values, **fields)


def test_envelope_needs_phistar_on_the_grid_of_u(huber):
    other = GridFunction(Grid(Box((-2.0,), (2.0,)), huber.dual.shape), huber.star.values)
    with pytest.raises(DomainError, match="phi\\* is not sampled on the grid of u"):
        envelope(other, huber.u, huber.curve.lambdas, huber.phi.grid)


class TestValidate:
    def test_huber_curve_valid(self, huber):
        # the concavity tolerance h + min lambda step is derived by validate
        validate(huber.curve)

    def test_small_curve_valid(self):
        validate(_small_curve())

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
        with pytest.raises(DomainError, match="increases"):
            validate(tc)

    # one case per invariant, in validate's order: each names its lambda,
    # and its node and x where it sits at one
    @pytest.mark.parametrize(
        "change, message",
        [
            ({"lambda_c": -0.5}, "finite sample at lambda=0 past lambda_c=-0.5"),
            ({"lambda_c": 0.75}, "-inf sample at lambda=0.5 <= lambda_c=0.75"),
            ({"lambda_c": 0.25}, "lambda_c=0.25 past the last finite sample, at lambda=0"),
            ({(1, 3): -np.inf}, "sample at lambda=-0.5 is partly -inf, at node 3 (x = -0.25)"),
            (
                {"lambda_head": -0.5, (1, None): 0.25, (1, 5): -0.5},
                "sample differs from the head at lambda=-0.5, node 5 (x = 0.25): deviation 0.5 > 0",
            ),
            (
                {(2, 6): 2.0},
                "curve increases in lambda at lambda=0, node 6 (x = 0.5): deviation 1.25 > 1e-12",
            ),
            (
                {(1, 4): -2.75, (2, 4): -3.0},
                "curve is not concave in lambda at lambda=-0.5, node 4 (x = 0): "
                "deviation 1 > 0.75",
            ),
            (
                {(1, 4): 0.1},
                "curve sample at lambda=-0.5 is not convex at node 4 (x = 0): deviation",
            ),
        ],
        ids=["finite-past-c", "neg-inf-below-c", "c-past-last-finite", "partly-neg-inf", "head", "increase",
             "concavity", "not-convex"],
    )
    def test_first_broken_invariant_named(self, change, message):
        with pytest.raises(DomainError) as exc:
            validate(_small_curve(change))
        assert str(exc.value).startswith(message)

    def test_concavity_tolerance_scales(self):
        # every node deviates by 1 from the chord, against h + min step = 0.75
        tc = _small_curve({(1, None): -2.75, (2, None): -3.0})
        with pytest.raises(DomainError, match=r"lambda=-0.5, node 0 \(x = -1\): deviation 1 > 0.75"):
            validate(tc)
        validate(tc, tol_scale=1.5)

    @pytest.mark.parametrize(
        "lambdas, head, c",
        [([-1.0, 0.0], -1.0, np.nan), ([-1.0, 0.0], np.inf, 0.0), ([-1.0, np.nan], -1.0, 0.0)],
        ids=["lambda_c", "lambda_head", "lambdas"],
    )
    def test_rejects_non_finite_lambdas(self, huber, lambdas, head, c):
        with pytest.raises(DomainError, match="lambda_head and lambda_c must be finite"):
            Curve(np.array(lambdas), huber.phi.grid, [huber.phi.values] * 2, head, c)

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
        mask = ct.finite_mask
        err = np.abs(ct.values[mask] - (-np.abs(ys[mask])))
        # u is recovered up to the lambda grid resolution
        assert err.max() <= huber.lambda_spacing + 1e-9

    def test_superlevel_monotone(self, huber):
        ct = concave_transform(huber.curve, huber.dual)
        vals = ct.values[ct.finite_mask]
        assert vals.min() >= huber.curve.lambdas[0] - 1e-9
        assert vals.max() <= huber.curve.lambda_c + 1e-9


    def test_base_is_the_finite_set_of_u(self, huber):
        # u is finite exactly on its base, the first finite sample's region
        ct = concave_transform(huber.curve, huber.dual)
        first, _, _ = next(slope_regions(huber.phi.grid, huber.curve.values[:1], huber.dual))
        assert ct.grid == huber.dual and np.array_equal(ct.finite_mask, first)

    def test_one_slope_regions_pass(self, huber, monkeypatch):
        passes = []

        def counted(grid, values, dual, witness=False):
            passes.append(len(values))
            return slope_regions(grid, values, dual, witness)

        monkeypatch.setattr(curves, "slope_regions", counted)
        concave_transform(huber.curve, huber.dual)
        assert passes == [huber.curve.live.sum()]


def maximal_envelope(phi, tc, dual):
    """The envelope curve of phi driven by the concave transform of tc."""
    u = concave_transform(tc, dual)
    return envelope(dual_base(phi, dual)[1], u, tc.lambdas, phi.grid, tc.lambda_head)


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
            # an h^2 band, inside contact_set's 10 h band
            band = s >= huber.phi.values - h * h
            assert not (band & ~contact_set(huber.phi, s)).any()
            touched = np.abs(xs[band])
            assert touched.max() <= -lam + 2 * h

    def test_maximal_envelope_reproduces_samples(self, huber):
        tc2 = maximal_envelope(huber.phi, huber.curve, huber.dual)
        hd = huber.dual.spacing[0]
        h = huber.phi.grid.spacing[0]
        assert np.array_equal(huber.curve.live, tc2.live)
        for a, b in zip(huber.curve.values[tc2.live], tc2.values[tc2.live]):
            assert np.abs(a - b).max() <= 2 * (h + hd + huber.lambda_spacing)
