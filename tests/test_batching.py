"""The grouped callers of ``conjugate`` against per-item references.

Each reference below is the loop the library ran before its items were
conjugated in groups: one ``slope_regions`` pass over a batch of one
(``slope_mask``), witnessed ``legendre``, ``energy_dual`` or ``conjugate``
call per lambda sample, path node, frame or t, and one ``np.maximum`` per
lambda sample and t.  Results must be equal, not close, and stay so when a
small ``grids._BLOCK`` splits the items into many groups.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

import georay.grids as GRIDS
from georay.checks import check_contact_concentration
from georay.curves import TestCurve as Curve, concave_transform, contact_set, envelope
from georay.grids import Box, Grid, GridFunction
from georay.instances import huber_instance
from georay.legendre import conjugate, legendre, trapezoid_weights
from georay.monge_ampere import _energy_dual_grid, energy_dual, energy_quadrature, region_masses
from georay.rays import LinearityReport, energy_linearity, ray_dual, ray_from_curve
from test_legendre import bowl_instance_2d, same_bits, slope_mask


def deposit_ref(f, dual, weights):
    """MA masses of f: each dual node sends its weight times the dual-cell
    volume to the primal node of its witness."""
    _, wit = conjugate(f.grid.axes(), f.values, dual.axes(), witness=True)
    masses = np.zeros(f.grid.num_nodes)
    on = weights != 0
    np.add.at(masses, wit[on], dual.cell_volume * weights[on])
    return masses.reshape(f.grid.shape)


def energy_quadrature_ref(f1, f0, dual):
    region = slope_mask(f0, dual)
    mu0 = deposit_ref(f0, dual, region)
    diff = np.where(f1.finite_mask, f1.values - f0.values, 0.0)
    ts = np.linspace(0.0, 1.0, 11)
    w = np.ones(11)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= (ts[1] - ts[0]) / 3.0
    total = 0.0
    for t, wt in zip(ts, w):
        vt = np.where(f1.finite_mask, (1.0 - t) * f0.values + t * f1.values, -np.inf)
        mu = mu0 if t == 0.0 else deposit_ref(GridFunction(f1.grid, vt), dual, region)
        total += wt * float((diff * mu).sum())
    return total


def integral_ref(u):
    """int of u with each node's trapezoid weight counted cell by cell: its
    adjacent grid cells whose corners all lie in the selection, over 2^d."""
    sel = u.finite_mask
    w = np.zeros(sel.shape)
    for node in zip(*np.nonzero(sel)):
        for offset in itertools.product((-1, 0), repeat=sel.ndim):
            lo = np.add(node, offset)
            if (lo >= 0).all() and (lo + 1 < sel.shape).all():
                w[node] += sel[tuple(slice(i, i + 2) for i in lo)].all()
    w /= 2**sel.ndim
    return float((w[sel] * u.values[sel]).sum()) * u.grid.cell_volume


def energy_linearity_ref(ray, f0, u):
    energies = np.array(
        [energy_dual(GridFunction(ray.grid, fr), f0) for fr in ray.values]
    )
    slope, intercept = np.polyfit(ray.t_grid, energies, 1)
    resid = float(np.abs(energies - (slope * ray.t_grid + intercept)).max())
    return LinearityReport(float(slope), float(intercept), resid, integral_ref(u))


def envelope_ref(phi, u, lambdas, dual):
    star = legendre(phi, dual).values
    out = []
    for lam in lambdas:
        sel = np.isfinite(u.values) & (u.values >= lam - 1e-12)
        vals = np.full(phi.grid.shape, -np.inf)
        if sel.any():
            vals, _ = conjugate(dual.axes(), np.where(sel, star, np.inf), phi.grid.axes())
        out.append(vals.reshape(phi.grid.shape))
    return out


def concave_transform_ref(tc, dual):
    """u written sample by sample inside the first finite sample's region."""
    u, base = np.full(dual.shape, -np.inf), None
    for lam, s in zip(tc.lambdas, tc.values):
        if np.all(s == -np.inf):
            continue
        region = slope_mask(GridFunction(tc.grid, s), dual)
        base = region if base is None else base
        u[region & base] = lam
    return u, base


def ray_dual_ref(phi, u, ts):
    dual = u.grid
    sel = np.isfinite(u.values)
    star = legendre(phi, dual).values[sel]
    frames = []
    for t in ts:
        mod = np.full(dual.shape, np.inf)
        mod[sel] = star - t * u.values[sel]
        vals, _ = conjugate(dual.axes(), mod, phi.grid.axes())
        frames.append(vals.reshape(phi.grid.shape))
    return frames


def ray_from_curve_ref(tc, ts):
    frames = []
    for t in ts:
        acc = np.full(tc.grid.shape, -np.inf)
        for lam, s in zip(tc.lambdas, tc.values):
            if not np.all(s == -np.inf):
                np.maximum(acc, s + t * lam, out=acc)
        frames.append(acc)
    return frames


@pytest.fixture(scope="module", params=["1d", "2d"])
def case(request):
    """(phi, dual, u, curve, ray) on a 1-D Huber bowl (129 nodes, 33
    lambdas) and a 2-D sum of Huber bowls (17 x 17, 9 lambdas)."""
    if request.param == "1d":
        inst = huber_instance()
        phi, dual, u, curve = inst.phi, inst.dual, inst.u, inst.curve
    else:
        phi, dual, u = bowl_instance_2d(17)
        curve = envelope(legendre(phi, dual), u, np.linspace(-1.0, 0.0, 9), phi.grid)
    return phi, dual, u, curve, ray_from_curve(curve)


def patch_block(monkeypatch, block):
    """Set the block that every grouped caller reads.  The ``_chunks``
    groups must follow it: a patch of a module that does not own the block
    would leave them as they were and test nothing."""
    monkeypatch.setattr(GRIDS, "_BLOCK", block)
    assert len(list(GRIDS._chunks(10**5, 1))) == -(-(10**5) // block)


# the default block, and blocks that split each caller's items into groups
# of one to a few dozen
@pytest.fixture(params=[None, 1200, 3000])
def block(request, monkeypatch):
    if request.param is not None:
        patch_block(monkeypatch, request.param)


def test_energy_quadrature(case, block):
    phi, _, _, _, ray = case
    dual = _energy_dual_grid(phi)
    f1 = GridFunction(ray.grid, ray.values[-1])
    assert energy_quadrature(f1, phi, dual=dual) == energy_quadrature_ref(f1, phi, dual)


def test_energy_linearity(case, block):
    phi, _, u, curve, ray = case
    # the curve's own u on phi's energy grid, as ``georay ray`` takes it
    ct = concave_transform(curve, _energy_dual_grid(phi))
    assert energy_linearity(ray, phi, ct) == energy_linearity_ref(ray, phi, ct)
    assert energy_linearity(ray, phi, u) == energy_linearity_ref(ray, phi, u)


def test_envelope_from_u(case, block):
    phi, dual, u, curve, _ = case
    lambdas = np.append(curve.lambdas, 5.0)  # the last selection is empty
    tc = envelope(legendre(phi, dual), u, lambdas, phi.grid)
    ref = envelope_ref(phi, u, lambdas, dual)
    assert tc.lambda_c == curve.lambda_c
    for s, want in zip(tc.values, ref):
        assert np.array_equal(s, want)


def test_concave_transform(case, block):
    _, dual, _, curve, _ = case
    ct = concave_transform(curve, dual)
    u, base = concave_transform_ref(curve, dual)
    assert np.array_equal(ct.values, u)
    assert np.array_equal(ct.finite_mask, base)


def test_ray_dual(case, block):
    phi, dual, u, _, ray = case
    got = ray_dual(legendre(phi, dual), u, phi.grid, ray.t_grid)
    for fr, want in zip(got.values, ray_dual_ref(phi, u, ray.t_grid)):
        assert np.array_equal(fr, want)


def test_ray_from_curve(case, block):
    _, _, _, curve, ray = case
    got = ray_from_curve(curve, ray.t_grid)
    for fr, want in zip(got.values, ray_from_curve_ref(curve, ray.t_grid)):
        assert same_bits(fr, want)


@pytest.mark.parametrize("block", [GRIDS._BLOCK, 63, 150])
def test_ray_from_curve_signed_zeros(rng, monkeypatch, block):
    # at t = 0, t * lambda is -0.0 for lambda < 0: samples of 0.0 and -0.0
    # tie, and the frame keeps the sign the per-lambda loop gave it
    patch_block(monkeypatch, block)
    g = Grid(Box((-1.0, 0.0), (1.0, 2.0)), (9, 7))
    lambdas = np.array([-2.0, -1.0, -0.5, 0.0, 1.0, 3.0])
    samples = [rng.choice([0.0, -0.0, -1.0], g.shape) for _ in lambdas[:-1]]
    samples.append(np.full(g.shape, -np.inf))
    tc = Curve(lambdas, g, samples, lambda_head=-2.0, lambda_c=1.0)
    ts = np.array([0.0, 0.5, 1.0])
    got = ray_from_curve(tc, ts)
    want = ray_from_curve_ref(tc, ts)
    assert np.signbit(want[0]).any() and not np.signbit(want[0]).all()
    for fr, w in zip(got.values, want):
        assert same_bits(fr, w)


@pytest.mark.parametrize("seed", range(6))
def test_ray_from_curve_zero_ties(seed):
    # zero maxima tied between 0.0 and -0.0 on rows that the kernel settles
    # in its window and rows it evaluates densely: each frame value keeps
    # the sign of the per-lambda loop, the last tied lambda's
    rng = np.random.default_rng(seed)
    g = Grid(Box((-1.0,), (1.0,)), 33)
    lambdas = np.sort(rng.choice(np.arange(-40, 0) / 8, size=12, replace=False))
    values = rng.choice([0.0, -0.0, -1.0, 0.5], (12, 33))
    values[9:] = -np.inf
    tc = Curve(lambdas, g, values, lambda_head=lambdas[0], lambda_c=lambdas[8])
    ts = np.array([0.0, 0.25, 1.0])
    want = ray_from_curve_ref(tc, ts)
    assert any((w == 0).any() for w in want)
    for fr, w in zip(ray_from_curve(tc, ts).values, want):
        assert same_bits(fr, w)


@pytest.mark.parametrize("weigh", [lambda m: m, trapezoid_weights], ids=["mask", "trapezoid"])
def test_region_masses(case, block, weigh):
    _, dual, _, curve, _ = case
    live = curve.values[curve.live]
    got = list(region_masses(curve.grid, live, dual, weigh))
    assert len(got) == len(live) and any(masses.any() for _, masses in got)
    for s, (mask, masses) in zip(live, got):
        s = GridFunction(curve.grid, s)
        region = slope_mask(s, dual)
        assert np.array_equal(mask, region)
        assert same_bits(masses, deposit_ref(s, dual, weigh(region)))


def test_contact_concentration(block):
    inst = huber_instance()
    worst = 0.0
    for lam, s in zip(inst.curve.lambdas, inst.curve.values):
        if lam >= inst.curve.lambda_c or np.all(s == -np.inf):
            continue
        s = GridFunction(inst.curve.grid, s)
        mu = deposit_ref(s, inst.dual, slope_mask(s, inst.dual))
        outside = float(mu[~contact_set(inst.phi, s.values)].sum())
        worst = max(worst, outside / (3.0 * inst.dual.cell_volume))
    assert check_contact_concentration()["measured"] == worst


def test_energy_linearity_memory_2d():
    # the per-item loop peaked at 3.47 MB here; groups may not raise it by
    # more than 15%
    phi, dual, u = bowl_instance_2d(65)
    ray = ray_from_curve(envelope(legendre(phi, dual), u, np.linspace(-1.0, 0.0, 17), phi.grid))
    tracemalloc.start()
    try:
        energy_linearity(ray, phi, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.15 * 3.47 * 2**20
