"""Self-contained verification suite: each check returns a small record.

A check is one function decorated with ``@_check(name, suite,
limit_seconds)``: it builds its own instances, measures one quantity and
returns ``(measured, bound)``.  The decorator registers it in definition
order, in its suite and in ``all``, and gives it a ``tol_scale=1.0``
parameter: the decorated check times itself, scales the bound by
``tol_scale`` and returns the record::

    {"name": ..., "measured": float, "bound": float, "passed": bool,
     "seconds": float, "limit_seconds": float}

Suites group the checks: ``core`` (transform correctness), ``envelopes``
(measures, energies, contact), ``rays`` (duality and linearity),
``filtration`` (the Phong-Sturm ray's bounds and limit, moments and the
paper's route to that limit), ``all``.  Each check calls the route that
the commands ship, or the brute-force oracle, directly.
"""

from __future__ import annotations

import math
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from itertools import repeat

import numpy as np

from .curves import contact_set, maximal_envelope
from .filtration import (
    BergmanInstance,
    WeightedLatticeData,
    equivalence_check,
    limit_curve,
    moment_check,
    phong_sturm_ray,
    toric_ray,
)
from .grids import Box, Grid, GridFunction, fork_cpus, lower_convex_envelope
from .instances import (
    abs_1d,
    constant_u_instance,
    filtration_base,
    huber_instance,
    quadratic_1d,
    quadratic_2d,
    random_convex_1d,
    random_nonconvex_1d,
)
from .legendre import (
    _transform_brute, biconjugate, conjugate, default_dual_grid, trapezoid_weights,
)
from .monge_ampere import cocycle_residual, energy_dual, energy_quadrature, region_masses
from .rays import compare_rays, energy_linearity, ray_dual, ray_from_curve

_SEED = 20240817

# name -> check and suite -> names, in definition order
_CHECKS: dict = {}
SUITES: dict[str, list[str]] = {}


def _check(name: str, suite: str, limit_seconds: float):
    """Register a function returning (measured, bound) as the check ``name``
    of ``suite`` and of ``all``; see the module docstring."""

    def register(measure):
        def check(tol_scale: float = 1.0) -> dict:
            t0 = time.perf_counter()
            measured, bound = measure()
            bound = bound * tol_scale
            return {
                "name": name,
                "measured": float(measured),
                "bound": float(bound),
                "passed": bool(measured <= bound),
                "seconds": round(float(time.perf_counter() - t0), 6),
                "limit_seconds": float(limit_seconds),
            }

        check.__name__, check.__qualname__ = measure.__name__, measure.__qualname__
        check.__doc__ = measure.__doc__
        _CHECKS[name] = check
        for s in (suite, "all"):
            SUITES.setdefault(s, []).append(name)
        return check

    return register


def _halving(c_coarse: float, c_fine: float, c_max: float) -> float:
    """Worst of: the constant C of a first-order bound at most ``c_max`` on
    a coarse level and on the level with its spacings halved, and the ratio
    c_fine / c_coarse inside [0.7, 1.3]; at most 1 when all three hold."""
    ratio = c_fine / max(c_coarse, 1e-30)
    return max(c_coarse / c_max, c_fine / c_max, abs(ratio - 1.0) / 0.3)


@_check("legendre_involution", "core", 2.0)
def check_involution():
    """Biconjugation restores convex data and convexifies the rest."""
    rng = np.random.default_rng(_SEED)
    worst = 0.0
    bound = math.inf
    for _ in range(20):
        f = random_convex_1d(rng, nodes=257)
        dual = default_dual_grid(f)
        bound = min(bound, 2.0 * f.grid.box.diameter * dual.spacing[0])
        err = float(np.abs(biconjugate(f, dual).values - f.values).max())
        worst = max(worst, err)
    for _ in range(20):
        f = random_nonconvex_1d(rng, nodes=257)
        dual = default_dual_grid(f)
        env = lower_convex_envelope(f)
        err = float(np.abs(biconjugate(f, dual).values - env.values).max())
        worst = max(worst, err)
    return worst, bound


@_check("fast_vs_brute", "core", 5.0)
def check_fast_vs_brute():
    """The ``conjugate`` kernel matches the brute-force oracle bit for bit,
    signs of zero and witnesses included."""
    rng = np.random.default_rng(_SEED + 1)
    worst = 0.0
    g2 = quadratic_2d(65).grid
    fs = [random_nonconvex_1d(rng, nodes=513) for _ in range(10)]
    fs += [GridFunction(g2, rng.uniform(-1.0, 1.0, g2.shape)) for _ in range(10)]
    for f in fs:
        axes, dual = f.grid.axes(), default_dual_grid(f).axes()
        vf, wf = conjugate(axes, f.values, dual, witness=True)
        vb, wb = _transform_brute(axes, f.values, dual)
        worst = max(worst, float(np.abs(vf - vb).max()))
        worst = max(worst, float(np.count_nonzero(np.signbit(vf) != np.signbit(vb))))
        worst = max(worst, float(np.abs(wf - wb).max()))
    return worst, 0.0


@_check("ma_total_mass", "envelopes", 5.0)
def check_total_mass():
    """Weighted MA total mass equals the closed-form area of the slope set.

    The forward-difference slopes of x^2/2 at spacing h run from
    -1 + h/2 to 1 - h/2, those of |x| from -1 to 1.  Counting whole dual
    cells per region node instead measures 0.5 (1-D) and 0.32 (2-D).
    """

    def total(f, dual):
        _, masses = next(region_masses(f.grid, f.values[None], dual, trapezoid_weights))
        return float(masses.sum())

    q1, q2 = quadratic_1d(257), quadratic_2d(129)
    ratios = []
    for f, area in ((q1, 2.0 - q1.grid.spacing[0]), (abs_1d(257), 2.0)):
        dual = default_dual_grid(f, 257)
        ratios.append(abs(total(f, dual) - area) / (2.0 * dual.cell_volume))
    area2 = (2.0 - q2.grid.spacing[0]) ** 2
    ratios.append(abs(total(q2, default_dual_grid(q2)) - area2) / area2 / 0.05)
    return max(ratios), 0.1


@_check("energy_dual_vs_quadrature", "envelopes", 2.0)
def check_energy_dual():
    """Quadrature energy agrees with the dual-side formula."""
    f0 = quadratic_1d(257)
    f1 = GridFunction(f0.grid, f0.values + 0.25 * (1.0 - f0.grid.axis(0) ** 2))
    eq = energy_quadrature(f1, f0, t_samples=11)
    ed = energy_dual(f1, f0)
    return abs(eq - ed) / max(abs(eq), abs(ed), 1e-30), 1e-2


@_check("energy_cocycle", "envelopes", 5.0)
def check_cocycle():
    """E(f2,f0) = E(f2,f1) + E(f1,f0) on random equivalent triples."""
    rng = np.random.default_rng(_SEED + 2)
    worst = 0.0
    for _ in range(10):
        f0 = random_convex_1d(rng, nodes=129)
        f1 = random_convex_1d(rng, nodes=129)
        f2 = random_convex_1d(rng, nodes=129)
        worst = max(worst, cocycle_residual(f0, f1, f2))
    return worst, 5e-2


@_check("contact_concentration", "envelopes", 5.0)
def check_contact_concentration():
    """MA mass of each envelope charges only the contact band."""
    inst = huber_instance()
    budget = 3.0 * inst.dual.cell_volume
    worst = 0.0
    c = inst.curve
    live = c.values[c.live & (c.lambdas < c.lambda_c)]
    for s, (_, masses) in zip(live, region_masses(c.grid, live, inst.dual, lambda m: m)):
        outside = float(masses[~contact_set(inst.phi, s)].sum())
        worst = max(worst, outside / budget)
    return worst, 1.0


def _hat_dual_gap(inst) -> float:
    hat = ray_from_curve(inst.curve)
    dual_ray = ray_dual(inst.star, inst.u, inst.phi.grid, hat.t_grid)
    gaps = compare_rays(hat, dual_ray)
    h = max(inst.phi.grid.spacing)
    hd = max(inst.dual.spacing)
    denom = (h + hd + inst.lambda_spacing) * (1.0 + hat.t_grid)
    return float((gaps / denom).max())


@_check("ray_equality", "rays", 10.0)
def check_ray_equality():
    """Envelope-supremum ray equals the conjugate-side ray; gap halves
    with the spacings."""
    coarse = huber_instance(nodes=129, dual_nodes=129, lambda_spacing=2.0**-5)
    fine = huber_instance(nodes=257, dual_nodes=257, lambda_spacing=2.0**-6)
    return _halving(_hat_dual_gap(coarse), _hat_dual_gap(fine), 10.0), 1.0


@_check("energy_linearity", "rays", 10.0)
def check_energy_linearity():
    """Energy along the ray is linear in t with slope the integral of u, on
    both the lambda route and the dual route that ``georay ray`` ships."""
    worst = 0.0
    for inst in (
        constant_u_instance(),
        huber_instance(nodes=257, dual_nodes=257, lambda_spacing=2.0**-6),
    ):
        hat = ray_from_curve(inst.curve)
        for ray in (hat, ray_dual(inst.star, inst.u, inst.phi.grid, hat.t_grid)):
            rep = energy_linearity(ray, inst.phi, inst.u)
            worst = max(worst, rep.max_abs_residual / (1e-2 * abs(rep.slope)))
            worst = max(
                worst, abs(rep.slope - rep.predicted_slope) / (0.02 * abs(rep.predicted_slope))
            )
    return worst, 1.0


def _standard_filtration():
    return WeightedLatticeData(np.array([[0], [1]]), np.array([0, 1]))


def _filtration_instances():
    yield _standard_filtration(), 8
    yield WeightedLatticeData(np.array([[0], [1]]), np.array([0, 0])), 8
    yield WeightedLatticeData(np.array([[0], [1], [2]]), np.array([1, 0, 2])), 6


@_check("lse_sandwich", "filtration", 1.0)
def check_lse_sandwich():
    """Every frame of the shipped Phong-Sturm ray lies node-wise between
    max_i (e_i + t w_i / k) and that max plus ln N / k, N sections."""
    phi = filtration_base(129)
    # dual box wide enough for every instance's normalized lattice points
    inst = BergmanInstance(phi, Grid(Box((-0.5,), (2.5,)), (129,)))
    worst = -math.inf
    for data, k in _filtration_instances():
        ray = phong_sturm_ray(inst, data, k)
        E, w = inst.section_values(data, k)
        top = (E + ray.t_grid[:, None, None] * w / k).max(axis=2)
        low = float((top - ray.values).max())
        high = float((ray.values - top - math.log(w.size) / k).max())
        worst = max(worst, low, high)
    return worst, 1e-12


@_check("phong_sturm_equivalence", "filtration", 20.0)
def check_phong_sturm():
    """Bergman-type ray converges to the envelope ray as k grows."""
    phi = filtration_base(257)
    dual = default_dual_grid(phi, 257)
    inst = BergmanInstance(phi, dual)
    data = _standard_filtration()
    k_list = [4, 8, 16, 32]
    t_grid = np.linspace(0.0, 1.0, 11)
    h = max(phi.grid.spacing)
    hd = max(dual.spacing)
    lam_sp = 1.0 / max(k_list)
    gaps = {}
    worst = 0.0
    for k, g in zip(k_list, equivalence_check(inst, data, t_grid, k_list)[0]):
        gaps[k] = float(g.max())
        bound = math.log(k + 1.0) / k + 10.0 * (h + hd + lam_sp) * (1.0 + t_grid)
        worst = max(worst, float((g / bound).max()))
    # the gap must actually shrink from k=4 to k=32
    return max(worst, gaps[32] / gaps[4]), 1.0


@_check("trivial_configuration", "filtration", 2.0)
def check_trivial_configuration():
    """Constant weights give the translated base metric back."""
    phi = filtration_base(257)
    inst = BergmanInstance(phi, default_dual_grid(phi, 257))
    data = WeightedLatticeData(np.array([[0], [1]]), np.array([0, 0]))
    k = 16
    ray = phong_sturm_ray(inst, data, k)
    # every frame is phi translated by t * eta, with eta = 0
    drift = float(np.abs(ray.values - phi.values).max())
    n_sections = data.reachable(k)[1].size
    return drift, math.log(n_sections) / k + phi.grid.box.diameter / (2.0 * k)


@_check("concave_transform_moments", "filtration", 1.0)
def check_moments():
    """Normalized weight sums match the moments of the concave transform."""
    data = _standard_filtration()
    k = 32
    lhs1, rhs1 = moment_check(data, k, 1)
    lhs2, rhs2 = moment_check(data, k, 2)
    return max(abs(lhs1 - rhs1) / (1.0 / k), abs(lhs2 - rhs2) / (2.0 / k)), 1.0


# the constant of the bound C (h_d + 1/k_max) on the limit-curve gap: fitted
# C runs 0.081 to 0.101 from (65 nodes, k_max 8) to (1025, 128), a 2.5x margin
_LIMIT_CURVE_C = 0.25


def limit_curve_constant(nodes: int, k_max: int) -> float:
    """Sup gap over t in [0, 1] between the paper's ray, built from the
    filtration through the Fekete limit curve of the degrees k_max/8 ..
    k_max, its maximal envelope and the lambda-transform, and the closed
    form (phi* - t g-hat)*, divided by h_d + 1/k_max; P1 = {0, 1} with
    weights (0, 1) over ``filtration_base(nodes)``."""
    phi = filtration_base(nodes)
    inst = BergmanInstance(phi, default_dual_grid(phi, nodes))
    data = _standard_filtration()
    t_grid = np.linspace(0.0, 1.0, 11)
    curve = limit_curve(inst, data, [k_max // 8, k_max // 4, k_max // 2, k_max])
    paper = ray_from_curve(maximal_envelope(phi, curve, inst.dual), t_grid)
    gap = float(compare_rays(paper, toric_ray(inst, data, t_grid)).max())
    return gap / (inst.dual.spacing[0] + 1.0 / k_max)


@_check("limit_curve_convergence", "filtration", 5.0)
def check_limit_curve_convergence():
    """The paper's route to the Phong-Sturm limit converges to the closed
    form at first order in h_d + 1/k_max; the constant holds as both halve."""
    # coarse levels: the suite's other worker finishes before the one that
    # runs fast_vs_brute; tests/test_filtration.py fits C up to 513 nodes
    c_coarse = limit_curve_constant(65, 8)
    c_fine = limit_curve_constant(129, 16)
    return _halving(c_coarse, c_fine, _LIMIT_CURVE_C), 1.0


def _run_check(name: str, tol_scale: float) -> dict:
    return _CHECKS[name](tol_scale)


def run_suite(suite: str, tol_scale: float = 1.0) -> dict:
    """Run one named suite and return {"suite", "checks", "passed"}.

    The checks are mapped over forked workers, one per available CPU,
    which inherit the imported package.  Each check seeds its own RNG and
    times itself, so the records do not depend on which worker ran them;
    they come back in suite order, and every worker has exited when this
    returns.  A check's exception is re-raised here.
    """
    if suite not in SUITES:
        raise KeyError(suite)
    names = SUITES[suite]
    workers = min(len(names), fork_cpus())
    if workers == 1:
        records = list(map(_run_check, names, repeat(tol_scale)))
    else:
        # fork, not spawn: a spawned worker would import numpy and georay
        # again (0.18-0.21 s on a 2-CPU Linux box, over a third of the
        # forked suite's wall time); a forking pool starts every worker
        # before its manager thread
        fork = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(workers, mp_context=fork) as pool:
            records = list(pool.map(_run_check, names, repeat(tol_scale)))
    return {
        "suite": suite,
        "checks": records,
        "passed": all(r["passed"] for r in records),
    }
