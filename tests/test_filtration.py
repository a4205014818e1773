import hashlib
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import georay
from georay.checks import _LIMIT_CURVE_C, check_moments, limit_curve_constant
from georay.errors import DomainError, ResourceError
from georay.filtration import (
    BergmanInstance,
    WeightedLatticeData,
    equivalence_check,
    extremal_metric,
    limit_curve,
    moment_check,
    multiplicative_closure,
    phong_sturm_ray,
    toric_ray,
    weight_envelope,
    weight_facets,
    weight_histogram,
)
from georay.grids import NEG_INF, SIZE_CAP, Box, Grid, GridFunction, require_convex
from georay.instances import filtration_base
from georay.legendre import _transform_brute, default_dual_grid
from georay.rays import compare_rays


@pytest.fixture(scope="module")
def w01():
    """P1 = {0, 1} with weights (0, 1): the standard degeneration."""
    return WeightedLatticeData(np.array([[0], [1]]), np.array([0, 1]))


@pytest.fixture(scope="module")
def base_inst():
    phi = filtration_base(129)
    return BergmanInstance(phi, default_dual_grid(phi, 129))


def closure_oracle(points, weights, k):
    """Exhaustive max over all k-fold decompositions."""
    best = {}
    stack = [(tuple(np.zeros(points.shape[1], dtype=int)), 0, 0)]
    # brute-force recursion over ordered sums of k points
    def rec(acc, w, depth):
        if depth == k:
            key = tuple(acc)
            if key not in best or w > best[key]:
                best[key] = w
            return
        for p, pw in zip(points, weights):
            rec(acc + p, w + pw, depth + 1)

    rec(np.zeros(points.shape[1], dtype=int), 0, 0)
    return best


class TestClosure:
    def test_w01_linear_weights(self, w01):
        # lambda_k(j) = j for j = 0..k: take j copies of the point 1
        for k in (2, 4, 8):
            arr = multiplicative_closure(w01, k)
            assert np.array_equal(arr, np.arange(k + 1, dtype=float))

    def test_matches_exhaustive_oracle(self):
        pts = np.array([[0], [1], [2]])
        ws = np.array([1, 0, 2])
        data = WeightedLatticeData(pts, ws)
        for k in (2, 3):
            arr = multiplicative_closure(data, k)
            oracle = closure_oracle(pts, ws, k)
            for idx, val in enumerate(arr):
                key = (idx + int(k * pts.min()),)
                assert val == oracle.get(key, NEG_INF)

    def test_2d_closure(self):
        pts = np.array([[0, 0], [1, 0], [0, 1]])
        ws = np.array([0, 1, 2])
        data = WeightedLatticeData(pts, ws)
        arr = multiplicative_closure(data, 2)
        oracle = closure_oracle(pts, ws, 2)
        it = np.ndindex(arr.shape)
        for idx in it:
            assert arr[idx] == oracle.get(tuple(np.array(idx)), NEG_INF)

    def test_duplicate_points_keep_the_largest_weight(self):
        pts = np.array([[0], [0], [1]])
        ws = np.array([5, 1, 0])
        data = WeightedLatticeData(pts, ws)
        for k in (1, 2, 3):
            oracle = closure_oracle(pts, ws, k)
            assert multiplicative_closure(data, k).tolist() == [oracle[(j,)] for j in range(k + 1)]

    def test_superadditive(self, w01):
        # lambda_{j+k}(a+b) >= lambda_j(a) + lambda_k(b)
        a2 = multiplicative_closure(w01, 2)
        a3 = multiplicative_closure(w01, 3)
        a5 = multiplicative_closure(w01, 5)
        for i in range(3):
            for j in range(4):
                assert a5[i + j] >= a2[i] + a3[j] - 1e-12

    def test_size_cap(self, w01):
        with pytest.raises(ResourceError):
            multiplicative_closure(w01, 10**7)

    @pytest.mark.parametrize(
        "points, box",
        [([[0], [2000000]], "2000001 x 1"), ([[0, 0], [1000, 1000]], "1001 x 1001")],
        ids=["1d", "2d"],
    )
    def test_degree_one_size_cap(self, points, box):
        # the degree-1 box is capped as every degree is, before it is allocated
        tracemalloc.start()
        try:
            with pytest.raises(ResourceError, match=f"^degree-1 lattice box of {box} nodes exceeds"):
                WeightedLatticeData(np.array(points), np.zeros(len(points), dtype=int))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestHistogram:
    def test_w01_counts(self, w01):
        vals, counts, cum = weight_histogram(w01, 8)
        assert np.array_equal(vals, np.arange(8, -1, -1))
        assert (counts == 1).all()
        assert np.array_equal(cum, np.arange(1, 10))

    def test_cumulative_identity_random(self):
        data = WeightedLatticeData(np.array([[0], [1], [3]]), np.array([2, -1, 1]))
        vals, counts, cum = weight_histogram(data, 5)
        assert np.array_equal(np.cumsum(counts), cum)
        assert (np.diff(vals) < 0).all()


class TestSectionValues:
    def test_read_only_and_exact(self, base_inst, w01):
        E, w = base_inst.section_values(w01, 8)
        assert not E.flags.writeable and not w.flags.writeable
        # phi*(alpha/k) is the exact max over primal nodes of x*y - phi
        pts, _ = w01.reachable(8)
        x, v = base_inst.phi.grid.axis(0), base_inst.phi.values
        for col, a in enumerate(pts[:, 0] / 8):
            star = (x * a - v).max()
            assert np.array_equal(E[:, col], x * a - star)

    def test_values_follow_data_and_degree(self, base_inst):
        a = WeightedLatticeData(np.array([[0], [1]]), np.array([0, 1]))
        b = WeightedLatticeData(np.array([[0], [1]]), np.array([1, 0]))
        assert np.array_equal(base_inst.section_values(a, 4)[1], [0, 1, 2, 3, 4])
        assert np.array_equal(base_inst.section_values(b, 4)[1], [4, 3, 2, 1, 0])
        assert base_inst.section_values(a, 8)[0].shape[1] == 9


class TestSandwich:
    def test_ray_frames_within_bound(self, base_inst, w01):
        # max_i (e_i + t w_i / k) <= frame(t) <= that max + ln N / k, node-wise
        for k in (4, 8, 16):
            ray = phong_sturm_ray(base_inst, w01, k)
            E, w = base_inst.section_values(w01, k)
            top = (E + ray.t_grid[:, None, None] * w / k).max(axis=2)
            assert (top - ray.values).max() <= 1e-12
            assert (ray.values - top - math.log(w.size) / k).max() <= 1e-12


class TestLimitCurveAndRay:
    def test_limit_curve_lambda_c(self, base_inst, w01):
        tc = limit_curve(base_inst, w01, [4, 8])
        assert tc.lambda_c == pytest.approx(1.0)

    def test_gap_decreases(self, base_inst, w01):
        ts = np.linspace(0.0, 1.0, 6)
        k_list = [4, 8, 16, 32]
        gaps, _ = equivalence_check(base_inst, w01, ts, k_list)
        assert gaps.shape == (len(k_list), ts.size)
        g4, g32 = gaps[0].max(), gaps[-1].max()
        assert g32 < g4

    def test_gap_rows_match_separate_rays(self, base_inst, w01):
        ts = np.linspace(0.0, 1.0, 6)
        k_list = [16, 4, 8]
        gaps, rays = equivalence_check(base_inst, w01, ts, k_list)
        target = toric_ray(base_inst, w01, ts)
        assert len(rays) == len(k_list)
        for k, row, ray in zip(sorted(k_list), gaps, rays):
            ps = phong_sturm_ray(base_inst, w01, k, ts)
            assert np.array_equal(row, compare_rays(target, ps))
            assert np.array_equal(ray.values, ps.values)

    def test_limit_curve_table_over_cap(self):
        # every degree passes the lattice and section caps, but weights
        # (0, 100) need 20001 lambdas of 1/200: the table must not be built
        phi = filtration_base(65)
        inst = BergmanInstance(phi, default_dual_grid(phi))
        data = WeightedLatticeData(np.array([[0], [1]]), np.array([0, 100]))
        start = time.perf_counter()
        with pytest.raises(ResourceError, match="limit-curve table of 20001 x 65 nodes exceeds"):
            limit_curve(inst, data, [200])
        assert time.perf_counter() - start < 5.0

    def test_gap_independent_of_closure_cache(self, base_inst):
        ts = np.linspace(0.0, 1.0, 6)
        cold = WeightedLatticeData(np.array([[0], [1]]), np.array([0, 1]))
        warm = WeightedLatticeData(np.array([[0], [1]]), np.array([0, 1]))
        multiplicative_closure(warm, 32)
        g_cold, _ = equivalence_check(base_inst, cold, ts, [4, 8])
        g_warm, _ = equivalence_check(base_inst, warm, ts, [4, 8])
        assert np.array_equal(g_cold, g_warm)

    def test_trivial_weights_constant_in_t(self, base_inst):
        data = WeightedLatticeData(np.array([[0], [1]]), np.array([0, 0]))
        ray = phong_sturm_ray(base_inst, data, 8)
        first = ray.values[0]
        for fr in ray.values[1:]:
            assert np.array_equal(fr, first)

    def test_uniform_weights_translate(self, base_inst):
        # weights identically c*k shift the ray by c*t
        data = WeightedLatticeData(np.array([[0], [1]]), np.array([2, 2]))
        ray = phong_sturm_ray(base_inst, data, 8)
        base = ray.values[0]
        for t, fr in zip(ray.t_grid, ray.values):
            assert np.abs(fr - (base + 2 * t)).max() <= 1e-10

    def test_empty_degree_list(self, base_inst, w01):
        with pytest.raises(DomainError, match="^empty degree list$"):
            equivalence_check(base_inst, w01, np.linspace(0.0, 1.0, 6), [])


def per_t_frames(inst, data, k, ts):
    """The reference Phong-Sturm frames: one scipy ``logsumexp`` over nodes x sections per t."""
    from scipy.special import logsumexp

    E, w = inst.section_values(data, k)
    return np.array([logsumexp(k * E + t * w, axis=1) / k for t in ts])


def runs_of(ts, span):
    """How many runs of t the 600 rule makes: each run takes the t within
    600 / span of its first."""
    runs, t0 = 0, -math.inf
    for t in ts:
        if (t - t0) * span > 600.0:
            runs, t0 = runs + 1, t
    return runs


def count_section_exps(monkeypatch, shape) -> list:
    """Patch ``np.exp`` to record each call over an array of ``shape``."""
    calls, exp = [], np.exp

    def counted(x, *args, **kwargs):
        if np.shape(x) == shape:
            calls.append(shape)
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counted)
    return calls


class TestPhongSturmRuns:
    """phong_sturm_ray's one ``exp`` per run of t against the per-t log-sum-exp."""

    @pytest.mark.parametrize("scale", [1, 40])
    @pytest.mark.parametrize("case", ["w01", "three_point", "simplex_2d"])
    def test_frames_match_per_t_reference(self, request, base_inst, monkeypatch, case, scale):
        inst, data = (base_inst, request.getfixturevalue(case)) if case == "w01" else request.getfixturevalue(case)
        data = WeightedLatticeData(data.points, scale * data.weights)
        ts, runs = np.linspace(0.0, 1.0, 21), []
        for k in (1, 2, 4, 8, 16, 32, 64):
            E, w = inst.section_values(data, k)
            want = per_t_frames(inst, data, k, ts)
            calls = count_section_exps(monkeypatch, E.shape)
            got = phong_sturm_ray(inst, data, k, ts).values.reshape(want.shape)
            monkeypatch.undo()
            # within 1e-14 of the frame's size, at least 1e-14: frames reach 85 at scale 40
            assert (np.abs(got - want) <= 1e-14 * np.maximum(1.0, np.abs(want))).all()
            runs.append(len(calls))
            assert runs[-1] == runs_of(ts, float(w.max() - w.min()))
        # x 40 at k = 64 spans 2560 or 2600: 600 / span holds four steps of t
        assert runs[-1] == (1 if scale == 1 else 5)

    def test_both_sides_of_the_run_rule(self, w01, monkeypatch):
        # e = (0, -800/k) and w = (0, 1000).  (1 - 0) x 1000 > 600, so t = 1
        # takes its own run: in one run, exp(-800) would underflow, the other
        # section's exp(-1000) too, and log 0 would warn (an error here)
        grid = Grid(Box((0.0,), (1.0,)), 3)
        for k in (1, 4):
            E, w = np.array([[0.0, -800.0 / k]] * 3), np.array([0.0, 1000.0])
            inst = SimpleNamespace(phi=SimpleNamespace(grid=grid), section_values=lambda data, k: (E, w))
            calls = count_section_exps(monkeypatch, E.shape)
            ray = phong_sturm_ray(inst, w01, k, [0.0, 1.0])
            assert np.array_equal(ray.values, [[0.0] * 3, [200.0 / k] * 3])
            assert len(calls) == 2
            # 0.6 x 1000 = 600: one run, whose t = 0.6 term is exp(-600)
            calls.clear()
            ray = phong_sturm_ray(inst, w01, k, [0.0, 0.6])
            assert np.abs(ray.values[1] - np.logaddexp(0.0, -200.0) / k).max() <= 1e-12
            assert len(calls) == 1
            monkeypatch.undo()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_t_rejected(self, base_inst, w01, monkeypatch, bad):
        calls = count_section_exps(monkeypatch, base_inst.section_values(w01, 4)[0].shape)
        with pytest.raises(DomainError, match="t grid must be finite"):
            phong_sturm_ray(base_inst, w01, 4, [0.0, bad])
        assert calls == []

    def test_frames_independent_of_blas_threads(self):
        # 513 nodes x 401 sections: a BLAS product of the two exponentials
        # sums in a different order with two threads than with one
        script = (
            "import hashlib, numpy as np\n"
            "from georay.filtration import BergmanInstance, WeightedLatticeData, phong_sturm_ray\n"
            "from georay.instances import filtration_base\n"
            "from georay.legendre import default_dual_grid\n"
            "phi = filtration_base(513)\n"
            "inst = BergmanInstance(phi, default_dual_grid(phi, 513))\n"
            "data = WeightedLatticeData(np.array([[0], [1]]), np.array([0, 1]))\n"
            "ray = phong_sturm_ray(inst, data, 400)\n"
            "print(hashlib.sha256(ray.values.tobytes()).hexdigest())\n"
        )
        digests = set()
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(Path(georay.__file__).parents[1]))
            out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
            digests.add(out.stdout.strip())
        assert len(digests) == 1


class TestExtremalTable:
    """extremal_metric's running-max table against the per-lambda definition."""

    @pytest.mark.parametrize("case", ["three_point", "simplex_2d"])
    def test_rows_match_masked_max(self, request, case):
        inst, data = request.getfixturevalue(case)
        for k in (4, 8):
            E, w = inst.section_values(data, k)
            assert np.unique(w).size < w.size  # tied weights
            lo, hi = float(w.min()) / k, float(w.max()) / k
            # below every weight, every weight and the half-steps, above every weight
            lambdas = np.concatenate([[lo - 1.0], np.arange(2 * lo * k, 2 * hi * k + 1) / (2 * k), [hi + 0.5]])
            table = extremal_metric(inst, data, k, lambdas)
            assert table.shape == (lambdas.size, E.shape[0])
            for lam, row in zip(lambdas, table):
                sel = w >= k * lam - 1e-9
                want = E[:, sel].max(axis=1) if sel.any() else np.full(E.shape[0], NEG_INF)
                assert np.array_equal(row, want)
                assert np.array_equal(np.signbit(row), np.signbit(want))
            assert np.array_equal(table[0], E.max(axis=1))
            assert np.all(table[-1] == NEG_INF)

    @pytest.mark.parametrize("case", ["three_point", "simplex_2d"])
    def test_limit_curve_samples_certify_convex(self, request, case):
        inst, data = request.getfixturevalue(case)
        curve = limit_curve(inst, data, [4, 8])
        live = curve.values[curve.live]
        assert live.size
        for sample in live:
            require_convex("sample", GridFunction(curve.grid, sample))

    def test_2d_equivalence_bytes(self, simplex_2d):
        """SHA-256 of the 2-D gaps and Phong-Sturm rays at k = 4 and 8: pins the
        2-D closed-form target, whose g-hat is built without a hull."""
        gaps, rays = equivalence_check(*simplex_2d, np.linspace(0.0, 1.0, 5), [4, 8])
        h = hashlib.sha256(gaps.tobytes())
        for ray in rays:
            for frame in ray.values:
                h.update(frame.tobytes())
        assert h.hexdigest() == "62ab19dce845e14194fe23641454f8b9f9839ddeac562d46e49b7107e66b1c0d"


SQUARE = [[0, 0], [1, 0], [0, 1], [1, 1]]
SIMPLEX = [[0, 0], [1, 0], [0, 1]]


class TestToricRay:
    """The closed-form target (phi* - t g-hat)* and its g-hat."""

    @pytest.mark.parametrize(
        "points, weights",
        [([[0], [1], [2]], (1, 0, 2)), ([[0], [3], [1], [5]], (2, 7, -1, 0)),
         (SQUARE, (0, 1, 1, 0)), (SIMPLEX, (0, 1, 0)),
         ([[0, 0], [2, 0], [0, 2], [1, 1], [2, 1]], (0, 1, 2, 5, -3))],
        ids=["three-point", "unsorted", "square", "simplex", "interior-point"],
    )
    def test_weight_envelope_is_concave_transform_g(self, rng, caratheodory, points, weights):
        data = WeightedLatticeData(np.array(points), np.array(weights))
        nodes, facets = data.points.astype(float), weight_facets(data)
        facets = facets[rng.integers(0, len(facets), 300)]
        bary = rng.dirichlet(np.ones(facets.shape[1]), size=300)
        inside = np.vstack([nodes, np.einsum("qi,qij->qj", bary, nodes[facets])])
        at = weight_envelope(data, inside)
        # g is the concave envelope of the weights, and linear on each facet:
        # the barycentric mean of its corner weights
        assert np.abs(at - caratheodory(nodes, data.weights.astype(float), inside)[1]).max() <= 1e-13
        assert np.abs(at[len(nodes):] - (bary * data.weights[facets]).sum(axis=1)).max() <= 1e-14
        # enough points for one facet per group
        assert np.array_equal(weight_envelope(data, np.tile(inside, (30, 1))), np.tile(at, 30))
        lo, hi = nodes.min(axis=0), nodes.max(axis=0)
        outside = np.vstack([lo - 1e-6, hi + 1e-6, lo - 0.5])
        assert np.all(weight_envelope(data, outside) == NEG_INF)

    @pytest.mark.parametrize(
        "points", [[[0], [0]], [[0, 0], [1, 1], [2, 2]]], ids=["point", "collinear"]
    )
    def test_weight_envelope_needs_a_simplex(self, points):
        data = WeightedLatticeData(np.array(points), np.zeros(len(points)))
        with pytest.raises(DomainError, match=r"span no \d-simplex"):
            weight_envelope(data, np.zeros((1, data.dim)))

    def test_weight_envelope_size_cap(self):
        # C(2000, 2) simplices, each tested against the 2000 points: capped
        # before any is listed
        data = WeightedLatticeData(np.arange(2000)[:, None], np.zeros(2000))
        start = time.perf_counter()
        with pytest.raises(ResourceError, match=f"1-simplex table of P1 of 1999000 x 2000 nodes exceeds the size cap {SIZE_CAP}"):
            weight_envelope(data, np.zeros((1, 1)))
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "case, g_hat",
        [
            # 1 + y/2 on [0, 2], and y1 on the standard simplex
            ("three_point", lambda y: np.where((y[:, 0] >= 0) & (y[:, 0] <= 2), 1 + y[:, 0] / 2, NEG_INF)),
            ("simplex_2d", lambda y: np.where((y >= 0).all(axis=1) & (y.sum(axis=1) <= 1), y[:, 0], NEG_INF)),
        ],
        ids=["1d", "2d"],
    )
    def test_toric_ray_is_brute_closed_form(self, request, case, g_hat):
        inst, data = request.getfixturevalue(case)
        ts = np.linspace(0.0, 1.0, 5)
        ray = toric_ray(inst, data, ts)
        y = inst.dual.coords()
        on = np.isfinite(g_hat(y))
        star = _transform_brute(inst.phi.grid.axes(), inst.phi.values, inst.dual.axes())[0].ravel()
        x = inst.phi.grid.coords()
        for t, frame in zip(ts, ray.values):
            want = (x @ y[on].T - (star[on] - t * g_hat(y)[on])).max(axis=1)
            assert np.abs(frame.ravel() - want).max() <= 1e-12

    def test_limit_curve_constant_fit(self):
        # C = gap / (h_d + 1/k_max) on four levels that halve both terms:
        # each keeps a 2x margin to the gate's C, and it holds as they halve
        cs = [limit_curve_constant(n, k) for n, k in ((65, 8), (129, 16), (257, 32), (513, 64))]
        assert max(cs) <= _LIMIT_CURVE_C / 2
        for coarse, fine in zip(cs, cs[1:]):
            assert 0.7 <= fine / coarse <= 1.3


class TestConcaveTransformG:
    # g-hat, the concave envelope of the degree-1 weights: weight_facets
    # tiles the polytope with the simplices it is linear on,
    # weight_envelope evaluates it there and moment_check integrates it
    def test_w01_is_identity_on_01(self, w01):
        xs = np.linspace(0.0, 1.0, 11)
        assert np.abs(weight_envelope(w01, xs[:, None]) - xs).max() <= 1e-9

    def test_max_value(self, w01):
        assert weight_envelope(w01, np.linspace(0.0, 1.0, 9)[:, None]).max() == 1.0

    def test_moment_closed_forms(self, w01):
        k = 32
        lhs1, rhs1 = moment_check(w01, k, 1)
        # sum_{j=0}^{k} (j/k) / k = (k+1)/(2k)
        assert lhs1 == pytest.approx((k + 1) / (2 * k))
        assert rhs1 == 0.5
        lhs2, rhs2 = moment_check(w01, k, 2)
        assert lhs2 == pytest.approx((k + 1) * (2 * k + 1) / (6 * k * k))
        assert rhs2 == pytest.approx(1 / 3, abs=1e-12)
        assert abs(lhs1 - rhs1) <= 1 / k
        assert abs(lhs2 - rhs2) <= 2 / k

    @pytest.mark.parametrize(
        "points, weights, exact",
        [
            # constant 3 on the unit square and on the standard simplex
            (SQUARE, (3, 3, 3, 3), (3.0, 9.0)),
            (SIMPLEX, (3, 3, 3), (1.5, 4.5)),
            # min(x + y, 2 - x - y) on the unit square
            (SQUARE, (0, 1, 1, 0), (2 / 3, 1 / 2)),
            # 1 + x/2 on [0, 2], the concave envelope of (1, 0, 2)
            ([[0], [1], [2]], (1, 0, 2), (3.0, 14 / 3)),
        ],
    )
    def test_exact_moments(self, points, weights, exact):
        # the integral is of g-hat, which does not depend on the degree
        data = WeightedLatticeData(np.array(points), np.array(weights))
        for p, want in zip((1, 2), exact):
            assert moment_check(data, 1, p)[1] == pytest.approx(want, rel=0, abs=1e-12)

    @pytest.mark.parametrize(
        "points, weights", [(SQUARE, (0, 1, 1, 0)), (SIMPLEX, (0, 1, 0))]
    )
    def test_2d_limit_identity_first_order(self, points, weights):
        # (1/k^2) sum (w/k)^p - integral of g^p halves with each doubling of k
        data = WeightedLatticeData(np.array(points), np.array(weights))
        for p in (1, 2):
            gaps = []
            for k in (8, 16, 32):
                lhs, rhs = moment_check(data, k, p)
                gaps.append(lhs - rhs)
            for coarse, fine in zip(gaps, gaps[1:]):
                assert 0.45 <= fine / coarse <= 0.55

    @pytest.mark.parametrize(
        "points, weights, measure",
        [
            # coplanar lifted points: every simplex of P1 has the same plane
            (SQUARE, (3, 3, 3, 3), 1.0),
            (SIMPLEX, (3, 3, 3), 0.5),
            ([[a, b] for a in range(3) for b in range(3)], (1,) * 9, 4.0),
            ([[0], [3], [1], [2]], (0, 3, 1, 2), 3.0),
            # the lower of two weights at one point lies below g-hat
            ([[0, 0], [1, 0], [0, 1], [1, 0], [0, 0], [1, 1]], (0, 2, 1, 2, -1, 0), 1.0),
        ],
        ids=["square", "simplex", "3x3", "1d-collinear", "duplicates"],
    )
    def test_facets_tile(self, rng, points, weights, measure):
        data = WeightedLatticeData(np.array(points), np.array(weights))
        facets = weight_facets(data)
        corners = data.points[facets].astype(float)
        edges = corners[:, 1:] - corners[:, :1]
        vol = np.abs(np.linalg.det(edges)) / math.factorial(data.dim)
        assert vol.min() > 0.1 and vol.sum() == pytest.approx(measure, rel=0, abs=1e-12)
        # random points of each facet lie inside no other facet
        bary = rng.dirichlet(np.ones(data.dim + 1), size=(len(facets), 50))
        qs = np.einsum("fqi,fij->fqj", bary, corners).reshape(-1, data.dim)
        b = (qs - corners[:, None, 0]) @ np.linalg.inv(edges)
        strict = (b > 1e-9).all(axis=2) & (b.sum(axis=2) < 1.0 - 1e-9)
        assert strict.sum(axis=0).max() == 1

    def test_collinear_2d_points_raise(self):
        data = WeightedLatticeData(np.array([[0, 0], [1, 1], [2, 2]]), np.array([0, 2, 1]))
        with pytest.raises(DomainError, match=r"^2-D points \[\[0, 0\], \[1, 1\], \[2, 2\]\] span no 2-simplex$"):
            moment_check(data, 1, 1)

    def test_weights_past_exact_int64_raise(self):
        # heights up to 12 span^2 max|w| fit in int64 below 2^63: the peak at
        # 2^57 is found, one at 2^58 is refused rather than wrapped
        peak = WeightedLatticeData(np.array([[0], [1], [2]]), np.array([0, 2**57, 0]))
        assert weight_facets(peak).tolist() == [[0, 1], [1, 2]]
        over = WeightedLatticeData(np.array([[0], [1], [2]]), np.array([0, 2**58, 0]))
        with pytest.raises(DomainError, match="too large for exact int64 tests"):
            weight_facets(over)

    def test_check_moments_measured(self):
        # the gate's figure, from the exact integral over the 1-D facets
        assert check_moments()["measured"] == 0.5

    @pytest.mark.parametrize(
        "points, weights, exact",
        [
            ([[0], [1], [2]], (1, 0, 2), lambda x: 1 + x[:, 0] / 2),
            (SQUARE, (0, 1, 1, 0), lambda x: np.minimum(x.sum(axis=1), 2 - x.sum(axis=1))),
            (SIMPLEX, (0, 1, 0), lambda x: x[:, 0]),
        ],
        ids=["1d", "square", "simplex"],
    )
    def test_call_is_min_of_facet_pieces(self, rng, points, weights, exact):
        data = WeightedLatticeData(np.array(points), np.array(weights))
        facets = weight_facets(data)
        corners = data.points[facets[rng.integers(0, len(facets), 200)]].astype(float)
        bary = rng.dirichlet(np.ones(corners.shape[1]), size=200)
        pts = np.vstack([data.points, np.einsum("qi,qij->qj", bary, corners)])
        assert np.abs(weight_envelope(data, pts) - exact(pts)).max() <= 1e-15

    def test_call_loads_no_scipy(self):
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from georay.filtration import WeightedLatticeData, weight_envelope\n"
            "data = WeightedLatticeData(np.array([[0, 0], [1, 0], [0, 1], [1, 1]]), np.array([0, 1, 1, 0]))\n"
            "assert weight_envelope(data, [(0.5, 0.5), (0.25, 0.25)]).tolist() == [1.0, 0.5]\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(georay.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_rejects_high_moment(self, w01):
        with pytest.raises(DomainError):
            moment_check(w01, 8, 3)
