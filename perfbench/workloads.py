"""Seeded inputs, command lines and output checks for the four workloads.

Inputs are written in georay's documented text formats with numpy alone,
so the benchmark's inputs do not depend on the code under test.  A seed
picks inputs of one fixed size and class: the same node counts, lambda
counts, degrees and t grid on every seed, so the work per run stays
comparable.  What the seed varies is chosen so that the exact answers
transform covariantly (a tilt and shift of the base, a scale of u, a shift
of the weights): the accuracy figures then stay comparable across seeds
while every input byte changes.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

T_NODES = 11


# expected output files of each workload -> minimum number of lines,
# header included
WORKLOADS = {
    "ray_huber_1d": {"ray.csv": T_NODES * 513 + 1, "energy.json": 1, "linearity.json": 1},
    "ray_bowl_2d": {"ray.csv": T_NODES * 65 * 65 + 1, "energy.json": 1, "linearity.json": 1},
    "filtration_1d": {"gap.csv": 4 * T_NODES + 1, "ray.csv": T_NODES * 513 + 1, "histogram.csv": 2},
    "check_all": {"report.json": 1},
}

FILTRATION_K = (8, 16, 32, 64)
FILTRATION_BOX, FILTRATION_DUAL, FILTRATION_NODES = (-2.0, 3.0), (-0.5, 2.5), 513


def _grid_function_text(lower, upper, nodes, values) -> str:
    lines = [
        "gridfunction 1",
        f"dim {len(nodes)}",
        "lower " + " ".join(repr(float(v)) for v in lower),
        "upper " + " ".join(repr(float(v)) for v in upper),
        "nodes " + " ".join(str(int(m)) for m in nodes),
        "values",
    ]
    lines.extend(repr(float(v)) for v in np.asarray(values).ravel())
    return "\n".join(lines) + "\n"


def _axis(lo: float, hi: float, n: int) -> np.ndarray:
    """Node coordinates exactly as georay's Grid.axis computes them."""
    return lo + (hi - lo) / (n - 1) * np.arange(n)


def _huber(x):
    return np.where(np.abs(x) <= 1.0, x * x / 2, np.abs(x) - 0.5)


def _padded_slope_box(values: np.ndarray, h: float, axis: int, nodes: int):
    """Slope range of the data along one axis, padded by one dual spacing."""
    d = np.diff(values, axis=axis) / h
    mn, mx = float(d.min()), float(d.max())
    pad = (mx - mn) / (nodes - 3)
    return mn - pad, mx + pad


def _ray_spec(dirpath: Path, lower, upper, nodes, phi, dual_lo, dual_hi, dual_nodes,
              u, lam_min, lam_steps):
    (dirpath / "phi.gf").write_text(_grid_function_text(lower, upper, nodes, phi))
    (dirpath / "u.gf").write_text(_grid_function_text(dual_lo, dual_hi, dual_nodes, u))
    spec = {
        "kind": "dual_u",
        "phi": "phi.gf",
        "u": "u.gf",
        "dual": {"lower": list(dual_lo), "upper": list(dual_hi), "nodes": list(dual_nodes)},
        "lambda": {"min": lam_min, "max": 0.0, "spacing": -lam_min / lam_steps},
        "t_nodes": T_NODES,
        "t_max": 1.0,
    }
    (dirpath / "problem.spec").write_text(json.dumps(spec, indent=1) + "\n")


def _ray_huber_1d(rng, dirpath: Path):
    """Huber bowl on [-3, 3] (slope set [a-1, a+1]), u = -s|y - a|."""
    n = 513
    a, b, s = rng.uniform(-0.5, 0.5), rng.uniform(-1.0, 1.0), rng.uniform(0.8, 1.25)
    x = _axis(-3.0, 3.0, n)
    phi = _huber(x) + a * x + b
    lo, hi = _padded_slope_box(phi, x[1] - x[0], 0, n)
    y = _axis(lo, hi, n)
    u = -s * np.abs(y - a)
    _ray_spec(dirpath, (-3.0,), (3.0,), (n,), phi, (lo,), (hi,), (n,), u, -s, 64)
    return {"tilt": [a], "shift": b, "u_scale": s}


def _ray_bowl_2d(rng, dirpath: Path):
    """Sum of Huber bowls on [-3, 3]^2, u = -s(|y1 - a1| + |y2 - a2|)/2."""
    n = 65
    a1, a2 = rng.uniform(-0.5, 0.5, 2)
    b, s = rng.uniform(-1.0, 1.0), rng.uniform(0.8, 1.25)
    x = _axis(-3.0, 3.0, n)
    X1, X2 = np.meshgrid(x, x, indexing="ij")
    phi = _huber(X1) + _huber(X2) + a1 * X1 + a2 * X2 + b
    h = x[1] - x[0]
    lo1, hi1 = _padded_slope_box(phi, h, 0, n)
    lo2, hi2 = _padded_slope_box(phi, h, 1, n)
    Y1, Y2 = np.meshgrid(_axis(lo1, hi1, n), _axis(lo2, hi2, n), indexing="ij")
    u = -s * (np.abs(Y1 - a1) + np.abs(Y2 - a2)) / 2
    _ray_spec(dirpath, (-3.0, -3.0), (3.0, 3.0), (n, n), phi,
              (lo1, lo2), (hi1, hi2), (n, n), u, -s, 16)
    return {"tilt": [float(a1), float(a2)], "shift": b, "u_scale": s}


def _filtration_1d(rng, dirpath: Path):
    """P1 = {0, 1, 2} with weights (1, 0, 2) + c over 2 filtration_base(513) + b."""
    n = FILTRATION_NODES
    c, b = int(rng.integers(-3, 4)), rng.uniform(-1.0, 1.0)
    points = np.array([0, 1, 2])
    weights = np.array([1, 0, 2]) + c
    x = _axis(*FILTRATION_BOX, n)
    phi = 2.0 * np.where(x <= 0.0, 0.0, np.where(x <= 1.0, x * x / 2, x - 0.5)) + b
    dual_lo, dual_hi = FILTRATION_DUAL
    # the base's slope set must be conv(P1), and every normalized lattice
    # point alpha/k must lie inside the dual box
    slopes = np.diff(phi) / (x[1] - x[0])
    assert abs(slopes.min() - points.min()) < 1e-9, "slope set must start at min P1"
    assert abs(slopes.max() - points.max()) < 1e-9, "slope set must end at max P1"
    for k in FILTRATION_K:
        normalized = np.arange(k * points.min(), k * points.max() + 1) / k
        assert dual_lo <= normalized.min() and normalized.max() <= dual_hi
    (dirpath / "phi.gf").write_text(_grid_function_text(FILTRATION_BOX[:1], FILTRATION_BOX[1:], (n,), phi))
    (dirpath / "weights.wd").write_text(
        "weightdata 1\ndim 1\n"
        + "".join(f"point {p} {w}\n" for p, w in zip(points, weights))
    )
    spec = {
        "kind": "filtration",
        "phi": "phi.gf",
        "weights": "weights.wd",
        "dual": {"lower": [dual_lo], "upper": [dual_hi], "nodes": [n]},
        "t_nodes": T_NODES,
        "t_max": 1.0,
    }
    (dirpath / "problem.spec").write_text(json.dumps(spec, indent=1) + "\n")
    return {"weight_shift": c, "shift": b}


def generate(name: str, seed: int, dirpath: Path) -> dict:
    """Write the inputs of one workload; returns the seeded parameters."""
    rng = np.random.default_rng([seed % 2**32, sorted(WORKLOADS).index(name)])
    if name == "ray_huber_1d":
        return _ray_huber_1d(rng, dirpath)
    if name == "ray_bowl_2d":
        return _ray_bowl_2d(rng, dirpath)
    if name == "filtration_1d":
        return _filtration_1d(rng, dirpath)
    # the check suite builds its own instances; the seed only labels the run
    return {}


def argv(name: str, indir: Path, outdir: Path) -> list[str]:
    """The georay command line of one run of a workload."""
    if name.startswith("ray_"):
        return ["ray", "--spec", str(indir / "problem.spec"), "--out", str(outdir)]
    if name == "filtration_1d":
        ks = ",".join(str(k) for k in FILTRATION_K)
        return ["filtration", "--spec", str(indir / "problem.spec"), "--out", str(outdir), "--k", ks]
    return ["check", "--suite", "all", "--json", str(outdir / "report.json")]


def digest_bytes(path: Path) -> bytes:
    """Bytes whose digest must repeat: the check report without its timings."""
    data = path.read_bytes()
    if path.name == "report.json":
        doc = json.loads(data)
        doc.pop("timings", None)
        data = json.dumps(doc, indent=1, sort_keys=True).encode()
    return data


# The per-run slope check is a sanity limit: it catches broken numbers (a
# wrong sign, a lost factor); the accuracy metric, not this limit, is what
# a later change is compared on.  The slope error measures about 1.6% in
# 1-D and 6.5% in 2-D, where the slope prediction has not converged at
# 65 x 65 nodes.
SLOPE_REL_LIMIT = 0.1
# the tolerances of georay's energy_linearity check, used to normalize
GATE_SLOPE_REL, GATE_LINEARITY_REL = 0.02, 1e-2


def accuracy(name: str, outdir: Path) -> tuple[dict, list[str]]:
    """Accuracy figures of one run and the list of problems found."""
    problems: list[str] = []
    if name.startswith("ray_"):
        e = json.loads((outdir / "energy.json").read_text())
        # georay's own verdict: residual <= 1e-2 |slope|
        linear = json.loads((outdir / "linearity.json").read_text())["linear"]
        slope, pred = e["slope"], e["predicted_slope"]
        slope_err = abs(slope - pred) / abs(pred)
        resid = e["max_abs_residual"] / abs(slope)
        if not slope_err <= SLOPE_REL_LIMIT:
            problems.append(f"slope_rel_err {slope_err:.3g} is not within {SLOPE_REL_LIMIT}")
        if not (linear and math.isfinite(resid)):
            problems.append("energy is not linear along the ray")
        ratio = max(slope_err / GATE_SLOPE_REL, resid / GATE_LINEARITY_REL)
        return {"slope_rel_err": slope_err, "linearity_resid_rel": resid, "accuracy_ratio": ratio}, problems
    if name == "filtration_1d":
        rows = (outdir / "gap.csv").read_text().split()[1:]
        k_max = max(FILTRATION_K)
        gaps = [(float(t), float(g)) for k, t, g in (r.split(",") for r in rows) if int(k) == k_max]
        ratio = max(g for _, g in gaps) / (math.log(k_max + 1) / k_max)
        # the bound of georay's phong_sturm_equivalence check
        h = (FILTRATION_BOX[1] - FILTRATION_BOX[0]) / (FILTRATION_NODES - 1)
        hd = (FILTRATION_DUAL[1] - FILTRATION_DUAL[0]) / (FILTRATION_NODES - 1)
        for t, g in gaps:
            bound = math.log(k_max + 1) / k_max + 10 * (h + hd + 1 / k_max) * (1 + t)
            if not g <= bound:
                problems.append(f"gap {g:.3g} at t={t} exceeds the Phong-Sturm bound {bound:.3g}")
        hist = (outdir / "histogram.csv").read_text().split()
        if int(hist[-1].split(",")[2]) != 2 * k_max + 1:
            problems.append("histogram does not count the 2k+1 degree-k sections")
        return {"ps_gap_ratio": ratio, "accuracy_ratio": ratio}, problems
    report = json.loads((outdir / "report.json").read_text())
    if report["passed"] is not True:
        problems.append("check suite did not pass")
    lin = next(c["measured"] for c in report["checks"] if c["name"] == "energy_linearity")
    return {"energy_linearity_measured": lin, "accuracy_ratio": lin}, problems
