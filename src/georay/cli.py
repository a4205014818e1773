"""Command-line front end: ``georay ray | filtration | check``.

Problem files are JSON documents::

    {"kind": "curve" | "dual_u" | "filtration",
     "phi": "<grid-function file>",
     "curve": "<test-curve file>",          (kind curve)
     "u": "<grid-function file on dual>",   (kind dual_u)
     "weights": "<weight-data file>",       (kind filtration)
     "dual": {"lower": [..], "upper": [..], "nodes": [..]},   (optional)
     "t_nodes": 11, "t_max": 1.0}

Unknown keys, such as an old ``lambda`` block, are ignored.  The ray of kind
``dual_u`` is the conjugate of phi* - t u on the base (the dual nodes where u
is finite and phi has slopes), and its ``lambda_c`` the max of u there (a
max of -0.0 is written as 0.0).

A test curve is certified by ``curves.validate`` before any conjugate: its
lambda invariants and, in 1-D, each finite sample convex.  In 1-D, phi is
certified convex and u concave on its finite run by
``grids.require_convex``, each within ``TOL_CONVEX_REL`` times its value
range of its convex (concave) envelope; a failure exits 3 and names the
lambda, the node, x, the deviation and the tolerance, as they apply.  A
bound on the second differences settles most inputs in O(n), without a
hull.  2-D inputs are trusted beyond the lambda invariants, as their test
is a hull that would load scipy.

``filtration`` writes ``gap.csv``, the per-t sup distance from the
Phong-Sturm ray of each degree to the closed-form toric ray
(phi* - t g-hat)*, where g-hat is the concave envelope of the degree-1
weights over their polytope; ``ray.csv``, the Phong-Sturm ray of the largest
degree; and ``histogram.csv``.  A degree whose section matrix is over the
size cap exits 4 before any max-plus closure is built.

``--tol-scale`` (finite and positive) multiplies the tolerances of ``ray``
(the test-curve validation and the linearity verdict) and the bounds of
``check``; ``filtration`` has none to scale.

``check`` runs its checks in forked worker processes, one per available
CPU; the ``timings`` of its report are measured inside each worker, and
its memory is spread over the processes.  The suite and the process pool
are imported only by ``check``.  ``ray`` writes ``ray.csv`` from a forked
process while it computes the energies, on 2 or more CPUs and for a ray
of at least ``_FORK_MIN_VALUES`` values (frames times nodes); otherwise
it writes ``ray.csv`` first, in-process.  The outputs are byte-identical
either way; a forked write builds the CSV text in the child, whose memory
the command's own peak RSS does not count.  Both commands count CPUs by
``grids.fork_cpus``, which honours the process's CPU affinity.

Every rejection is an exception that ``main`` reports on stderr.  Exit
codes: 0 success, 2 parse error, 3 validation failure, 4 resource limit.
Output is deterministic: identical inputs give byte-identical files (apart
from the ``timings`` of ``check``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import serialization as ser
from .curves import concave_transform, validate
from .errors import DomainError, ParseError, ResourceError
from .filtration import BergmanInstance, equivalence_check, weight_histogram
from .grids import (
    NEG_INF, Box, Grid, GridFunction, fork_cpus, require_convex, require_within_cap,
)
from .legendre import _require_finite, check_dual_contains_slopes, default_dual_grid, slope_regions
from .monge_ampere import _energy_dual_grid
from .rays import energy_linearity, ray_dual, ray_from_curve


def _load_spec(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read spec: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno) from exc
    if not isinstance(doc, dict):
        raise ParseError("spec must be a JSON object", line=1, column=1)
    if doc.get("kind") not in ("curve", "dual_u", "filtration"):
        raise ParseError("kind must be one of curve, dual_u, filtration")
    return doc


def _read_spec_file(specdir: Path, doc: dict, key: str) -> str:
    """The text of the file named by the spec's ``key``, relative to ``specdir``."""
    if key not in doc:
        raise ParseError(f"spec has no {key!r} file")
    if not isinstance(doc[key], str):
        raise ParseError(f"{key} must be a file path string, not {doc[key]!r}")
    return (specdir / doc[key]).read_text()


def _grid_from_block(block) -> Grid:
    try:
        nodes = tuple(block["nodes"])
        if not all(type(m) is int for m in nodes):  # bool is no node count
            raise TypeError(f"nodes must be integers, not {block['nodes']!r}")
        for key in ("lower", "upper"):
            if not all(type(v) in (int, float) for v in block[key]):  # JSON numbers only
                raise TypeError(f"{key} must be numbers, not {block[key]!r}")
        return Grid(Box(tuple(block["lower"]), tuple(block["upper"])), nodes)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed grid block: {exc}") from exc


def _t_grid(doc, grid: Grid) -> np.ndarray:
    """The spec's t grid; a frame per t on ``grid``."""
    n, tmax = doc.get("t_nodes", 11), doc.get("t_max", 1.0)
    if type(n) is not int or n < 2:
        raise ParseError(f"t_nodes must be an integer >= 2, not {n!r}")
    if type(tmax) not in (int, float) or not 0 < tmax < np.inf:
        raise ParseError(f"t_max must be a finite number > 0, not {tmax!r}")
    require_within_cap("t grid", n, grid.num_nodes)
    return np.linspace(0.0, float(tmax), n)


# the smallest ray (frames x nodes) whose CSV a forked child writes: the
# fork, the reap and the copy-on-write faults cost a few ms, which smaller
# rays do not reliably win back (break-even measured on 2 CPUs, CHANGES.md)
_FORK_MIN_VALUES = 8192


@contextmanager
def _ray_csv_written(path: Path, ray):
    """Write ``ray``'s CSV to ``path`` before the body runs or, for a ray of
    at least ``_FORK_MIN_VALUES`` values where ``fork_cpus`` allows, from a
    forked child while it runs.  The child is reaped when the body ends, on
    every path, so ``path`` is complete when this exits; a failed write
    raises ``OSError`` with the child's message once the body is done."""
    pid = None
    if ray.values.size >= _FORK_MIN_VALUES and fork_cpus() >= 2:
        r, w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(r)
            os.close(w)
    if pid is None:
        path.write_text(ser.dump_ray_csv(ray))
        yield
        return
    if pid == 0:
        _write_and_exit(path, ray, r, w)
    os.close(w)
    try:
        yield
    finally:
        with os.fdopen(r, "rb") as pipe:
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            message = pipe.read().decode()
    if status:
        raise OSError(message or f"cannot write {path}: writer exit status {status}")


def _write_and_exit(path: Path, ray, r: int, w: int):
    """The forked child: write the CSV, send an error's message down the
    pipe, and leave without running the parent's exit handlers."""
    status = 1
    try:
        os.close(r)
        path.write_text(ser.dump_ray_csv(ray))
        status = 0
    except Exception as exc:
        os.write(w, str(exc).encode()[:4096])
    finally:
        os._exit(status)


def cmd_ray(spec_path: str, out_dir: str, tol_scale: float = 1.0) -> int:
    doc = _load_spec(spec_path)
    if doc["kind"] not in ("curve", "dual_u"):
        raise ParseError("ray command needs kind curve or dual_u")
    specdir = Path(spec_path).parent
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    if doc["kind"] == "curve":
        tc = ser.load_test_curve(_read_spec_file(specdir, doc, "curve"))
        ts = _t_grid(doc, tc.grid)
        phi = tc.head
        if "phi" in doc:
            phi = ser.load_grid_function(_read_spec_file(specdir, doc, "phi"))
        validate(tc, tol_scale)
        if tc.grid.dim == 1:
            require_convex("phi", phi)
        ray = ray_from_curve(tc, ts)
        # the predicted energy slope: u of the curve on phi's energy grid
        u = concave_transform(tc, _energy_dual_grid(phi))
        lambda_c = tc.lambda_c
    else:
        phi = ser.load_grid_function(_read_spec_file(specdir, doc, "phi"))
        ts = _t_grid(doc, phi.grid)
        dual = _grid_from_block(doc["dual"]) if "dual" in doc else default_dual_grid(phi)
        uf = ser.load_grid_function(_read_spec_file(specdir, doc, "u"))
        if uf.grid != dual:
            raise DomainError("u is not sampled on the dual grid")
        _require_finite(phi.grid, phi.values)
        check_dual_contains_slopes(phi, dual)
        if phi.grid.dim == 1:
            require_convex("phi", phi)
            require_convex("u", uf, concave=True)
        # phi is conjugated on the dual grid once: its slope region and phi*,
        # from which the ray is the conjugate of phi* - t u
        mask, phistar, _ = next(slope_regions(phi.grid, phi.values[None], dual))
        u = GridFunction(dual, np.where(mask, uf.values, NEG_INF))
        ray = ray_dual(GridFunction(dual, phistar), u, phi.grid, ts)
        lambda_c = float(u.values.max())

    with _ray_csv_written(out / "ray.csv", ray):
        rep = energy_linearity(ray, phi, u)
    energy = {
        "slope": rep.slope,
        "intercept": rep.intercept,
        "max_abs_residual": rep.max_abs_residual,
        "predicted_slope": rep.predicted_slope,
        # + 0.0 turns a max of -0.0 (u = -|y| at y = 0) into 0.0
        "lambda_c": lambda_c + 0.0,
    }
    (out / "energy.json").write_text(json.dumps(energy, indent=1, sort_keys=True) + "\n")
    linear = rep.max_abs_residual <= 1e-2 * tol_scale * max(abs(rep.slope), 1e-30)
    (out / "linearity.json").write_text(
        json.dumps({"linear": bool(linear)}, sort_keys=True) + "\n"
    )
    return 0


def cmd_filtration(spec_path: str, out_dir: str, k_list) -> int:
    doc = _load_spec(spec_path)
    if doc["kind"] != "filtration":
        raise ParseError("filtration command needs kind filtration")
    specdir = Path(spec_path).parent
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    phi = ser.load_grid_function(_read_spec_file(specdir, doc, "phi"))
    if phi.grid.dim == 1:
        require_convex("phi", phi)
    dual = _grid_from_block(doc["dual"]) if "dual" in doc else default_dual_grid(phi)
    data = ser.load_weight_data(_read_spec_file(specdir, doc, "weights"))
    inst = BergmanInstance(phi, dual)
    ts = _t_grid(doc, phi.grid)
    rows = ["k,t,gap"]
    table, rays = equivalence_check(inst, data, ts, k_list)
    for k, gaps in zip(k_list, table):
        for t, g in zip(ts, gaps):
            rows.append(f"{k},{repr(float(t))},{repr(float(g))}")
    (out / "gap.csv").write_text("\n".join(rows) + "\n")
    k_max = k_list[-1]
    (out / "ray.csv").write_text(ser.dump_ray_csv(rays[-1]))
    vals, counts, cum = weight_histogram(data, k_max)
    (out / "histogram.csv").write_text(ser.dump_histogram_csv(vals, counts, cum))
    return 0


def cmd_check(suite: str, json_path: str | None, tol_scale: float = 1.0) -> int:
    from .checks import SUITES, run_suite

    if suite not in SUITES:
        raise ParseError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    rep = run_suite(suite, tol_scale)
    timings = {r["name"]: r.pop("seconds") for r in rep["checks"]}
    for r in rep["checks"]:
        r.pop("limit_seconds")
    report = {
        "suite": rep["suite"],
        "passed": rep["passed"],
        "checks": rep["checks"],
        "timings": timings,
    }
    text = json.dumps(report, indent=1, sort_keys=True) + "\n"
    if json_path:
        Path(json_path).write_text(text)
    else:
        sys.stdout.write(text)
    return 0 if rep["passed"] else 3


def _parse_k_list(text: str) -> list[int]:
    """The distinct degrees of a comma-separated list, ascending."""
    try:
        ks = [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ParseError(f"bad degree list {text!r}") from None
    if not ks or any(k < 1 for k in ks):
        raise ParseError("degrees must be positive integers")
    return sorted(set(ks))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="georay", description="geodesic rays from convex envelopes"
    )
    parser.add_argument(
        "--tol-scale", type=float, default=1.0, help="multiply every tolerance"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ray = sub.add_parser("ray", help="build a geodesic ray from a problem file")
    p_ray.add_argument("--spec", required=True)
    p_ray.add_argument("--out", required=True)

    p_fil = sub.add_parser("filtration", help="Bergman rays from weight data")
    p_fil.add_argument("--spec", required=True)
    p_fil.add_argument("--out", required=True)
    p_fil.add_argument("--k", default="4,8,16,32", help="comma-separated degrees")

    p_chk = sub.add_parser("check", help="run the verification suite")
    p_chk.add_argument("--suite", default="all")
    p_chk.add_argument("--json", default=None, help="write the report here")

    args = parser.parse_args(argv)
    try:
        if not 0.0 < args.tol_scale < np.inf:
            raise ParseError(f"--tol-scale must be finite and positive, not {args.tol_scale!r}")
        if args.command == "ray":
            return cmd_ray(args.spec, args.out, args.tol_scale)
        if args.command == "filtration":
            return cmd_filtration(args.spec, args.out, _parse_k_list(args.k))
        return cmd_check(args.suite, args.json, args.tol_scale)
    except ParseError as exc:
        loc = ""
        if exc.line is not None:
            loc = f" (line {exc.line}" + (
                f", column {exc.column})" if exc.column is not None else ")"
            )
        print(f"parse error{loc}: {exc}", file=sys.stderr)
        return 2
    except ResourceError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 4
    except (DomainError, OSError) as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
