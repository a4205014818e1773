"""End-to-end verification gate.

One test per criterion; each asserts the measured quantity against its
pinned bound and the wall-clock budget.  The bounds live in
georay.checks so the CLI ``check`` command and this file can never
disagree.
"""

import json
import re

import pytest

from georay.checks import (
    check_cocycle,
    check_contact_concentration,
    check_energy_dual,
    check_energy_linearity,
    check_fast_vs_brute,
    check_involution,
    check_limit_curve_convergence,
    check_lse_sandwich,
    check_moments,
    check_phong_sturm,
    check_ray_equality,
    check_total_mass,
    check_trivial_configuration,
)
from georay.cli import main


def _assert_pass(record):
    assert record["passed"], (
        f"{record['name']}: measured {record['measured']:.6g} "
        f"exceeds bound {record['bound']:.6g}"
    )
    assert record["seconds"] < record["limit_seconds"], (
        f"{record['name']}: took {record['seconds']:.2f}s "
        f"(budget {record['limit_seconds']}s)"
    )


def test_01_legendre_involution():
    _assert_pass(check_involution())


def test_02_fast_vs_brute_transform():
    _assert_pass(check_fast_vs_brute())


def test_03_ma_total_mass():
    _assert_pass(check_total_mass())


def test_04_energy_dual_equals_quadrature():
    _assert_pass(check_energy_dual())


def test_05_energy_cocycle():
    _assert_pass(check_cocycle())


def test_06_contact_concentration():
    _assert_pass(check_contact_concentration())


def test_07_ray_equality_and_halving():
    _assert_pass(check_ray_equality())


def test_08_energy_linearity():
    _assert_pass(check_energy_linearity())


def test_09_log_sum_exp_sandwich():
    _assert_pass(check_lse_sandwich())


def test_10_phong_sturm_equivalence():
    _assert_pass(check_phong_sturm())


def test_11_trivial_configuration():
    _assert_pass(check_trivial_configuration())


def test_12_concave_transform_moments():
    _assert_pass(check_moments())


def test_13_determinism(tmp_path):
    import time

    t0 = time.perf_counter()
    paths = [tmp_path / n for n in ("a.json", "b.json", "c.json")]
    assert main(["check", "--suite", "all", "--json", str(paths[0])]) == 0
    assert main(["check", "--suite", "all", "--json", str(paths[1])]) == 0
    assert main(["check", "--suite", "all", "--json", str(paths[2])]) == 0
    elapsed = time.perf_counter() - t0

    def strip_timings(raw: bytes) -> bytes:
        return re.sub(rb'"timings": \{.*?\}', b'"timings": {}', raw, flags=re.S)

    blobs = [strip_timings(p.read_bytes()) for p in paths]
    assert blobs[0] == blobs[1], "repeat run is not byte-identical"
    assert blobs[0] == blobs[2], "third run is not byte-identical"
    # sanity: the stripped reports still carry every criterion
    rep = json.loads(blobs[0])
    assert len(rep["checks"]) == 13
    assert elapsed < 60.0


def test_14_limit_curve_convergence():
    _assert_pass(check_limit_curve_convergence())
