import hashlib
import json
import multiprocessing
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import georay
from georay import checks, cli, curves, filtration, grids, rays
from georay import serialization as ser
from georay.cli import main
from georay.errors import DomainError
from georay.filtration import WeightedLatticeData
from georay.grids import SIZE_CAP, Box, Grid, GridFunction
from georay.instances import filtration_base, huber_instance, linear_growth_bowl
from georay.legendre import default_dual_grid
from test_legendre import noisy_bowl_2d, slope_mask


@pytest.fixture(scope="module")
def specdir(tmp_path_factory, three_point, simplex_2d):
    d = tmp_path_factory.mktemp("specs")
    inst = huber_instance(nodes=65, lambda_spacing=0.125)
    (d / "phi.gf").write_text(ser.dump_grid_function(inst.phi))
    (d / "u.gf").write_text(ser.dump_grid_function(inst.u))
    (d / "curve.tc").write_text(ser.dump_test_curve(inst.curve))
    dual = inst.dual
    (d / "huber.spec").write_text(
        json.dumps(
            {
                "kind": "dual_u",
                "phi": "phi.gf",
                "u": "u.gf",
                "dual": {
                    "lower": list(dual.box.lower),
                    "upper": list(dual.box.upper),
                    "nodes": list(dual.nodes_per_axis),
                },
                "lambda": {"min": -1.0, "max": 0.0, "spacing": 0.125},
                "t_nodes": 11,
            }
        )
    )
    (d / "curve.spec").write_text(
        json.dumps({"kind": "curve", "curve": "curve.tc", "t_nodes": 5})
    )
    base = filtration_base(65)
    (d / "base.gf").write_text(ser.dump_grid_function(base))
    data = WeightedLatticeData(np.array([[0], [1]]), np.array([0, 1]))
    (d / "w01.wd").write_text(ser.dump_weight_data(data))
    (d / "weights01.spec").write_text(
        json.dumps({"kind": "filtration", "phi": "base.gf", "weights": "w01.wd"})
    )
    inst012, data012 = three_point
    (d / "base012.gf").write_text(ser.dump_grid_function(inst012.phi))
    (d / "p012.wd").write_text(ser.dump_weight_data(data012))
    (d / "p012.spec").write_text(
        json.dumps({"kind": "filtration", "phi": "base012.gf", "weights": "p012.wd"})
    )
    g2 = Grid(Box((-3.0, -3.0), (3.0, 3.0)), (17, 17))
    bowl = GridFunction.from_callable(g2, lambda x, y: np.hypot(x, y) ** 2 / 4 + x / 8)
    dual2 = default_dual_grid(bowl, 17)
    u2 = GridFunction.from_callable(dual2, lambda y1, y2: -(abs(y1) + abs(y2)) / 2)
    (d / "bowl2.gf").write_text(ser.dump_grid_function(bowl))
    (d / "u2.gf").write_text(ser.dump_grid_function(u2))
    (d / "bowl2.spec").write_text(
        json.dumps({"kind": "dual_u", "phi": "bowl2.gf", "u": "u2.gf", "t_nodes": 3})
    )
    noisy = noisy_bowl_2d()
    u_noisy = GridFunction.from_callable(default_dual_grid(noisy), lambda y1, y2: -(abs(y1) + abs(y2)) / 2)
    (d / "noisy2.gf").write_text(ser.dump_grid_function(noisy))
    (d / "u_noisy2.gf").write_text(ser.dump_grid_function(u_noisy))
    (d / "noisy2.spec").write_text(
        json.dumps({"kind": "dual_u", "phi": "noisy2.gf", "u": "u_noisy2.gf", "t_nodes": 3})
    )
    inst2, data2 = simplex_2d
    (d / "simplex2.gf").write_text(ser.dump_grid_function(inst2.phi))
    (d / "p2d.wd").write_text(ser.dump_weight_data(data2))
    dual2d = {"lower": list(inst2.dual.box.lower), "upper": list(inst2.dual.box.upper),
              "nodes": list(inst2.dual.nodes_per_axis)}
    (d / "weights2d.spec").write_text(
        json.dumps({"kind": "filtration", "phi": "simplex2.gf", "weights": "p2d.wd", "dual": dual2d})
    )
    (d / "malformed.spec").write_text(
        json.dumps({"kind": "dual_u", "phi": "phi.gf", "u": "u.gf", "dual": {"lower": [0.0]}})
    )
    (d / "notjson.spec").write_text("{kind: curve")
    return d


BOWL2_SHA256 = {
    "ray.csv": "c926fd2050ae57c4058fdd3149cf6850a9125e85b06ce62159bb2bbbce1df99b",
    "energy.json": "8d9c8c41be2df59ff16cddb0f5e74f16e8c2ef95a9e6cd7d44382649b38be5e0",
    "linearity.json": "bf449ae1014e66046ce17632eff8f25040b81bd0feacd39f99fe1c62184853db",
}

# the noisy 2-D bowl, whose slope mask is the convex fill of gapped rows
NOISY2_SHA256 = {
    "ray.csv": "d35dac4f4875fdc0ba11122a4e9d5d3812e3a118d5a89b637f880c240043d30d",
    "energy.json": "d24966fd43e3289049d8c09b7ebece01c22d1ab1e9ee93d146223a009c9b9c1c",
    "linearity.json": "6cc50f4f6014ade529afcce241ee9a06b3215b0cabde83c0683a7ba9593491c8",
}

# the 1-D dual_u fixture, whose u = -|y| peaks at -0.0 on the node y = 0
HUBER_SHA256 = {
    "ray.csv": "5fc4efdc5172136b4f409d0a934a1e2cea0811170efeff2aa43e5ee06a700d5d",
    "energy.json": "c17de3f27256eba468f67780f1ca00e05f62c50716f38aaf7f9430f972374b30",
    "linearity.json": "bf449ae1014e66046ce17632eff8f25040b81bd0feacd39f99fe1c62184853db",
}

# kind curve keeps the lambda route: these bytes must not move
CURVE_SHA256 = {
    "ray.csv": "68028c036a8c7f613321f41c738324016f60a19454511a337bc031b092b193e5",
    "energy.json": "0394f47c309af131ddcda252f52d0500ea5db4f300df7e08d2aad6e70b5b00fa",
    "linearity.json": "bf449ae1014e66046ce17632eff8f25040b81bd0feacd39f99fe1c62184853db",
}


def _spec_elsewhere(specdir, spec, path, **update):
    """Copy a fixture spec to ``path`` with absolute payload paths, update its
    keys and drop those updated to None; returns ``path`` as a string."""
    doc = json.loads((specdir / spec).read_text())
    for key in ("phi", "u", "curve", "weights"):
        if key in doc:
            doc[key] = str(specdir / doc[key])
    doc.update(update)
    path.write_text(json.dumps({k: v for k, v in doc.items() if v is not None}))
    return str(path)


def _dent(x):
    """A smooth dent 5e-6 cos^2(pi (x - 2) / 2) on |x - 2| < 1.  Where a
    function is linear, the dent stands about 2000 times the convexity
    tolerance above its envelope, while on 513 nodes of [-3, 3] its second
    differences stay within the tolerance."""
    return np.where(np.abs(x - 2.0) < 1.0, 5e-6 * np.cos(np.pi * (x - 2.0) / 2) ** 2, 0.0)


def _dented(f: GridFunction) -> GridFunction:
    return GridFunction(f.grid, f.values - _dent(f.grid.axis(0)))


def _run_1d_dual_u(tmp_path, phi_values, u_of_y):
    """``ray`` on a dual_u spec over a 513-node Huber bowl with the given
    values and u(y) on its default dual grid; returns the exit code."""
    phi = linear_growth_bowl(513)
    phi = GridFunction(phi.grid, phi_values(phi.values))
    dual = default_dual_grid(phi)
    (tmp_path / "phi.gf").write_text(ser.dump_grid_function(phi))
    u = GridFunction.from_callable(dual, u_of_y)
    (tmp_path / "u.gf").write_text(ser.dump_grid_function(u))
    spec = tmp_path / "p.spec"
    spec.write_text(json.dumps({"kind": "dual_u", "phi": "phi.gf", "u": "u.gf"}))
    return main(["ray", "--spec", str(spec), "--out", str(tmp_path / "o")])


class TestRayCommand:
    def test_dual_u_spec(self, specdir, tmp_path):
        out = tmp_path / "out"
        assert main(["ray", "--spec", str(specdir / "huber.spec"), "--out", str(out)]) == 0
        energy = json.loads((out / "energy.json").read_text())
        assert energy["slope"] < 0
        rows = (out / "ray.csv").read_text().strip().splitlines()
        assert rows[0] == "t,x0,value"
        assert len(rows) == 1 + 11 * 65
        for row in rows[1:]:
            [float(field) for field in row.split(",")]  # every field parses

    def test_curve_spec(self, specdir, tmp_path):
        out = tmp_path / "out"
        assert main(["ray", "--spec", str(specdir / "curve.spec"), "--out", str(out)]) == 0
        assert (out / "energy.json").exists()

    def test_malformed_grid_block_exit_2(self, specdir, tmp_path):
        rc = main(
            ["ray", "--spec", str(specdir / "malformed.spec"), "--out", str(tmp_path / "o")]
        )
        assert rc == 2

    def test_invalid_json_exit_2(self, specdir, tmp_path):
        rc = main(
            ["ray", "--spec", str(specdir / "notjson.spec"), "--out", str(tmp_path / "o")]
        )
        assert rc == 2

    # each count times its grid's nodes is over the cap, so the command must
    # stop before it allocates the grid
    @pytest.mark.parametrize(
        "spec, update, what",
        [
            ("huber.spec", {"t_nodes": 10**13}, "t grid of 10000000000000 x 65 nodes"),
            ("curve.spec", {"t_nodes": 10**13}, "t grid of 10000000000000 x 65 nodes"),
        ],
        ids=["t", "t-curve"],
    )
    def test_grid_over_cap_exit_4(self, specdir, tmp_path, capsys, spec, update, what):
        path = _spec_elsewhere(specdir, spec, tmp_path / "big.spec", **update)
        assert main(["ray", "--spec", path, "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert f"{what} exceeds the size cap {SIZE_CAP}" in err

    def test_lambda_block_is_ignored(self, specdir, tmp_path):
        # no lambda grid builds a dual_u ray: a spec's lambda block, which
        # older specs carry, changes no byte of the outputs
        got = []
        for name, lam in (("with", {"min": -1.0, "max": 0.0, "spacing": 1e-13}), ("without", None)):
            path = _spec_elsewhere(specdir, "huber.spec", tmp_path / f"{name}.spec", **{"lambda": lam})
            assert main(["ray", "--spec", path, "--out", str(tmp_path / name)]) == 0
            got.append({f: (tmp_path / name / f).read_bytes() for f in BOWL2_SHA256})
        assert got[0] == got[1]

    def test_curve_output_bytes(self, specdir, tmp_path):
        out = tmp_path / "out"
        assert main(["ray", "--spec", str(specdir / "curve.spec"), "--out", str(out)]) == 0
        got = {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in CURVE_SHA256}
        assert got == CURVE_SHA256

    @pytest.mark.parametrize(
        "spec, u_of_y, pin",
        [
            ("huber.spec", lambda y: -np.abs(y), HUBER_SHA256),
            ("bowl2.spec", lambda y1, y2: -(np.abs(y1) + np.abs(y2)) / 2, BOWL2_SHA256),
        ],
        ids=["1d", "2d"],
    )
    def test_u_off_the_slope_region_changes_no_byte(self, specdir, tmp_path, spec, u_of_y, pin):
        # the ray, its energy and lambda_c read u only on phi's slope region
        doc = json.loads((specdir / spec).read_text())
        phi = ser.load_grid_function((specdir / doc["phi"]).read_text())
        dual = ser.load_grid_function((specdir / doc["u"]).read_text()).grid
        u, region = GridFunction.from_callable(dual, u_of_y), slope_mask(phi, dual)
        assert not region.all()
        got = []
        for name, vals in (("finite", u.values), ("cut", np.where(region, u.values, -np.inf))):
            (tmp_path / f"{name}.gf").write_text(ser.dump_grid_function(GridFunction(dual, vals)))
            path = _spec_elsewhere(specdir, spec, tmp_path / f"{name}.spec", u=str(tmp_path / f"{name}.gf"))
            assert main(["ray", "--spec", path, "--out", str(tmp_path / name)]) == 0
            got.append({f: hashlib.sha256((tmp_path / name / f).read_bytes()).hexdigest() for f in pin})
        assert got[0] == got[1] == pin

    def test_dual_u_lambda_c_is_max_of_u(self, specdir, tmp_path):
        out = tmp_path / "out"
        assert main(["ray", "--spec", str(specdir / "bowl2.spec"), "--out", str(out)]) == 0
        u = ser.load_grid_function((specdir / "u2.gf").read_text())
        phi = ser.load_grid_function((specdir / "bowl2.gf").read_text())
        base = slope_mask(phi, u.grid)
        assert json.loads((out / "energy.json").read_text())["lambda_c"] == u.values[base].max()

    # a 2e-3 bump at the bottom of the bowl stands 2e-3 - h^2/2 above its
    # chord; the W's peaks stand about 0.5 above its concave envelope
    @pytest.mark.parametrize(
        "phi_values, u_of_y, message",
        [
            (lambda v: v + 2e-3 * (np.arange(v.size) == 256), lambda y: -np.abs(y),
             "phi is not convex at node 256 (x = 0): deviation 0.00193134 > 2.49993e-09"),
            (lambda v: v, lambda y: np.abs(np.abs(y) - 0.5) - 1.0,
             "u is not concave at node 128 (x = -0.501961): deviation 0.501961 > 5.01961e-10"),
            (lambda v: v, lambda y: np.where(np.abs(y) < 0.01, -np.inf, -np.abs(y)),
             "u is -inf at node 254, inside its finite run"),
        ],
        ids=["phi-bump", "u-W", "u-hole"],
    )
    def test_1d_input_not_convex_exit_3(self, tmp_path, capsys, phi_values, u_of_y, message):
        assert _run_1d_dual_u(tmp_path, phi_values, u_of_y) == 3
        assert capsys.readouterr().err == f"validation failure: {message}\n"
        assert not (tmp_path / "o" / "ray.csv").exists()

    def test_1d_convex_inputs_pass(self, tmp_path):
        assert _run_1d_dual_u(tmp_path, lambda v: v, lambda y: -np.abs(y)) == 0

    def test_dented_phi_exit_3(self, tmp_path, capsys):
        # every second difference of the dent is within the tolerance
        dented = lambda v: v - _dent(np.linspace(-3.0, 3.0, v.size))
        assert _run_1d_dual_u(tmp_path, dented, lambda y: -np.abs(y)) == 3
        assert "validation failure: phi is not convex at node" in capsys.readouterr().err
        assert not any((tmp_path / "o").iterdir())

    def test_dented_curve_sample_exit_3(self, specdir, tmp_path, capsys):
        tc = ser.load_test_curve((specdir / "curve.tc").read_text())
        samples = tc.values.copy()
        samples[4] = _dented(GridFunction(tc.grid, samples[4])).values
        assert tc.lambdas[4] == -0.5
        (tmp_path / "c.tc").write_text(
            ser.dump_test_curve(curves.TestCurve(tc.lambdas, tc.grid, samples, tc.lambda_head, tc.lambda_c))
        )
        spec = _spec_elsewhere(specdir, "curve.spec", tmp_path / "p.spec", curve=str(tmp_path / "c.tc"))
        assert main(["ray", "--spec", spec, "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("validation failure: curve sample at lambda=-0.5 is not convex at node ")
        assert not any((tmp_path / "o").iterdir())

    def test_curve_samples_on_two_grids_exit_3(self, specdir, tmp_path, capsys):
        tc = ser.load_test_curve((specdir / "curve.tc").read_text())
        head = GridFunction(tc.grid, tc.values[0])
        moved = GridFunction(Grid(Box((-2.0,), (2.0,)), tc.grid.shape), tc.values[1])
        lam = " ".join(repr(float(v)) for v in tc.lambdas[:2])
        (tmp_path / "c.tc").write_text(
            f"testcurve 1\nlambdas {lam}\nlambda_head {lam.split()[0]}\nlambda_c {lam.split()[1]}\n"
            + ser.dump_grid_function(head) + ser.dump_grid_function(moved)
        )
        spec = _spec_elsewhere(specdir, "curve.spec", tmp_path / "p.spec", curve=str(tmp_path / "c.tc"))
        assert main(["ray", "--spec", spec, "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == (
            "validation failure: test curve samples on different grids "
            "(first at lambda=-0.875)\n"
        )
        assert not any((tmp_path / "o").iterdir())

    # lambda_c nan was written to energy.json as NaN, which is not JSON
    @pytest.mark.parametrize("field, value", [("lambda_c", "nan"), ("lambda_head", "inf")])
    def test_non_finite_lambda_exit_3(self, specdir, tmp_path, capsys, field, value):
        text = (specdir / "curve.tc").read_text()
        text = re.sub(f"^{field} .*$", f"{field} {value}", text, count=1, flags=re.M)
        (tmp_path / "c.tc").write_text(text)
        spec = _spec_elsewhere(specdir, "curve.spec", tmp_path / "p.spec", curve=str(tmp_path / "c.tc"))
        assert main(["ray", "--spec", spec, "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == (
            "validation failure: test curve lambdas, lambda_head and lambda_c must be finite\n"
        )
        assert not any((tmp_path / "o").iterdir())

    def test_broken_curve_invariant_exit_3(self, specdir, tmp_path, capsys):
        text = (specdir / "curve.tc").read_text()
        (tmp_path / "c.tc").write_text(re.sub("^lambda_c .*$", "lambda_c -0.5", text, flags=re.M))
        spec = _spec_elsewhere(specdir, "curve.spec", tmp_path / "p.spec", curve=str(tmp_path / "c.tc"))
        assert main(["ray", "--spec", spec, "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == (
            "validation failure: finite sample at lambda=-0.375 past lambda_c=-0.5\n"
        )
        assert not any((tmp_path / "o").iterdir())

    # the fixture's lambda grid ends at 0, every sample finite: lambda_c 7.5
    # was accepted and written to energy.json
    @pytest.mark.parametrize("value", ["7.5", "0.0625"])
    def test_lambda_c_past_last_finite_sample_exit_3(self, specdir, tmp_path, capsys, value):
        text = (specdir / "curve.tc").read_text()
        (tmp_path / "c.tc").write_text(re.sub("^lambda_c .*$", f"lambda_c {value}", text, flags=re.M))
        spec = _spec_elsewhere(specdir, "curve.spec", tmp_path / "p.spec", curve=str(tmp_path / "c.tc"))
        assert main(["ray", "--spec", spec, "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == (
            f"validation failure: lambda_c={float(value):g} past the last finite sample, at lambda=0\n"
        )
        assert not any((tmp_path / "o").iterdir())

    @pytest.mark.parametrize("spec", ["huber.spec", "curve.spec"])
    def test_certifies_1d_inputs_without_hull(self, specdir, tmp_path, monkeypatch, spec):
        # the second-difference bound certifies the fixtures' phi, u and curve
        # samples in O(n): no hull is built
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return grids.lower_envelope(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("georay.") and getattr(module, "lower_envelope", None) is grids.lower_envelope:
                monkeypatch.setattr(module, "lower_envelope", counted)
        assert main(["ray", "--spec", str(specdir / spec), "--out", str(tmp_path / "o")]) == 0
        assert calls == []

    def test_2d_output_bytes(self, specdir, tmp_path):
        # SHA-256 of every output of the 2-D fixture, whose ray is the
        # conjugate of phi* - t u
        out = tmp_path / "out"
        assert main(["ray", "--spec", str(specdir / "bowl2.spec"), "--out", str(out)]) == 0
        got = {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in BOWL2_SHA256}
        assert got == BOWL2_SHA256

    def test_2d_noisy_bowl_output_bytes(self, specdir, tmp_path):
        out = tmp_path / "out"
        assert main(["ray", "--spec", str(specdir / "noisy2.spec"), "--out", str(out)]) == 0
        got = {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in NOISY2_SHA256}
        assert got == NOISY2_SHA256

    def test_huber_output_bytes(self, specdir, tmp_path):
        out = tmp_path / "out"
        assert main(["ray", "--spec", str(specdir / "huber.spec"), "--out", str(out)]) == 0
        got = {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in HUBER_SHA256}
        assert got == HUBER_SHA256

    def test_lambda_c_negative_zero_written_as_zero(self, specdir, tmp_path):
        u = ser.load_grid_function((specdir / "u.gf").read_text())
        assert np.signbit(u.values.max())  # the max of u is -0.0
        out = tmp_path / "out"
        assert main(["ray", "--spec", str(specdir / "huber.spec"), "--out", str(out)]) == 0
        assert '"lambda_c": 0.0,' in (out / "energy.json").read_text()

    # a missing or non-string file key, a non-numeric t grid and non-integer
    # dual nodes are parse errors, not tracebacks
    @pytest.mark.parametrize(
        "command, spec, update",
        [
            ("ray", "huber.spec", {"u": None}),
            ("ray", "huber.spec", {"phi": None}),
            ("ray", "curve.spec", {"curve": None}),
            ("filtration", "weights01.spec", {"phi": None}),
            ("filtration", "weights01.spec", {"weights": None}),
            ("ray", "huber.spec", {"u": 3}),
            ("ray", "curve.spec", {"curve": ["curve.tc"]}),
            ("ray", "curve.spec", {"phi": {"file": "phi.gf"}}),
            ("filtration", "weights01.spec", {"weights": 1.5}),
            ("ray", "huber.spec", {"t_nodes": "eleven"}),
            ("ray", "huber.spec", {"t_nodes": 2.5}),
            ("ray", "curve.spec", {"t_max": "1.0"}),
            ("filtration", "weights01.spec", {"t_max": [1.0]}),
            ("ray", "huber.spec", {"dual": {"lower": [-2.0], "upper": [2.0], "nodes": [65.5]}}),
            ("ray", "huber.spec", {"dual": {"lower": [-2.0], "upper": [2.0], "nodes": ["65"]}}),
            ("filtration", "weights01.spec",
             {"dual": {"lower": [-0.5], "upper": [1.5], "nodes": [True]}}),
        ],
    )
    def test_malformed_field_exit_2(self, specdir, tmp_path, capsys, command, spec, update):
        path = _spec_elsewhere(specdir, spec, tmp_path / "bad.spec", **update)
        assert main([command, "--spec", path, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("parse error: ")

    # a bound that is no JSON number is not read through float(): a string
    # gave the same box as the number it spells, and true gave 1.0; a scalar
    # where a list belongs was reported as "'float' object is not iterable"
    @pytest.mark.parametrize("key", ["lower", "upper", "nodes"])
    @pytest.mark.parametrize("bound", ["str", True, "scalar"], ids=["string", "bool", "scalar"])
    def test_dual_bound_not_a_number_exit_2(self, specdir, tmp_path, capsys, key, bound):
        dual = json.loads((specdir / "huber.spec").read_text())["dual"]
        if bound == "scalar":
            dual[key], want = dual[key][0], "a list"
        else:
            dual[key] = [str(dual[key][0]) if bound == "str" else bound]
            want = "integers" if key == "nodes" else "numbers"
        path = _spec_elsewhere(specdir, "huber.spec", tmp_path / "bad.spec", dual=dual)
        assert main(["ray", "--spec", path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err == f"parse error: malformed grid block: {key} must be {want}, not {dual[key]!r}\n"

    def test_curve_with_phi_on_another_grid_exit_3(self, specdir, tmp_path, capsys):
        # the mismatch was found only by the energies, after ray.csv was written
        tc = ser.load_test_curve((specdir / "curve.tc").read_text())
        phi = linear_growth_bowl(33)
        (tmp_path / "phi33.gf").write_text(ser.dump_grid_function(phi))
        spec = _spec_elsewhere(specdir, "curve.spec", tmp_path / "p.spec", phi=str(tmp_path / "phi33.gf"))
        assert main(["ray", "--spec", spec, "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == (
            f"validation failure: phi is on {phi.grid}, the test curve on {tc.grid}\n"
        )
        assert not (tmp_path / "o" / "ray.csv").exists()

    # the dual block of the wrong dimension raised IndexError out of main
    @pytest.mark.parametrize(
        "spec, dual, want",
        [("bowl2.spec", {"lower": [-2.0], "upper": [2.0], "nodes": [17]}, "1-D dual grid for a 2-D function"),
         ("huber.spec", {"lower": [-2.0, -2.0], "upper": [2.0, 2.0], "nodes": [9, 9]},
          "2-D dual grid for a 1-D function")],
        ids=["1d-dual-2d-phi", "2d-dual-1d-phi"],
    )
    def test_dual_of_another_dimension_exit_3(self, specdir, tmp_path, capsys, spec, dual, want):
        # u lies on the dual block, so only the dimension is at fault
        grid = Grid(Box(tuple(dual["lower"]), tuple(dual["upper"])), tuple(dual["nodes"]))
        (tmp_path / "u.gf").write_text(ser.dump_grid_function(GridFunction(grid, np.zeros(grid.shape))))
        path = _spec_elsewhere(specdir, spec, tmp_path / "p.spec", dual=dual, u=str(tmp_path / "u.gf"))
        assert main(["ray", "--spec", path, "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == f"validation failure: {want}\n"
        assert not (tmp_path / "o" / "ray.csv").exists()

    def test_missing_file_exit_3(self, specdir, tmp_path):
        spec = specdir / "missing_payload.spec"
        spec.write_text(json.dumps({"kind": "curve", "curve": "nope.tc"}))
        assert main(["ray", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 3


def _force_writer(monkeypatch, fork: bool) -> list:
    """Send every ray's CSV through the forked writer, or keep it in-process,
    whatever the ray's size and the machine's CPUs; returns the list of the
    pids that ``os.fork`` gave this process."""
    monkeypatch.setattr(cli, "fork_cpus", lambda: 2 if fork else 1)
    monkeypatch.setattr(cli, "_FORK_MIN_VALUES", 0)
    forks, real_fork = [], os.fork

    def counted():
        pid = real_fork()
        forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return forks


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestForkedRayWrite:
    OUTPUTS = ("ray.csv", "energy.json", "linearity.json")

    @pytest.mark.parametrize("spec", ["bowl2.spec", "huber.spec"])
    def test_fork_and_in_process_bytes_agree(self, specdir, tmp_path, monkeypatch, spec):
        got = {}
        for fork in (False, True):
            with monkeypatch.context() as patch:
                forks = _force_writer(patch, fork)
                out = tmp_path / f"fork{fork}"
                assert main(["ray", "--spec", str(specdir / spec), "--out", str(out)]) == 0
            assert len(forks) == fork
            _assert_no_child_left()
            got[fork] = {f: (out / f).read_bytes() for f in self.OUTPUTS}
        assert got[True] == got[False]

    @pytest.mark.parametrize("fork", [False, True], ids=["in-process", "forked"])
    def test_write_failure_exit_3_without_energy(
        self, specdir, tmp_path, monkeypatch, capsys, fork
    ):
        forks = _force_writer(monkeypatch, fork)
        out = tmp_path / "out"
        (out / "ray.csv").mkdir(parents=True)
        assert main(["ray", "--spec", str(specdir / "bowl2.spec"), "--out", str(out)]) == 3
        assert len(forks) == fork
        _assert_no_child_left()
        err = capsys.readouterr().err
        assert err.startswith("validation failure: [Errno 21] Is a directory: ")
        assert str(out / "ray.csv") in err
        assert not (out / "energy.json").exists()

    @pytest.mark.parametrize("fork", [False, True], ids=["in-process", "forked"])
    def test_energy_failure_exit_3_with_ray_complete(
        self, specdir, tmp_path, monkeypatch, capsys, fork
    ):
        def failing(ray, phi, u):
            raise DomainError("energy failed")

        forks = _force_writer(monkeypatch, fork)
        monkeypatch.setattr(cli, "energy_linearity", failing)
        out = tmp_path / "out"
        assert main(["ray", "--spec", str(specdir / "bowl2.spec"), "--out", str(out)]) == 3
        assert len(forks) == fork
        _assert_no_child_left()
        assert capsys.readouterr().err == "validation failure: energy failed\n"
        digest = hashlib.sha256((out / "ray.csv").read_bytes()).hexdigest()
        assert digest == BOWL2_SHA256["ray.csv"]
        assert not (out / "energy.json").exists()

    def test_fork_error_writes_in_process(self, specdir, tmp_path, monkeypatch):
        def no_fork():
            raise OSError("fork refused")

        _force_writer(monkeypatch, True)
        monkeypatch.setattr(os, "fork", no_fork)
        out = tmp_path / "out"
        assert main(["ray", "--spec", str(specdir / "bowl2.spec"), "--out", str(out)]) == 0
        _assert_no_child_left()
        got = {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in BOWL2_SHA256}
        assert got == BOWL2_SHA256

    def test_one_cpu_stays_in_process(self, specdir, tmp_path, monkeypatch):
        # the real rule, in a process pinned to one CPU
        forks = _force_writer(monkeypatch, True)
        monkeypatch.setattr(cli, "fork_cpus", grids.fork_cpus)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        out = tmp_path / "out"
        assert main(["ray", "--spec", str(specdir / "bowl2.spec"), "--out", str(out)]) == 0
        assert forks == []


P012_SHA256 = {
    "gap.csv": "a8e5a4a6988cb646de1b392582be4b60ad11796a985d3dfaaf5585f0bf14ae8e",
    "ray.csv": "d613d53633dca93c8fa3aaa1afda2b8805755eafaf8415d7fbdd8c2d7ff2abff",
    "histogram.csv": "dcfb0eddc773728f760ad6d5efa3b032376bd5be7ac09899dc357ceab08f23c0",
}

W01_SHA256 = {
    "gap.csv": "3b585e9bfda4d33c78bc7cf512f00b01b11945cf2bafbf071bfa6ea95ecf5de9",
    "ray.csv": "3484ad380e0345883bfdd055611d94d6352156c547f1786c4ede459251303e47",
    "histogram.csv": "f68f25a1a01eadd983117959c332499c38d5ac26a1ab6bae06a8296a9d4152dc",
}

# SHA-256 of the `check --suite all` report without its timings, written as
# json.dumps(report, indent=1, sort_keys=True)
CHECK_ALL_SHA256 = "57bddd8f5676c86b087d09d6312cf862ff9acd8070192b9daa94d3baa61066a6"


class TestFiltrationCommand:
    def test_weight_coordinate_over_cap_exit_4(self, specdir, tmp_path, capsys):
        # a coordinate of 10^10 asks for a degree-1 box of 10^10 + 1 nodes
        (tmp_path / "far.wd").write_text("weightdata 1\ndim 1\npoint 0 0\npoint 10000000000 1\n")
        spec = _spec_elsewhere(specdir, "weights01.spec", tmp_path / "p.spec", weights=str(tmp_path / "far.wd"))
        assert main(["filtration", "--spec", spec, "--out", str(tmp_path / "o"), "--k", "4"]) == 4
        what = "degree-1 lattice box of 10000000001 x 1 nodes"
        assert f"{what} exceeds the size cap {SIZE_CAP}" in capsys.readouterr().err

    def test_output_bytes(self, specdir, tmp_path):
        # SHA-256 of every output of the 1-D fixture at the default degrees:
        # pins the 1-D convex envelope of the limit curve
        out = tmp_path / "out"
        spec = str(specdir / "weights01.spec")
        assert main(["filtration", "--spec", spec, "--out", str(out)]) == 0
        got = {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in W01_SHA256}
        assert got == W01_SHA256

    def test_three_point_output_bytes(self, specdir, tmp_path):
        # P1 = {0, 1, 2}, weights (1, 0, 2): tied weights, lambdas that select
        # only part of the lattice and a limit curve whose rows are not re-hulled
        out = tmp_path / "out"
        spec = str(specdir / "p012.spec")
        assert main(["filtration", "--spec", spec, "--out", str(out), "--k", "4,8,16"]) == 0
        got = {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in P012_SHA256}
        assert got == P012_SHA256

    def test_outputs(self, specdir, tmp_path):
        out = tmp_path / "out"
        rc = main(
            [
                "filtration",
                "--spec",
                str(specdir / "weights01.spec"),
                "--out",
                str(out),
                "--k",
                "4,8",
            ]
        )
        assert rc == 0
        gaps = (out / "gap.csv").read_text().strip().splitlines()
        assert gaps[0] == "k,t,gap"
        assert (out / "ray.csv").exists()
        assert (out / "histogram.csv").read_text().startswith("lambda,dim_V,dim_F")

    def test_gap_decreases_in_k(self, specdir, tmp_path):
        out = tmp_path / "out"
        main(
            [
                "filtration",
                "--spec",
                str(specdir / "weights01.spec"),
                "--out",
                str(out),
                "--k",
                "4,16",
            ]
        )
        rows = [r.split(",") for r in (out / "gap.csv").read_text().strip().splitlines()[1:]]
        by_k = {}
        for k, _, gap in rows:
            by_k.setdefault(int(k), []).append(float(gap))
        assert max(by_k[16]) < max(by_k[4])

    def test_envelope_ray_built_once(self, specdir, tmp_path, monkeypatch):
        # the target ray (phi* - t g-hat)* and the concave envelope g-hat it
        # is built from do not depend on the degree; the paper's route to
        # that ray (limit curve, maximal envelope) is not taken
        fns = (filtration.toric_ray, filtration.weight_envelope, filtration.limit_curve, curves.maximal_envelope)
        calls = {fn.__name__: 0 for fn in fns}

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls[fn.__name__] += 1
                return fn(*args, **kwargs)

            return wrapper

        # wherever a georay module binds one of them
        for name, module in list(sys.modules.items()):
            if name.startswith("georay."):
                for attr, value in list(vars(module).items()):
                    if callable(value) and value in fns:
                        monkeypatch.setattr(module, attr, counted(value))
        argv = ["filtration", "--spec", str(specdir / "weights01.spec"), "--k", "4,8,16"]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 0
        assert calls == {"toric_ray": 1, "weight_envelope": 1, "limit_curve": 0, "maximal_envelope": 0}

    def test_extremal_table_once_per_degree_and_no_hull(self, specdir, tmp_path, monkeypatch):
        # the per-degree table is the section matrix the Phong-Sturm ray
        # reads, built once per distinct degree; the extremal table (read
        # only by the limit curve) and the hull are never built
        tables, extremal, hulls = {}, [], []
        sections, ext = filtration.BergmanInstance.section_values, filtration.extremal_metric
        hull = grids.lower_convex_envelope

        def counted_sections(self, data, k):
            E, w = sections(self, data, k)
            tables.setdefault(k, set()).add(id(E))
            return E, w

        def counted_ext(inst, data, k, *args, **kwargs):
            extremal.append(k)
            return ext(inst, data, k, *args, **kwargs)

        def counted_hull(*args, **kwargs):
            hulls.append(args)
            return hull(*args, **kwargs)

        monkeypatch.setattr(filtration.BergmanInstance, "section_values", counted_sections)
        monkeypatch.setattr(filtration, "extremal_metric", counted_ext)
        for name, module in list(sys.modules.items()):
            if name.startswith("georay.") and getattr(module, "lower_convex_envelope", None) is hull:
                monkeypatch.setattr(module, "lower_convex_envelope", counted_hull)
        argv = ["filtration", "--spec", str(specdir / "p012.spec"), "--k", "8,4,16,8"]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 0
        assert {k: len(ids) for k, ids in tables.items()} == {4: 1, 8: 1, 16: 1}
        assert extremal == []
        assert hulls == []

    @pytest.mark.parametrize("spec", ["p012.spec", "weights2d.spec"], ids=["1d", "2d"])
    def test_skips_limit_curve_route(self, specdir, tmp_path, monkeypatch, spec):
        # the gaps are measured against the closed form (phi* - t g-hat)*:
        # no limit curve, extremal table, maximal envelope or hull is built
        route = (
            filtration.limit_curve, filtration.extremal_metric, curves.maximal_envelope,
            rays.ray_from_curve, grids.lower_envelope, grids.lower_convex_envelope,
        )
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)

            return wrapper

        # wherever a georay module binds one of them
        for name, module in list(sys.modules.items()):
            if name.startswith("georay."):
                for attr, value in list(vars(module).items()):
                    if callable(value) and value in route:
                        monkeypatch.setattr(module, attr, counted(value))
        argv = ["filtration", "--spec", str(specdir / spec), "--k", "8,4,16,8"]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 0
        assert calls == []

    def test_phong_sturm_ray_once_per_degree(self, specdir, tmp_path, monkeypatch):
        degrees = []
        ps = filtration.phong_sturm_ray

        def counted(inst, data, k, *args, **kwargs):
            degrees.append(k)
            return ps(inst, data, k, *args, **kwargs)

        monkeypatch.setattr(filtration, "phong_sturm_ray", counted)
        argv = ["filtration", "--spec", str(specdir / "weights01.spec"), "--k", "8,4,16,8"]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 0
        assert degrees == [4, 8, 16]
        # ray.csv is the largest degree's ray, the one the gap table used
        phi = ser.load_grid_function((specdir / "base.gf").read_text())
        inst = filtration.BergmanInstance(phi, default_dual_grid(phi))
        data = ser.load_weight_data((specdir / "w01.wd").read_text())
        expected = ser.dump_ray_csv(ps(inst, data, 16, np.linspace(0.0, 1.0, 11)))
        assert (tmp_path / "out" / "ray.csv").read_text() == expected

    # the degree passes the lattice cap but the section matrix (num_nodes x
    # reachable points) does not, so the command must stop before it
    # allocates it
    @pytest.mark.parametrize(
        "spec, k, what",
        [("p012.spec", 4000, "degree-4000 section matrix of 8001 x 129 nodes")],
        ids=["sections"],
    )
    def test_table_over_cap_exit_4(self, specdir, tmp_path, capsys, spec, k, what):
        argv = ["filtration", "--spec", str(specdir / spec), "--out", str(tmp_path / "o")]
        start = time.perf_counter()
        assert main(argv + ["--k", str(k)]) == 4
        assert time.perf_counter() - start < 5.0
        assert f"{what} exceeds the size cap {SIZE_CAP}" in capsys.readouterr().err

    def test_section_cap_before_any_closure(self, specdir, tmp_path, capsys, monkeypatch):
        # P1 = {0, 1, 2} reaches at least k + 1 points at degree k, so the
        # section matrix is over the cap before the max-plus closure runs
        def fail(data, k):
            raise AssertionError(f"degree-{k} closure built")

        monkeypatch.setattr(filtration, "multiplicative_closure", fail)
        argv = ["filtration", "--spec", str(specdir / "p012.spec"), "--out", str(tmp_path / "o")]
        assert main(argv + ["--k", "100000"]) == 4
        what = "degree-100000 section matrix of at least 100001 x 129 nodes"
        assert f"{what} exceeds the size cap {SIZE_CAP}" in capsys.readouterr().err

    def test_2d_section_cap_before_any_ray(self, specdir, tmp_path, capsys, monkeypatch):
        # P1 = {0, e1, e2} reaches C(k + 2, 2) points at degree k: at k = 32
        # the section matrix is over the cap on 65^2 nodes, so neither a
        # closure nor the target nor the k = 4, 8, 16 rays are built
        g = Grid(Box((-3.0, -3.0), (3.0, 3.0)), (65, 65))
        ys = np.linspace(0.0, 1.0, 65)
        y = np.stack(np.meshgrid(ys, ys, indexing="ij"), -1).reshape(-1, 2)
        y = y[y.sum(axis=1) <= 1.0 + 1e-12]
        phi = GridFunction(g, (g.coords() @ y.T - (y * y).sum(axis=1) / 2).max(axis=1))
        (tmp_path / "phi65.gf").write_text(ser.dump_grid_function(phi))
        spec = _spec_elsewhere(specdir, "weights2d.spec", tmp_path / "p.spec", phi=str(tmp_path / "phi65.gf"))

        def fail(*args, **kwargs):
            raise AssertionError("built before the cap")

        for name in ("multiplicative_closure", "toric_ray", "phong_sturm_ray"):
            monkeypatch.setattr(filtration, name, fail)
        argv = ["filtration", "--spec", spec, "--out", str(tmp_path / "o"), "--k", "4,8,16,32"]
        assert main(argv) == 4
        what = "degree-32 section matrix of at least 561 x 4225 nodes"
        assert f"{what} exceeds the size cap {SIZE_CAP}" in capsys.readouterr().err

    def test_dented_phi_exit_3(self, specdir, tmp_path, capsys):
        phi = ser.load_grid_function((specdir / "base.gf").read_text())
        (tmp_path / "phi.gf").write_text(ser.dump_grid_function(_dented(phi)))
        spec = _spec_elsewhere(specdir, "weights01.spec", tmp_path / "p.spec", phi=str(tmp_path / "phi.gf"))
        assert main(["filtration", "--spec", spec, "--out", str(tmp_path / "o")]) == 3
        assert "validation failure: phi is not convex at node" in capsys.readouterr().err
        assert not any((tmp_path / "o").iterdir())

    # a malformed integer in either input file is a parse error that names
    # its line: these raised ValueError, IndexError and OverflowError
    @pytest.mark.parametrize(
        "name, old, new, message",
        [
            ("base.gf", "nodes 65", "nodes 5x", "(line 5): bad integer '5x'"),
            ("base.gf", "dim 1", "dim", "(line 2): 'dim' takes 1 value(s), got 0"),
            ("w01.wd", "point 1 1", "point 1 0.5", "(line 4): bad integer '0.5'"),
            ("w01.wd", "dim 1", "dim", "(line 2): 'dim' takes 1 value(s), got 0"),
            ("w01.wd", "point 1 1", "point 1 99999999999999999999",
             "(line 4): integer '99999999999999999999' outside the int64 range"),
        ],
        ids=["nodes", "phi-dim", "weight-float", "weights-dim", "weight-overflow"],
    )
    def test_malformed_integer_exit_2(self, specdir, tmp_path, capsys, name, old, new, message):
        text = (specdir / name).read_text()
        assert old in text
        (tmp_path / name).write_text(text.replace(old, new, 1))
        key = "phi" if name.endswith(".gf") else "weights"
        spec = _spec_elsewhere(specdir, "weights01.spec", tmp_path / "p.spec", **{key: str(tmp_path / name)})
        assert main(["filtration", "--spec", spec, "--out", str(tmp_path / "o"), "--k", "4"]) == 2
        assert capsys.readouterr().err == f"parse error {message}\n"

    # an infinite or overflowing span ended in a traceback from the conjugate
    @pytest.mark.parametrize(
        "lower, upper", [("-2.0", "inf"), ("-1e308", "1e308")], ids=["inf", "overflow"]
    )
    def test_non_finite_box_exit_3(self, specdir, tmp_path, capsys, lower, upper):
        text = (specdir / "base.gf").read_text()
        assert "lower -2.0\nupper 3.0\n" in text
        (tmp_path / "b.gf").write_text(text.replace("lower -2.0\nupper 3.0\n", f"lower {lower}\nupper {upper}\n"))
        spec = _spec_elsewhere(specdir, "weights01.spec", tmp_path / "p.spec", phi=str(tmp_path / "b.gf"))
        assert main(["filtration", "--spec", spec, "--out", str(tmp_path / "o"), "--k", "4"]) == 3
        assert capsys.readouterr().err == (
            f"validation failure: box axis 0 [{float(lower)}, {float(upper)}] has no finite positive span\n"
        )
        assert not any((tmp_path / "o").iterdir())

    def test_cap_exit_4(self, specdir, tmp_path):
        rc = main(
            [
                "filtration",
                "--spec",
                str(specdir / "weights01.spec"),
                "--out",
                str(tmp_path / "o"),
                "--k",
                "9999999",
            ]
        )
        assert rc == 4

    # 2^32 x 2^32 nodes: an int64 product of the counts wraps to 0
    @pytest.mark.parametrize("nodes", [[SIZE_CAP + 1], [2**32, 2**32]], ids=["1d", "wrap"])
    def test_dual_grid_over_cap_exit_4(self, specdir, tmp_path, capsys, nodes):
        spec = tmp_path / "big_dual.spec"
        doc = json.loads((specdir / "weights01.spec").read_text())
        doc.update(phi=str(specdir / "base.gf"), weights=str(specdir / "w01.wd"))
        doc["dual"] = {"lower": [-0.5] * len(nodes), "upper": [1.5] * len(nodes), "nodes": nodes}
        spec.write_text(json.dumps(doc))
        rc = main(["filtration", "--spec", str(spec), "--out", str(tmp_path / "o"), "--k", "4"])
        assert rc == 4
        err = capsys.readouterr().err
        assert f"grid of {' x '.join(map(str, nodes))} nodes" in err and str(SIZE_CAP) in err

    def test_polytope_without_interior_exit_3(self, specdir, tmp_path, capsys):
        # g-hat is the concave envelope over conv(P1); a single point spans
        # no segment, so there is no closed-form target to measure against
        (specdir / "w0.wd").write_text(ser.dump_weight_data(WeightedLatticeData(np.array([[0]]), np.array([3]))))
        spec = specdir / "weights0.spec"
        spec.write_text(json.dumps({"kind": "filtration", "phi": "base.gf", "weights": "w0.wd"}))
        assert main(["filtration", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == "validation failure: 1-D points [[0]] span no 1-simplex\n"

    def test_point_outside_dual_box_exit_3(self, specdir, tmp_path, capsys):
        # P1 = {0, 1, 2} reaches slopes up to 2, but the default dual box
        # only pads the base's slope set [0, 1]
        base = filtration_base(257)
        (specdir / "base257.gf").write_text(ser.dump_grid_function(base))
        data = WeightedLatticeData(np.array([[0], [1], [2]]), np.array([1, 0, 2]))
        (specdir / "w012.wd").write_text(ser.dump_weight_data(data))
        spec = specdir / "weights012.spec"
        spec.write_text(
            json.dumps({"kind": "filtration", "phi": "base257.gf", "weights": "w012.wd"})
        )
        argv = ["filtration", "--spec", str(spec), "--out", str(tmp_path / "o"), "--k", "4"]
        assert main(argv) == 3
        box = default_dual_grid(base).box
        err = capsys.readouterr().err
        assert "normalized lattice point [1.25] outside the dual box" in err
        assert f"axis 0 coordinate 1.25 not in [{box.lower[0]!r}, {box.upper[0]!r}]" in err

    @pytest.mark.parametrize(
        "spec, weights, want",
        [("weights01.spec", "p2d.wd", "2-D weight data on a 1-D base"),
         ("weights2d.spec", "w01.wd", "1-D weight data on a 2-D base")],
        ids=["2d-on-1d", "1d-on-2d"],
    )
    def test_weight_dimension_mismatch_exit_3(self, specdir, tmp_path, capsys, spec, weights, want):
        # checked before any closure or section matrix, whose matmul would
        # otherwise fail with numpy's core-dimension ValueError
        path = _spec_elsewhere(specdir, spec, tmp_path / "p.spec", weights=str(specdir / weights))
        assert main(["filtration", "--spec", path, "--out", str(tmp_path / "o"), "--k", "4"]) == 3
        assert capsys.readouterr().err == f"validation failure: {want}\n"

    # the dual block of the wrong dimension raised IndexError out of main
    @pytest.mark.parametrize(
        "spec, dual, want",
        [("weights2d.spec", {"lower": [-0.5], "upper": [1.5], "nodes": [17]}, "1-D dual grid for a 2-D function"),
         ("weights01.spec", {"lower": [-0.5, -0.5], "upper": [1.5, 1.5], "nodes": [17, 17]},
          "2-D dual grid for a 1-D function")],
        ids=["1d-dual-2d-phi", "2d-dual-1d-phi"],
    )
    def test_dual_of_another_dimension_exit_3(self, specdir, tmp_path, capsys, spec, dual, want):
        path = _spec_elsewhere(specdir, spec, tmp_path / "p.spec", dual=dual)
        assert main(["filtration", "--spec", path, "--out", str(tmp_path / "o"), "--k", "4"]) == 3
        assert capsys.readouterr().err == f"validation failure: {want}\n"
        assert not any((tmp_path / "o").iterdir())

    def test_2d_base_with_neg_inf_node_exit_3(self, specdir, tmp_path, capsys, simplex_2d):
        # phi* of the 2-D base is +inf everywhere: the error names the node
        inst, _ = simplex_2d
        values = inst.phi.values.copy()
        values[8, 8] = -np.inf
        (tmp_path / "hole.gf").write_text(ser.dump_grid_function(GridFunction(inst.phi.grid, values)))
        path = _spec_elsewhere(specdir, "weights2d.spec", tmp_path / "p.spec", phi=str(tmp_path / "hole.gf"))
        assert main(["filtration", "--spec", path, "--out", str(tmp_path / "o"), "--k", "4"]) == 3
        assert capsys.readouterr().err == (
            "validation failure: conjugate of a function that is -inf at node (8, 8) (x = 0, 0) "
            "is +inf everywhere\n"
        )


class TestCheckCommand:
    def test_unknown_suite_exit_2(self, capsys):
        assert main(["check", "--suite", "bogus"]) == 2

    def test_unknown_suite_is_a_parse_error(self, capsys):
        main(["check", "--suite", "bogus"])
        assert capsys.readouterr().err.startswith("parse error: unknown suite 'bogus'; choose from ")

    def test_suites(self):
        # the all-suite report is pinned by its hash; this pins the others
        core = ["legendre_involution", "fast_vs_brute"]
        envelopes = [
            "ma_total_mass", "energy_dual_vs_quadrature", "energy_cocycle", "contact_concentration",
        ]
        rays = ["ray_equality", "energy_linearity"]
        filtration = [
            "lse_sandwich", "phong_sturm_equivalence", "trivial_configuration",
            "concave_transform_moments", "limit_curve_convergence",
        ]
        assert checks.SUITES == {
            "core": core,
            "envelopes": envelopes,
            "rays": rays,
            "filtration": filtration,
            "all": core + envelopes + rays + filtration,
        }

    def test_core_suite_report(self, tmp_path):
        out = tmp_path / "rep.json"
        assert main(["check", "--suite", "core", "--json", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["passed"] is True
        names = [c["name"] for c in rep["checks"]]
        assert names == ["legendre_involution", "fast_vs_brute"]
        assert set(rep["timings"]) == set(names)
        for c in rep["checks"]:
            assert "seconds" not in c

    def test_all_suite_report_bytes(self, tmp_path):
        out = tmp_path / "rep.json"
        assert main(["check", "--suite", "all", "--json", str(out)]) == 0
        rep = json.loads(out.read_text())
        del rep["timings"]
        text = json.dumps(rep, indent=1, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == CHECK_ALL_SHA256

    def test_all_suite_report_bytes_in_process(self, tmp_path, monkeypatch):
        # one CPU: run_suite calls every check in this process, the branch
        # the test above does not take on a machine with 2 or more CPUs
        monkeypatch.setattr(checks, "fork_cpus", lambda: 1)
        self.test_all_suite_report_bytes(tmp_path)

    # inf passed every gate, nan wrote an invalid JSON bound, and 0 or a
    # negative scale failed gates that hold
    @pytest.mark.parametrize("scale", ["nan", "inf", "0", "-1"])
    def test_bad_tol_scale_exit_2(self, capsys, scale):
        assert main([f"--tol-scale={scale}", "check", "--suite", "core"]) == 2
        assert "--tol-scale must be finite and positive" in capsys.readouterr().err

    def test_repeat_run_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["check", "--suite", "core", "--json", str(a)]) == 0
        assert main(["check", "--suite", "core", "--json", str(b)]) == 0

        def strip_timings(raw: bytes) -> bytes:
            return re.sub(rb'"timings": \{.*?\}', b'"timings": {}', raw, flags=re.S)

        assert strip_timings(a.read_bytes()) == strip_timings(b.read_bytes())

    def test_pool_report_matches_in_process(self, monkeypatch):
        """Records from the forked workers equal the checks called here,
        apart from their timings."""
        # one forked worker per core check, on any machine
        monkeypatch.setattr(checks, "fork_cpus", lambda: len(checks.SUITES["core"]))

        def untimed(records):
            return [{k: v for k, v in r.items() if k != "seconds"} for r in records]

        pooled = checks.run_suite("core")["checks"]
        direct = [checks.check_involution(), checks.check_fast_vs_brute()]
        assert untimed(pooled) == untimed(direct)

    def test_worker_failure_exit_3_and_no_process_left(self, monkeypatch, capsys):
        parent = os.getpid()

        def failing(tol_scale):
            where = "worker" if os.getpid() != parent else "parent"
            raise DomainError(f"boom in the {where}")

        monkeypatch.setattr(checks, "fork_cpus", lambda: len(checks.SUITES["core"]))
        monkeypatch.setitem(checks._CHECKS, "fast_vs_brute", failing)
        with pytest.raises(DomainError, match="boom in the worker"):
            checks.run_suite("core")
        assert multiprocessing.active_children() == []
        assert main(["check", "--suite", "core"]) == 3
        assert "validation failure: boom in the worker" in capsys.readouterr().err
        assert multiprocessing.active_children() == []


def test_import_cli_loads_no_check_machinery():
    """``georay ray`` and ``georay filtration`` do not pay for the check
    suite, its instances or the process pool; ``georay check`` loads them.
    ``georay.filtration`` stays loaded: the benchmark's tracer
    (``perfbench/tracer.py``) looks it up in ``sys.modules`` right after
    this import."""
    script = (
        "import sys\n"
        "import georay.cli\n"
        "heavy = ('georay.checks', 'georay.instances', 'concurrent.futures',\n"
        "         'multiprocessing')\n"
        "print(sorted(m for m in sys.modules if m.startswith(heavy)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(georay.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize(
    "command, spec",
    [
        ("ray", "bowl2.spec"), ("filtration", "weights01.spec"), ("filtration", "weights2d.spec"),
        ("ray", "huber.spec"), ("ray", "curve.spec"),
    ],
    ids=["ray", "filtration", "filtration-2d", "ray-1d", "ray-curve"],
)
def test_command_never_imports_scipy(specdir, tmp_path, command, spec):
    """scipy and ``numpy.ma`` cost start-up time; neither ``ray`` nor
    ``filtration`` may load them, in either dimension, certification
    included (plain ``np.unique`` imports ``numpy.ma``)."""
    script = (
        "import sys\n"
        "import georay.cli\n"
        "def slow_modules():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
        "                  or m.split('.')[:2] == ['numpy', 'ma'])\n"
        "assert not slow_modules(), slow_modules()[:5]\n"
        "rc = georay.cli.main([sys.argv[1], '--spec', sys.argv[2], '--out', sys.argv[3]])\n"
        "assert rc == 0, rc\n"
        "assert not slow_modules(), slow_modules()[:5]\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(georay.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", script, command, str(specdir / spec), str(tmp_path / "o")],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "o" / "ray.csv").exists()


def test_forked_ray_loads_no_pool(specdir, tmp_path):
    """The ray writer forks with ``os.fork`` alone: a ``ray`` run that takes
    the fork loads neither ``multiprocessing`` nor ``concurrent.futures``."""
    script = (
        "import os, sys\n"
        "import georay.cli\n"
        "georay.cli.fork_cpus = lambda: 2\n"
        "georay.cli._FORK_MIN_VALUES = 0\n"
        "forks, real_fork = [], os.fork\n"
        "def counted():\n"
        "    forks.append(real_fork())\n"
        "    return forks[-1]\n"
        "os.fork = counted\n"
        "rc = georay.cli.main(['ray', '--spec', sys.argv[1], '--out', sys.argv[2]])\n"
        "assert rc == 0 and len(forks) == 1, (rc, forks)\n"
        "pool = ('multiprocessing', 'concurrent.futures')\n"
        "print(sorted(m for m in sys.modules if m.startswith(pool)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(georay.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(specdir / "bowl2.spec"), str(tmp_path / "o")],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
    got = {f: hashlib.sha256((tmp_path / "o" / f).read_bytes()).hexdigest() for f in BOWL2_SHA256}
    assert got == BOWL2_SHA256
