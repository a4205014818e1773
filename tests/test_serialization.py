import numpy as np
import pytest

import formats
from georay import serialization as ser
from georay.errors import ParseError
from georay.filtration import WeightedLatticeData
from georay.grids import Box, Grid, GridFunction, NEG_INF
from georay.instances import huber_instance, quadratic_2d
from georay.rays import Ray, ray_from_curve


class TestGridFunctionRoundTrip:
    def test_bit_exact_1d(self, rng):
        g = Grid(Box((-1.25,), (2.5,)), 17)
        f = GridFunction(g, rng.uniform(-1e6, 1e6, 17))
        back = ser.load_grid_function(formats.dump_grid_function(f))
        assert back.grid == f.grid
        assert np.array_equal(back.values, f.values)

    def test_bit_exact_2d_with_neg_inf(self, rng):
        g = Grid(Box((0.0, -3.0), (1.0, 3.0)), (4, 6))
        vals = rng.standard_normal((4, 6))
        vals[2, 3] = NEG_INF
        f = GridFunction(g, vals)
        back = ser.load_grid_function(formats.dump_grid_function(f))
        assert np.array_equal(back.values, f.values)

    def test_awkward_doubles_survive(self):
        g = Grid(Box((0.0,), (1.0,)), 3)
        vals = np.array([np.nextafter(0.1, 1), 1e-308, -1.0 / 3.0])
        back = ser.load_grid_function(formats.dump_grid_function(GridFunction(g, vals)))
        assert np.array_equal(back.values, vals)

    def test_bad_keyword(self):
        with pytest.raises(ParseError):
            ser.load_grid_function("gridfunction 1\nwrong 1\n")

    def test_truncated_values(self):
        g = Grid(Box((0.0,), (1.0,)), 3)
        text = formats.dump_grid_function(GridFunction(g, np.zeros(3)))
        lines = text.strip().splitlines()[:-1]
        with pytest.raises(ParseError):
            ser.load_grid_function("\n".join(lines))

    def test_bad_float_reports_line(self):
        g = Grid(Box((0.0,), (1.0,)), 3)
        text = formats.dump_grid_function(GridFunction(g, np.zeros(3))).replace(
            "0.0", "zero", 1
        )
        with pytest.raises(ParseError) as exc:
            ser.load_grid_function(text)
        assert exc.value.line is not None

    def test_value_lines_keep_their_rules(self):
        g = Grid(Box((0.0,), (1.0,)), 3)
        vals = np.array([1.5, NEG_INF, -2.0])
        lines = formats.dump_grid_function(GridFunction(g, vals)).splitlines()
        # blank lines among the values are skipped
        spaced = lines[:7] + ["", "  "] + lines[7:]
        back = ser.load_grid_function("\n".join(spaced))
        assert np.array_equal(back.values, vals)
        # a bad value token reports its own 1-based line
        bad = spaced[:-1] + ["oops"]
        with pytest.raises(ParseError, match="bad float 'oops'") as exc:
            ser.load_grid_function("\n".join(bad))
        assert exc.value.line == len(bad)
        with pytest.raises(ParseError, match="unexpected end of input"):
            ser.load_grid_function("\n".join(spaced[:-1]))


class TestCurveRoundTrip:
    def test_huber_curve(self):
        inst = huber_instance(nodes=33, lambda_spacing=0.25)
        text = formats.dump_test_curve(inst.curve)
        back = ser.load_test_curve(text)
        assert np.array_equal(back.lambdas, inst.curve.lambdas)
        assert back.lambda_c == inst.curve.lambda_c
        assert back.grid == inst.curve.grid
        assert np.array_equal(back.values, inst.curve.values)


class TestWeightDataRoundTrip:
    def test_round_trip(self):
        data = WeightedLatticeData(np.array([[0, 1], [2, -3]]), np.array([5, -2]))
        back = ser.load_weight_data(formats.dump_weight_data(data))
        assert np.array_equal(back.points, data.points)
        assert np.array_equal(back.weights, data.weights)

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            ser.load_weight_data("weightdata 1\ndim 1\n")


class TestCsvDumps:
    def test_ray_csv_shape(self):
        inst = huber_instance(nodes=17, lambda_spacing=0.5)
        ray = ray_from_curve(inst.curve, np.array([0.0, 1.0]))
        lines = ser.dump_ray_csv(ray).strip().splitlines()
        assert lines[0] == "t,x0,value"
        assert len(lines) == 1 + 2 * 17

    def test_every_csv_field_is_a_float(self):
        # numpy scalars must not leak their repr (np.float64(...)) into a field
        inst = huber_instance(nodes=17, lambda_spacing=0.5)
        f2 = quadratic_2d(5)
        texts = [
            ser.dump_ray_csv(ray_from_curve(inst.curve, np.array([0.0, 1.0]))),
            ser.dump_ray_csv(Ray(np.array([0.0, 0.5]), f2.grid, [f2.values, f2.values])),
        ]
        for text in texts:
            for row in text.strip().splitlines()[1:]:
                for field in row.split(","):
                    float(field)

    def test_ray_csv_bytes_match_per_field_format(self, rng):
        # the row format before frames were formatted with repr in bulk
        g = Grid(Box((-1.0, 0.0), (1.0, 2.0)), (3, 4))
        finite = rng.standard_normal(g.shape) * 1e3
        partial = rng.standard_normal(g.shape)
        partial[1, 2] = partial[0, 0] = NEG_INF
        frames = [finite, partial, np.full(g.shape, NEG_INF)]
        ray = Ray(np.array([0.0, 0.1, 2.0 / 3.0]), g, frames)
        coords = [",".join(repr(float(x)) for x in c) for c in g.coords()]
        rows = ["t,x0,x1,value"]
        for t, fr in zip(ray.t_grid, ray.values):
            rows += [f"{float(t)!r},{c},{formats.token(v)}" for c, v in zip(coords, fr.ravel())]
        assert ser.dump_ray_csv(ray) == "\n".join(rows) + "\n"
