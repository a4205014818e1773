"""Text formats for grid functions, test curves, weight data, and rays.

GridFunction record (bit-exact round trip for finite doubles; values use
Python float repr, -inf is the literal token ``-inf``)::

    gridfunction 1
    dim <n>
    lower <a1> [a2]
    upper <b1> [b2]
    nodes <m1> [m2]
    values
    <one value per line, row-major>

TestCurve file: a ``testcurve 1`` header with the lambda grid, head and
critical values, followed by one GridFunction record per lambda.

Weight-data file::

    weightdata 1
    dim <n>
    point <coords...> <integer weight>     (one line per degree-1 point)
"""

from __future__ import annotations

import itertools

import numpy as np

from .curves import TestCurve
from .errors import DomainError, ParseError
from .grids import Box, Grid, GridFunction, NEG_INF


def _fmt(x: float) -> str:
    return "-inf" if x == NEG_INF else repr(float(x))


def _parse_float(tok: str, line: int) -> float:
    if tok == "-inf":
        return NEG_INF
    try:
        return float(tok)
    except ValueError:
        raise ParseError(f"bad float {tok!r}", line=line) from None


def dump_grid_function(f: GridFunction) -> str:
    g = f.grid
    lines = [
        "gridfunction 1",
        f"dim {g.dim}",
        "lower " + " ".join(repr(v) for v in g.box.lower),
        "upper " + " ".join(repr(v) for v in g.box.upper),
        "nodes " + " ".join(str(m) for m in g.nodes_per_axis),
        "values",
    ]
    lines.extend(_fmt(v) for v in f.values.ravel())
    return "\n".join(lines) + "\n"


class _Cursor:
    def __init__(self, lines: list[str], pos: int = 0):
        self.lines = lines
        self.pos = pos

    def next(self) -> str:
        while self.pos < len(self.lines):
            line = self.lines[self.pos].strip()
            self.pos += 1
            if line:
                return line
        raise ParseError("unexpected end of input", line=self.pos)

    def expect(self, keyword: str) -> list[str]:
        line = self.next()
        parts = line.split()
        if parts[0] != keyword:
            raise ParseError(f"expected {keyword!r}, got {parts[0]!r}", line=self.pos)
        return parts[1:]


def _parse_record(cur: _Cursor):
    """(grid, values) of the next GridFunction record, unchecked."""
    cur.expect("gridfunction")
    dim = int(cur.expect("dim")[0])
    lower = tuple(_parse_float(t, cur.pos) for t in cur.expect("lower"))
    upper = tuple(_parse_float(t, cur.pos) for t in cur.expect("upper"))
    nodes = tuple(int(t) for t in cur.expect("nodes"))
    if len(lower) != dim or len(upper) != dim or len(nodes) != dim:
        raise ParseError("header lengths disagree with dim", line=cur.pos)
    cur.expect("values")
    grid = Grid(Box(lower, upper), nodes)
    return grid, _parse_values(cur, grid.num_nodes)


def _parse_values(cur: _Cursor, n: int) -> list[float]:
    """The next n values, one per line.  ``float`` reads ``-inf`` as
    ``_parse_float`` does, so the next n lines go through one map; a blank,
    bad or missing line sends the block back to the line-by-line parse,
    which skips blanks and reports the line of the first bad token."""
    block = cur.lines[cur.pos : cur.pos + n]
    if len(block) == n:
        try:
            vals = list(map(float, block))
        except ValueError:
            pass
        else:
            cur.pos += n
            return vals
    return [_parse_float(cur.next(), cur.pos) for _ in range(n)]


def load_grid_function(text: str) -> GridFunction:
    return GridFunction(*_parse_record(_Cursor(text.splitlines())))


def dump_test_curve(tc: TestCurve) -> str:
    lines = [
        "testcurve 1",
        "lambdas " + " ".join(repr(float(v)) for v in tc.lambdas),
        f"lambda_head {repr(float(tc.lambda_head))}",
        f"lambda_c {repr(float(tc.lambda_c))}",
    ]
    body = "".join(dump_grid_function(GridFunction(tc.grid, v)) for v in tc.values)
    return "\n".join(lines) + "\n" + body


def load_test_curve(text: str) -> TestCurve:
    cur = _Cursor(text.splitlines())
    cur.expect("testcurve")
    lambdas = np.array([_parse_float(t, cur.pos) for t in cur.expect("lambdas")])
    head = _parse_float(cur.expect("lambda_head")[0], cur.pos)
    lc = _parse_float(cur.expect("lambda_c")[0], cur.pos)
    records = [_parse_record(cur) for _ in lambdas]
    if not records:
        raise DomainError("empty test curve")
    for lam, (g, _) in zip(lambdas, records):
        if g != records[0][0]:
            raise DomainError(f"test curve samples on different grids (first at lambda={lam:g})")
    return TestCurve(lambdas, records[0][0], [v for _, v in records], head, lc)


def _coord_fields(grid: Grid) -> list[str]:
    """Each node's coordinates as comma-separated Python float reprs, in
    row-major order; each axis node's repr is taken once."""
    axes = [[repr(x) for x in a.tolist()] for a in grid.axes()]
    return [",".join(c) for c in itertools.product(*axes)]


def dump_ray_csv(ray) -> str:
    lead = [c + "," for c in _coord_fields(ray.grid)]
    blocks = ["t," + ",".join(f"x{i}" for i in range(ray.grid.dim)) + ",value"]
    for t, fr in zip(ray.t_grid.tolist(), ray.values):
        head = f"{t!r},"
        # repr of a Python float is _fmt's token, -inf included; joining
        # per frame keeps one frame's row strings alive, not every row's
        vals = map(repr, fr.ravel().tolist())
        blocks.append("\n".join([head + c + v for c, v in zip(lead, vals)]))
    return "\n".join(blocks) + "\n"


def dump_weight_data(data: WeightedLatticeData) -> str:
    lines = ["weightdata 1", f"dim {data.dim}"]
    for p, w in zip(data.points, data.weights):
        lines.append("point " + " ".join(str(int(c)) for c in p) + f" {int(w)}")
    return "\n".join(lines) + "\n"


def load_weight_data(text: str) -> WeightedLatticeData:
    from .filtration import WeightedLatticeData

    cur = _Cursor(text.splitlines())
    cur.expect("weightdata")
    dim = int(cur.expect("dim")[0])
    pts, ws = [], []
    while True:
        try:
            line = cur.next()
        except ParseError:
            break
        parts = line.split()
        if parts[0] != "point" or len(parts) != dim + 2:
            raise ParseError(f"bad point line {line!r}", line=cur.pos)
        pts.append([int(v) for v in parts[1 : 1 + dim]])
        ws.append(int(parts[-1]))
    if not pts:
        raise ParseError("no points in weight data", line=cur.pos)
    return WeightedLatticeData(np.array(pts), np.array(ws))


def dump_histogram_csv(vals, counts, cum) -> str:
    rows = ["lambda,dim_V,dim_F"]
    for v, c, f in zip(vals, counts, cum):
        rows.append(f"{int(v)},{int(c)},{int(f)}")
    return "\n".join(rows) + "\n"
