"""Writers of georay's input formats, the inverses of the loaders in
``georay.serialization``: the tests write their input files with them.

Values use Python float repr, and -inf is the literal token ``-inf``, so a
finite double survives a round trip bit for bit.
"""

from georay.grids import NEG_INF, GridFunction


def token(x: float) -> str:
    return "-inf" if x == NEG_INF else repr(float(x))


def dump_grid_function(f) -> str:
    g = f.grid
    lines = [
        "gridfunction 1",
        f"dim {g.dim}",
        "lower " + " ".join(repr(v) for v in g.box.lower),
        "upper " + " ".join(repr(v) for v in g.box.upper),
        "nodes " + " ".join(str(m) for m in g.nodes_per_axis),
        "values",
    ]
    lines.extend(token(v) for v in f.values.ravel())
    return "\n".join(lines) + "\n"


def dump_test_curve(tc) -> str:
    lines = [
        "testcurve 1",
        "lambdas " + " ".join(repr(float(v)) for v in tc.lambdas),
        f"lambda_head {repr(float(tc.lambda_head))}",
        f"lambda_c {repr(float(tc.lambda_c))}",
    ]
    body = "".join(dump_grid_function(GridFunction(tc.grid, v)) for v in tc.values)
    return "\n".join(lines) + "\n" + body


def dump_weight_data(data) -> str:
    lines = ["weightdata 1", f"dim {data.dim}"]
    for p, w in zip(data.points, data.weights):
        lines.append("point " + " ".join(str(int(c)) for c in p) + f" {int(w)}")
    return "\n".join(lines) + "\n"
