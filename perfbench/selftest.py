#!/usr/bin/env python3
"""Self-tests of the benchmark's tracer, one short traced run per workload.

    python3 perfbench/selftest.py [--seed N]

First, in this process: after ``Tracer.install`` no georay module still
binds an original of a wrapped function (a module that imported it by
name would otherwise call it untraced).  Then, on every workload: the run
is correct (which already requires two traced runs with identical calls,
counts and distinct ratios, and self times that add up to the traced
total); every wrapped name was found; each function the layer map
expects on the workload records at least one call and each function it
rules out records none; named spans cover at least 90% of the traced
time.  On ray_huber_1d the legendre layer has the largest self time.
Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

import run
from tracer import SERIALIZATION_DUMP, SERIALIZATION_LOAD, WRAPPED, Tracer

EXPECTED = {
    "ray_huber_1d": (
        "legendre.legendre", "legendre.subgradient_range", "monge_ampere.ma_measure",
        "monge_ampere.energy_quadrature", "curves.envelope_from_u", "rays.ray_from_curve",
        "rays.energy_linearity",
    ),
    "ray_bowl_2d": (
        "legendre.legendre", "legendre.subgradient_range", "monge_ampere.ma_measure",
        "monge_ampere.energy_quadrature", "curves.envelope_from_u", "rays.ray_from_curve",
        "rays.energy_linearity",
    ),
    "filtration_1d": (
        "legendre.subgradient_range", "filtration.multiplicative_closure",
        "filtration.BergmanInstance.section_values", "filtration.extremal_metric",
        "filtration.limit_curve", "filtration.phong_sturm_ray", "filtration.equivalence_check",
        "grids.lower_convex_envelope", "curves.envelope_from_u", "curves.concave_transform",
        "rays.ray_from_curve", "rays.compare_rays",
    ),
    "check_all": (
        "legendre.legendre", "legendre.subgradient_range", "legendre.biconjugate",
        "monge_ampere.energy_dual", "rays.ray_dual", "rays.energy_linearity",
    ),
}
ABSENT = {
    "ray_huber_1d": tuple(f"filtration.{fn}" for fn in WRAPPED["filtration"]),
    "ray_bowl_2d": tuple(f"filtration.{fn}" for fn in WRAPPED["filtration"]),
    "filtration_1d": tuple(f"monge_ampere.{fn}" for fn in WRAPPED["monge_ampere"]),
    "check_all": (),
}
MIN_COVERAGE = 0.9


def layer_self_s(metrics: dict) -> dict:
    """Self time per module, serialization and cli included."""
    out = {mod: sum(metrics[f"{mod}.{fn}.self_s"][0] for fn in fns) for mod, fns in WRAPPED.items()}
    out["serialization"] = metrics["serialization.load_s"][0] + metrics["serialization.dump_s"][0]
    out["cli"] = metrics["cli.self_s"][0]
    return out


def check_install() -> list[str]:
    sys.path.insert(0, str(run.TREE / "src"))
    import georay.cli  # noqa: F401  (imports every georay module)

    modules = {n: m for n, m in sys.modules.items() if n == "georay" or n.startswith("georay.")}
    originals = {}
    for mod, names in list(WRAPPED.items()) + [("serialization", SERIALIZATION_LOAD + SERIALIZATION_DUMP)]:
        for qual in names:
            if "." not in qual:
                originals[id(getattr(modules[f"georay.{mod}"], qual))] = f"{mod}.{qual}"
    Tracer().install()
    return [
        f"{n}.{attr} still binds the unwrapped {originals[id(value)]}"
        for n, module in modules.items()
        for attr, value in vars(module).items()
        if id(value) in originals
    ]


def check_workload(name: str, seed: int) -> list[str]:
    workdir = run.TREE / ".bench_work" / f"selftest-{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        r = run.measure(name, seed, 0.0, True, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    errors = [f"run failed: {f}" for f in r.failures]
    metrics, problems = run.per_layer(r)
    errors += problems
    if not metrics:
        return errors
    missing = next(x["trace"]["missing"] for x in r.samples if x["trace"])
    if missing:
        errors.append(f"not found to wrap: {missing}")
    for fn in EXPECTED[name]:
        if metrics[f"{fn}.calls"][0] < 1:
            errors.append(f"{fn} records no call")
    for fn in ABSENT[name]:
        if metrics[f"{fn}.calls"][0] != 0:
            errors.append(f"{fn} records {metrics[f'{fn}.calls'][0]} calls; none expected")
    layers = layer_self_s(metrics)
    total = sum(layers.values())
    coverage = 1 - layers["cli"] / total
    if coverage < MIN_COVERAGE:
        errors.append(f"named spans cover {coverage:.1%} < {MIN_COVERAGE:.0%}")
    if name == "ray_huber_1d":
        top = max((v, k) for k, v in layers.items())[1]
        if top != "legendre":
            errors.append(f"largest self time is {top}, not legendre")
    shares = ", ".join(f"{k} {v / total:.1%}" for k, v in sorted(layers.items(), key=lambda kv: -kv[1]))
    print(f"# {name}: coverage {coverage:.1%}; self-time shares: {shares}")
    return errors


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    failed = False
    for name in ["install", *run.workloads.WORKLOADS]:
        errors = check_install() if name == "install" else check_workload(name, args.seed)
        print(f"{'FAIL' if errors else 'ok'}   {name}")
        for e in errors:
            print(f"       {e}")
        failed |= bool(errors)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
