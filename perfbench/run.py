#!/usr/bin/env python3
"""georay benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a georay source tree.  The inputs are generated from
the seed (see workloads.py); each georay command then runs in a fresh
interpreter (child.py) with BLAS and OpenMP capped at one thread, again and
again until the time is used.  Every run is checked: exit code, expected
files, accuracy, and SHA-256 digests that must repeat within the workload
and seed.  With --trace 0 the end-to-end metrics are printed; with
--trace 1, untraced and traced runs alternate and the per-layer metrics are
printed.  Human-readable lines come first; the last line is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import ROOT as ROOT_SPAN, WRAPPED

HERE = Path(__file__).resolve().parent
TREE = HERE.parent
BLAS_THREADS = 1
CHILD_TIMEOUT_S = 120
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
CHECKS = (
    "legendre_involution",
    "fast_vs_brute",
    "ma_total_mass",
    "energy_dual_vs_quadrature",
    "energy_cocycle",
    "contact_concentration",
    "ray_equality",
    "energy_linearity",
    "lse_sandwich",
    "phong_sturm_equivalence",
    "trivial_configuration",
    "concave_transform_moments",
)
SPAN_NAMES = [f"{mod}.{fn}" for mod, fns in WRAPPED.items() for fn in fns]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(TREE / "src")
    env.pop("GEORAY_THREADS", None)
    for var in THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def provenance(seed: int) -> dict:
    sha = "unknown (not a git checkout)"
    if (TREE / ".git").exists():
        out = subprocess.run(
            ["git", "-C", str(TREE), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        sha = out.stdout.strip() or sha
    return {
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }


class Run:
    """The runs of one workload and seed, and the digests they must repeat."""

    def __init__(self, name: str, workdir: Path):
        self.name = name
        self.indir = workdir / "in"
        self.workdir = workdir
        self.reference: dict | None = None
        self.samples: list[dict] = []
        self.failures: list[str] = []

    def once(self, trace: int) -> None:
        """One child run; trace is 0 (off), 1 (spans) or 2 (spans and allocations)."""
        i = len(self.samples) + len(self.failures)
        outdir = self.workdir / f"out{i}"
        outdir.mkdir()
        result_path = self.workdir / f"result{i}.json"
        cmd = [sys.executable, str(HERE / "child.py"), str(result_path), str(trace)]
        cmd += workloads.argv(self.name, self.indir, outdir)
        spawned = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd, env=child_env(), cwd=TREE, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S,
            )
            problem, figures = self._check(proc, result_path, outdir)
        except subprocess.TimeoutExpired:
            problem = f"timed out after {CHILD_TIMEOUT_S} s"
        if problem:
            self.failures.append(f"run {i}: {problem}")
        else:
            result = json.loads(result_path.read_text())
            result.update(setup_s=result["imported_at"] - spawned, figures=figures)
            report = outdir / "report.json"
            if report.exists():
                result["check_timings"] = json.loads(report.read_text())["timings"]
            self.samples.append(result)
        shutil.rmtree(outdir)

    def _check(self, proc, result_path: Path, outdir: Path):
        """(problem or None, accuracy figures) of one finished child."""
        if proc.returncode != 0:
            tail = (proc.stderr.strip().splitlines() or [""])[-1]
            return f"exit code {proc.returncode}: {tail}", {}
        if not result_path.exists():
            return "no result from the child", {}
        digests = {}
        for fname, min_lines in workloads.WORKLOADS[self.name].items():
            path = outdir / fname
            if not path.exists():
                return f"missing output {fname}", {}
            data = workloads.digest_bytes(path)
            if data.count(b"\n") < min_lines:
                return f"{fname} has fewer than {min_lines} lines", {}
            digests[fname] = hashlib.sha256(data).hexdigest()
        if self.reference is None:
            self.reference = digests
        elif digests != self.reference:
            changed = sorted(f for f in digests if digests[f] != self.reference[f])
            return f"output bytes differ from the first run: {changed}", {}
        figures, problems = workloads.accuracy(self.name, outdir)
        return "; ".join(problems) or None, figures


def measure(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> Run:
    run = Run(name, workdir)
    run.indir.mkdir(parents=True)
    params = workloads.generate(name, seed, run.indir)
    print(f"# workload {name} seed {seed}: {json.dumps(params)}")
    # compile bytecode and warm the file cache; not timed
    subprocess.run(
        [sys.executable, "-c", "import georay.cli"], env=child_env(), cwd=TREE,
        capture_output=True, timeout=CHILD_TIMEOUT_S,
    )
    start = time.perf_counter()
    # when tracing, untraced and traced runs alternate and the first traced
    # run measures allocations; at least three runs, and two traced ones so
    # that their counts can be compared
    minimum = 4 if trace else 3
    while True:
        n = len(run.samples) + len(run.failures)
        if not trace or n % 2 == 0:
            run.once(0)
        else:
            run.once(2 if n == 1 else 1)
        elapsed = time.perf_counter() - start
        per_run = elapsed / (n + 1)
        if n + 1 >= minimum and elapsed + per_run > seconds:
            return run


def median(values):
    return statistics.median(values) if values else 0.0


def tail_note(values) -> str:
    """The highest percentile with at least ten samples beyond it."""
    for p in (99, 95, 90, 75, 50):
        if len(values) * (100 - p) / 100 >= 10:
            q = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
            return f"p{p}={q:.4g}"
    return f"no tail percentile ({len(values)} samples; p50 needs 20)"


def end_to_end(run: Run) -> tuple[dict, list]:
    s = run.samples
    walls = [x["wall_s"] for x in s]
    setups = [x["setup_s"] for x in s]
    rss = [x["maxrss_kb"] / 1024 for x in s]
    figures = s[0]["figures"] if s else {}
    metrics = {
        "wall_s": (median(walls), "s"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (median(rss), "MB"),
        "accuracy_ratio": (figures.get("accuracy_ratio", 0.0), "ratio"),
    }
    attempted = len(s) + len(run.failures)
    table = [
        ("wall_s", median(walls), "s", len(walls), tail_note(walls)),
        ("setup_s", median(setups), "s", len(setups), ""),
        ("peak_rss_mb", median(rss), "MB", len(rss), ""),
        ("error_rate", len(run.failures) / attempted, "ratio", attempted, ""),
    ]
    table += [(k, v, "ratio", len(s), "same on every run") for k, v in figures.items()]
    return metrics, table


def per_layer(run: Run) -> tuple[dict, list[str]]:
    traced = [x["trace"] for x in run.samples if x["trace"]]
    timed = [t for t in traced if t["peak_alloc_bytes"] is None]
    allocs = [t["peak_alloc_bytes"] for t in traced if t["peak_alloc_bytes"] is not None]
    plain = [x for x in run.samples if not x["trace"]]
    problems = []
    if not (timed and allocs and plain):
        return {}, ["needs an untraced, a traced and an allocation-traced successful run"]
    first = traced[0]
    for other in traced[1:]:
        for key in ("calls", "counts", "distinct"):
            if other[key] != first[key]:
                problems.append(f"traced runs disagree on {key}")
    for t in traced:
        total = sum(t["self_s"].values())
        if abs(total - t["total_s"]) > 1e-6 * max(1.0, t["total_s"]):
            problems.append(f"self times sum to {total} but the traced total is {t['total_s']}")

    def self_s(name):
        return median([t["self_s"].get(name, 0.0) for t in timed])

    calls, counts, distinct = first["calls"], first["counts"], first["distinct"]
    m = {}
    for name in SPAN_NAMES:
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
    m["serialization.load_s"] = (self_s("serialization.load"), "s")
    m["serialization.dump_s"] = (self_s("serialization.dump"), "s")
    m["serialization.bytes_written"] = (counts.get("serialization.bytes_written", 0), "bytes")
    m["cli.self_s"] = (self_s(ROOT_SPAN), "s")
    m["trace.overhead_s"] = (
        median([t["total_s"] for t in timed]) - median([x["wall_s"] for x in plain]), "s"
    )
    for check in CHECKS:
        secs = [x["check_timings"].get(check, 0.0) for x in plain if "check_timings" in x]
        m[f"checks.{check}.s"] = (median(secs), "s")
    pairs = counts.get("legendre.pairs", 0)
    legendre_s = sum(self_s(f"legendre.{fn}") for fn in WRAPPED["legendre"])
    transforms = calls.get("legendre.legendre", 0) + calls.get("legendre.subgradient_range", 0)
    sections = calls.get("filtration.BergmanInstance.section_values", 0)
    m["legendre.pairs"] = (pairs, "count")
    m["legendre.ns_per_pair"] = (legendre_s / pairs * 1e9 if pairs else 0.0, "ns")
    m["legendre.distinct_ratio"] = (
        distinct.get("legendre", 0) / transforms if transforms else 0.0, "ratio"
    )
    m["curves.envelope_pairs"] = (counts.get("curves.envelope_pairs", 0), "count")
    m["filtration.section_entries"] = (counts.get("filtration.section_entries", 0), "count")
    m["filtration.section_values.distinct_ratio"] = (
        distinct.get("filtration.section_values", 0) / sections if sections else 0.0, "ratio"
    )
    m["grids.hull_points"] = (counts.get("grids.hull_points", 0), "count")
    for mod in WRAPPED:
        m[f"{mod}.peak_alloc_mb"] = (median([a.get(mod, 0) for a in allocs]) / 2**20, "MB")
    total = median([t["total_s"] for t in timed])
    print(
        f"# traced {len(timed)} runs, allocation-traced {len(allocs)}, untraced {len(plain)}; "
        f"traced total {total:.4g} s; "
        f"named spans cover {1 - m['cli.self_s'][0] / total:.1%} of it"
    )
    if first["missing"]:
        print(f"# NOTE not found to wrap, so recorded as never called: {first['missing']}")
    return m, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (TREE / "src" / "georay" / "cli.py").is_file():
        print(f"no georay source tree at {TREE}", file=sys.stderr)
        return 2

    print("# provenance: " + json.dumps(provenance(args.seed), sort_keys=True))
    workdir = TREE / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in run.failures:
        print(f"# FAILED {failure}")
    if run.reference:
        print("# sha256 " + " ".join(f"{k}={v}" for k, v in sorted(run.reference.items())))

    e2e, table = end_to_end(run)
    print("# wall_s samples: " + " ".join(f"{x['wall_s']:.4f}" for x in run.samples))
    print(f"# {'metric':<22}{'value':>14}  {'unit':<6}{'samples':>8}  note")
    for name, value, unit, n, note in table:
        print(f"# {name:<22}{value:>14.6g}  {unit:<6}{n:>8}  {note}")
    problems = []
    if args.trace:
        metrics, problems = per_layer(run)
        for name, (value, unit) in metrics.items():
            print(f"# {name:<52}{value:>14.6g}  {unit}")
    else:
        metrics = e2e
    for p in problems:
        print(f"# TRACE PROBLEM {p}")
    attempted = len(run.samples) + len(run.failures)
    result = {
        "correct": not run.failures and not problems and bool(metrics),
        "attempted": attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
