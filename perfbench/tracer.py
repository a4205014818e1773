"""Spans and counters around calls into georay's modules.

``Tracer.install`` replaces each public function in ``WRAPPED`` by a
wrapper that records a span (name, start, end, parent) and updates the
layer's counters from the call's arguments and result.  Module objects are
looked up in ``sys.modules``: the package re-exports functions under the
names of their modules (``georay.legendre`` is the *function*), so
attribute access on the package would wrap the wrong object.  Every georay
module that bound the original function gets the wrapper, so calls through
``from .legendre import subgradient_range`` are recorded too.
"""

from __future__ import annotations

import hashlib
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

import numpy as np

WRAPPED = {
    "legendre": ("legendre", "subgradient_range", "biconjugate"),
    "monge_ampere": ("ma_measure", "energy_quadrature", "energy_dual"),
    "curves": ("envelope_from_u", "concave_transform", "validate"),
    "rays": ("ray_from_curve", "ray_dual", "energy_linearity", "compare_rays"),
    "filtration": (
        "multiplicative_closure",
        "BergmanInstance.section_values",
        "extremal_metric",
        "limit_curve",
        "phong_sturm_ray",
        "equivalence_check",
    ),
    "grids": ("lower_convex_envelope",),
}
SERIALIZATION_LOAD = ("load_grid_function", "load_test_curve", "load_weight_data")
SERIALIZATION_DUMP = ("dump_ray_csv", "dump_histogram_csv")
ROOT = "cli"


def _digest(a) -> bytes:
    a = np.ascontiguousarray(a)
    return hashlib.blake2b(a.tobytes(), digest_size=16).digest() + str(a.shape).encode()


class Tracer:
    """Spans and counters.  With ``alloc``, tracemalloc runs and each layer
    gets the peak of memory allocated inside its spans (children included)
    above the level at entry; tracemalloc slows allocation-heavy code, so
    such runs are kept out of the reported self times."""

    def __init__(self, alloc: bool = False):
        self.alloc = alloc
        self.peak_alloc = Counter()
        self._peaks = [0]  # running tracemalloc peak of each open span
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self._open: list[int] = []
        self.calls = Counter()
        self.counts = Counter()
        self.distinct = defaultdict(set)
        self.missing: list[str] = []

    # -- spans ---------------------------------------------------------
    def run(self, name, fn, args, kwargs, count=None):
        self.calls[name] += 1
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append((name, 0.0, 0.0, parent))
        self._open.append(index)
        if self.alloc:
            entry, peak = tracemalloc.get_traced_memory()
            # the peak so far belongs to the parent; fold it in, then restart
            self._peaks[-1] = max(self._peaks[-1], peak)
            self._peaks.append(0)
            tracemalloc.reset_peak()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if count is not None:
                count(self, args, kwargs, result)
        finally:
            end = time.perf_counter()
            if self.alloc:
                peak = max(tracemalloc.get_traced_memory()[1], self._peaks.pop())
                layer = name.split(".")[0]
                self.peak_alloc[layer] = max(self.peak_alloc[layer], peak - entry)
                self._peaks[-1] = max(self._peaks[-1], peak)
            self._open.pop()
            self.spans[index] = (name, start, end, parent)
        return result

    def _wrapper(self, name, fn, count=None):
        def wrapper(*args, **kwargs):
            return self.run(name, fn, args, kwargs, count)

        return wrapper

    # -- installation --------------------------------------------------
    def install(self):
        patches = []  # (original, wrapper): rebound wherever georay binds it
        for mod, names in WRAPPED.items():
            module = sys.modules[f"georay.{mod}"]
            for qual in names:
                name = f"{mod}.{qual}"
                owner_name, _, method = qual.partition(".")
                owner = getattr(module, owner_name, None)
                if owner is None or (method and method not in vars(owner)):
                    self.missing.append(name)
                elif method:
                    setattr(owner, method, self._wrapper(name, vars(owner)[method], COUNTERS.get(name)))
                else:
                    patches.append((owner, self._wrapper(name, owner, COUNTERS.get(name))))
        ser = sys.modules["georay.serialization"]
        for span, fn_names, count in (
            ("serialization.load", SERIALIZATION_LOAD, None),
            ("serialization.dump", SERIALIZATION_DUMP, _count_dump),
        ):
            for fn_name in fn_names:
                fn = getattr(ser, fn_name, None)
                if fn is None:
                    self.missing.append(f"serialization.{fn_name}")
                else:
                    patches.append((fn, self._wrapper(span, fn, count)))
        modules = [m for n, m in sys.modules.items() if n == "georay" or n.startswith("georay.")]
        for orig, wrapper in patches:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, attr, wrapper)

    # -- results -------------------------------------------------------
    def self_times(self) -> dict:
        """Per span name: total duration minus the part its children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return dict(out)

    def report(self) -> dict:
        roots = [s for s in self.spans if s[3] < 0]
        return {
            "total_s": sum(end - start for _, start, end, _ in roots),
            "self_s": self.self_times(),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "distinct": {k: len(v) for k, v in self.distinct.items()},
            "peak_alloc_bytes": dict(self.peak_alloc) if self.alloc else None,
            "missing": self.missing,
        }


# -- counters: work done, computed from call arguments and results -------
def _count_legendre(tr, args, kwargs, result):
    f, dual = args[0], args[1] if len(args) > 1 else kwargs["dual"]
    tr.counts["legendre.pairs"] += f.grid.num_nodes * dual.num_nodes
    tr.distinct["legendre"].add((_digest(f.values), f.grid, dual))


def _count_subgradient(tr, args, kwargs, result):
    f, dual = args[0], args[1] if len(args) > 1 else kwargs["dual"]
    interior = int(np.prod([m - 2 for m in f.grid.shape]))
    # the full and the interior-restricted transform
    tr.counts["legendre.pairs"] += (f.grid.num_nodes + interior) * dual.num_nodes
    tol = args[2] if len(args) > 2 else kwargs.get("tol")
    tr.distinct["legendre"].add(("subgradient_range", _digest(f.values), f.grid, dual, tol))


def _count_envelope(tr, args, kwargs, result):
    phi, u, lambdas = args[:3]
    uvals = u.u.values.ravel()
    usable = np.sort(uvals[u.base.mask.ravel() & np.isfinite(uvals)])
    lam = np.asarray(lambdas, dtype=float).ravel()
    # nodes with u >= lambda - 1e-12, the selection envelope_from_u makes
    selected = usable.size - np.searchsorted(usable, lam - 1e-12, side="left")
    tr.counts["curves.envelope_pairs"] += phi.grid.num_nodes * int(selected.sum())


def _count_sections(tr, args, kwargs, result):
    inst, data, k = args[:3]
    tr.counts["filtration.section_entries"] += result[0].size
    key = (_digest(inst.phi.values), inst.dual, _digest(data.points), _digest(data.weights), int(k))
    tr.distinct["filtration.section_values"].add(key)


def _count_hull(tr, args, kwargs, result):
    tr.counts["grids.hull_points"] += int(np.isfinite(args[0].values).sum())


def _count_dump(tr, args, kwargs, result):
    tr.counts["serialization.bytes_written"] += len(result.encode())


COUNTERS = {
    "legendre.legendre": _count_legendre,
    "legendre.subgradient_range": _count_subgradient,
    "curves.envelope_from_u": _count_envelope,
    "filtration.BergmanInstance.section_values": _count_sections,
    "grids.lower_convex_envelope": _count_hull,
}
