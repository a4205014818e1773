"""One georay command in a fresh interpreter.

Usage: child.py RESULT_JSON TRACE(0|1|2) GEORAY_ARGS...

Times ``import georay.cli`` (reported as the monotonic clock reading when
the import is done, so the parent can add process start-up) and then
``georay.cli.main(argv)``.  With TRACE=1 the calls into georay's modules
are wrapped by ``tracer.Tracer`` first; TRACE=2 also runs tracemalloc
and records each layer's allocation peak.  The exit code is georay's.
"""

import json
import resource
import sys
import time

result_path, trace, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]

import georay.cli  # noqa: E402

imported_at = time.perf_counter()
tracer = None
if trace:
    from tracer import ROOT, Tracer

    tracer = Tracer(alloc=trace == 2)
    tracer.install()
    if tracer.alloc:
        import tracemalloc

        tracemalloc.start()
start = time.perf_counter()
rc = tracer.run(ROOT, georay.cli.main, (argv,), {}) if tracer else georay.cli.main(argv)
wall = time.perf_counter() - start
result = {
    "rc": rc,
    "imported_at": imported_at,
    "wall_s": wall,
    "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    "trace": tracer.report() if tracer else None,
}
with open(result_path, "w") as fh:
    json.dump(result, fh)
sys.exit(rc)
