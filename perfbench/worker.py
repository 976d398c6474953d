"""One repetition of one workload, in a fresh interpreter.

Reads the seeded inputs as JSON on stdin and prints one JSON line: the set-up
end and the first/last operation times on the ``perf_counter`` clock (shared
with the parent on Linux), peak RSS, failures, a digest of the outputs and,
when traced, the per-layer metrics.  A fresh process per repetition matters
because the package keeps a module-level gcd cache, and a CLI user never
starts with it warm.

    python3 perfbench/worker.py ROOT [--trace] [--oracle] < inputs.json
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def main() -> int:
    root = os.path.abspath(sys.argv[1])
    traced = "--trace" in sys.argv[2:]
    oracle = "--oracle" in sys.argv[2:]
    spec = json.load(sys.stdin)
    src = os.path.join(root, "src")
    sys.path.insert(0, src)

    import diffalg as da
    if not os.path.abspath(da.__file__).startswith(src + os.sep):
        raise SystemExit(f"diffalg was imported from {da.__file__}, not {src}")
    import workloads

    tracer = None
    if traced:
        from tracing import Tracer
        tracer = Tracer(da)
        tracer.active = True
    built = workloads.build(da, spec)
    setup_end = time.perf_counter()

    first = time.perf_counter()
    ops = workloads.RUN[spec["workload"]](da, built)
    last = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.active = False

    failures, digest, counts = workloads.check(da, spec, ops, oracle)
    result = {
        "setup_end": setup_end,
        "wall_s": last - first,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ops),
        "failures": failures,
        "digest": digest,
        "counts": counts,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["absent"] = tracer.absent
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
