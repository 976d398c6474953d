"""Benchmark for diffalg: the chain, decide and powers workloads.

    python3 perfbench/run.py --workload chain --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Repetitions run one after another, each in a fresh interpreter
(see worker.py), until at least MIN_REPS have run and the next one would
likely end past ``--seconds``.  Every repetition's outputs are checked, and
the first one's densities are also checked against sympy.

With ``--trace 0`` the last line reports the end-to-end metrics: the median
set-up time and peak RSS, and the mean operation time, over repetitions.
With ``--trace 1`` untraced and traced repetitions alternate, and it reports
the per-layer metrics of the traced ones (medians) and the tracing overhead.
Exits 2 without a result when the package source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_REPS = 3
REP_TIMEOUT_S = 150


def repetition(root: str, spec: dict, traced: bool, oracle: bool) -> dict:
    """Run one worker; a crash or timeout comes back as an error."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"), root]
    argv += ["--trace"] * traced + ["--oracle"] * oracle
    # A fixed hash seed gives every repetition the same set iteration order,
    # and so the same work.  No bytecode is written, so every repetition's
    # set-up compiles the package from source and writes nothing.
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPYCACHEPREFIX", None)
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, input=json.dumps(spec), capture_output=True,
                              text=True, env=env, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"repetition exceeded {REP_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"worker exited {proc.returncode}: {proc.stderr[-2000:]}"}
    result = json.loads(lines[-1])
    result["setup_s"] = result["setup_end"] - start
    return result


def mean_wall(reps: list) -> float:
    # On a shared 2-core VM the CPU speed drifts by up to 2x in phases of tens
    # of seconds, so repetition times are bimodal and their median jumps
    # between the modes from one run to the next; the mean weighs each phase
    # by its length and is steadier.
    return statistics.mean(r["wall_s"] for r in reps)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.RUN))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "diffalg", "__init__.py")):
        print(f"no package source at {os.path.join(root, 'src', 'diffalg')}; "
              "run from the root of a diffalg checkout", file=sys.stderr)
        return 2

    spec = workloads.inputs(args.workload, args.seed)
    print(f"workload {args.workload} seed {args.seed}: {spec['numbers']}")
    plain, traced, errors, durations = [], [], [], []
    attempted = failed = 0
    reference = None
    begin = time.perf_counter()
    while len(plain) + len(errors) < MIN_REPS \
            or (args.trace and len(traced) < MIN_REPS) \
            or time.perf_counter() - begin + statistics.median(durations) \
            <= args.seconds:
        with_trace = bool(args.trace) and len(traced) < len(plain)
        started = time.perf_counter()
        rep = repetition(root, spec, with_trace,
                         oracle=not plain and not traced)
        durations.append(time.perf_counter() - started)
        if "error" in rep:
            errors.append(rep["error"])
            print(rep["error"], file=sys.stderr)
            if len(errors) >= MIN_REPS:
                break
            continue
        attempted += rep["attempted"]
        failed += len(rep["failures"])
        for failure in rep["failures"]:
            print(f"FAILED {failure[:300]}", file=sys.stderr)
        if reference is None:
            reference = rep["digest"]
        elif rep["digest"] != reference:
            failed += rep["attempted"]
            print("FAILED outputs differ between repetitions", file=sys.stderr)
        (traced if with_trace else plain).append(rep)

    if errors:
        # a repetition that crashed attempted every operation and finished none
        per_rep = max([r["attempted"] for r in plain + traced] or [1])
        attempted += per_rep * len(errors)
        failed += per_rep * len(errors)
    if not plain or (args.trace and not traced):
        print("no repetition completed", file=sys.stderr)
        return 1

    if args.trace:
        metrics = {}
        for name in tracing.metric_names():
            unit = ("s" if name.endswith("_s") else
                    "ratio" if name.endswith("_frac") else "count")
            metrics[name] = {"value": statistics.median(
                r["layers"][name] for r in traced), "unit": unit}
        metrics["hierarchy.chain.terms"] = {
            "value": traced[0]["counts"].get("hierarchy.chain.terms", 0),
            "unit": "count"}
        metrics["tracing_overhead_s"] = {
            "value": mean_wall(traced) - mean_wall(plain), "unit": "s"}
        if traced[0]["absent"]:
            print("absent from the package: " + ", ".join(traced[0]["absent"]))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(r["setup_s"] for r in plain),
                        "unit": "s"},
            "wall_s": {"value": mean_wall(plain), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(
                r["peak_rss_mb"] for r in plain), "unit": "MB"},
        }
    print(f"{len(plain)} untraced and {len(traced)} traced repetitions, "
          f"{len(errors)} crashed")
    for label, reps in (("untraced", plain), ("traced", traced)):
        if reps:
            print(f"{label} wall_s: " + " ".join(f"{r['wall_s']:.3f}" for r in reps))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
