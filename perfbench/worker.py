"""One pass of a benchmark workload, in a fresh interpreter.

Run from the root of a caexp checkout:

    python3 perfbench/worker.py --workload search --seed 0 --trace 0

It times set-up (importing caexp and building the workload's rules), then one
pass over the workload's calls, checks every result, and prints one JSON
object.  ``--setup-only`` stops after set-up.  ``--trace 1`` records spans
around caexp's public functions and adds the per-layer metrics.

A fresh interpreter per pass matters: ``z2subst`` keeps module-level caches
across calls, and a command-line user always starts cold.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import tracing
import workloads


def measure(workload: workloads.Workload, seed: int, trace: bool,
            setup_only: bool = False) -> dict:
    """Set up and run one pass of ``workload`` in this interpreter."""
    src = Path.cwd() / "src"
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    run_pass = workloads.setup(workload)
    setup_s = time.perf_counter() - t0

    import caexp
    if Path(caexp.__file__).resolve().parent != (src / "caexp").resolve():
        raise RuntimeError(f"imported caexp from {caexp.__file__}, not {src}")
    if setup_only:
        return {"setup_s": setup_s}

    verdicts = tracing.record_verdicts()
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracing.instrument(tracer)
    t0 = time.perf_counter()
    raw = run_pass(seed)
    run_s = time.perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    import numpy
    result = {"setup_s": setup_s, "run_s": run_s, "peak_rss_mb": rss_mb,
              "candidates": sum(v.searched for v in verdicts),
              "witnesses": sum(v.found for v in verdicts),
              "cache_entries": tracing.cache_entries(),
              "numpy": numpy.__version__}
    if tracer is not None:
        result["layers"], result["spans"] = tracing.layer_metrics(tracer)
    result["ops"] = [vars(o) for o in workloads.check(workload, raw)]
    return result


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    result = measure(workloads.WORKLOADS[args.workload], args.seed,
                     bool(args.trace), args.setup_only)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
