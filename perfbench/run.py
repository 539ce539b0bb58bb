"""caexp benchmark: end-to-end metrics of three workloads, and per-layer
metrics from a separate traced run.

Run from the root of a caexp checkout (the directory holding ``src/caexp``):

    python3 perfbench/run.py --workload verify --seed 0 --seconds 60 --trace 0

Workloads: ``verify`` and ``search`` (see
``workloads.py`` and README.md).  Every pass runs in a fresh interpreter
(``worker.py``) making single-threaded calls into caexp's public functions.
The run repeats passes while the next one is expected to finish within
``--seconds`` (at least one), and times set-up in a few more fresh
interpreters before the first pass and after each one.
With ``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  An operation is one
claim on ``verify`` and one search on the search workloads; a wrong verdict,
a wrong count or an exception fails it, and then the command exits with 1.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracing import EXACT_COUNTS, PER_LAYER

HERE = Path(__file__).resolve().parent
SETUPS_PER_ROUND = 2  # set-up-only interpreters before the first pass and after each
RUN_LIMIT_S = 170.0   # every child still running at this point is killed

# (name, unit, better) of every end-to-end metric.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("candidates_per_s", "1/s", "higher"),
)


def _stats(values: list[float]) -> str:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return (f"median {statistics.median(values):.6g}  q1 {q1:.6g}  "
            f"q3 {q3:.6g}  n={len(values)}")


def _child(argv: list[str], env: dict, deadline: float):
    """Run the worker once; returns (parsed result or None, error text)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        return None, "no time left before the run limit"
    cmd = [sys.executable, str(HERE / "worker.py"), *argv]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"worker killed after {timeout:.0f} s"
    if proc.returncode != 0:
        return None, proc.stderr.strip()[-2000:] or f"exit {proc.returncode}"
    return json.loads(proc.stdout.strip().splitlines()[-1]), ""


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (Path.cwd() / "src" / "caexp" / "__init__.py").is_file():
        print("run from the root of a caexp checkout: src/caexp is missing",
              file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    began = time.monotonic()
    deadline = began + RUN_LIMIT_S
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    base = ["--workload", workload.name, "--seed", str(args.seed)]
    n_ops = len(workload.claims or workload.searches)
    attempted = failed = 0
    errors = []

    setups = []

    def time_setups():
        # spread over the run, so that the median spans the run's window
        for _ in range(SETUPS_PER_ROUND):
            res, err = _child(base + ["--setup-only"], env, deadline)
            if res is None:
                errors.append(f"set-up: {err}")
            else:
                setups.append(res["setup_s"])

    kinds = (0, 1) if args.trace else (0,)
    passes: dict[int, list[dict]] = {k: [] for k in kinds}
    walls: dict[int, list[float]] = {k: [] for k in kinds}
    time_setups()
    i = 0
    while True:
        kind = kinds[i % len(kinds)]
        t0 = time.monotonic()
        res, err = _child(base + ["--trace", str(kind)], env, deadline)
        time_setups()
        walls[kind].append(time.monotonic() - t0)
        i += 1
        if res is None:
            attempted += n_ops
            failed += n_ops
            errors.append(f"pass {i}: {err}")
        else:
            passes[kind].append(res)
            attempted += len(res["ops"])
            for op in res["ops"]:
                if not op["ok"]:
                    failed += 1
                    errors.append(f"pass {i}: {op['name']}: {op['detail']}")
        if min(len(w) for w in walls.values()) == 0:
            continue
        if time.monotonic() - began > RUN_LIMIT_S:
            break
        nxt = kinds[i % len(kinds)]
        expected = statistics.median(walls[nxt])
        if time.monotonic() + expected > began + args.seconds:
            break

    plain, traced = passes[0], passes.get(1, [])
    setups += [p["setup_s"] for p in plain + traced]
    samples = {
        "setup_s": setups,
        "run_s": [p["run_s"] for p in plain],
        "peak_rss_mb": [p["peak_rss_mb"] for p in plain],
        "candidates_per_s": [p["candidates"] / p["run_s"] for p in plain],
    }

    numpy_version = (plain + traced)[0]["numpy"] if plain + traced else "?"
    print(f"caexp benchmark  workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"environment  nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={numpy_version}")
    for line in workload.bounds:
        print(f"bounds  {line}")
    units = {name: unit for name, unit, _ in END_TO_END + tuple(PER_LAYER)}
    for name, values in samples.items():
        if values:
            print(f"{name:<18} {_stats(values)}  [{units[name]}]")
    if plain:
        ops = plain[-1]["ops"]
        print(f"candidates         {plain[-1]['candidates']} per pass, "
              f"{plain[-1]['witnesses']} witnesses")
        for op in ops:
            print(f"  op {op['name']:<34} {op['seconds']:9.3f} s  "
                  f"{'ok' if op['ok'] else 'FAILED'}")
    print(f"failed_frac        {failed}/{attempted} = "
          f"{failed / attempted if attempted else 1.0:.6g}")
    for err in errors:
        print(f"error  {err}", file=sys.stderr)

    if args.trace:
        metrics = _per_layer(traced, samples["run_s"], units)
        for claim_set, target in workloads.ACCEPTANCE_TARGETS_S.items():
            if metrics and set(claim_set) <= set(workload.claims):
                got = sum(metrics[f"claims.{c}_s"]["value"] for c in claim_set)
                print(f"acceptance target  {'+'.join(claim_set)}: {got:.3f} s "
                      f"traced, target {target:.0f} s (information only)")
    else:
        metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
                   for name, unit, _ in END_TO_END if samples[name]}
    correct = failed == 0 and attempted > 0 and len(metrics) == len(
        PER_LAYER if args.trace else END_TO_END)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def _per_layer(traced: list[dict], plain_run_s: list[float], units: dict) -> dict:
    """Medians of the per-layer metrics over the traced passes; prints the
    span table of the last traced pass."""
    if not traced or not plain_run_s:
        return {}
    for row in traced[-1]["spans"]:
        path, calls, total, self_s = row
        print(f"span  {path:<70} calls {calls:>8}  total {total:10.4f} s  "
              f"self {self_s:10.4f} s")
    layers = {name: statistics.median(p["layers"][name] for p in traced)
              for name in traced[0]["layers"]}
    layers["trace.overhead_s"] = (statistics.median(p["run_s"] for p in traced)
                                  - statistics.median(plain_run_s))
    for name in EXACT_COUNTS:
        seen = {p["layers"][name] for p in traced}
        if len(seen) > 1:
            print(f"warning  {name} differs between traced passes: {sorted(seen)}")
    return {name: {"value": layers[name], "unit": units[name]}
            for name, _, _ in PER_LAYER}


if __name__ == "__main__":
    sys.exit(main())
