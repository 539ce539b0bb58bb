"""Tests of the benchmark itself, on small workloads.

Run from the root of the checkout:

    python -m pytest -q perfbench

Each pass runs in its own interpreter, as in the benchmark, because tracing
rebinds caexp's functions for the rest of the process.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
from workloads import WORKLOADS, Search, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SMALL = {
    # claims reach kexp_search, layer_profile and others through names bound
    # in caexp.claims, and engine.step through engine's module globals
    "claims": Workload("small-claims", "test", claims=(
        "second-order", "freegroup", "vn-2exp-witness", "vn-kexp1",
        "witness-additivity")),
    "searches": Workload("small-searches", "test", searches=(
        Search("psi", 1, 10, 1, 64, searched=168),
        Search("f2", 2, 8, 1, 64, searched=136),
        Search("tri2", 1, 40, 2, 512, searched=42, witness={(-40, 1): 1}),
    )),
}


def _pass(key: str, trace: bool) -> dict:
    """One pass of SMALL[key] in a fresh interpreter, as the benchmark runs it."""
    code = ("import json, worker, test_perfbench\n"
            f"w = test_perfbench.SMALL[{key!r}]\n"
            f"print(json.dumps(worker.measure(w, 0, {trace})))\n")
    env = dict(os.environ, PYTHONPATH=str(HERE), PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300,
                          check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("key", sorted(SMALL))
def test_traced_pass_matches_untraced(key):
    workload = SMALL[key]
    plain = _pass(key, False)
    traced = _pass(key, True)
    again = _pass(key, True)

    def verdicts(res):
        return [(op["name"], op["ok"], op["detail"]) for op in res["ops"]]

    assert all(op["ok"] for op in plain["ops"]), plain["ops"]
    assert verdicts(traced) == verdicts(plain)
    layers = traced["layers"]
    assert layers["expansivity.candidates"] == plain["candidates"] > 0
    assert layers["expansivity.witnesses"] == plain["witnesses"] > 0
    assert layers["z2subst.cache_entries"] == plain["cache_entries"]
    for name in tracing.EXACT_COUNTS:
        assert again["layers"][name] == layers[name], name
    if workload.claims:
        for claim in workload.claims:
            assert layers[f"claims.{claim}_s"] > 0, claim
        assert layers["engine.step_calls"] > 0
        assert layers["freegroup.profile_calls"] == 1
        assert layers["z2subst.oracle_calls"] > 0
    else:
        assert layers["engine.step_calls"] == 0
        assert layers["z2subst.oracle_calls"] == 0
        assert layers["dense1d.orbit_calls"] > 0
        assert layers["bitgrid.step_calls"] > 0


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(tracing.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
