"""Acceptance suite: one test per criterion, each backed by the named claim
functions also reachable through ``caexp verify``.  Every check is exact; the
only tolerances are the stated search bounds and time horizons, which are
pinned here.  A pass/fail line with the elapsed time is printed per
criterion (run with ``pytest -s`` to see them as they complete)."""
import time

import pytest

from caexp import engine
from caexp.claims import run_claims

CRITERIA = [
    ("1 psi dependency identity", ["psi-relation"], 30.0),
    ("2 psi landmarks and zero band", ["psi-landmarks"], 60.0),
    ("3 upsilon glider and collisions", ["upsilon-glider"], None),
    ("4 second-order reversibility", ["second-order"], None),
    ("5 multiplication family", ["mult-ca"], None),
    ("6 free group", ["freegroup"], None),
    ("7 von Neumann rule", ["vn-uv", "vn-structure", "vn-oracle-sim",
                            "vn-2exp-witness", "vn-three-trace", "vn-kexp1"],
     300.0),
    ("8 triangular rule", ["tri-null"], 120.0),
    ("9 engine invariants", ["engine-invariants"], None),
    ("10 witness additivity", ["witness-additivity"], None),
]


@pytest.mark.parametrize("label,claims,target", CRITERIA,
                         ids=[c[0].split()[0] for c in CRITERIA])
def test_criterion(label, claims, target):
    t0 = time.perf_counter()
    results = run_claims(claims, seed=0)
    elapsed = time.perf_counter() - t0
    ok = all(r.ok for r in results)
    status = "PASS" if ok else "FAIL"
    budget = "" if target is None else f" (target {target:.0f}s)"
    print(f"[{status}] criterion {label}: {elapsed:.1f}s{budget}")
    for r in results:
        if not r.ok:
            print(str(r.report))
    assert ok, f"criterion {label} failed"
    if target is not None and elapsed > target:
        print(f"note: criterion {label} exceeded its runtime target "
              f"({elapsed:.1f}s > {target:.0f}s)")


# The full reports of the two claims that read difference fronts: they pin
# the order in which these claims draw their random pairs.
FRONT_REPORTS = {
    "mult-ca": """\
mult-ca: pass
  [pass] mult(3,2) o mult(2,3) = left shift: 1000 configs
  [pass] (q,p) = (2,0) for (3,2): MultParams(k=3, kp=2, m=6, q=2, p=0)
  [pass] (q,p) = (1,2) for (2,4): MultParams(k=2, kp=4, m=8, q=1, p=2)
  [pass] mult-fronts k=3 k'=2 (q=2, p=0).value recurrence g(F(c)) = k g(c) - m floor(k c_0 / m): 500 configs
  [pass] mult-fronts k=3 k'=2 (q=2, p=0).left front bound l_t < r_0 + 1 - t log(k)/log(m): 166 pairs, t <= 200
  [pass] mult-fronts k=3 k'=2 (q=2, p=0).right front bound l_0 - 1 - t log(k)/log(m) < r_t
  [pass] mult-fronts k=3 k'=2 (q=2, p=0).right front eventually constant
  [pass] mult-fronts k=2 k'=4 (q=1, p=2).value recurrence g(F(c)) = k g(c) - m floor(k c_0 / m): 500 configs
  [pass] mult-fronts k=2 k'=4 (q=1, p=2).left front bound l_t < r_0 + 1 - t log(k)/log(m): 166 pairs, t <= 200
  [pass] mult-fronts k=2 k'=4 (q=1, p=2).right front bound l_0 - 1 - t log(k)/log(m) < r_t
  [pass] mult-fronts k=2 k'=4 (q=1, p=2).decay r_t <= r_0 - floor(t/3)""",
    "engine-invariants": """\
engine-invariants: pass
  [pass] shift convention: spot at 10, offset 3 lands at 7
  [pass] shift equivariance: 1000 cases
  [pass] linearity of linear rules: 1000 cases
  [pass] support containment: 1000 cases
  [pass] front step bounds: 1000 pairs, t<=15
  [pass] trace consistency with iterate: 1000 cases""",
}


# The full report of the free-group claim, the same at every seed: it pins
# the window size and each check of the two-spot witness.
FREEGROUP_REPORT = """\
freegroup: pass
  [pass] layer profile to norm 8, t<=16 (cell-by-cell): B_12 simulation, 17 rows
  [pass] fg-witness n=2 z=a a a s'=b m=3 t_max=64.norm(x) = norm(y) = m+1: x=a a a b y=a a a B
  [pass] fg-witness n=2 z=a a a s'=b m=3 t_max=64.windows are equidistant cell-by-cell: 53 window cells
  [pass] fg-witness n=2 z=a a a s'=b m=3 t_max=64.traces equal through t=64
  [pass] fg-witness n=2 z=a a a s'=b m=3 t_max=64.projection matches sparse engine through t=8
  [pass] lambda:2: no odd-weight null trace on B_3, every odd k <= 53: radius-0 trace through t=3: GF(2) rank 4, kernel dim 49
  [pass] lambda:3: no odd-weight null trace on B_3, every odd k <= 187: radius-0 trace through t=3: GF(2) rank 4, kernel dim 183"""


@pytest.mark.parametrize("seed", [0, 1])
def test_freegroup_claim_report_is_pinned(seed):
    (result,) = run_claims(["freegroup"], seed=seed)
    assert str(result.report) == FREEGROUP_REPORT


@pytest.mark.parametrize("claim", sorted(FRONT_REPORTS))
@pytest.mark.parametrize("seed", [0, 1])
def test_front_claim_reports_are_pinned(claim, seed, monkeypatch):
    # every pair of both claims, layered:2's included, steps a dense block
    def no_sparse(*args):
        raise AssertionError("a front pair stepped the sparse orbit")
    monkeypatch.setattr(engine, "_sparse_fronts", no_sparse)
    (result,) = run_claims([claim], seed=seed)
    assert str(result.report) == FRONT_REPORTS[claim]


# the pair counts FRONT_REPORTS states: mult-ca's two front checks, and
# engine-invariants' front step bounds; a drawn pair with c == d is redrawn
FRONT_PAIRS = {"mult-ca": [166, 166], "engine-invariants": [1000]}


@pytest.mark.parametrize("claim", sorted(FRONT_PAIRS))
@pytest.mark.parametrize("seed", [0, 1])
def test_front_claims_read_the_pairs_they_report(claim, seed, monkeypatch):
    fronts_many, counts = engine.fronts_many, []

    def counting(rule, pairs, t_max):
        counts.append(len(pairs))
        return fronts_many(rule, pairs, t_max)
    monkeypatch.setattr(engine, "fronts_many", counting)
    (result,) = run_claims([claim], seed=seed)
    assert result.ok
    # engine-invariants reads one block per rule
    if claim == "engine-invariants":
        counts = [sum(counts)]
    assert counts == FRONT_PAIRS[claim]
