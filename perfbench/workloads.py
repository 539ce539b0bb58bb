"""The benchmark's workloads: the calls each one makes into caexp, and the
results those calls must return.

Importing this module does not import caexp. ``setup`` does, so that the
worker can time the import and rule construction as the workload's set-up.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Search:
    """One exhaustive ``kexp_search`` call and its pinned verdict."""

    rule: str
    k: int
    R: int
    m: int
    t_max: int
    searched: int
    witness: dict | None = None  # the pinned witness cells, or None

    @property
    def label(self) -> str:
        return f"{self.rule} k={self.k} R={self.R} m={self.m} t_max={self.t_max}"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    claims: tuple[str, ...] = ()
    searches: tuple[Search, ...] = ()

    @property
    def bounds(self) -> list[str]:
        if self.claims:
            return [f"run_claims(None, seed): {len(self.claims)} claims"]
        return [s.label for s in self.searches]


# The 15 names of caexp.claims.CLAIMS, in registry order.  Each names a
# per-layer metric, so a renamed or missing claim fails the run.
CLAIM_NAMES = (
    "psi-relation", "psi-landmarks", "upsilon-glider", "second-order",
    "mult-ca", "freegroup", "vn-uv", "vn-structure", "vn-oracle-sim",
    "vn-2exp-witness", "vn-three-trace", "vn-kexp1", "tri-null",
    "engine-invariants", "witness-additivity",
)

# Runtime targets that tests/test_acceptance.py prints per criterion, keyed by
# the claims the criterion runs.  Information only: never a gate.
ACCEPTANCE_TARGETS_S = {
    ("psi-relation",): 30.0,
    ("psi-landmarks",): 60.0,
    ("vn-uv", "vn-structure", "vn-oracle-sim", "vn-2exp-witness",
     "vn-three-trace", "vn-kexp1"): 300.0,
    ("tri-null",): 120.0,
}

WORKLOADS = {w.name: w for w in (
    Workload(
        "verify",
        "the claim registry behind caexp verify and the acceptance suite: "
        "mixed bitgrid, sparse engine, exact oracle and free-group work",
        claims=CLAIM_NAMES),
    Workload(
        "search",
        "exhaustive kexp_search calls: many short-horizon candidates (the "
        "candidate loop) and long horizons (TraceTable builds via bitgrid, dense1d)",
        searches=(
            # wide: many candidates over short horizons.  Nearly all the time
            # is the candidate loop, on both TraceTable lookup lanes.
            Search("psi", 2, 30, 1, 256, searched=117120),
            Search("f3", 3, 20, 1, 256, searched=85280),
            Search("f2", 4, 30, 1, 256, searched=521855),
            # deep: few candidates over long horizons.  Nearly all the time
            # is the TraceTable build, which also sets the peak memory.
            Search("vn2", 1, 60, 2, 1024, searched=14641),
            Search("tri2", 1, 40, 2, 1024, searched=42,
                   witness={(-40, 1): 1}),
            Search("psi", 1, 60, 1, 4096, searched=968),
            Search("f3", 1, 60, 2, 8192, searched=242),
        )),
)}


@dataclass
class Outcome:
    """One operation of a pass: a claim, or a search."""

    name: str
    ok: bool
    detail: str
    seconds: float


def setup(workload: Workload):
    """Import what the workload calls and build its rules.

    Returns ``run_pass(seed)``, which makes the workload's calls and returns
    their raw results for ``check``.
    """
    if workload.claims:
        from caexp import claims

        def run_pass(seed: int):
            # For ``verify`` this is run_claims(None, seed): the names are the
            # whole registry, in its order, which ``check`` confirms.
            try:
                return claims.run_claims(list(workload.claims), seed)
            except Exception as exc:  # every claim counts as failed
                return exc

        return run_pass

    import time

    from caexp import expansivity, presets
    rules = [presets.parse_rule(s.rule) for s in workload.searches]

    def run_pass(seed: int):
        # A search workload is fully defined by its bounds; the seed is
        # recorded but not used.
        out = []
        for s, rule in zip(workload.searches, rules):
            t0 = time.perf_counter()
            try:
                got = expansivity.kexp_search(rule, s.k, s.R, s.m, s.t_max)
            except Exception as exc:  # a failed operation, counted below
                got = exc
            out.append((got, time.perf_counter() - t0))
        return out

    return run_pass


def check(workload: Workload, raw) -> list[Outcome]:
    """Compare a pass's results with the pinned expectations."""
    if workload.claims:
        if isinstance(raw, Exception):
            return [Outcome(n, False, repr(raw), 0.0) for n in workload.claims]
        from caexp.claims import CLAIMS
        names = tuple(r.name for r in raw)
        if names != workload.claims or (workload.claims == CLAIM_NAMES
                                        and tuple(CLAIMS) != CLAIM_NAMES):
            return [Outcome(n, False, f"ran {names} of registry {tuple(CLAIMS)}",
                            0.0) for n in workload.claims]
        return [Outcome(r.name, r.ok, "" if r.ok else str(r.report), r.seconds)
                for r in raw]
    return [Outcome(s.label, *_check_search(s, got), seconds)
            for s, (got, seconds) in zip(workload.searches, raw)]


def _check_search(s: Search, verdict) -> tuple[bool, str]:
    if isinstance(verdict, Exception):
        return False, repr(verdict)
    cells = verdict.witness.cells if verdict.witness is not None else None
    got = (verdict.found, cells, verdict.searched)
    want = (s.witness is not None, s.witness, s.searched)
    if got != want:
        return False, f"got found/witness/searched {got}, want {want}"
    if s.witness is not None and not _witness_null(s):
        return False, "witness trace is not null under direct simulation"
    return True, str(verdict)


def _witness_null(s: Search) -> bool:
    """Re-verify a pinned Z^2 mod-2 witness by direct bit-packed simulation."""
    from caexp import bitgrid, presets
    from caexp.lattice import Z2
    rule = presets.parse_rule(s.rule)
    hit = bitgrid.first_nonzero_window_time(
        rule.neighborhood, sorted(s.witness), s.t_max, Z2.origin_ball(s.m))
    return hit is None
