"""Named verification claims: every acceptance-grade property of the example
families, runnable individually from the CLI (``verify --only NAME``) and
collectively by the test suite.

Each claim function returns a Report; all randomness is seeded, so reports
are deterministic for a fixed seed.
"""
from __future__ import annotations

import random
import time
from dataclasses import dataclass

from . import engine, linearca, presets, z2subst
from .config import Configuration, random_config
from .errors import UsageError
from .expansivity import (kexp_search, mult_front_checks, mult_params,
                          pair_preexp_probe, psi_landmarks,
                          psi_relation_config_check, psi_relation_sweep,
                          upsilon_glider, _glider)
from .freegroup import fg_non2exp_witness, layer_profile, odd_weight_kernel
from .lattice import Z, Z2
from .report import Report
from .rules import LinearRule, SecondOrderInverseRule


# ---------------------------------------------------------------------------
# criterion 1: the dependency identity of the second-order mod-3 rule

def claim_psi_relation(seed: int = 0) -> Report:
    rep = Report("psi-relation")
    rng = random.Random(seed)
    configs = [Configuration(Z, 9, {0: a * 3 + b})
               for a in range(3) for b in range(3) if (a, b) != (0, 0)]
    for _ in range(100):
        configs.append(random_config(Z, 9, rng, radius=15, max_cells=10))
    checked, bad = psi_relation_sweep(configs, 3, 20)
    rep.expect("identity exact for k<=3, t<=20, every shift z", bad == 0,
               f"{checked} (k,t) comparisons over {len(configs)} configurations "
               f"(each over the whole light cone, so it holds for every z)")
    # exercise the full sparse-configuration path on a seeded sample
    sample_bad = 0
    for c in configs[:4]:
        for (k, t, z) in [(0, 0, 0), (1, 2, -30), (2, 5, 13), (3, 1, 30)]:
            if not psi_relation_config_check(c, k, t, z):
                sample_bad += 1
    rep.expect("sparse-path spot checks", sample_bad == 0, "16 checks")
    return rep


# criterion 2: landmark values and the zero band

def claim_psi_landmarks(seed: int = 0) -> Report:
    rep = Report("psi-landmarks")
    bad = []
    for a in range(3):
        for b in range(3):
            for M in (1, 2, 3):
                for k in range(4):
                    sub = psi_landmarks(a, b, M, k)
                    if not sub.ok:
                        bad.append((a, b, M, k))
    rep.expect("boundary value (a,2b) and zero band", not bad,
               f"108 cases{'' if not bad else f'; failing: {bad}'}")
    return rep


# criterion 3: the left-moving soliton and the resulting trace collisions

def claim_upsilon_glider(seed: int = 0) -> Report:
    rep = Report("upsilon-glider")
    ups = presets.upsilon()
    bad = 0
    for k in range(2, 9):
        for z in range(-10, 11):
            g = upsilon_glider(z, k)  # asserts one-step translation
            if g.diff_count(Configuration.zero(Z, 4)) != k:
                bad += 1
            if engine.iterate(ups, g, 5) != _glider(z - 5, k):
                bad += 1
    rep.expect("glider translates left, k=2..8, z in [-10,10]", bad == 0,
               "147 gliders")
    for k in (2, 3):
        verdict = pair_preexp_probe(ups, k=k, R=6, m=1, t_max=64)
        rep.expect(f"trace collision found for k={k}", verdict.found,
                   str(verdict))
    return rep


# criterion 4: second-order reversibility and linearity

def claim_second_order(seed: int = 0) -> Report:
    rep = Report("second-order")
    rng = random.Random(seed)
    for name, rule in (("psi", presets.psi()), ("upsilon", presets.upsilon())):
        inv = SecondOrderInverseRule(rule)
        bad_inv = 0
        for _ in range(200):
            c = random_config(Z, rule.q, rng, radius=10, max_cells=8)
            if engine.step(inv, engine.step(rule, c)) != c:
                bad_inv += 1
            if engine.step(rule, engine.step(inv, c)) != c:
                bad_inv += 1
        rep.expect(f"{name}: inverse o forward = forward o inverse = id",
                   bad_inv == 0, "200 configurations")
        bad_lin = 0
        for _ in range(200):
            c = random_config(Z, rule.q, rng, radius=10, max_cells=8)
            d = random_config(Z, rule.q, rng, radius=10, max_cells=8)
            lhs = engine.step(rule, c.add(d, rule.alphabet))
            rhs = engine.step(rule, c).add(engine.step(rule, d), rule.alphabet)
            if lhs != rhs:
                bad_lin += 1
        rep.expect(f"{name}: linear for the componentwise law", bad_lin == 0,
                   "200 pairs")
    return rep


# criterion 5: the multiplication family

def claim_mult(seed: int = 0) -> Report:
    rep = Report("mult-ca")
    rng = random.Random(seed)
    m32, m23 = presets.mult(3, 2), presets.mult(2, 3)
    bad = 0
    for _ in range(1000):
        c = random_config(Z, 6, rng, radius=10, max_cells=8)
        if engine.step(m32, engine.step(m23, c)) != c.shift(1):
            bad += 1
    rep.expect("mult(3,2) o mult(2,3) = left shift", bad == 0, "1000 configs")
    p32 = mult_params(3, 2)
    p24 = mult_params(2, 4)
    rep.expect("(q,p) = (2,0) for (3,2)", (p32.q, p32.p) == (2, 0), str(p32))
    rep.expect("(q,p) = (1,2) for (2,4)", (p24.q, p24.p) == (1, 2), str(p24))
    rep.merge(mult_front_checks(3, 2, samples=500, t_max=200, seed=seed))
    rep.merge(mult_front_checks(2, 4, samples=500, t_max=200, seed=seed))
    return rep


# criterion 6: the free-group family

def claim_freegroup(seed: int = 0) -> Report:
    rep = Report("freegroup")
    try:
        profile = layer_profile(2, 8, 16)
        rep.expect("layer profile to norm 8, t<=16 (cell-by-cell)", True,
                   f"B_{profile.depth} simulation, {len(profile.values)} rows")
    except RuntimeError as exc:
        rep.expect("layer profile to norm 8, t<=16 (cell-by-cell)", False,
                   str(exc))
    rep.merge(fg_non2exp_witness(2, (1, 1, 1), (2,), t_max=64))
    for n in (2, 3):
        rank, kernel_dim, odd = odd_weight_kernel(presets.lambda_rule(n), 3, 0, 3)
        rep.expect(f"lambda:{n}: no odd-weight null trace on B_3, every odd k "
                   f"<= {rank + kernel_dim}", not odd,
                   f"radius-0 trace through t=3: GF(2) rank {rank}, "
                   f"kernel dim {kernel_dim}")
    return rep


# criterion 7: the von Neumann rule, exact oracle and searches

def claim_vn_uv(seed: int = 0) -> Report:
    return z2subst.uv_vs_simulation(6)


def claim_vn_structure(seed: int = 0) -> Report:
    return z2subst.uv_structure_checks(5)


def claim_vn_oracle_sim(seed: int = 0) -> Report:
    rep = Report("vn-oracle-sim")
    rng = random.Random(seed)
    vn2 = presets.vn2()
    agree = 0
    oracles_agree = 0
    nulls = 0
    by_window: dict = {}  # window radius -> (config, oracle) in draw order
    for _ in range(200):
        c = random_config(Z2, 2, rng, radius=10, max_cells=6)
        m = rng.randint(0, 3)
        oracle = z2subst.exact_trace_null(c, m)
        oracles_agree += oracle == linearca.null_trace_forever(vn2, c, m)
        by_window.setdefault(m, []).append((c, oracle))
        nulls += oracle
    for m, reads in by_window.items():
        hits = engine.first_nonzero_times(vn2, [c for c, _ in reads],
                                          Z2.origin_ball(m), 512)
        agree += sum(oracle == (hit is None)
                     for (_, oracle), hit in zip(reads, hits))
    rep.expect("oracle agrees with t<=512 simulation", agree == 200,
               f"200 random configs in B_10 ({nulls} null)")
    rep.expect("u/v oracle agrees with the general decimation oracle",
               oracles_agree == 200, "200 random configs")
    return rep


def claim_vn_witness(seed: int = 0) -> Report:
    rep = Report("vn-2exp-witness")
    for k in (3, 4, 5):
        w = z2subst.vn_witness(k)
        shielded = (1 << (k - 1)) - 1
        rep.expect(f"scale-{k} witness null at m={shielded} (exact)",
                   z2subst.exact_trace_null(w, shielded),
                   f"spots {sorted(w.cells)}")
        rep.expect(f"scale-{k} witness also null at m={shielded + 1} (exact)",
                   z2subst.exact_trace_null(w, shielded + 1))
        rep.expect(f"scale-{k} witness not null at m={shielded + 2}",
                   not z2subst.exact_trace_null(w, shielded + 2))
    verdict = kexp_search(presets.vn2(), k=2, support_radius=8, window=3,
                          t_max=256)
    rep.expect("k=2 search finds an exact-certified witness",
               verdict.found and verdict.certified_exact, str(verdict))
    return rep


def claim_vn_three_trace(seed: int = 0) -> Report:
    return z2subst.three_trace_check(7)


def claim_vn_kexp1(seed: int = 0) -> Report:
    rep = Report("vn-kexp1")
    verdict = kexp_search(presets.vn2(), k=1, support_radius=6, window=1,
                          t_max=128)
    rep.expect("no single-cell witness at R=6, m=1, t_max=128",
               not verdict.found, str(verdict))
    return rep


# criterion 8: triangular-rule null trace

def claim_tri_null(seed: int = 0) -> Report:
    rep = z2subst.tri_claim_check(t_sim=2048)
    verdict = kexp_search(presets.tri2(), k=1, support_radius=40, window=2,
                          t_max=512)
    rep.expect("single-spot search finds a witness, certified exact",
               verdict.found and verdict.certified_exact, str(verdict))
    return rep


# criterion 9: engine invariants

def _invariant_rules():
    return [presets.f2(), presets.f3(), presets.vn2(), presets.tri2(),
            presets.mult(3, 2), presets.psi(), presets.upsilon(),
            presets.layered(2),
            LinearRule(Z, 5, {-2: 3, 0: 1, 1: 4}),
            presets.lambda_rule(2)]


def claim_engine_invariants(seed: int = 0) -> Report:
    rep = Report("engine-invariants")
    rng = random.Random(seed)
    rules = _invariant_rules()

    # pin the sign convention: a spot at s with a coefficient at offset v
    # contributes at s - v
    conv = LinearRule(Z, 7, {3: 2})
    out = engine.step(conv, Configuration(Z, 7, {10: 1}))
    rep.expect("shift convention: spot at 10, offset 3 lands at 7",
               out.cells == {7: 2})

    bad = 0
    for _ in range(1000):
        rule = rules[rng.randrange(len(rules))]
        c = random_config(rule.lattice, rule.q, rng, radius=4, max_cells=5)
        z = rng.choice(rule.lattice.origin_ball(3))
        if engine.step(rule, c.shift(z)) != engine.step(rule, c).shift(z):
            bad += 1
    rep.expect("shift equivariance", bad == 0, "1000 cases")

    linear_rules = [r for r in rules if r.is_linear]
    bad = 0
    for _ in range(1000):
        rule = linear_rules[rng.randrange(len(linear_rules))]
        c = random_config(rule.lattice, rule.q, rng, radius=4, max_cells=5)
        d = random_config(rule.lattice, rule.q, rng, radius=4, max_cells=5)
        lhs = engine.step(rule, c.add(d, rule.alphabet))
        rhs = engine.step(rule, c).add(engine.step(rule, d), rule.alphabet)
        if lhs != rhs:
            bad += 1
    rep.expect("linearity of linear rules", bad == 0, "1000 cases")

    bad = 0
    for _ in range(1000):
        rule = rules[rng.randrange(len(rules))]
        c = random_config(rule.lattice, rule.q, rng, radius=4, max_cells=5)
        post = engine.step(rule, c)
        allowed = {rule.lattice.sub(s, v)
                   for s in c.cells for v in rule.neighborhood}
        if not set(post.cells) <= allowed:
            bad += 1
    rep.expect("support containment", bad == 0, "1000 cases")

    z_rules = [r for r in rules if r.lattice == Z]
    by_rule: dict = {}  # rule -> its pairs, all drawn before any front
    drawn = 0
    while drawn < 1000:  # redraw a pair with c == d
        rule = z_rules[rng.randrange(len(z_rules))]
        c = random_config(Z, rule.q, rng, radius=6, max_cells=5)
        d = random_config(Z, rule.q, rng, radius=6, max_cells=5)
        if c != d:
            by_rule.setdefault(rule, []).append((c, d))
            drawn += 1
    bad = 0
    for rule, pairs in by_rule.items():
        r = rule.radius
        for fr in engine.fronts_many(rule, pairs, 15):
            for t in range(15):
                a, b = fr.l[t], fr.l[t + 1]
                if a is not None and b is not None and abs(b - a) > r:
                    bad += 1
                a, b = fr.r[t], fr.r[t + 1]
                if a is not None and b is not None and abs(b - a) > r:
                    bad += 1
                if fr.l[t] is not None and fr.l[t] > fr.r[t]:
                    bad += 1
    rep.expect("front step bounds", bad == 0, "1000 pairs, t<=15")

    bad = 0
    for _ in range(1000):
        rule = rules[rng.randrange(len(rules))]
        c = random_config(rule.lattice, rule.q, rng, radius=3, max_cells=4)
        m = rng.randint(0, 2)
        t = rng.randint(0, 6)
        ball = rule.lattice.origin_ball(m)
        got = engine.window_series(rule, c, ball, t)[t].tolist()
        if got != list(engine.iterate(rule, c, t).restrict(ball)):
            bad += 1
    rep.expect("trace consistency with iterate", bad == 0, "1000 cases")
    return rep


# criterion 10: witness additivity

def claim_witness_additivity(seed: int = 0) -> Report:
    rep = Report("witness-additivity")
    c1 = z2subst.vn_witness(3)
    c2 = z2subst.vn_witness(5)
    both = c1.add(c2, presets.vn2().alphabet)
    rep.expect("superposition has 4 differences", len(both) == 4,
               f"{sorted(both.cells)}")
    rep.expect("superposed trace null at m=3 (exact oracle)",
               z2subst.exact_trace_null(both, 3))
    hit = engine.first_nonzero_time(presets.vn2(), both, Z2.origin_ball(3), 512)
    rep.expect("simulation cross-check through t=512", hit is None)
    return rep


# ---------------------------------------------------------------------------

CLAIMS: dict[str, tuple[str, object]] = {
    "psi-relation": ("dependency identity of the second-order mod-3 rule",
                     claim_psi_relation),
    "psi-landmarks": ("landmark values and zero band of the spot orbit",
                      claim_psi_landmarks),
    "upsilon-glider": ("left-moving soliton and k=2,3 trace collisions",
                       claim_upsilon_glider),
    "second-order": ("reversibility and linearity of the wrappers",
                     claim_second_order),
    "mult-ca": ("multiplication family: bijection, value recurrence, fronts",
                claim_mult),
    "freegroup": ("layer structure, two-spot witness, every odd k by rank",
                  claim_freegroup),
    "vn-uv": ("substitution words equal simulated traces (k=6)", claim_vn_uv),
    "vn-structure": ("square/parity/diagonal structure of the words (k=5)",
                     claim_vn_structure),
    "vn-oracle-sim": ("both exact oracles vs 512-step simulation, 200 configs",
                      claim_vn_oracle_sim),
    "vn-2exp-witness": ("two-spot witnesses certified null, k=3,4,5",
                        claim_vn_witness),
    "vn-three-trace": ("null trace sums of three cells contain a null member",
                       claim_vn_three_trace),
    "vn-kexp1": ("no single-cell witness within bounds", claim_vn_kexp1),
    "tri-null": ("triangular rule: null radius-2 trace of the (0,36) spot",
                 claim_tri_null),
    "engine-invariants": ("shift equivariance, linearity, fronts, traces",
                          claim_engine_invariants),
    "witness-additivity": ("superposed separated witnesses stay null",
                           claim_witness_additivity),
}


@dataclass
class ClaimResult:
    name: str
    ok: bool
    report: Report
    seconds: float


def run_claims(names=None, seed: int = 0) -> list[ClaimResult]:
    if names is None:
        names = list(CLAIMS)
    results = []
    for name in names:
        if name not in CLAIMS:
            raise UsageError(f"unknown claim {name!r}; known: {', '.join(CLAIMS)}")
        fn = CLAIMS[name][1]
        t0 = time.perf_counter()
        report = fn(seed=seed)
        results.append(ClaimResult(name=name, ok=report.ok, report=report,
                                   seconds=time.perf_counter() - t0))
    return results
