import itertools
import random

import numpy as np
import pytest

from caexp import engine, linearca, presets
from caexp.config import Configuration, random_config
from caexp.errors import ResourceLimitError, UsageError
from caexp.lattice import Z, Z2
from caexp.rules import LayeredFlipRule, LinearRule, SecondOrderInverseRule
from caexp.z2subst import exact_trace_null


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rank_counts_the_kernel(p):
    # rank = columns - log_p |kernel|, the kernel counted by enumeration;
    # low-rank products and repeated rows exercise the dependent cases
    rng = np.random.default_rng(p)
    for trial in range(12):
        rows, cols = int(rng.integers(1, 8)), int(rng.integers(1, 5))
        a = rng.integers(0, p, size=(rows, cols))
        if trial % 3 == 1:
            a = rng.integers(0, p, size=(rows, 2)) @ rng.integers(0, p, size=(2, cols))
        if trial % 3 == 2:
            a = np.vstack([a, a])
        kernel = sum(not np.any(a @ np.array(x) % p)
                     for x in itertools.product(range(p), repeat=cols))
        rank = linearca.gfp_rank(a, p)
        assert p ** (cols - rank) == kernel
    with pytest.raises(UsageError):
        linearca.gfp_rank(np.eye(2, dtype=np.int64), 4)
    # past 3 * 10^9 the int64 products overflow: at the prime 2^40 + 15 six
    # random columns of length 4 came back with rank 6 before the refusal
    big = 2 ** 40 + 15
    columns = np.random.default_rng(0).integers(0, big, size=(4, 6)).T
    with pytest.raises(UsageError):
        linearca.gfp_rank(columns, big)


def test_crt_decompose_m6():
    rule = LinearRule(Z, 6, {-1: 1, 1: 1})
    parts = linearca.crt_decompose(rule)
    assert [p.m for p in parts] == [2, 3]
    assert all(p.coeffs == {-1: 1, 1: 1} for p in parts)


def test_crt_decompose_prime_power_unchanged():
    rule = LinearRule(Z, 4, {0: 2, 1: 3})
    parts = linearca.crt_decompose(rule)
    assert len(parts) == 1 and parts[0].m == 4
    assert parts[0].coeffs == rule.coeffs


def test_crt_recombination_matches_direct_step():
    # each prime-power part steps the residues of c exactly as the direct
    # step does, reduced mod p^e
    rng = random.Random(17)
    rule = LinearRule(Z, 6, {-1: 5, 0: 2, 2: 3})
    parts = linearca.crt_decompose(rule)
    assert [p.m for p in parts] == [2, 3]
    for _ in range(100):
        c = random_config(Z, 6, rng, radius=6, max_cells=6)
        direct = engine.step(rule, c)
        for part in parts:
            mod = part.m
            residues = Configuration(Z, mod, {s: v % mod for s, v in c.cells.items()})
            want = {s: v % mod for s, v in direct.cells.items() if v % mod}
            assert engine.step(part, residues).cells == want


def test_amplify_minimal_scale():
    vn = presets.vn2()
    c = Configuration(Z2, 2, {(1, 0): 1, (0, 2): 1})
    out = linearca.amplify(vn, c, 1)   # m_target <= p-1 forces k=1
    assert sorted(out.cells) == [(0, 4), (2, 0)]
    assert len(out) == len(c)


def test_amplify_witness_stays_null():
    from caexp.z2subst import vn_witness
    vn = presets.vn2()
    w = vn_witness(3)           # null T_3 (and T_1, the rule radius)
    out = linearca.amplify(vn, w, 7)
    assert sorted(out.cells) == [(-64, 32), (64, 32)]
    assert exact_trace_null(out, 7)


def test_amplify_rejects_zero():
    with pytest.raises(UsageError):
        linearca.amplify(presets.vn2(), Configuration.zero(Z2, 2), 3)


def test_second_order_spot():
    psi = presets.psi()
    enc = psi.alphabet.encode
    out = engine.step(psi, Configuration(Z, 9, {0: enc(1, 0)}))
    assert out.cells == {0: enc(0, 1)}


def test_second_order_inverse_composition():
    rng = random.Random(23)
    for rule in (presets.psi(), presets.upsilon()):
        inv = SecondOrderInverseRule(rule)
        for _ in range(100):
            c = random_config(Z, rule.q, rng, radius=6, max_cells=6)
            assert engine.step(inv, engine.step(rule, c)) == c
            assert engine.step(rule, engine.step(inv, c)) == c


def test_second_order_inverse_needs_wrapper():
    with pytest.raises(UsageError):
        SecondOrderInverseRule(presets.f3())


def test_layered_flip_resets_last_layer():
    rng = random.Random(29)
    lay = presets.layered(2)
    flip_bit = 1 << lay.k
    for _ in range(30):
        c = random_config(Z, lay.q, rng, radius=5, max_cells=5)
        out = engine.step(lay, c)
        assert all(v & flip_bit == 0 for v in out.cells.values())


def test_layered_flip_acts_as_product_on_clean_configs():
    rng = random.Random(31)
    lay = presets.layered(2)
    f2 = presets.f2()
    for _ in range(30):
        c = random_config(Z, lay.q, rng, radius=5, max_cells=5,
                          states=[1, 2, 3])  # last layer clear
        out = engine.step(lay, c)
        for layer in (0, 1):
            part = Configuration(Z, 2, {s: (v >> layer) & 1
                                        for s, v in c.cells.items()})
            expect = engine.step(f2, part)
            got = {s: (v >> layer) & 1 for s, v in out.cells.items()}
            got = {s: v for s, v in got.items() if v}
            assert got == expect.cells


def test_layered_flip_offset():
    # a lone layer-(k+1) mark flips layer i at z + 3i
    lay = presets.layered(2)
    z = 4
    c = Configuration(Z, lay.q, {z: 1 << lay.k})
    out = engine.step(lay, c)
    assert out.cells == {z + 3: 0b01, z + 6: 0b10}


def test_layered_flip_collision_beyond_k():
    # an explicit (k+2)-difference pair with equal images
    lay = presets.layered(2)
    k = lay.k
    cells = {0: 1 << k, 2: 1 << k}
    for i in range(1, k + 1):
        site = 3 * i + 1
        cells[site] = cells.get(site, 0) | (1 << (i - 1))
    c = Configuration.zero(Z, lay.q)
    d = Configuration(Z, lay.q, cells)
    assert c.diff_count(d) == k + 2
    assert engine.step(lay, c) == engine.step(lay, d)


def test_layered_flip_validation():
    with pytest.raises(UsageError):
        LayeredFlipRule(LinearRule(Z, 2, {-2: 1, 2: 1}), 2)  # radius 2
    with pytest.raises(UsageError):
        LayeredFlipRule(presets.f3(), 2)  # not binary


def test_rule_radius():
    assert presets.f3().radius == 1
    assert presets.vn2().radius == 1
    assert presets.tri2().radius == 2
    assert presets.layered(2).radius == 6   # reads layer k+1 at offset -3k
    assert presets.mult(3, 2).radius == 1


def test_empty_config_size():
    assert Configuration.zero(Z2, 2).size() == 0


# ---------------------------------------------------------------------------
# the exact null-trace oracle

def test_null_trace_oracle_matches_uv_oracle():
    vn = presets.vn2()
    rng = random.Random(31)
    nulls = 0
    for _ in range(60):
        c = random_config(Z2, 2, rng, radius=8, max_cells=5)
        m = rng.randint(0, 3)
        got = linearca.null_trace_forever(vn, c, m)
        assert got == exact_trace_null(c, m)
        nulls += got
    assert nulls > 0
    from caexp.z2subst import vn_witness
    for k in (3, 4, 5):
        w = vn_witness(k)
        shielded = (1 << (k - 1)) - 1
        for m in (shielded, shielded + 1, shielded + 2):
            assert linearca.null_trace_forever(vn, w, m) == exact_trace_null(w, m)


def test_null_trace_oracle_decides_tri_spots():
    tri = presets.tri2()
    assert linearca.null_trace_forever(tri, Configuration.spot(Z2, 2, 1, (0, 36)), 2)
    assert not linearca.null_trace_forever(
        tri, Configuration.spot(Z2, 2, 1, (0, -36)), 2)


@pytest.mark.parametrize("rule", [
    presets.f2(), presets.f3(),
    LinearRule(Z, 5, {1: 2, 2: 3}),
    LinearRule(Z, 5, {-1: 1, 0: 4, 2: 2}),
    LinearRule(Z2, 3, {(1, 0): 1, (0, 1): 2, (1, 1): 1}),
], ids=lambda r: r.describe())
def test_null_trace_oracle_matches_simulation(rule):
    # oracle-null implies simulated-null; a simulated nonzero implies not null
    rng = random.Random(37)
    t_max = 160 if rule.lattice == Z else 48  # Z^2 mod 3 steps sparsely
    for _ in range(40):
        c = random_config(rule.lattice, rule.q, rng, radius=6, max_cells=4)
        m = rng.randint(0, 2)
        ball = rule.lattice.origin_ball(m)
        if linearca.null_trace_forever(rule, c, m):
            assert not engine.window_series(rule, c, ball, t_max).any()


def test_null_trace_oracle_certifies_mod3_z2_witness():
    rule = LinearRule(Z2, 3, {(1, 0): 1, (0, 1): 2, (1, 1): 1})
    c = Configuration(Z2, 3, {(-4, 0): 1, (-5, 2): 2})
    assert linearca.null_trace_forever(rule, c, 1)
    assert not engine.window_series(rule, c, Z2.origin_ball(1), 243).any()


def test_null_trace_oracle_scope():
    # prime and squarefree moduli are decided; prime powers are not
    spot = Configuration.spot
    for rule in (LinearRule(Z, 4, {1: 1}), LinearRule(Z, 12, {1: 1, -1: 1}),
                 presets.psi(), presets.mult(3, 2), presets.lambda_rule(2)):
        assert not linearca.null_trace_decidable(rule)
        with pytest.raises(UsageError):
            linearca.null_trace_forever(rule, spot(rule.lattice, rule.q, 1), 1)
    for rule in (presets.f2(), presets.f3(), presets.vn2(), presets.tri2(),
                 LinearRule(Z, 6, {1: 1, -1: 1})):
        assert linearca.null_trace_decidable(rule)
    with pytest.raises(UsageError):
        linearca.null_trace_forever(presets.f3(), spot(Z, 3, 1), -1)
    assert linearca.null_trace_forever(presets.f3(), Configuration.zero(Z, 3), 2)


def _vn_sum_mod6():
    # the von Neumann sum rule mod 6: vn2 mod 2 and its mod-3 twin
    offsets = [(0, 0), (0, 1), (1, 0), (0, -1), (-1, 0)]
    return LinearRule(Z2, 6, {v: 1 for v in offsets})


def test_null_trace_oracle_squarefree_modulus():
    # 3 is 1 mod 2 and 0 mod 3: a vn2 null pair on the mod-2 part, nothing on
    # the mod-3 part; value 1 also puts the pair on the mod-3 part, where
    # its trace shows
    rule = _vn_sum_mod6()
    sites = [(-4, 2), (4, 2)]
    ball = Z2.origin_ball(1)
    null = Configuration(Z2, 6, {s: 3 for s in sites})
    assert linearca.null_trace_forever(rule, null, 1)
    assert not engine.window_series(rule, null, ball, 64).any()
    ones = Configuration(Z2, 6, {s: 1 for s in sites})
    assert not linearca.null_trace_forever(rule, ones, 1)
    assert engine.window_series(rule, ones, ball, 64).any()


def test_null_trace_oracle_vanishing_prime_part():
    # 2 * c(x+1) mod 6 is the zero map mod 2: crt_decompose leaves that prime
    # out, and only t = 0 can show there
    rule = LinearRule(Z, 6, {1: 2})
    assert [part.m for part in linearca.crt_decompose(rule)] == [3]
    ball = Z.origin_ball(1)
    for cells, null in (({2: 3}, True), ({1: 3}, False), ({2: 1}, False),
                        ({5: 4}, False)):
        c = Configuration(Z, 6, cells)
        assert linearca.null_trace_forever(rule, c, 1) == null, cells
        assert (not engine.window_series(rule, c, ball, 12).any()) == null


def test_kexp_certifies_squarefree_z2_witness():
    from caexp.expansivity import kexp_search
    verdict = kexp_search(_vn_sum_mod6(), k=2, support_radius=4, window=1,
                          t_max=16)
    assert verdict.found and verdict.certified_exact


def test_null_trace_oracle_cap(monkeypatch):
    from caexp.expansivity import kexp_search
    from caexp.z2subst import vn_witness
    monkeypatch.setattr(linearca, "_CELL_CAP", 3)
    with pytest.raises(ResourceLimitError):
        linearca.null_trace_forever(presets.vn2(), vn_witness(3), 3)
    verdict = kexp_search(presets.vn2(), k=2, support_radius=8, window=3,
                          t_max=128)
    assert verdict.found and not verdict.certified_exact


def test_kexp_certifies_prime_z_witness():
    from caexp.expansivity import kexp_search
    rule = LinearRule(Z, 5, {1: 2, 2: 3})
    verdict = kexp_search(rule, k=1, support_radius=4, window=1, t_max=16)
    assert verdict.found and verdict.certified_exact
    composite = LinearRule(Z, 4, {1: 2})
    verdict = kexp_search(composite, k=1, support_radius=4, window=1, t_max=16)
    assert verdict.found and not verdict.certified_exact
