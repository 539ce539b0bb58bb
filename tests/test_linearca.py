import itertools
import random

import numpy as np
import pytest

from caexp import engine, linearca, presets
from caexp.config import Configuration, random_config
from caexp.errors import ResourceLimitError, UsageError
from caexp.lattice import Z, Z2, size_domain
from caexp.rules import LayeredFlipRule, LinearRule, SecondOrderInverseRule
from caexp.z2subst import exact_trace_null


def _rule_id(rule):
    """A linear rule's test id, m and its coefficients joined by commas on
    every lattice, so that the ids of these cases stay fixed whatever
    ``LinearRule.describe`` prints."""
    terms = sorted(rule.coeffs.items())
    return f"linear m={rule.m} coeffs=" + ",".join(
        f"{rule.lattice.format_site(v)}:{a}" for v, a in terms)


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


def test_rank_stops_once_the_columns_are_spanned():
    # three independent columns of three entries span every later one, which
    # is then not read
    def columns():
        yield from np.eye(3, dtype=np.int64)
        raise AssertionError("a column past full rank was read")
    assert linearca.gfp_rank(columns(), 3) == 3


def test_primality_and_factorization():
    # Miller-Rabin against a sieve, strong pseudoprimes to the first bases
    # among the inputs, and factorizations multiplied back
    n_max = 20_000
    sieve = [False, False] + [True] * (n_max - 1)
    for p in range(2, n_max + 1):
        if sieve[p]:
            sieve[p * p::p] = [False] * len(sieve[p * p::p])
    assert [linearca.is_prime(n) for n in range(n_max + 1)] == sieve
    for n in (2047, 1373653, 3215031751, 3825123056546413051,
              318665857834031151167461):
        assert not linearca.is_prime(n)
    for p in (2 ** 61 - 1, 2 ** 64 + 13, 2 ** 81 - 51):
        assert linearca.is_prime(p)
    rng = random.Random(3)
    for n in [rng.randrange(2, 10 ** 12) for _ in range(200)] + [
            2 ** 100, 3 ** 40 * (2 ** 61 - 1), 999983 ** 2]:
        factors = linearca.factorize(n)
        assert all(linearca.is_prime(p) for p, _ in factors)
        assert [p for p, _ in factors] == sorted({p for p, _ in factors})
        prod = 1
        for p, e in factors:
            prod *= p ** e
        assert prod == n
    # a modulus near 2^64 is prime, decided at once rather than by trial
    # division; two prime factors above the trial cap are refused, and so is
    # a primality test past the Miller-Rabin bound
    assert linearca.factorize(2 ** 64 + 13) == [(2 ** 64 + 13, 1)]
    assert linearca.null_trace_decidable(LinearRule(Z, 2 ** 64 + 13,
                                                    {-1: 3, 1: 5}))
    with pytest.raises(ResourceLimitError, match="trial divisor"):
        linearca.factorize(1_000_003 * 1_000_033)
    with pytest.raises(ResourceLimitError, match="primality"):
        linearca.is_prime(10 ** 25 + 13)


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
        cells = rng.sample(Z.origin_ball(5), rng.randint(1, 5))
        c = Configuration(Z, lay.q, {s: rng.choice([1, 2, 3])  # last layer clear
                                     for s in cells})
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
], ids=_rule_id)
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


@pytest.mark.parametrize("rule", [
    presets.f2(), presets.f3(), presets.vn2(), presets.tri2(),
    LinearRule(Z, 5, {-2: 3, 0: 1, 1: 4}),
    LinearRule(Z2, 3, {(1, 0): 2, (0, -1): 1, (-1, 1): 2}),
    LinearRule(Z, 3, {1: 1, 2: 2}),                    # one-sided
    LinearRule(Z2, 2, {(0, 0): 1, (1, 0): 1, (0, 2): 1}),  # one-sided, r = 2
], ids=_rule_id)
def test_decimated_spot_series_matches_sparse_orbit(rule):
    # horizons around the first two decimation levels, on boxes smaller than
    # the rule radius (each row on H is cropped to the box), equal to it and
    # wider; the spot's state scales the orbit
    assert engine._decimation_runs(rule)
    lat, p = rule.lattice, rule.m
    r = max(lat.size_norm(v) for v in rule.coeffs)
    for t_max in sorted({0, 1, p - 1, p, p * p + 1}):
        for R in sorted({0, r - 1, r, r + 3}):
            sites = size_domain(lat, R)
            spot = Configuration.spot(lat, p, p - 1)
            want = np.array([cur.restrict(sites) for cur in
                             engine._sparse_orbit(rule, spot, t_max, sites)])
            series = engine.spot_series(rule, p - 1, R, t_max)
            assert series.dtype == (np.uint8 if p == 2 else np.int64)
            assert np.array_equal(series, want), (t_max, R)


def _sparse_hit(rule, c, sites, t_max):
    """The first t <= t_max at which the sparse orbit is nonzero on sites."""
    return next((t for t, cur in enumerate(
        engine._sparse_orbit(rule, c, t_max, sites)) if any(cur.restrict(sites))),
        None)


@pytest.mark.parametrize("rule", [
    presets.f2(), presets.f3(), presets.vn2(), presets.tri2(),
    LinearRule(Z, 5, {-2: 3, 0: 1, 1: 4}),
    LinearRule(Z2, 3, {(1, 0): 2, (0, -1): 1, (-1, 1): 2}),
], ids=_rule_id)
def test_decimated_first_nonzero_time_matches_sparse_orbit(rule, monkeypatch):
    # multi-cell supports with states up to p - 1, read on balls that hold
    # some of the support and on balls moved off it, the first of them out of
    # reach of the support by t_max; each hit is read again with t_max at
    # the hit, where the last row decides, and one below it.  The early exit
    # gives the same hit by decimation and, where decimation refuses the
    # read, through window_series_many
    lat, p = rule.lattice, rule.m

    def refused(*args):
        raise ResourceLimitError("decimation refused")
    rng = random.Random(p * 10 + len(rule.coeffs))
    hits = set()
    for i in range(26):
        cells = rng.sample(lat.origin_ball(5), rng.randint(2, 5))
        c = Configuration(lat, p, {s: rng.randint(1, p - 1) for s in cells})
        move = rng.choice([0, 4, 9]) if i else 20  # the first, out of reach
        shift = (move, -move) if lat == Z2 else move
        sites = [lat.add(s, shift) for s in lat.origin_ball(rng.randint(0, 2))]
        t_max = rng.randint(0, 3 * p * p) if i else 4
        hit = _sparse_hit(rule, c, sites, t_max)
        assert linearca.decimated_first_nonzero_times(rule, [c], sites,
                                                      t_max) == [hit]
        assert engine.first_nonzero_time(rule, c, sites, t_max) == hit
        with monkeypatch.context() as m:
            m.setattr(linearca, "_decimated_rows", refused)
            assert engine.first_nonzero_time(rule, c, sites, t_max) == hit
        if hit:
            assert linearca.decimated_first_nonzero_times(
                rule, [c, c], sites, hit) == [hit, hit]
            assert linearca.decimated_first_nonzero_times(
                rule, [c], sites, hit - 1) == [None]
        hits.add(hit if hit in (None, 0) else "later")
    assert hits == {None, 0, "later"}


def test_early_exit_drops_the_support_cells_out_of_reach(monkeypatch):
    # S_t vanishes past t*r, so a support cell farther than t_max*r from the
    # read sites' box on an axis adds nothing to any read: a read left with
    # no cell answers None with no step, and the box is sized by the cells
    # within reach; a cell exactly t_max*r away is kept
    from caexp import dense1d
    steps, boxes = [], []
    step_body, decimated_rows = dense1d.steps, linearca._decimated_rows

    def counted_steps(*args):
        steps.append(args[0])
        return step_body(*args)

    def counted_rows(rule, state, R, t_max, reads=0):
        boxes.append(R)
        return decimated_rows(rule, state, R, t_max, reads)
    monkeypatch.setattr(dense1d, "steps", counted_steps)
    monkeypatch.setattr(linearca, "_decimated_rows", counted_rows)
    vn2, f3 = presets.vn2(), presets.f3()
    far = Configuration.spot(Z2, 2, 1, (300, 0))
    for read in (linearca.decimated_first_nonzero_times,
                 engine.first_nonzero_times):
        assert read(vn2, [far, far], Z2.origin_ball(1), 64) == [None, None]
    assert steps == boxes == []
    for rule, cells, sites, t_max, R in (
            (vn2, {(0, 3): 1, (200, 1): 1}, Z2.origin_ball(1), 8, 4),
            (vn2, {(2, -3): 1, (-1, 90): 1}, Z2.origin_ball(1), 12, 4),
            (f3, {4: 1, 1000: 2}, [0, 1], 10, 4),
            (f3, {-3: 2, 40: 1}, [0], 6, 3)):
        c = Configuration(rule.lattice, rule.q, cells)
        hit = _sparse_hit(rule, c, sites, t_max)
        assert hit is not None
        boxes.clear()
        assert linearca.decimated_first_nonzero_times(rule, [c], sites,
                                                      t_max) == [hit]
        assert boxes == [R]
    # the edge: the spot four cells off is kept through t=4 and dropped
    # through t=3
    edge = Configuration.spot(Z2, 2, 1, (0, 4))
    for t_max, hit, R in ((4, 4, 4), (3, None, None)):
        steps.clear()
        boxes.clear()
        assert linearca.decimated_first_nonzero_times(vn2, [edge], [(0, 0)],
                                                      t_max) == [hit]
        assert boxes == ([R] if R else []) and bool(steps) == bool(R)


def test_decimated_early_exit_is_refused_up_front(monkeypatch):
    # tri-null's spot and window through t=100: refused one word read below
    # its count, and with the array cap one byte below its source rows,
    # before any array is allocated; engine.first_nonzero_time then reads
    # the same answer through window_series_many.  The count is 101 rows of the
    # 79 x 79 box E, four uint8 reads a cell, the step charge, and 13
    # gathered offsets
    from caexp import cone, errors
    rule, window = presets.tri2(), Z2.origin_ball(2)
    c = Configuration.spot(Z2, 2, 1, (0, 36))
    count = 101 * (-(-79 * 79 * 4 // 8) + linearca._STEP_CHARGE + 13)
    store = 51 * 39 * 39  # source rows s <= 50 on the box |y| <= (38 + 1) // 2
    monkeypatch.setattr(cone, "MAX_CELL_STEPS", count)
    monkeypatch.setattr(errors, "MAX_ARRAY_BYTES", store)
    assert linearca.decimated_first_nonzero_times(rule, [c], window,
                                                  100) == [None]
    assert engine.first_nonzero_time(rule, c, window, 100) is None

    def no_alloc(*args, **kwargs):
        raise AssertionError("an array was allocated for a refused run")
    series = []
    window_series_many = engine.window_series_many
    monkeypatch.setattr(engine, "window_series_many",
                        lambda *args: series.append(window_series_many(*args))
                        or series[-1])
    for steps, nbytes, match in (
            (count - 1, store, f"decimated run of {count} "),
            (count, store - 1, "source rows")):
        monkeypatch.setattr(cone, "MAX_CELL_STEPS", steps)
        monkeypatch.setattr(errors, "MAX_ARRAY_BYTES", nbytes)
        with monkeypatch.context() as m:
            for name in ("array", "zeros", "empty"):
                m.setattr(np, name, no_alloc)
            with pytest.raises(ResourceLimitError, match=match):
                linearca.decimated_first_nonzero_times(rule, [c], window, 100)
        series.clear()
        assert engine.first_nonzero_time(rule, c, window, 100) is None
        assert len(series) == 1 and series[0][0].shape == (101, len(window))


def test_spot_series_steps_where_int64_would_overflow(monkeypatch):
    # 2 * (p-1)^2 passes 2^63 for this prime: the sparse step reads the box
    p = 3_100_000_027
    rule = LinearRule(Z, p, {-1: 1, 1: p - 1})
    assert linearca.is_prime(p) and not engine._decimation_runs(rule)

    def no_decimation(*args):
        raise AssertionError("decimation past exact int64")
    monkeypatch.setattr(linearca, "decimated_spot_series", no_decimation)
    series = engine.spot_series(rule, 1, 2, 6)
    spot = Configuration.spot(Z, p, 1)
    assert np.array_equal(series, engine.window_series(rule, spot,
                                                       Z.origin_ball(2), 6))
    assert series[2].tolist() == [1, 0, p - 2, 0, 1]
