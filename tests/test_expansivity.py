import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from caexp import bitgrid, dense1d, engine, errors, expansivity, linearca, presets
from caexp.config import Configuration, random_config
from caexp.errors import ResourceLimitError, UsageError
from caexp.expansivity import (directional_fronts, g_value, kexp_search,
                               mult_front_checks, mult_params,
                               pair_preexp_probe, psi_landmarks,
                               psi_relation_config_check, psi_relation_sweep,
                               size_domain, upsilon_glider)
from caexp.lattice import Z, Z2
from caexp.rules import LinearRule
from caexp.z2subst import exact_trace_null

_PRESET_NAMES = {getattr(presets, n)().describe(): n
                 for n in ("f2", "f3", "vn2", "tri2")}


def _rule_id(v):
    """A case's id as these tests have printed it: a linear preset's name,
    linear(m=...) for any other linear rule, else the rule's name."""
    if isinstance(v, LinearRule):
        return _PRESET_NAMES.get(v.describe(), f"linear(m={v.m})")
    return getattr(v, "name", None)


def test_size_domain():
    assert size_domain(Z, 2) == [-2, -1, 0, 1, 2]
    assert (8, 4) in size_domain(Z2, 8)   # L1 norm 12 but size 8
    # a ball on F_n, refused past 2^64 sites before its size is formed
    f2 = presets.lambda_rule(2).lattice
    assert size_domain(f2, 2) == f2.origin_ball(2)
    assert len(size_domain(f2, 2)) == f2.ball_size(2) == 17
    with pytest.raises(ResourceLimitError, match="more than 2\\^64 sites"):
        size_domain(f2, 10 ** 9)


def test_free_group_search_finds_the_two_spot_witness():
    # the same search reaches the free group's non-2-expansivity witness: two
    # children of the generator a, equidistant from every window cell, which
    # is what fg_non2exp_witness checks
    rule = presets.lambda_rule(2)
    lat = rule.lattice
    v = kexp_search(rule, k=2, support_radius=2, window=1, t_max=12)
    assert v.found and v.witness.cells == {(1, 1): 1, (1, 2): 1}
    x, y = v.witness.cells
    assert all(lat.norm(lat.add(lat.neg(w), x)) == lat.norm(lat.add(lat.neg(w), y))
               for w in lat.origin_ball(1))
    assert not kexp_search(rule, k=1, support_radius=2, window=1,
                           t_max=12).found


def test_kexp_rejects_bad_args():
    with pytest.raises(UsageError):
        kexp_search(presets.vn2(), k=0, support_radius=2, window=1, t_max=8)
    with pytest.raises(UsageError):
        kexp_search(presets.mult(3, 2), k=1, support_radius=2, window=1,
                    t_max=8)  # not linear for its alphabet


def test_capped_count_matches_binomials():
    for box in range(13):
        for s in range(15):
            for q in range(2, 6):
                exact = math.comb(box, s) * (q - 1) ** s
                for cap in (0, 1, 2, 7, 100, max(exact - 1, 0), exact, 10 ** 6):
                    want = exact if exact <= cap else cap + 1
                    assert expansivity._capped_count(box, q, s, cap) == want


def test_kexp_budget(monkeypatch):
    monkeypatch.setattr(expansivity, "_MAX_CANDIDATES", 1000)
    with pytest.raises(ResourceLimitError):
        kexp_search(presets.vn2(), k=5, support_radius=20, window=1, t_max=8)
    # f3 k=1 on the size-4 box: 9 sites * 2 states, run at a budget of 18
    monkeypatch.setattr(expansivity, "_MAX_CANDIDATES", 18)
    assert kexp_search(presets.f3(), k=1, support_radius=4, window=1,
                       t_max=8).searched == 18
    monkeypatch.setattr(expansivity, "_MAX_CANDIDATES", 17)
    with pytest.raises(ResourceLimitError, match=r"k=1, R=4, q=3\) exceeds "
                       r"the 17 candidate budget"):
        kexp_search(presets.f3(), k=1, support_radius=4, window=1, t_max=8)


def test_kexp_finds_nilpotent_witness():
    # doubling rule mod 4: a lone spot away from the window dies instantly
    rule = LinearRule(Z, 4, {1: 2})
    verdict = kexp_search(rule, k=1, support_radius=4, window=1, t_max=16)
    assert verdict.found
    assert verdict.witness.diff_count(Configuration.zero(Z, 4)) == 1


def test_kexp_no_witness_for_permutive_rule():
    verdict = kexp_search(presets.f3(), k=1, support_radius=4, window=1,
                          t_max=32)
    assert not verdict.found
    assert verdict.searched == 9 * 2


def test_kexp_vn_quick():
    vn = presets.vn2()
    assert not kexp_search(vn, k=1, support_radius=4, window=1, t_max=64).found
    verdict = kexp_search(vn, k=2, support_radius=8, window=3, t_max=128)
    assert verdict.found and verdict.certified_exact
    # the construction from the doubling geometry is itself a witness
    from caexp.z2subst import vn_witness
    assert exact_trace_null(vn_witness(3), 3)


def test_probe_agrees_with_kexp_on_linear_rules():
    rule = LinearRule(Z, 4, {1: 2})
    k1 = kexp_search(rule, k=1, support_radius=3, window=1, t_max=16)
    p1 = pair_preexp_probe(rule, k=1, R=3, m=1, t_max=16)
    assert k1.found == p1.found == True  # noqa: E712
    f3 = presets.f3()
    k2 = kexp_search(f3, k=2, support_radius=3, window=1, t_max=32)
    p2 = pair_preexp_probe(f3, k=2, R=3, m=1, t_max=32)
    assert k2.found == p2.found == False  # noqa: E712
    # every (0, 2)- and (1, 1)-support pair: 84 + 14*13/2
    assert p2.searched == 175


def test_probe_vacuous_when_k_too_large():
    verdict = pair_preexp_probe(presets.f3(), k=60, R=2, m=1, t_max=8)
    assert not verdict.found
    assert verdict.searched == 0


def test_probe_finds_glider_collision():
    ups = presets.upsilon()
    verdict = pair_preexp_probe(ups, k=2, R=6, m=1, t_max=64)
    assert verdict.found
    c, d = verdict.pair
    assert c.diff_count(d) == 2
    assert engine.traces_equal(ups, c, d, 1, 64)


def test_probe_budget(monkeypatch):
    # the budget counts only the pairs searched: 7722 + 39*702 = 35 100,
    # which runs at a budget of 35 100 and is refused at 35 099
    monkeypatch.setattr(expansivity, "_MAX_PAIRS", 35_100)
    assert pair_preexp_probe(presets.upsilon(), k=3, R=6, m=1, t_max=8).found
    monkeypatch.setattr(expansivity, "_MAX_PAIRS", 35_099)
    with pytest.raises(ResourceLimitError, match=r"k=3, R=6, q=4\) exceeds "
                       r"the 35099 budget"):
        pair_preexp_probe(presets.upsilon(), k=3, R=6, m=1, t_max=8)


def test_directional_alpha_zero_reduces_to_fronts():
    f3 = presets.f3()
    c = Configuration.spot(Z, 3, 1)
    zero = Configuration.zero(Z, 3)
    d = directional_fronts(f3, c, zero, 0, 10)
    fr = engine.fronts(f3, c, zero, 10)
    assert d.adj_l == fr.l and d.adj_r == fr.r


def test_directional_shift_rule_constant():
    shift = LinearRule(Z, 2, {-1: 1})   # support moves right one per step
    c = Configuration.spot(Z, 2, 1, 5)
    zero = Configuration.zero(Z, 2)
    d = directional_fronts(shift, c, zero, 1, 12)
    assert set(d.adj_l) == {5} and set(d.adj_r) == {5}


def test_directional_psi_escapes():
    # psi's fronts run at speed 1 less one cell.  At drift 1/4 the adjusted
    # right front grows at rate 3/4, so it clears the threshold t_max/2
    # within the horizon; at drift 1/2 it grows at rate 1/2 and stops one
    # cell short of it
    psi = presets.psi()
    c = Configuration(Z, 9, {0: 3})  # state (1,0)
    zero = Configuration.zero(Z, 9)
    d = directional_fronts(psi, c, zero, Fraction(1, 4), 40)
    assert d.threshold == 20
    assert d.escapes_below and d.escapes_above
    d = directional_fronts(psi, c, zero, Fraction(1, 2), 40)
    assert d.escapes_below and not d.escapes_above
    assert max(v for v in d.adj_r if v is not None) == 19


def test_psi_relation_k0():
    rng = random.Random(4)
    for _ in range(50):
        c = random_config(Z, 9, rng, radius=6, max_cells=5)
        assert psi_relation_sweep([c], 0, 0) == (1, 0)


def test_psi_relation_spots_k2():
    # every (k, t) with k <= 2 and t <= 10, (2, 0), (2, 5) and (2, 10) among them
    spots = [Configuration(Z, 9, {0: state}) for state in range(1, 9)]
    for c in spots:
        assert psi_relation_sweep([c], 2, 10) == (33, 0)
    assert psi_relation_sweep(spots, 2, 10) == (8 * 33, 0)


def test_psi_relation_zero_config():
    assert psi_relation_sweep([Configuration.zero(Z, 9)], 1, 3) == (8, 0)
    assert psi_relation_sweep([], 1, 3) == (0, 0)


def test_psi_relation_sweep_counts_each_failing_comparison(monkeypatch):
    # a state changed in one configuration's orbit breaks the identity in
    # that configuration only: at the last time, in the one comparison that
    # reads it (k = k_max, t = t_max); at time 0, in the k_max + 1 that read
    # it as x[t], t = 0
    spots = [Configuration(Z, 9, {0: state}) for state in (1, 4, 8)]
    read = engine.window_series_many
    for time, bad in ((-1, 1), (0, 3)):
        def corrupted(*args):
            series = [s.copy() for s in read(*args)]
            series[1][time, series[1].shape[1] // 2] ^= 1
            return series
        monkeypatch.setattr(engine, "window_series_many", corrupted)
        assert psi_relation_sweep(spots, 2, 4) == (3 * 3 * 5, bad)


def test_psi_relation_paths_agree():
    rng = random.Random(8)
    for _ in range(5):
        c = random_config(Z, 9, rng, radius=4, max_cells=3)
        for (k, t, z) in [(0, 2, 1), (1, 4, -3)]:
            assert (psi_relation_sweep([c], k, t)[1] == 0) == \
                psi_relation_config_check(c, k, t, z)


def test_psi_landmarks_examples():
    assert psi_landmarks(0, 0, 1, 1).ok       # identically zero orbit
    rep = psi_landmarks(1, 1, 1, 1)           # value (1,2) at +-3
    assert rep.ok
    with pytest.raises(UsageError):
        psi_landmarks(3, 0, 1, 1)


def test_upsilon_glider_k2():
    g = upsilon_glider(0, 2)
    alpha = presets.upsilon().alphabet
    assert g.cells == {0: alpha.encode(0, 1), 1: alpha.encode(1, 0)}
    with pytest.raises(UsageError):
        upsilon_glider(0, 1)


def test_upsilon_glider_translation_range():
    ups = presets.upsilon()
    from caexp.expansivity import _glider
    for k in range(2, 9):
        g = upsilon_glider(0, k)
        assert g.diff_count(Configuration.zero(Z, 4)) == k
        assert engine.step(ups, g) == _glider(-1, k)


def test_mult_params_examples():
    p = mult_params(3, 2)
    assert (p.q, p.p) == (2, 0)
    p = mult_params(2, 4)
    assert (p.q, p.p) == (1, 2)
    with pytest.raises(UsageError):
        mult_params(1, 4)


def test_g_value_spot():
    c = Configuration(Z, 6, {0: 1})
    assert g_value(c, 6) == 1
    c2 = Configuration(Z, 6, {1: 3, -4: 5})  # negative positions ignored
    assert g_value(c2, 6) == Fraction(3, 6)


def test_mult_front_checks_quick():
    assert mult_front_checks(3, 2, samples=40, t_max=60).ok
    assert mult_front_checks(2, 4, samples=40, t_max=60).ok


def test_sensitivity_far_perturbation_shows():
    # a k=1 perturbation arbitrarily far outside the search radius still
    # changes the radius-1 trace: an odd neighbor of the perturbed cell
    # always answers, so the perturbed pair separates (vn rule, exact oracle
    # on the difference spot)
    rng = random.Random(6)
    for _ in range(20):
        far = (rng.randint(20, 60), rng.randint(-60, 60))
        diff = Configuration(Z2, 2, {far: 1})
        assert not exact_trace_null(diff, 1)


def test_layered_flip_no_witness_within_bounds():
    # the layered construction stays k'-expansive for k' <= k: the bounded
    # search over the full alphabet finds no null-trace configuration
    lay = presets.layered(2)
    for k in (1, 2):
        verdict = kexp_search(lay, k=k, support_radius=2, window=lay.radius,
                              t_max=32)
        assert not verdict.found


def test_psi_relation_sweep_matches_single_checks():
    rng = random.Random(14)
    for _ in range(3):
        c = random_config(Z, 9, rng, radius=5, max_cells=4)
        checked, bad = psi_relation_sweep([c], 2, 4)
        assert checked == 3 * 5 and bad == 0
        for k in range(3):
            for t in range(5):
                assert psi_relation_config_check(c, k, t, 0)


def test_kexp_on_second_order_rule_finds_glider():
    # the wrapper is linear for the componentwise law, so the search reduces
    # pairs to difference configurations and finds the two-cell soliton
    ups = presets.upsilon()
    verdict = kexp_search(ups, k=2, support_radius=6, window=1, t_max=64)
    assert verdict.found
    w = verdict.witness
    assert len(w) == 2
    assert not engine.window_series(ups, w, Z.origin_ball(1), 64).any()


@pytest.mark.parametrize("name,R,m,t_max", [
    ("f3", 2, 1, 9),
    ("vn2", 2, 1, 6),       # L-inf box corners outside the L1 ball B_2
    ("psi", 2, 1, 9),       # two components: column (z, b) z-major
    ("upsilon", 2, 1, 8),
    ("layered:2", 2, 1, 8),  # three Z_2 components
    # the spot at z reads at w what the spot at e reads at (-z) + w; the
    # offset w - z = w z^-1 gives other columns on a free group
    ("lambda:2", 2, 1, 4),
    ("lambda:3", 2, 1, 4),
])
def test_trace_map_columns_match_direct_orbits(name, R, m, t_max):
    rule = presets.parse_rule(name)
    lat, alpha = rule.lattice, rule.alphabet
    table = expansivity.TraceTable(rule, R, m, t_max)
    assert table.domain == size_domain(lat, R)
    assert table.window == lat.origin_ball(m)
    ncomp = len(alpha.moduli)
    columns = list(table.trace_map())
    assert len(columns) == len(table.domain) * ncomp
    for i, z in enumerate(table.domain):
        for b in range(ncomp):
            unit = [int(c == b) for c in range(ncomp)]
            spot = Configuration.spot(lat, rule.q, alpha.from_components(unit), z)
            series = engine.window_series(rule, spot, table.window, t_max)
            direct = np.array(alpha.components(series.T)).ravel()
            assert np.array_equal(columns[i * ncomp + b], direct), (z, b)


@pytest.mark.parametrize("rule,R,m,t_max", [
    (presets.vn2(), 4, 2, 64),
    (presets.tri2(), 3, 2, 64),
    (presets.f2(), 6, 1, 100),
    (presets.f3(), 5, 2, 81),
    (LinearRule(Z, 5, {-2: 3, 0: 1, 1: 4}), 3, 1, 30),
    (LinearRule(Z2, 3, {(1, 0): 2, (0, -1): 1, (-1, 1): 2}), 2, 1, 20),
    (LinearRule(Z2, 2, {(0, 0): 1, (1, 0): 1, (0, 2): 1}), 0, 1, 9),
], ids=_rule_id)
def test_decimated_table_equals_the_stepped_one(rule, R, m, t_max,
                                                monkeypatch):
    # the same columns and kernel as the table window_series builds
    fast = expansivity.TraceTable(rule, R, m, t_max)
    monkeypatch.setattr(engine, "_decimation_runs", lambda rule: False)
    slow = expansivity.TraceTable(rule, R, m, t_max)
    pairs = list(itertools.zip_longest(fast.trace_map(), slow.trace_map()))
    assert all(np.array_equal(a, b) for a, b in pairs)
    assert fast.kernel_dim(math.inf) == slow.kernel_dim(math.inf)


@pytest.mark.parametrize("name", ["f2", "f3", "vn2", "tri2"])
def test_prime_linear_tables_step_no_light_cone(name, monkeypatch):
    # the tables come from decimation, so the witness check, which steps
    # the configuration through window_series, is independent of them
    def stepped(*args):
        raise AssertionError("a trace table stepped its light cone")
    monkeypatch.setattr(bitgrid, "simulate_series", stepped)
    monkeypatch.setattr(dense1d, "orbit_linear", stepped)
    table = expansivity.TraceTable(presets.parse_rule(name), 3, 1, 40)
    assert table._series.shape[-1] == 41


@pytest.mark.parametrize("name", ["f3", "vn2"])
def test_witness_check_catches_a_corrupt_table(name, monkeypatch):
    # zeroed series make every candidate look null; the direct simulation
    # of the first one disagrees
    build = linearca.decimated_spot_series
    monkeypatch.setattr(linearca, "decimated_spot_series",
                        lambda *args: np.zeros_like(build(*args)))
    with pytest.raises(RuntimeError, match="trace cache and direct "
                                           "simulation disagree"):
        kexp_search(presets.parse_rule(name), k=1, support_radius=3,
                    window=1, t_max=32)


def _kernel_dim(rule, R, m, t_max, budget=math.inf):
    # the pre-check on the table kexp_search builds, past its work gate
    return expansivity.TraceTable(rule, R, m, t_max).kernel_dim(budget)


@pytest.mark.parametrize("name,R,m,t_max,dim", [
    ("f2", 2, 1, 16, 0),        # mod-2 lane
    ("f3", 2, 0, 27, 2),        # mod-p lane
    ("vn2", 1, 0, 16, 7),
    ("upsilon", 2, 1, 32, 0),   # mod-2 lane, two components
    ("psi", 1, 0, 27, 2),       # mod-p lane, two components
])
def test_kernel_dim_counts_null_traces_on_the_box(name, R, m, t_max, dim):
    # every configuration on the box, the zero one included, by simulation:
    # the null-trace ones form the kernel, p^kernel_dim of them
    rule = presets.parse_rule(name)
    p = rule.alphabet.moduli[0]
    box = size_domain(rule.lattice, R)
    window = rule.lattice.origin_ball(m)
    nulls = 0
    for values in itertools.product(range(rule.q), repeat=len(box)):
        cells = {z: v for z, v in zip(box, values) if v}
        cfg = Configuration(rule.lattice, rule.q, cells)
        nulls += not engine.window_series(rule, cfg, window, t_max).any()
    assert _kernel_dim(rule, R, m, t_max) == dim
    assert nulls == p ** dim


# each case passes the work gate; the first two have more columns than rows
@pytest.mark.parametrize("rule,k,R,m,t_max", [
    (presets.f2(), 2, 8, 0, 4),
    (presets.f2(), 3, 8, 0, 8),
    (presets.f2(), 4, 8, 1, 64),
    (presets.f3(), 2, 6, 0, 81),
    (presets.f3(), 3, 6, 1, 81),
    (presets.psi(), 2, 4, 1, 64),
    (presets.upsilon(), 2, 6, 0, 64),
    (presets.vn2(), 2, 8, 0, 32),
    (LinearRule(Z, 5, {-1: 1, 1: 1}), 2, 3, 1, 25),
    (LinearRule(Z, 5, {-2: 1, 2: 1}), 2, 3, 1, 25),
], ids=_rule_id)
def test_rank_precheck_agrees_with_enumeration(rule, k, R, m, t_max,
                                               monkeypatch):
    fast = kexp_search(rule, k=k, support_radius=R, window=m, t_max=t_max)
    assert fast.kernel_dim is not None
    monkeypatch.setattr(expansivity.TraceTable, "kernel_dim",
                        lambda table, budget: None)
    slow = kexp_search(rule, k=k, support_radius=R, window=m, t_max=t_max)
    assert slow.kernel_dim is None
    assert (fast.found, fast.witness, fast.searched) == \
        (slow.found, slow.witness, slow.searched)
    # a trivial kernel is exact for all time, where the loop's empty verdict
    # only holds through t_max
    assert fast.certified_exact == (slow.certified_exact
                                    or fast.kernel_dim == 0)
    if fast.kernel_dim == 0:
        assert not fast.found
        assert "no-witness-within-bounds (exact)" in str(fast)


@pytest.mark.parametrize("name,R", [("psi", 3), ("f2", 5), ("f3", 5)])
def test_trivial_kernel_agrees_with_empty_loop_searches(name, R, monkeypatch):
    # no nonzero configuration on the box has a radius-1 trace null through
    # t=64, so the candidate loops find no witness of one or two cells
    rule = presets.parse_rule(name)
    assert _kernel_dim(rule, R, 1, 64) == 0
    monkeypatch.setattr(expansivity.TraceTable, "kernel_dim",
                        lambda table, budget: None)
    for k in (1, 2):
        verdict = kexp_search(rule, k=k, support_radius=R, window=1, t_max=64)
        assert not verdict.found and verdict.searched > 0


def test_upsilon_glider_left_of_the_window_is_in_the_kernel():
    # the glider moves left, away from the window, so its cells' columns of
    # the trace map combine to zero: a nonzero kernel vector on the box
    rule, R, m, t_max = presets.upsilon(), 4, 1, 64
    table = expansivity.TraceTable(rule, R, m, t_max)
    columns = list(table.trace_map())
    ncomp = len(rule.alphabet.moduli)
    glider = upsilon_glider(-R, 3)  # cells -4, -3, -2
    acc = np.zeros_like(columns[0], dtype=np.int64)
    for z, state in glider.cells.items():
        i = table.domain.index(z)
        for b, coef in enumerate(rule.alphabet.components(state)):
            if coef:
                assert columns[i * ncomp + b].any()
                acc += coef * columns[i * ncomp + b]
    assert not (acc % 2).any()
    assert _kernel_dim(rule, R, m, t_max) > 0


def test_rank_precheck_scope(monkeypatch):
    # prime-power and composite moduli and k = 1 keep enumerating only; the
    # one-column f3 box would pass the work gate
    for m in (4, 6):
        rule = LinearRule(Z, m, {-1: 1, 1: 1})
        assert kexp_search(rule, k=2, support_radius=3, window=1,
                           t_max=16).kernel_dim is None
    assert kexp_search(presets.f3(), k=1, support_radius=0, window=0,
                       t_max=16).kernel_dim is None
    # where the loop is cheaper: 21 candidates of 17 steps, against a rank of
    # 7 columns and 3 * 17 rows; and a wide window over a small box
    verdict = kexp_search(presets.f2(), k=2, support_radius=3, window=1,
                          t_max=16)
    assert verdict.kernel_dim is None and verdict.searched == 21
    verdict = kexp_search(presets.f3(), k=2, support_radius=1, window=2000,
                          t_max=64)
    assert verdict.kernel_dim is None and verdict.searched == 12
    # a map whose entries pass the array cap: 18 columns of 5 * 2 * 65
    # int64 entries, 93 600 bytes, above the 13 520-byte spot series of the
    # table build
    args = dict(k=2, support_radius=4, window=2, t_max=64)
    assert kexp_search(presets.psi(), **args).kernel_dim == 0
    monkeypatch.setattr(errors, "MAX_ARRAY_BYTES", 93_600)
    assert kexp_search(presets.psi(), **args).kernel_dim == 0
    monkeypatch.setattr(errors, "MAX_ARRAY_BYTES", 93_599)
    verdict = kexp_search(presets.psi(), **args)
    assert verdict.kernel_dim is None and verdict.searched == 2304


def test_negative_window_is_usage_error():
    with pytest.raises(UsageError):
        kexp_search(presets.f2(), k=1, support_radius=2, window=-1, t_max=8)
    with pytest.raises(UsageError):
        pair_preexp_probe(presets.mult(3, 2), k=1, R=2, m=-1, t_max=8)


def test_empty_search_builds_no_table(monkeypatch):
    # six cells do not fit the five-site box: no candidate, so the verdict comes
    # before a TraceTable (2*10^10 dense1d cell steps at this horizon)
    # is built
    def no_table(*args):
        raise AssertionError("TraceTable built for an empty search")
    monkeypatch.setattr(expansivity, "TraceTable", no_table)
    verdict = kexp_search(presets.f3(), 6, 2, 1, 200000)
    assert not verdict.found
    assert verdict.searched == 0 and verdict.kernel_dim is None

