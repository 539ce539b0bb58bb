import random

import numpy as np
import pytest

from caexp import configio, engine, presets, render
from caexp.config import Configuration, random_config
from caexp.errors import ResourceLimitError, UsageError
from caexp.lattice import Z, Z2
from caexp.rules import LinearRule


def spot(lat, q, state=1, site=None):
    return Configuration.spot(lat, q, state, site)


def test_linear_step_spreads_spot():
    out = engine.step(presets.f3(), spot(Z, 3))
    assert out.cells == {-1: 1, 1: 1}


def test_quiescent_fixed_point():
    for rule in (presets.f3(), presets.vn2(), presets.mult(3, 2),
                 presets.psi(), presets.layered(2)):
        zero = Configuration.zero(rule.lattice, rule.q)
        assert engine.step(rule, zero) == zero


def test_mult_composition_is_shift():
    rng = random.Random(7)
    m32, m23 = presets.mult(3, 2), presets.mult(2, 3)
    for _ in range(25):
        c = random_config(Z, 6, rng, radius=8, max_cells=6)
        assert engine.step(m32, engine.step(m23, c)) == c.shift(1)
        assert engine.step(m23, engine.step(m32, c)) == c.shift(1)


def test_shift_convention_pinned():
    # a spot at s seen through offset v contributes at s - v
    rule = LinearRule(Z, 7, {3: 2})
    out = engine.step(rule, spot(Z, 7, 1, 10))
    assert out.cells == {7: 2}
    rule2 = LinearRule(Z2, 5, {(1, -2): 1})
    out2 = engine.step(rule2, spot(Z2, 5, 1, (0, 0)))
    assert out2.cells == {(-1, 2): 1}


def test_iterate_zero_steps():
    c = spot(Z, 3)
    assert engine.iterate(presets.f3(), c, 0) == c


def test_iterate_vn_lucas_support():
    out = engine.iterate(presets.vn2(), spot(Z2, 2), 2)
    assert sorted(out.cells) == [(-2, 0), (0, -2), (0, 0), (0, 2), (2, 0)]


def test_iterate_resource_limit(monkeypatch):
    # refused before its first step, not once its support has grown: the von
    # Neumann spot orbit through t=10 is bounded by 10 balls B_10 of 221
    # sites; on F_2 each cell is also charged its word length, so the lambda:2
    # spot orbit through t=3 costs 3 balls B_3 of 53 words, times 4
    def no_step(*args):
        raise AssertionError("a refused run was stepped")
    for rule, t, bound in ((presets.vn2(), 10, 2210),
                           (presets.lambda_rule(2), 3, 636)):
        c = spot(rule.lattice, 2)
        want = engine.iterate(rule, c, t)
        monkeypatch.setattr(engine, "MAX_SPARSE_CELLS", bound)
        assert engine.iterate(rule, c, t) == want
        monkeypatch.setattr(engine, "step", no_step)
        monkeypatch.setattr(engine, "MAX_SPARSE_CELLS", bound - 1)
        with pytest.raises(ResourceLimitError,
                           match=f"of {t} steps within radius {t} "
                                 f"charges {bound} cells, above the "
                                 f"{bound - 1}-cell budget"):
            engine.iterate(rule, c, t)
        monkeypatch.undo()
    # a far support is bounded by its cone, not by its norm, and an empty one
    # still costs a cell a step
    far = spot(Z, 3, 1, 10 ** 8)
    assert engine.iterate(presets.f3(), far, 100).get(10 ** 8 + 100) == 1
    with pytest.raises(ResourceLimitError):
        engine.iterate(presets.f3(), Configuration.zero(Z, 3), 10 ** 8)


def test_trace_of_zero_config():
    series = engine.window_series(presets.f3(), Configuration.zero(Z, 3),
                                  Z.origin_ball(2), 10)
    assert not series.any()


def test_trace_vn_origin_prefix():
    series = engine.window_series(presets.vn2(), spot(Z2, 2),
                                  Z2.origin_ball(0), 1)
    assert series.tolist() == [[1], [1]]


def test_trace_triangular_spot_null_window():
    c = spot(Z2, 2, 1, (0, 36))
    series = engine.window_series(presets.tri2(), c, Z2.origin_ball(2), 64)
    assert not series.any()


def test_trace_consistency_with_iterate():
    rng = random.Random(3)
    rule = presets.upsilon()
    ball = Z.origin_ball(1)
    for _ in range(20):
        c = random_config(Z, 4, rng, radius=5, max_cells=4)
        t = rng.randint(0, 8)
        series = engine.window_series(rule, c, ball, t)
        final = engine.iterate(rule, c, t)
        assert tuple(series[t].tolist()) == final.restrict(ball)


def test_fronts_f3_spot():
    fr = engine.fronts(presets.f3(), spot(Z, 3), Configuration.zero(Z, 3), 12)
    assert fr.l == [-t for t in range(13)]
    assert fr.r == list(range(13))


def test_fronts_glider():
    from caexp.expansivity import upsilon_glider
    g = upsilon_glider(0, 3)
    fr = engine.fronts(presets.upsilon(), g, Configuration.zero(Z, 4), 10)
    assert fr.l == [-t for t in range(11)]
    assert fr.r == [2 - t for t in range(11)]


def test_fronts_equal_configs_rejected():
    c = spot(Z, 3)
    with pytest.raises(UsageError):
        engine.fronts(presets.f3(), c, c, 5)


def test_fronts_need_z():
    with pytest.raises(UsageError):
        engine.fronts(presets.vn2(), spot(Z2, 2),
                      Configuration.zero(Z2, 2), 4)


def test_star_import_resolves_every_export():
    import caexp
    namespace = {}
    exec("from caexp import *", namespace)
    missing = [name for name in caexp.__all__ if name not in namespace]
    assert not missing


def test_step_rejects_mismatches():
    with pytest.raises(UsageError):
        engine.step(presets.f3(), spot(Z2, 3, 1, (0, 0)))
    with pytest.raises(UsageError):
        engine.step(presets.f3(), spot(Z, 5))


def test_shift_equivariance_quick():
    rng = random.Random(11)
    for rule in (presets.f3(), presets.vn2(), presets.mult(2, 4),
                 presets.psi(), presets.lambda_rule(2)):
        for _ in range(30):
            c = random_config(rule.lattice, rule.q, rng, radius=3, max_cells=4)
            z = rng.choice(rule.lattice.origin_ball(2))
            assert engine.step(rule, c.shift(z)) == engine.step(rule, c).shift(z)


def test_linearity_quick():
    rng = random.Random(12)
    for rule in (presets.f3(), presets.vn2(), presets.upsilon()):
        for _ in range(30):
            c = random_config(rule.lattice, rule.q, rng, radius=3, max_cells=4)
            d = random_config(rule.lattice, rule.q, rng, radius=3, max_cells=4)
            lhs = engine.step(rule, c.add(d, rule.alphabet))
            rhs = engine.step(rule, c).add(engine.step(rule, d), rule.alphabet)
            assert lhs == rhs


# --- configuration file format --------------------------------------------

def test_config_roundtrip(tmp_path):
    rng = random.Random(5)
    for lat, q in ((Z, 4), (Z2, 2), (presets.lambda_rule(2).lattice, 2)):
        c = random_config(lat, q, rng, radius=3, max_cells=5)
        path = tmp_path / "c.cfg"
        configio.save(c, path)
        assert configio.load(path) == c


def test_config_format_details():
    text = "lattice=z2 q=2 quiescent=0\n3,-2\t1\n"
    c = configio.loads(text)
    assert c.cells == {(3, -2): 1}
    assert configio.dumps(c) == text
    with pytest.raises(UsageError):
        configio.loads("lattice=z2 q=2 quiescent=1\n")
    with pytest.raises(UsageError):
        configio.loads("lattice=z2 q=2 quiescent=0\n3,-2 1\n")


# --- rendering --------------------------------------------------------------

def test_render_zero_uniform():
    img = render.render_strip(presets.f3(), Configuration.zero(Z, 3), 5, 4)
    assert img.shape == (5, 11)
    assert not img.any()


def test_render_deterministic(tmp_path):
    c = spot(Z, 9, 3)  # psi state (1,0)
    one, two = tmp_path / "one", tmp_path / "two"
    one.mkdir()
    two.mkdir()
    assert render.render_spacetime(presets.psi(), c, 20, 20, "pgm", str(one)) \
        == [str(one / "spacetime.pgm")]
    render.render_spacetime(presets.psi(), c, 20, 20, "pgm", str(two))
    data = (one / "spacetime.pgm").read_bytes()
    assert data.startswith(b"P5\n41 21\n255\n")
    assert data == (two / "spacetime.pgm").read_bytes()


def test_render_text_digits_are_states(tmp_path):
    rule = presets.psi()
    c = spot(Z, 9, 3)
    [path] = render.render_spacetime(rule, c, 12, 10, "text", str(tmp_path))
    with open(path) as fh:
        rows = fh.read().splitlines()
    orbit = _sparse_orbit(rule, c, 10)
    assert rows[::-1] == ["".join(str(cur.get(x)) for x in range(-12, 13))
                          for cur in orbit]


def test_render_free_group_rejected(tmp_path):
    lam = presets.lambda_rule(2)
    c = Configuration.spot(lam.lattice, 2, 1)
    with pytest.raises(UsageError):
        render.render_spacetime(lam, c, 3, 3, "pgm", str(tmp_path))
    assert not any(tmp_path.iterdir())


def test_render_frames_are_sized_before_listed(monkeypatch):
    # a 3001 x 3001 frame through t=64 passes the array cap: refused before
    # the 9 * 10^6 sites of a frame are listed
    class Span:
        def __len__(self):
            return 3001

        def __iter__(self):
            raise AssertionError("the sites of a refused render were listed")
        __reversed__ = __iter__
    monkeypatch.setattr(render, "_span", lambda width_window: Span())
    with pytest.raises(ResourceLimitError, match="an orbit window series"):
        render.render_frames(presets.vn2(), spot(Z2, 2), 1500, 64)


def test_psi_orbit_first_steps_exact():
    """First six steps of the spot-(1,0) orbit, worked out by hand."""
    rule = presets.psi()
    enc = rule.alphabet.encode
    expected = [
        {0: (1, 0)},
        {0: (0, 1)},
        {-1: (0, 1), 0: (1, 0), 1: (0, 1)},
        {-2: (0, 1), -1: (1, 0), 1: (1, 0), 2: (0, 1)},
        {-3: (0, 1), -2: (1, 0), -1: (0, 2), 1: (0, 2), 2: (1, 0), 3: (0, 1)},
        {-4: (0, 1), -3: (1, 0), -2: (0, 1), -1: (2, 0), 0: (0, 1),
         1: (2, 0), 2: (0, 1), 3: (1, 0), 4: (0, 1)},
    ]
    cur = Configuration(Z, 9, {0: enc(1, 0)})
    for t, pattern in enumerate(expected):
        want = {s: enc(a, b) for s, (a, b) in pattern.items()}
        assert cur.cells == want, f"t={t}"
        cur = engine.step(rule, cur)


def test_bitgrid_matches_sparse_on_random_mod2_rules():
    # The dense stepper computes only a box clipped to the support's forward
    # cone and the window's backward cone, rounded out to whole words.  Each
    # case checks all three entry points against the sparse engine.step orbit.
    from caexp import bitgrid
    vn_offsets = presets.vn2().neighborhood
    tri_offsets = presets.tri2().neighborhood
    ball = Z2.origin_ball(2)

    def check(offsets, cells, t_max):
        rule = LinearRule(Z2, 2, {v: 1 for v in offsets})
        c = Configuration(Z2, 2, {s: 1 for s in cells})
        case = (offsets, cells, t_max)
        orbit = _sparse_orbit(rule, c, t_max)
        patterns = [cur.restrict(ball) for cur in orbit]
        series = bitgrid.simulate_series(offsets, cells, t_max, ball)
        assert [tuple(int(x) for x in row) for row in series] == patterns, case
        hit = next((t for t, p in enumerate(patterns) if any(p)), None)
        assert bitgrid.first_nonzero_window_time(offsets, cells, t_max,
                                                 ball) == hit, case
        assert bitgrid.simulate_support(offsets, cells, t_max) \
            == set(orbit[-1].cells), case

    check(vn_offsets, [(0, 0), (1, 1)], 0)
    # the triangular rule's (0,36) spot: its light cone reaches the window at
    # t=34, yet its radius-2 trace stays null (the tri-null claim)
    check(tri_offsets, [(0, 36)], 48)
    # pure shifts, each way, by two words' worth of cells and without (0,0):
    # the spot enters the window at t=2; stopped at t_max=1 it cannot reach
    # it, the window stays outside the forward cone and the clip box is empty
    for v, spot in (((63, 3), (128, 6)), ((-63, -3), (-128, -6))):
        check((v,), [spot], 4)
        check((v,), [spot], 1)
    # support sites words apart from each other and from the window, carries
    # across words both ways, a window hit at t=2; the backward cone's edges
    # fall mid-word
    check(((-63, 0), (0, 0), (40, 1), (1, -1)), [(-126, 0), (-38, -2), (150, 3)], 8)
    rng = random.Random(19)
    for _ in range(30):
        span = rng.choice((2, 63))
        n_off = rng.randint(1, 5)
        offsets = set()
        while len(offsets) < n_off:
            offsets.add((rng.randint(-span, span), rng.randint(-2, 2)))
        far = rng.choice((3, 150))
        cells = sorted({(rng.randint(-far, far), rng.randint(-4, 4))
                        for _ in range(rng.randint(1, 4))})
        check(tuple(sorted(offsets)), cells, rng.randint(0, 10))
    # an unclipped grid is the whole universe: a cell pushed past its width
    # into the last word's padding bits is gone, not parked there
    grid = bitgrid.BitGrid(0, 69, 0, 0)
    grid.set_sites([(69, 0)])
    grid.step([(-1, 0)])
    grid.step([(1, 0)])
    assert not grid.words.any()
    for run in (lambda: bitgrid.simulate_series(vn_offsets, [(0, 0)], -1, ball),
                lambda: bitgrid.first_nonzero_window_time(vn_offsets, [(0, 0)],
                                                          -1, ball),
                lambda: bitgrid.simulate_support(vn_offsets, [(0, 0)], -1)):
        with pytest.raises(UsageError):
            run()
    # a 64-cell x offset is refused even where no step computes anything: the
    # spot moves away from the window, so every clip box is empty
    for run in (lambda: bitgrid.first_nonzero_window_time(((64, 0),),
                                                          [(-1000, 0)], 3, ball),
                lambda: grid.step([(64, 0)])):
        with pytest.raises(UsageError):
            run()


def _sparse_orbit(rule, c, t_max):
    """[c, F(c), ..., F^t_max(c)] by the sparse reference step."""
    orbit = [c]
    for _ in range(t_max):
        orbit.append(engine.step(rule, orbit[-1]))
    return orbit


def test_dense_kernels_cover_exactly_the_exact_or_tabulated_z_presets():
    # the rest take the sparse fallbacks, and no dense orbit runs them, not
    # even on an empty support: big-m and huge-m pass int64, and mult:23,23's
    # table would hold 529^2 = 279 841 entries
    from caexp import dense1d
    cases = _window_series_cases()
    assert {name for name, rule in cases.items()
            if dense1d.kernel(rule) is not None} == {
        "f2", "f3", "psi", "upsilon", "mult:3,2", "mult:2,4", "layered:2",
        "mod5", "so-inverse", "so-mod7"}
    for name in ("big-m", "huge-m", "mult:23,23"):
        rule = cases[name]
        for c in (Configuration.spot(Z, rule.q, 1, 0),
                  Configuration.zero(Z, rule.q)):
            with pytest.raises(UsageError):
                dense1d.orbit(rule, [c], [0], 3)


@pytest.mark.parametrize("name", ["psi", "upsilon", "mult:3,2", "mult:2,4",
                                  "layered:2", "so-inverse"])
def test_rule_tables_hold_the_scalar_local_function(name):
    # each entry, the neighbourhood's states read as base-q digits in
    # neighbourhood order, is the scalar local function there: all 8^5
    # entries of layered:2
    import itertools
    rule = _window_series_cases()[name]
    want = [rule.local(states) for states in
            itertools.product(range(rule.q), repeat=len(rule.neighborhood))]
    assert rule.table.dtype == np.int64
    assert rule.table.tolist() == want


def test_int64_exact_at_the_boundary():
    # one product below (m-1)^2 fits while (m-1)^2 < 2^63; a sum of two
    # reaches 2^63 from m = 2^31 + 1 on.  Dense runs near the largest exact
    # modulus, reduced by % and by a mask, with states m-1 match the sparse
    # step, and the next modulus steps sparsely
    from caexp import dense1d
    m = 3_037_000_500  # (m-1)^2 < 2^63 <= m^2
    assert (m - 1) ** 2 < 2 ** 63 <= m ** 2
    assert dense1d.int64_exact(1, m) and not dense1d.int64_exact(1, m + 1)
    assert dense1d.int64_exact(2, 2 ** 31)
    assert not dense1d.int64_exact(2, 2 ** 31 + 1)
    sites = Z.origin_ball(3)
    for m, dense in ((2 ** 31 - 1, True), (2 ** 31, True),
                     (2 ** 31 + 1, False)):
        rule = LinearRule(Z, m, {-1: m - 1, 1: m - 1})
        assert (dense1d.kernel(rule) is not None) == dense
        c = Configuration(Z, m, {0: m - 1, 1: m - 1})
        want = [[cur.get(s) for s in sites]
                for cur in _sparse_orbit(rule, c, 5)]
        assert engine.window_series(rule, c, sites, 5).tolist() == want


def _sparse_fronts(rule, c, d, t_max):
    """(l, r) of a pair, from the unpruned sparse orbits."""
    diffs = [[s for s in {*cur.cells, *other.cells} if cur.get(s) != other.get(s)]
             for cur, other in zip(_sparse_orbit(rule, c, t_max),
                                   _sparse_orbit(rule, d, t_max))]
    return ([min(x) if x else None for x in diffs],
            [max(x) if x else None for x in diffs])


def _window_series_cases():
    from caexp.rules import SecondOrderInverseRule, SecondOrderRule
    big = 2 ** 40 + 15  # int64 products of states and coefficients overflow
    return {
        "f2": presets.f2(), "f3": presets.f3(), "psi": presets.psi(),
        "upsilon": presets.upsilon(), "vn2": presets.vn2(),
        "tri2": presets.tri2(), "mult:3,2": presets.mult(3, 2),
        "mult:2,4": presets.mult(2, 4), "layered:2": presets.layered(2),
        "lambda:2": presets.lambda_rule(2), "lambda:3": presets.lambda_rule(3),
        "mod5": LinearRule(Z, 5, {-2: 3, 0: 1, 1: 4}),
        "so-inverse": SecondOrderInverseRule(presets.psi()),
        # 49^3 = 117 649 entries, a table under dense1d.MAX_TABLE
        "so-mod7": SecondOrderRule(LinearRule(Z, 7, {-1: 1, 1: 1})),
        # inputs no dense kernel covers
        "z2-mod3": LinearRule(Z2, 3, {(0, 0): 1, (1, 0): 2, (0, -1): 1}),
        "z2-dx64": LinearRule(Z2, 2, {(0, 0): 1, (64, 0): 1, (-1, 1): 1}),
        "big-m": LinearRule(Z, big, {-1: big - 1, 0: 12345678901, 2: 3}),
        "huge-m": LinearRule(Z, 2 ** 64 + 13, {-1: 3, 1: 2 ** 64}),  # past int64
        "mult:23,23": presets.mult(23, 23),  # a table past dense1d.MAX_TABLE
    }


@pytest.mark.parametrize("name", list(_window_series_cases()))
def test_window_series_and_fronts_match_sparse(name):
    # every fast path behind window_series, and the cone-pruned sparse orbit,
    # is bit-identical to stepping the unpruned sparse engine, and so are
    # first_nonzero_time, traces_equal and the fronts read through the same
    # dispatch; the six draws, read again as one block with an empty
    # configuration among them, give the same series and early exits, also
    # through t = 0
    rule = _window_series_cases()[name]
    lat = rule.lattice
    far = {"z": [-40, 40], "z2": [(70, -1), (-3, 40)]}.get(lat.kind, [])
    ball = lat.origin_ball(1)
    sites = lat.origin_ball(3) + far
    # free-group balls grow exponentially, so that orbit stays short
    radius, t_max = (4, 12) if far else (2, 4)
    # large states, so that big-m's int64 products would overflow
    states = [1, rule.q // 3, rule.q - 1]
    rng = random.Random(21)

    def draw():  # one to four cells of the radius ball, each in ``states``
        cells = rng.sample(lat.origin_ball(radius), rng.randint(1, 4))
        return Configuration(lat, rule.q, {s: rng.choice(states) for s in cells})

    pairs, want_fronts, draws, wants = [], [], [], []
    for _ in range(6):
        c = draw()
        orbit = _sparse_orbit(rule, c, t_max)
        want = [[cur.get(s) for s in sites] for cur in orbit]
        draws.append(c)
        wants.append(want)
        assert engine.window_series(rule, c, sites, t_max).tolist() == want
        # on the whole window, and on its last two sites (the far ones, or the
        # ball's edge), where a nonzero value arrives later or never
        for cols in (slice(None), slice(-2, None)):
            hit = next((t for t, row in enumerate(want) if any(row[cols])), None)
            assert engine.first_nonzero_time(rule, c, sites[cols], t_max) == hit
        d = draw()
        # d with c's window cells, so traces_equal cannot stop at t = 0
        d_win = Configuration(lat, rule.q,
                              {**d.cells, **{s: c.get(s) for s in ball}})
        assert engine.traces_equal(rule, c, d_win, 1, t_max) == all(
            cur.restrict(ball) == other.restrict(ball)
            for cur, other in zip(orbit, _sparse_orbit(rule, d_win, t_max)))
        if lat != Z or c == d:
            continue
        pairs.append((c, d))
        want_fronts.append(_sparse_fronts(rule, c, d, t_max))
        fr = engine.fronts(rule, c, d, t_max)
        assert (fr.l, fr.r) == want_fronts[-1]
    if lat == Z:  # the same pairs batched, dense blocks and sparse fallbacks
        got = engine.fronts_many(rule, pairs, t_max)
        assert [(fr.l, fr.r) for fr in got] == want_fronts
    zero = Configuration.zero(lat, rule.q)
    block = draws[:3] + [zero] + draws[3:]
    wants = wants[:3] + [[[0] * len(sites)] * (t_max + 1)] + wants[3:]
    for t in (t_max, 0):
        series = engine.window_series_many(rule, block, sites, t)
        assert [s.shape for s in series] == [(t + 1, len(sites))] * len(block)
        assert [s.tolist() for s in series] == [want[:t + 1] for want in wants]
        for cols in (slice(None), slice(-2, None)):
            assert engine.first_nonzero_times(rule, block, sites[cols], t) == [
                next((s for s, row in enumerate(want[:t + 1]) if any(row[cols])),
                     None) for want in wants]


def _literal_step(rule, c):
    """F(c) read off the local rule: each target s - v of a support cell s
    and offset v gathers c(z + v) in neighbourhood order into ``local``."""
    lat, nbhd = rule.lattice, rule.neighborhood
    targets = {lat.sub(s, v) for s in c.cells for v in nbhd}
    return Configuration(lat, rule.q, {
        z: r for z in targets
        if (r := rule.local([c.get(lat.add(z, v)) for v in nbhd]))})


@pytest.mark.parametrize("name", list(_window_series_cases()))
def test_step_matches_the_literal_local_rule(name):
    # the one step body, a weighted sum finished mod m or decoded into base-q
    # digits, is the local rule applied synchronously; mult and layered read
    # their neighbourhood in order, so the digit order is pinned; mult:23,23
    # keeps a rule whose 529^2 digit sums outnumber the finish cache's cap
    rule = _window_series_cases()[name]
    lat = rule.lattice
    ball = lat.origin_ball(2 if lat.kind.startswith("free") else 6)
    rng = random.Random(8)
    configs = [Configuration.zero(lat, rule.q)]
    for _ in range(30):
        cells = rng.sample(ball, rng.randint(1, 8))
        configs.append(Configuration(lat, rule.q, {
            s: rng.choice([1, rule.q - 1, rng.randrange(1, rule.q)])
            for s in cells}))
    for c in configs:
        assert engine.step(rule, c) == _literal_step(rule, c)


def _random_configs(rule, seed, count=30):
    """The zero configuration and ``count`` draws of one to eight cells of
    the radius-6 ball, with states anywhere in the alphabet."""
    lat, rng = rule.lattice, random.Random(seed)
    ball = lat.origin_ball(6)
    return [Configuration.zero(lat, rule.q)] + [
        Configuration(lat, rule.q, {s: rng.randrange(1, rule.q)
                                    for s in rng.sample(ball, rng.randint(1, 8))})
        for _ in range(count)]


def test_each_rule_finishes_from_its_own_cache():
    # two rules of one class, alphabet and neighbourhood size but different
    # local functions, stepped in turn on the same configurations: a finish
    # cache shared by class or by (q, n) would hand one rule the other's
    # values
    from caexp.rules import SecondOrderRule
    pairs = [
        (presets.mult(3, 2), presets.mult(2, 3)),
        (SecondOrderRule(LinearRule(Z, 3, {-1: 1, 1: 1})),
         SecondOrderRule(LinearRule(Z, 3, {-1: 1, 1: 2}))),
    ]
    for a, b in pairs:
        assert (type(a), a.q, len(a.neighborhood)) == (
            type(b), b.q, len(b.neighborhood))
        for c in _random_configs(a, 5):
            for rule in (a, b):
                assert engine.step(rule, c) == _literal_step(rule, c)
        assert a.finishes and b.finishes
        assert any(a.finishes[x] != b.finishes[x]
                   for x in a.finishes.keys() & b.finishes.keys())


@pytest.mark.parametrize("name", ["mult:23,23", "so-mod7"])
def test_finish_cache_stops_growing_at_its_cap(monkeypatch, name):
    # with the cap at 16 sums, the cache fills to the cap and no further,
    # and the sums past it are still decoded exactly
    from caexp import dense1d
    monkeypatch.setattr(dense1d, "MAX_TABLE", 16)
    rule = _window_series_cases()[name]
    for c in _random_configs(rule, 13):
        assert engine.step(rule, c) == _literal_step(rule, c)
        assert len(rule.finishes) <= 16
    assert len(rule.finishes) == 16


def test_second_order_mod7_runs_dense_and_matches_sparse(monkeypatch):
    # 49^3 table entries, over the former 2^16 cap: the orbit of a state-7
    # spot through t = 512 runs dense and equals the pruned sparse orbit
    from caexp import dense1d
    from caexp.lattice import size_domain
    rule = _window_series_cases()["so-mod7"]
    c, sites = spot(Z, rule.q, 7), size_domain(Z, 30)
    want = [list(cur.restrict(sites))
            for cur in engine._sparse_orbit(rule, c, 512, sites)]

    def no_step(*args):
        raise AssertionError("stepped sparsely")
    monkeypatch.setattr(engine, "_step", no_step)
    assert dense1d.kernel(rule) is not None
    assert engine.window_series(rule, c, sites, 512).tolist() == want


def test_traces_equal_stops_once_the_states_are_equal(monkeypatch):
    # 2 * 2 = 0 mod 4: the spot at 10, outside the radius-1 window, and the
    # zero configuration both step to zero, after which nothing can differ
    calls, step = [], engine.step

    def counted(rule, c):
        calls.append(c)
        return step(rule, c)
    monkeypatch.setattr(engine, "step", counted)
    rule = LinearRule(Z, 4, {0: 2})
    c = Configuration(Z, 4, {10: 2})
    assert engine.traces_equal(rule, c, Configuration.zero(Z, 4), 1, 1000)
    assert len(calls) == 2  # one step of each orbit


def _far_pairs(q):
    """Pairs at 0, near 10^12 and with one side zero."""
    far = 10 ** 12 + 7
    zero = Configuration.zero(Z, q)
    return [
        (Configuration(Z, q, {0: 1, 3: q - 1}), Configuration(Z, q, {3: 1})),
        (Configuration(Z, q, {far: q - 1, far + 2: 1}),
         Configuration(Z, q, {far + 2: 1, far + 5: 1})),
        (zero, Configuration(Z, q, {-4: 1, -1: q - 1})),
    ]


@pytest.mark.parametrize("name", ["f3", "psi", "mult:3,2", "mod5",
                                  "layered:2", "so-inverse"])
def test_batched_fronts_translate_far_pairs(name, monkeypatch):
    # every kernel steps the three pairs as one block, each translated to 0,
    # with no sparse fallback, and gives the unpruned sparse fronts in order
    rule = _window_series_cases()[name]
    pairs = _far_pairs(rule.q)
    want = [_sparse_fronts(rule, c, d, 9) for c, d in pairs]

    def no_sparse(*args):
        raise AssertionError("a dense pair stepped the sparse orbit")
    monkeypatch.setattr(engine, "_sparse_fronts", no_sparse)
    got = engine.fronts_many(rule, pairs, 9)
    assert [(fr.l, fr.r) for fr in got] == want
    assert engine.fronts_many(rule, [], 9) == []


def test_batched_fronts_refuse_an_equal_pair_anywhere():
    f3 = presets.f3()
    pairs = _far_pairs(3)
    for i in range(len(pairs) + 1):
        c = pairs[min(i, 2)][0]
        with pytest.raises(UsageError):
            engine.fronts_many(f3, pairs[:i] + [(c, c)] + pairs[i:], 5)


def test_batched_fronts_split_blocks_over_the_budget(monkeypatch):
    # with the cell-step budget at one pair's count, a block of three pairs
    # is over it and splits until every block holds one pair; a pair over
    # the budget on its own is refused before any row exists
    from caexp import cone, dense1d
    rule, t_max = presets.f3(), 20
    pairs = _far_pairs(3)  # spans 3, 5 and 3
    want = [_sparse_fronts(rule, c, d, t_max) for c, d in pairs]
    one = dense1d._Frame((0, 5), None, rule.neighborhood, t_max, rows=2).steps
    blocks = []
    run = dense1d._run

    def counted(rule, f, rows, shifts):  # a block of pairs steps 2 rows each
        blocks.append(len(rows) // 2)
        return run(rule, f, rows, shifts)
    monkeypatch.setattr(dense1d, "_run", counted)
    monkeypatch.setattr(cone, "MAX_CELL_STEPS", one)
    got = engine.fronts_many(rule, pairs, t_max)
    assert [(fr.l, fr.r) for fr in got] == want
    assert blocks == [1, 1, 1]
    monkeypatch.setattr(cone, "MAX_CELL_STEPS", one - 1)
    with pytest.raises(ResourceLimitError):
        engine.fronts(rule, *pairs[1], t_max)
    assert blocks == [1, 1, 1]


def test_orbit_blocks_split_over_the_budget(monkeypatch):
    # with the cell-step budget at one configuration's count, a block of
    # three splits until every block holds one, at twice that into blocks of
    # one and two, and each gives the sparse series; a block holding a
    # configuration over the budget on its own is refused
    from caexp import cone, dense1d
    rule, t_max, sites = presets.f3(), 10, list(range(-2, 6))
    configs = [Configuration(Z, 3, cells)
               for cells in ({0: 1, 3: 2}, {1: 1}, {0: 2, 2: 1, 3: 1})]
    want = [[[cur.get(s) for s in sites]
             for cur in _sparse_orbit(rule, c, t_max)] for c in configs]
    one = dense1d._Frame([0, 3], sites, rule.neighborhood, t_max).steps
    blocks = []
    run = dense1d._run

    def counted(rule, f, rows, shifts):
        blocks.append(len(rows))
        return run(rule, f, rows, shifts)
    monkeypatch.setattr(dense1d, "_run", counted)
    for budget, split in ((one, [1, 1, 1]), (2 * one, [1, 2]), (3 * one, [3])):
        blocks.clear()
        monkeypatch.setattr(cone, "MAX_CELL_STEPS", budget)
        got = engine.window_series_many(rule, configs, sites, t_max)
        assert [s.tolist() for s in got] == want
        assert blocks == split
    blocks.clear()
    monkeypatch.setattr(cone, "MAX_CELL_STEPS", one - 1)
    with pytest.raises(ResourceLimitError):
        engine.window_series_many(rule, configs, sites, t_max)
    assert blocks == []


@pytest.mark.parametrize("name", ["f3", "psi", "mod5", "vn2", "tri2"])
def test_block_readers_mix_near_far_and_gapped_supports(name):
    # one block holds a near support, supports 10^12 cells off on either
    # side, one with a 10^12-cell gap (no dense row spans it) and an empty
    # one, read near the origin and at a site 10^12 off: every backend's
    # share of the block, a dense block halved until its rows are narrow,
    # and the decimated early exits, equal the sparse orbits
    rule = _window_series_cases()[name]
    lat, q = rule.lattice, rule.q
    far = 10 ** 12

    def at(x):
        return x if lat == Z else (x, 1)
    configs = [Configuration(lat, q, cells) for cells in (
        {at(0): 1, at(2): q - 1}, {at(far): 1}, {at(-far + 5): q - 1},
        {at(0): 1, at(far): 1}, {})]
    sites = lat.origin_ball(2) + [at(far + 1)]
    t_max = 6
    want = [[[cur.get(s) for s in sites]
             for cur in _sparse_orbit(rule, c, t_max)] for c in configs]
    got = engine.window_series_many(rule, configs, sites, t_max)
    assert [s.tolist() for s in got] == want
    for cols in (slice(None), slice(0, -1), slice(-1, None)):
        assert engine.first_nonzero_times(rule, configs, sites[cols], t_max) == [
            next((t for t, row in enumerate(w) if any(row[cols])), None)
            for w in want]


def test_first_nonzero_time_counts_the_last_step():
    # a spot four cells from the read site first reaches it at t=4, through
    # the early exit and through decimation itself
    from caexp import linearca
    for rule, spot in ((presets.vn2(), (0, 4)), (presets.f3(), 4)):
        c = Configuration.spot(rule.lattice, rule.q, 1, spot)
        origin = [rule.lattice.origin]
        for read in (engine.first_nonzero_times,
                     linearca.decimated_first_nonzero_times):
            assert read(rule, [c], origin, 4) == [4]
            assert read(rule, [c], origin, 3) == [None]
        assert engine.first_nonzero_time(rule, c, origin, 4) == 4


def test_prime_linear_early_exits_decimate_where_admitted(monkeypatch):
    # the claims' 202 long null-trace reads all decimate, vn-oracle-sim's 200
    # in at most four decimated runs, one per window radius; near and far
    # spots decimate too and give the sparse orbit's answer (the vn2 spots
    # at (300, 0) and (3000, 0), out of reach by t=64, with no step); a
    # non-prime rule and a prime one whose sum over the support passes int64
    # read through window_series_many
    from caexp import claims, linearca
    reads, decimated, runs, series = [], [], [], []

    def counted(module, name, log, size):
        fn = getattr(module, name)

        def wrapper(*args):
            out = fn(*args)
            log.append(size(args))
            return out
        monkeypatch.setattr(module, name, wrapper)
    counted(engine, "first_nonzero_times", reads, lambda args: len(args[1]))
    counted(linearca, "decimated_first_nonzero_times", decimated,
            lambda args: len(args[1]))
    counted(linearca, "_decimated_rows", runs, lambda args: args[2])
    counted(engine, "window_series_many", series, lambda args: len(args[1]))
    for name, n in (("tri-null", 1), ("vn-oracle-sim", 200),
                    ("witness-additivity", 1)):
        reads.clear()
        decimated.clear()
        runs.clear()
        assert claims.CLAIMS[name][1](0).ok
        assert sum(reads) == sum(decimated) == n, name
        if name == "vn-oracle-sim":
            assert len(decimated) == len(runs) <= 4
    for rule, c, window, t_max in (
            (presets.f3(), spot(Z, 3, 1, 100), Z.origin_ball(1), 10),
            (presets.f3(), spot(Z, 3, 1, 4), [0], 4),
            (presets.vn2(), spot(Z2, 2, 1, (0, 3)), Z2.origin_ball(1), 8),
            (presets.vn2(), spot(Z2, 2, 1, (300, 0)), Z2.origin_ball(1), 64),
            (presets.vn2(), spot(Z2, 2, 1, (3000, 0)), Z2.origin_ball(1), 64)):
        decimated.clear()
        series.clear()
        want = next((t for t, cur in enumerate(
            engine._sparse_orbit(rule, c, t_max, window))
            if any(cur.restrict(window))), None)
        assert engine.first_nonzero_time(rule, c, window, t_max) == want
        assert decimated == [1] and sum(series) == 0
    p = 1_700_000_009  # 3 (p-1)^2 fits int64, 4 (p-1)^2 does not
    prime = LinearRule(Z, p, {-1: 1, 0: p - 1, 2: 3})
    assert linearca.is_prime(p) and engine._decimation_runs(prime)
    for rule, c in ((LinearRule(Z, 4, presets.f3().coeffs),
                     Configuration(Z, 4, {0: 1, 3: 2})),
                    (prime, Configuration(Z, p, {0: p - 1, 1: p - 2, 3: 5,
                                                 4: p - 1}))):
        decimated.clear()
        series.clear()
        want = next((t for t, cur in enumerate(_sparse_orbit(rule, c, 6))
                     if any(cur.restrict([9, 10]))), None)
        assert want is not None
        assert engine.first_nonzero_time(rule, c, [9, 10], 6) == want
        assert series == [1] and sum(decimated) == 0


def test_empty_early_exit_reads_nothing():
    # an empty configuration, an empty site list or both: no site is ever
    # nonzero, whichever backend reads it, short or long
    from caexp import linearca
    for rule in (presets.vn2(), presets.tri2(), presets.f3()):
        lat = rule.lattice
        c = Configuration.spot(lat, rule.q, 1)
        zero = Configuration.zero(lat, rule.q)
        for cfg, sites in ((zero, lat.origin_ball(2)), (c, []), (zero, [])):
            for t_max in (0, 8, 2048):
                assert engine.first_nonzero_time(rule, cfg, sites, t_max) is None
                assert linearca.decimated_first_nonzero_times(
                    rule, [cfg], sites, t_max) == [None]
            for read in (engine.first_nonzero_times,
                         linearca.decimated_first_nonzero_times):
                assert read(rule, [], sites, t_max) == []


def test_window_series_steps_far_apart_cells_sparsely():
    # a dense array over a span of 10^12 cells could not even be allocated
    for rule, far in ((presets.f3(), 10 ** 12), (presets.vn2(), (10 ** 12, 0))):
        lat = rule.lattice
        c = Configuration(lat, rule.q, {lat.origin: 1, far: 1})
        sites = lat.origin_ball(2)
        want = [[cur.get(s) for s in sites] for cur in _sparse_orbit(rule, c, 6)]
        assert engine.window_series(rule, c, sites, 6).tolist() == want
    # nor a block row over a pair whose two sides lie 10^12 cells apart
    f3 = presets.f3()
    c, d = Configuration(Z, 3, {0: 1}), Configuration(Z, 3, {10 ** 12: 1})
    fr = engine.fronts(f3, c, d, 6)
    assert (fr.l, fr.r) == _sparse_fronts(f3, c, d, 6)


def _dense_clip_cases():
    """(rule, support, sites, t_max) runs whose boxes clip the light cone."""
    f3, psi, mult = presets.f3(), presets.psi(), presets.mult(3, 2)
    mod5 = LinearRule(Z, 5, {-2: 3, -1: 1, 2: 4})  # radius 2, both sides
    return [
        # a narrow window far from the support: the box is the window's
        # backward cone met with the support's forward cone
        (f3, {0: 1, 3: 2}, [30, 31], 40),
        (psi, {0: 1, 2: 5}, [-25, -24], 30),
        (mult, {0: 5, 1: 3}, [-12, -11, -10], 20),
        # read sites beyond the forward cone read zeros, on the rows and off
        (f3, {0: 1}, [-1000, 0, 21, 1000], 20),
        (psi, {1: 4}, [-50, 1, 50], 20),
        (mult, {0: 1}, [5, 0, -30], 20),
        # one-sided rules: the rows end at the cone's edge, which is nonzero
        # at t_max, so a site off the rows must not read it
        (LinearRule(Z, 3, {0: 1, 1: 1}), {0: 1}, [-50, 0], 20),
        (LinearRule(Z, 3, {-1: 1, 0: 1}), {0: 2}, [0, 50], 20),
        # radius 2: a mis-padded slice near the row's edge would wrap
        (mod5, {0: 1, 1: 3, 4: 2}, [-40, -9, 0, 7, 40], 16),
        (mod5, {-3: 4, 3: 1}, [-3, 3], 12),
        (mod5, {0: 2}, [-4, 4], 2),
        # no site, and no step
        (f3, {0: 1}, [], 10),
        (psi, {0: 7}, [-1, 0, 1], 0),
        (mod5, {2: 3}, [], 0),
    ]


@pytest.mark.parametrize("case", range(len(_dense_clip_cases())))
def test_dense_kernels_match_sparse_where_boxes_clip(case):
    from caexp import dense1d
    rule, cells, sites, t_max = _dense_clip_cases()[case]
    c = Configuration(Z, rule.q, cells)
    want = [[cur.get(s) for s in sites] for cur in _sparse_orbit(rule, c, t_max)]
    got = dense1d.orbit(rule, [c], sites, t_max)
    assert got.shape == (t_max + 1, 1, len(sites))
    assert got[:, 0].tolist() == want
    assert engine.window_series(rule, c, sites, t_max).tolist() == want


def _cone_boxes(offsets, support, read, t_max):
    """B_0..B_t_max on one axis, from the definitions of F_t and K_t."""
    a, b = max(max(offsets), 0), max(-min(offsets), 0)
    boxes = []
    for t in range(t_max + 1):
        lo, hi = min(support) - t * a, max(support) + t * b
        if read is not None:
            lo = max(lo, min(read) - (t_max - t) * b)
            hi = min(hi, max(read) + (t_max - t) * a)
        boxes.append((lo, hi))
    return boxes


def test_cone_axis_matches_brute_force():
    # every box, the emptiness, the hull and the closed-form sums of one and
    # two axes, with and without read sites
    from caexp import cone
    rng = random.Random(5)
    for _ in range(3000):
        t_max = rng.randint(0, 30)
        with_read = rng.random() < 0.8
        axes, boxes = [], []
        for _ in range(2):
            offsets = rng.sample(range(-4, 5), rng.randint(1, 3))
            support = rng.sample(range(-30, 31), rng.randint(1, 3))
            read = rng.sample(range(-60, 61), rng.randint(1, 3)) \
                if with_read else None
            axes.append(cone.Axis(offsets, support, read, t_max))
            boxes.append(_cone_boxes(offsets, support, read, t_max))
        for ax, bx in zip(axes, boxes):
            empty = [lo > hi for lo, hi in bx]
            assert ax.empty == all(empty) and (all(empty) or not any(empty))
            if ax.empty:
                assert cone.cells(ax) == 0
                continue
            assert [(lo, end - 1) for _, lo, end in ax.boxes()] == bx
            assert cone.cells(ax) == sum(hi - lo + 1 for lo, hi in bx[1:])
            lo, hi = ax.hull()
            assert all(lo <= a and b <= hi for a, b in bx)
        (x, y), (bx, by) = axes, boxes
        want = 0 if x.empty or y.empty else sum(
            (x1 - x0 + 1) * (y1 - y0 + 1)
            for (x0, x1), (y0, y1) in zip(bx[1:], by[1:]))
        assert cone.cells(x, y) == want
    assert cone.Axis([1], [], None, 5).empty
    assert cone.Axis([1], [0], [], 5).empty
    # sums of 10^9-step runs take no longer than short ones
    ax = cone.Axis([-1, 1], [0], [0], 10 ** 9)
    assert cone.cells(ax) == 10 ** 18 // 2 + 10 ** 9


def test_dense_cell_steps_sum_the_boxes():
    # a kernel's cell steps are its boxes' widths plus two per step, and
    # every box lies inside the rows with the neighbourhood's reach around it
    from caexp import dense1d
    rng = random.Random(5)
    for _ in range(300):
        offsets = rng.sample(range(-3, 4), rng.randint(1, 3))
        cells = rng.sample(range(-20, 21), rng.randint(1, 3))
        sites = rng.sample(range(-40, 41), rng.randint(1, 4))
        t_max = rng.randint(0, 30)
        f = dense1d._Frame(cells, sites, offsets, t_max)
        rule = LinearRule(Z, 2, {v: 1 for v in offsets})
        c = Configuration(Z, 2, {s: 1 for s in cells})
        steps = dense1d.orbit_linear(rule, [c], sites, t_max)[0]
        if f.empty:
            assert steps == 0
            continue
        boxes = list(f.axis.boxes(1, f.x0))
        assert steps == sum(b - a + 2 for _, a, b in boxes)
        for _, a, b in boxes:
            assert 0 <= a + min(offsets) and b + max(offsets) <= f.width
            assert a < b


def test_orbit_reads_reach_the_names_the_benchmark_traces(monkeypatch):
    # perfbench/tracing.py wraps these functions by name; a reader that
    # bypassed one would zero its per-layer counts and fail nothing else
    from caexp import bitgrid, dense1d
    from caexp.rules import SecondOrderInverseRule
    calls, results = [], []

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args):
            calls.append(name)
            results.append(fn(*args))
            return results[-1]
        monkeypatch.setattr(module, name, wrapper)

    for name in ("orbit_linear", "orbit_second_order", "orbit_mult"):
        counted(dense1d, name)
    counted(bitgrid, "simulate_series")
    counted(engine, "step")
    for rule, state, name in ((presets.f3(), 1, "orbit_linear"),
                              (presets.psi(), 4, "orbit_second_order"),
                              (presets.parse_rule("mult:3,2"), 5, "orbit_mult"),
                              (presets.layered(2), 4, "orbit_mult"),
                              (SecondOrderInverseRule(presets.psi()), 4,
                               "orbit_second_order"),
                              (presets.vn2(), 1, "simulate_series")):
        calls.clear()
        results.clear()
        sites = rule.lattice.origin_ball(2)
        series = engine.window_series(rule, spot(rule.lattice, rule.q, state),
                                      sites, 8)
        assert calls == [name]
        if name.startswith("orbit"):  # (cell steps, series)
            steps, got = results[0]
            assert steps > 0 and got.shape == series.shape
            assert np.shares_memory(got, series)
        assert series.shape == (9, len(sites)) and series.any()
    # a mod-4 Z^2 early exit has no dense backend and no decimation: it steps
    # the sparse orbit through window_series, ten engine.step calls; vn2's
    # decimates, and steps neither the sparse orbit nor bitgrid
    mod4 = LinearRule(Z2, 4, {(1, 0): 1, (0, 1): 1})
    calls.clear()
    assert engine.first_nonzero_time(mod4, spot(Z2, 4, 1, (0, 3)),
                                     Z2.origin_ball(1), 10) == 2
    assert calls == ["step"] * 10
    calls.clear()
    assert engine.first_nonzero_time(presets.vn2(), spot(Z2, 2, 1, (0, 3)),
                                     Z2.origin_ball(1), 8) == 2
    assert calls == []


def test_dense_run_over_the_cell_step_cap_is_refused_up_front(monkeypatch):
    from caexp import cone, dense1d
    rule, c, sites = presets.f3(), spot(Z, 3), Z.origin_ball(2)
    steps, series = dense1d.orbit_linear(rule, [c], sites, 50)
    monkeypatch.setattr(cone, "MAX_CELL_STEPS", steps)
    assert dense1d.orbit_linear(rule, [c], sites, 50)[0] == steps

    def no_run(*args):
        raise AssertionError("a block was allocated for a refused run")
    monkeypatch.setattr(dense1d, "_run", no_run)
    monkeypatch.setattr(cone, "MAX_CELL_STEPS", steps - 1)
    for run in (lambda: dense1d.orbit_linear(rule, [c], sites, 50),
                lambda: engine.window_series(rule, c, sites, 50)):
        with pytest.raises(ResourceLimitError):
            run()


def test_bitgrid_run_over_the_word_step_cap_is_refused_up_front(monkeypatch):
    # the bound covers the rows x words the steps compute, and a run is
    # refused one word-row step below it before any grid is allocated
    from caexp import bitgrid, cone
    rule, window = presets.tri2(), Z2.origin_ball(2)
    c = Configuration.spot(Z2, 2, 1, (0, 36))
    grid = bitgrid._grid(rule.neighborhood, [(0, 36)], 100, window)
    bound = bitgrid._word_steps(*(
        cone.Axis([v[i] for v in rule.neighborhood], [(0, 36)[i]],
                  [s[i] for s in window], 100) for i in (0, 1)))
    computed = 0
    for t in range(1, 101):
        r0, r1, w0, w1 = grid._rows_words()
        computed += (r1 - r0) * (w1 - w0)
    assert 0 < computed <= bound
    want = engine.window_series(rule, c, window, 100)
    monkeypatch.setattr(cone, "MAX_CELL_STEPS", bound)
    assert (engine.window_series(rule, c, window, 100) == want).all()

    def no_grid(*args):
        raise AssertionError("a grid was allocated for a refused run")
    monkeypatch.setattr(bitgrid.BitGrid, "__init__", no_grid)
    monkeypatch.setattr(cone, "MAX_CELL_STEPS", bound - 1)
    for run in (lambda: engine.window_series(rule, c, window, 100),
                lambda: bitgrid.simulate_support(rule.neighborhood,
                                                 [(0, 36)], 100)):
        with pytest.raises(ResourceLimitError):
            run()


def test_sparse_run_over_the_cell_cap_is_refused_up_front(monkeypatch):
    # a mod-4 Z^2 spot read on B_1 through t=10: span 0 and reach 1, so the
    # cells of step t lie within min(t, 11 - t) <= 5 of the origin, and the
    # bound is 10 balls of radius 5, 61 sites each.  No dense backend covers
    # the rule, and the modulus is not prime, so the early exit reads the
    # sparse orbit through window_series, under the same bound
    rule = LinearRule(Z2, 4, {(1, 0): 1, (0, 1): 1})
    c, window = spot(Z2, 4), Z2.origin_ball(1)
    want = engine.window_series(rule, c, window, 10)
    monkeypatch.setattr(engine, "MAX_SPARSE_CELLS", 610)
    assert (engine.window_series(rule, c, window, 10) == want).all()

    def no_step(*args):
        raise AssertionError("a refused run was stepped")
    monkeypatch.setattr(engine, "step", no_step)
    monkeypatch.setattr(engine, "MAX_SPARSE_CELLS", 609)
    for run in (lambda: engine.window_series(rule, c, window, 10),
                lambda: engine.first_nonzero_time(rule, c, window, 10),
                lambda: engine.traces_equal(rule, c, spot(Z2, 4, 2), 1, 10)):
        with pytest.raises(ResourceLimitError, match="radius 5"):
            run()
    # iterate reads every cell, so nothing is dropped: the cells of step t
    # lie within t of the origin, and the bound is 10 balls of radius 10
    monkeypatch.undo()
    want = engine.iterate(rule, c, 10)
    monkeypatch.setattr(engine, "MAX_SPARSE_CELLS", 2210)
    assert engine.iterate(rule, c, 10) == want
    monkeypatch.setattr(engine, "step", no_step)
    monkeypatch.setattr(engine, "MAX_SPARSE_CELLS", 2209)
    with pytest.raises(ResourceLimitError, match="radius 10"):
        engine.iterate(rule, c, 10)
    # a spot at 100 compared with zero on B_1 through t=10 by f3's offsets
    # mod 4: its cells lie within radius 11 of the origin, 23 sites, but also
    # within 10 of the spot, 21 sites
    monkeypatch.undo()
    f4, far = LinearRule(Z, 4, presets.f3().coeffs), spot(Z, 4, 1, 100)
    zero = Configuration.zero(Z, 4)
    monkeypatch.setattr(engine, "MAX_SPARSE_CELLS", 210)
    assert engine.traces_equal(f4, far, zero, 1, 10)
    monkeypatch.setattr(engine, "MAX_SPARSE_CELLS", 209)
    with pytest.raises(ResourceLimitError, match="radius 11"):
        engine.traces_equal(f4, far, zero, 1, 10)


def test_dense_series_peaks_near_its_own_size():
    # an f3 spot series the size of the benchmark's deepest table, stepped
    # by dense1d, holds two rows besides its 8 MB output; its full
    # space-time array would take 1.07 GB
    import tracemalloc

    from caexp.expansivity import size_domain
    rule = presets.f3()
    tracemalloc.start()
    try:
        series = engine.window_series(rule, spot(Z, 3), size_domain(Z, 62), 8192)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert series.shape == (8193, 125)
    assert peak < 3 * series.nbytes


def test_front_escape_tracks_expansivity():
    # permutive rule: one-sided differences run off both ways; the nilpotent
    # doubling rule loses its differences instead
    f3 = presets.f3()
    c = Configuration.spot(Z, 3, 1, 5)
    fr = engine.fronts(f3, c, Configuration.zero(Z, 3), 25)
    assert fr.l[25] == 5 - 25 and fr.r[25] == 5 + 25
    dbl = LinearRule(Z, 4, {1: 2})
    fr2 = engine.fronts(dbl, Configuration.spot(Z, 4, 1, 5),
                        Configuration.zero(Z, 4), 6)
    assert fr2.l[0] == 5 and fr2.l[2] is None
