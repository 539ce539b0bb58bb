import random

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


def test_iterate_resource_limit():
    with pytest.raises(ResourceLimitError) as err:
        engine.iterate(presets.vn2(), spot(Z2, 2), 10, max_cells=6)
    assert err.value.last_completed is not None


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


def _window_series_cases():
    from caexp.rules import SecondOrderInverseRule
    big = 2 ** 40 + 15  # int64 products of states and coefficients overflow
    return {
        "f2": presets.f2(), "f3": presets.f3(), "psi": presets.psi(),
        "upsilon": presets.upsilon(), "vn2": presets.vn2(),
        "tri2": presets.tri2(), "mult:3,2": presets.mult(3, 2),
        "mult:2,4": presets.mult(2, 4), "layered:2": presets.layered(2),
        "lambda:2": presets.lambda_rule(2), "lambda:3": presets.lambda_rule(3),
        "mod5": LinearRule(Z, 5, {-2: 3, 0: 1, 1: 4}),
        # inputs no dense kernel covers
        "so-inverse": SecondOrderInverseRule(presets.psi()),
        "z2-mod3": LinearRule(Z2, 3, {(0, 0): 1, (1, 0): 2, (0, -1): 1}),
        "z2-dx64": LinearRule(Z2, 2, {(0, 0): 1, (64, 0): 1, (-1, 1): 1}),
        "big-m": LinearRule(Z, big, {-1: big - 1, 0: 12345678901, 2: 3}),
        "huge-m": LinearRule(Z, 2 ** 64 + 13, {-1: 3, 1: 2 ** 64}),  # past int64
    }


@pytest.mark.parametrize("name", list(_window_series_cases()))
def test_window_series_and_fronts_match_sparse(name):
    # every fast path behind window_series, and the cone-pruned sparse orbit,
    # is bit-identical to stepping the unpruned sparse engine, and so are
    # first_nonzero_time, traces_equal and the fronts read through the same
    # dispatch
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
    for _ in range(6):
        c = random_config(lat, rule.q, rng, radius=radius, max_cells=4,
                          states=states)
        orbit = _sparse_orbit(rule, c, t_max)
        want = [[cur.get(s) for s in sites] for cur in orbit]
        assert engine.window_series(rule, c, sites, t_max).tolist() == want
        # on the whole window, and on its last two sites (the far ones, or the
        # ball's edge), where a nonzero value arrives later or never
        for cols in (slice(None), slice(-2, None)):
            hit = next((t for t, row in enumerate(want) if any(row[cols])), None)
            assert engine.first_nonzero_time(rule, c, sites[cols], t_max) == hit
        d = random_config(lat, rule.q, rng, radius=radius, max_cells=4,
                          states=states)
        # d with c's window cells, so traces_equal cannot stop at t = 0
        d_win = Configuration(lat, rule.q,
                              {**d.cells, **{s: c.get(s) for s in ball}})
        assert engine.traces_equal(rule, c, d_win, 1, t_max) == all(
            cur.restrict(ball) == other.restrict(ball)
            for cur, other in zip(orbit, _sparse_orbit(rule, d_win, t_max)))
        if lat != Z or c == d:
            continue
        diffs = [[s for s in {*cur.cells, *other.cells}
                  if cur.get(s) != other.get(s)]
                 for cur, other in zip(orbit, _sparse_orbit(rule, d, t_max))]
        fr = engine.fronts(rule, c, d, t_max)
        assert fr.l == [min(x) if x else None for x in diffs]
        assert fr.r == [max(x) if x else None for x in diffs]


def test_first_nonzero_time_counts_the_last_step():
    # a spot four cells from the read site first reaches it at t=4, through
    # bitgrid (vn2) and through the sparse step (f3)
    for rule, spot in ((presets.vn2(), (0, 4)), (presets.f3(), 4)):
        c = Configuration.spot(rule.lattice, rule.q, 1, spot)
        origin = [rule.lattice.origin]
        assert engine.first_nonzero_time(rule, c, origin, 4) == 4
        assert engine.first_nonzero_time(rule, c, origin, 3) is None


def test_window_series_steps_far_apart_cells_sparsely():
    # a dense array over a span of 10^12 cells could not even be allocated
    for rule, far in ((presets.f3(), 10 ** 12), (presets.vn2(), (10 ** 12, 0))):
        lat = rule.lattice
        c = Configuration(lat, rule.q, {lat.origin: 1, far: 1})
        sites = lat.origin_ball(2)
        want = [[cur.get(s) for s in sites] for cur in _sparse_orbit(rule, c, 6)]
        assert engine.window_series(rule, c, sites, 6).tolist() == want


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
