import random

import pytest

from caexp import bitgrid, engine, presets, z2subst
from caexp.config import Configuration, random_config
from caexp.errors import ResourceLimitError, UsageError
from caexp.lattice import Z2
from caexp.z2subst import (exact_trace_null, first_one_index, scale_for_norm,
                           tri_claim_check, uv_structure_checks,
                           uv_vs_simulation, uv_words, vn_witness,
                           word_is_square)

VN_OFFSETS = presets.vn2().neighborhood
TRI_OFFSETS = presets.tri2().neighborhood


def test_uv_base_cases():
    pair = uv_words((0, 0), 0)
    assert pair.u_word() == "1" and pair.v_word() == "1"
    pair = uv_words((0, 0), 1)
    assert pair.u_word() == "11" and pair.v_word() == "11"
    pair = uv_words((1, 0), 1)
    assert pair.u_word() == "01"


def test_uv_out_of_range():
    with pytest.raises(UsageError):
        uv_words((3, 0), 1)


def test_uv_diagonal_cells_null():
    for k in (2, 3, 4):
        for z in ((1, 1), (2, -2), (-3, 3)):
            if Z2.norm(z) <= 2 ** k - 1:
                pair = uv_words(z, k)
                assert pair.u == 0 and pair.v == 0


def test_uv_refinement():
    """Scale k+1 words reassemble from scale-k words by the case analysis."""
    for k in range(0, 5):
        half = 1 << k
        for z in Z2.origin_ball(half - 1):
            lo = uv_words(z, k)
            hi = uv_words(z, k + 1)
            assert hi.u == lo.u | (lo.v << half)
            assert hi.v == lo.u | (lo.u << half)


def test_uv_translation_case():
    # cells outside the inner ball read a translated copy around an axis spot
    k = 3
    half = 1 << (k - 1)
    for x in ((half, 0), (0, half), (-half, 0), (0, -half)):
        for dz in Z2.origin_ball(half - 1):
            z = (x[0] + dz[0], x[1] + dz[1])
            if Z2.norm(z) <= half - 1 or Z2.norm(z) > 2 ** k - 1:
                continue
            assert uv_words(z, k).u == uv_words(dz, k - 1).u << half


def test_uv_square_symmetry():
    syms = [lambda x, y: (x, y), lambda x, y: (-x, y), lambda x, y: (x, -y),
            lambda x, y: (-x, -y), lambda x, y: (y, x), lambda x, y: (-y, x),
            lambda x, y: (y, -x), lambda x, y: (-y, -x)]
    for k in (2, 3, 4):
        for z in Z2.origin_ball(2 ** k - 1):
            base = uv_words(z, k)
            for s in syms:
                other = uv_words(s(*z), k)
                assert (other.u, other.v) == (base.u, base.v)


def test_word_helpers():
    assert word_is_square(0b1111, 4)
    assert not word_is_square(0b0111, 4)
    assert first_one_index(0) is None
    assert first_one_index(0b0100) == 2
    assert scale_for_norm(0) == 0
    assert scale_for_norm(7) == 3
    assert scale_for_norm(8) == 4


def test_uv_vs_simulation_small():
    assert uv_vs_simulation(4).ok


def test_block_substitution_reduction():
    """The scale-2^k block sequence of a summed trace follows the fixed point
    U, V, U, U of the two-letter substitution U->UV, V->UU."""
    rng = random.Random(13)
    k0 = 3
    length = 1 << k0
    letters = "UVUU"  # fixed-point prefix covering four blocks
    for _ in range(20):
        c = random_config(Z2, 2, rng, radius=5, max_cells=4)
        series = bitgrid.simulate_series(VN_OFFSETS, sorted(c.cells),
                                         4 * length - 1, [(0, 0)])
        acc_u = acc_v = 0
        for z in c.cells:
            acc_u ^= z2subst._u((-z[0], -z[1]), k0)
            acc_v ^= z2subst._v((-z[0], -z[1]), k0)
        for j, letter in enumerate(letters):
            block = 0
            for t in range(length):
                if series[j * length + t, 0]:
                    block |= 1 << t
            assert block == (acc_u if letter == "U" else acc_v), f"block {j}"


def test_vn_witness_cells():
    # the scale-1 pair dilated by 2^(k-1)
    for k in range(1, 7):
        d, h = 1 << k, 1 << (k - 1)
        assert vn_witness(k).cells == {(-d, h): 1, (d, h): 1}
    with pytest.raises(UsageError):
        vn_witness(0)


def test_exact_trace_null_examples():
    assert not exact_trace_null(Configuration.spot(Z2, 2, 1), 0)
    w = vn_witness(3)
    assert exact_trace_null(w, 3)
    assert exact_trace_null(w, 4)      # the next window is still shielded
    assert not exact_trace_null(w, 5)  # first window that sees the pair
    assert exact_trace_null(Configuration.zero(Z2, 2), 2)


def test_exact_trace_null_resource_cap():
    c = Configuration(Z2, 2, {(5000, 0): 1})
    with pytest.raises(ResourceLimitError):
        exact_trace_null(c, 0)


def test_exact_trace_null_bounds_its_word_caches():
    # the scale-9 witness at m=255 builds 861 675 words; each cache keeps at
    # most _CACHE_CAP of them, above the 23 532 that ``verify`` builds
    assert z2subst._CACHE_CAP > 23_532
    assert exact_trace_null(vn_witness(9), 255)
    assert len(z2subst._U_CACHE) <= z2subst._CACHE_CAP
    assert len(z2subst._V_CACHE) <= z2subst._CACHE_CAP


def test_exact_trace_null_matches_simulation():
    rng = random.Random(21)
    for _ in range(40):
        c = random_config(Z2, 2, rng, radius=6, max_cells=4)
        m = rng.randint(0, 2)
        hit = bitgrid.first_nonzero_window_time(VN_OFFSETS, sorted(c.cells),
                                                256, Z2.origin_ball(m))
        assert exact_trace_null(c, m) == (hit is None)


def test_structure_checks_small():
    assert uv_structure_checks(3).ok


def test_three_trace_small():
    rep = z2subst.three_trace_check(3)
    assert rep.ok


def test_three_trace_constructed_instance():
    # a diagonal cell plus two mirror cells: the u-sum vanishes and the
    # null member is the diagonal one
    k = 2
    u_diag = z2subst._u((1, 1), k)
    ua, ub = z2subst._u((2, 1), k), z2subst._u((1, 2), k)
    assert u_diag == 0 and ua == ub and ua != 0
    assert u_diag ^ ua ^ ub == 0
    # and the radius-1 trace of the triple is not null (3-expansivity)
    triple = Configuration(Z2, 2, {(1, 1): 1, (2, 1): 1, (1, 2): 1})
    assert not exact_trace_null(triple, 1)


def test_window_words_of_the_vn_witness_cancel():
    # the scale-1 witness pair has a null radius-1 trace: at the scale
    # three_trace_check(7) takes, its two cells' window words are equal, so
    # the triple check's XOR test can fire
    w = vn_witness(1)
    assert exact_trace_null(w, 1)
    k = scale_for_norm(7 + 1)
    a, b = (z2subst.window_word(z, Z2.origin_ball(1), k) for z in w.cells)
    assert a == b != 0


def test_tri_lucas_support_k3():
    spot = Configuration.spot(Z2, 2, 1, (0, 36))
    out = engine.iterate(presets.tri2(), spot, 8)
    assert sorted(out.cells) == [(-8, 28), (0, 36), (0, 44), (8, 28)]


def test_tri_claim_quick():
    rep = tri_claim_check(t_sim=64)
    assert rep.ok


def test_tri_other_spot_not_null():
    # the mirrored spot is not a witness: its orbit hits the window
    hit = bitgrid.first_nonzero_window_time(TRI_OFFSETS, [(0, -36)], 64,
                                            Z2.origin_ball(2))
    assert hit is not None
