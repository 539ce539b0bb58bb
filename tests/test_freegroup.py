import itertools
import random

import numpy as np
import pytest

from caexp import engine
from caexp.config import Configuration, random_config
from caexp.errors import ResourceLimitError, UsageError
from caexp.expansivity import TraceTable
from caexp.freegroup import (BallTree, ball_levels, fg_non2exp_witness,
                             lambda_rule, layer_profile, odd_weight_kernel,
                             walk_parity_table)
from caexp.lattice import FreeLattice, Z, free
from caexp.rules import LinearRule


def _z_to_f1(s: int) -> tuple:
    return (1,) * s if s > 0 else (-1,) * -s


def test_lambda_n1_reduces_to_z_rule():
    lam = lambda_rule(1)
    f1 = free(1)
    z_rule = LinearRule(Z, 2, {-1: 1, 0: 1, 1: 1})
    rng = random.Random(2)
    for _ in range(20):
        zc = random_config(Z, 2, rng, radius=5, max_cells=4)
        fc = Configuration(f1, 2, {_z_to_f1(s): v for s, v in zc.cells.items()})
        out_f = engine.step(lam, fc)
        out_z = engine.step(z_rule, zc)
        assert out_f.cells == {_z_to_f1(s): v for s, v in out_z.cells.items()}


def test_lambda_one_step_fills_ball():
    lam = lambda_rule(2)
    lat = lam.lattice
    out = engine.step(lam, Configuration.spot(lat, 2, 1))
    assert sorted(out.cells) == sorted(lat.origin_ball(1))
    assert all(v == 1 for v in out.cells.values())


def test_lambda_fixes_zero():
    lam = lambda_rule(3)
    zero = Configuration.zero(lam.lattice, 2)
    assert engine.step(lam, zero) == zero


def test_ball_tree_matches_lattice_order():
    # node i is the i-th word of origin_ball: its parent (nei[i, 0]) is the
    # word less its last letter, and its other neighbors are its children in
    # generator order, or the zero pad on the last level
    for n in (1, 2, 3):
        words = free(n).origin_ball(4)
        tree = BallTree(n, 4)
        assert tree.total == free(n).ball_size(4) == len(words)
        index = {w: i for i, w in enumerate(words)}
        children: dict = {}
        for w in words[1:]:
            children.setdefault(w[:-1], []).append(index[w])
        for i, w in enumerate(words):
            row = tree.nei[i].tolist()
            if not w:
                assert row == children[w]
                continue
            assert row[0] == index[w[:-1]], w
            assert row[1:] == children.get(w, [tree.pad] * (2 * n - 1)), w


def test_ball_tree_step_matches_sparse_engine():
    n = 2
    depth = 5
    tree = BallTree(n, depth)
    words = free(n).origin_ball(depth)
    lam = lambda_rule(n)
    lat = lam.lattice
    values = np.zeros(tree.total, dtype=np.uint8)
    values[0] = 1
    cfg = Configuration.spot(lat, 2, 1)
    # values are exact on B_{depth - t} after t steps (missing-children cutoff)
    for t in range(1, 4):
        values = tree.step_totalistic(values)
        cfg = engine.step(lam, cfg)
        for idx, w in enumerate(words):
            if lat.norm(w) <= depth - t:
                assert int(values[idx]) == cfg.get(w), (t, w)


def test_walk_parity_small_values():
    table = walk_parity_table(5, 5)
    assert table[0, 0] == 1 and not table[0, 1:].any()
    # origin stays 1 forever (2n even neighbors at distance 1)
    assert all(table[t, 0] == 1 for t in range(6))
    # first arrival along the diagonal
    assert all(table[d, d] == 1 for d in range(6))
    # light cone
    for t in range(6):
        assert not table[t, t + 1:].any()


def test_layer_profile_small():
    prof = layer_profile(2, 5, 10)
    assert all(prof.values[l][l] == 1 for l in range(6))
    for t in range(11):
        for l in range(5 + 1):
            if l > t:
                assert prof.values[t][l] == 0


def test_layer_profile_recurrence():
    # rows satisfy s(t+1,l) = s(t,l) + s(t,l-1) + (2n-1) s(t,l+1) mod 2
    n = 2
    prof = layer_profile(n, 6, 12)
    for t in range(12):
        for l in range(1, 6):
            expect = (prof.values[t][l] + prof.values[t][l - 1]
                      + (2 * n - 1) * prof.values[t][l + 1]) % 2
            assert prof.values[t + 1][l] == expect
        assert prof.values[t + 1][0] == prof.values[t][0]  # 2n even


def test_profiles_agree_across_rank_at_depth_one():
    p2 = layer_profile(2, 2, 1)
    p3 = layer_profile(3, 2, 1)
    for t in range(2):
        assert p2.values[t][:2] == p3.values[t][:2]


def test_witness_basic():
    rep = fg_non2exp_witness(2, (1, 1, 1), (2,), t_max=32)
    assert rep.ok
    assert " m=3 " in str(rep).splitlines()[0]  # the window radius is |z|


def test_witness_norms():
    lat = free(2)
    z = (1, 1, 1)
    x = lat.add(z, (2,))
    y = lat.add(z, (-2,))
    assert lat.norm(x) == lat.norm(y) == 4


def test_witness_rejects_rank_one():
    with pytest.raises(UsageError):
        fg_non2exp_witness(1, (1, 1, 1), (1,))


def test_witness_rejects_parallel_sprime():
    with pytest.raises(UsageError):
        fg_non2exp_witness(2, (1, 1, 1), (-1,))


def test_witness_difference_confined_to_branch():
    # the two-spot sum differs from zero only inside the branch of its tip
    lat = free(2)
    lam = lambda_rule(2)
    z = (1, 1, 1)
    x = lat.add(z, (2,))
    y = lat.add(z, (-2,))
    c = Configuration(lat, 2, {x: 1, y: 1})
    for t in range(5):
        assert all(w and w[0] == 1 for w in c.cells)
        c = engine.step(lam, c)


def test_oddk_single_layer_triple():
    # three cells in one layer: origin value 1 at the layer time
    lat = free(2)
    lam = lambda_rule(2)
    cells = [w for w in lat.origin_ball(2) if lat.norm(w) == 2][:3]
    cfg = Configuration(lat, 2, {w: 1 for w in cells})
    out = engine.iterate(lam, cfg, 2)
    assert out.get(()) == 1


_F2 = free(2)


@pytest.mark.parametrize("rule", [
    lambda_rule(2),
    # two controls with odd-weight null traces, e.g. the spot at a^-1
    # through t=1 at R=1, m=0
    LinearRule(_F2, 2, {(1,): 1}),
    LinearRule(_F2, 2, {(): 1, (1,): 1, (2,): 1}),
], ids=["lambda:2", "shift", "three-term"])
@pytest.mark.parametrize("R, m, t_max", [(1, 0, 1), (2, 0, 1), (2, 1, 2)])
def test_odd_weight_kernel_matches_brute_force(rule, R, m, t_max):
    lat = rule.lattice
    rank, kernel_dim, odd = odd_weight_kernel(rule, R, m, t_max)
    ball, window = lat.origin_ball(R), lat.origin_ball(m)
    assert rank + kernel_dim == len(ball)
    brute = any(
        engine.first_nonzero_time(
            rule, Configuration(lat, 2, {s: 1 for s in sites}), window,
            t_max) is None
        for k in (1, 3) for sites in itertools.combinations(ball, k))
    assert odd == brute


def test_lambda_has_no_odd_weight_null_trace():
    # every odd k at once on B_3: the trace at the origin through t=3 spans
    # the all-ones functional of the layers
    assert odd_weight_kernel(lambda_rule(2), 3, 0, 3) == (4, 49, False)
    assert odd_weight_kernel(lambda_rule(3), 3, 0, 3) == (4, 183, False)


def test_odd_weight_kernel_rejects_other_rules():
    with pytest.raises(UsageError):
        odd_weight_kernel(LinearRule(Z, 2, {1: 1, -1: 1}), 1, 0, 1)
    with pytest.raises(UsageError):
        odd_weight_kernel(LinearRule(_F2, 3, {(1,): 1}), 1, 0, 1)
    with pytest.raises(UsageError):
        odd_weight_kernel(lambda_rule(2), -1, 0, 1)


def test_two_spot_witness_is_two_equal_columns():
    # aab and aaB hang off the tip of aa, which shields exactly B_2
    lam = lambda_rule(2)
    lat = lam.lattice
    x, y = (1, 1, 2), (1, 1, -2)
    for m, equal in ((2, True), (3, False)):
        table = TraceTable(lam, 3, m, 8)
        columns = list(table.trace_map())
        cx, cy = (columns[table.domain.index(s)] for s in (x, y))
        assert np.array_equal(cx, cy) == equal, m


def test_budgets_refuse_up_front(monkeypatch):
    # the odd-weight decision lists no ball before its map check: a
    # 1 x 7e9-site map of F_2 through t=3 (its B_20 table, the same bytes at
    # m = 0), then a 4373 x 4373-site map through t=1 (306 MB) whose B_14
    # table (153 MB) fits; a box or window past 2^64 sites is refused before
    # its size is formed; nor does the two-spot witness list its window B_14
    # of F_2, 9 565 937 nodes
    def no_ball(self, r):
        raise AssertionError("a ball was listed before the budget check")
    monkeypatch.setattr(FreeLattice, "origin_ball", no_ball)
    lam = lambda_rule(2)
    with pytest.raises(ResourceLimitError, match=f"the trace map needs "
                       f"{8 * 4 * free(2).ball_size(20)} bytes"):
        odd_weight_kernel(lam, 20, 0, 3)
    with pytest.raises(ResourceLimitError, match=f"the trace map needs "
                       f"{8 * 2 * free(2).ball_size(7) ** 2} bytes"):
        odd_weight_kernel(lam, 7, 7, 1)
    for R, m in ((10 ** 6, 0), (0, 10 ** 6)):
        with pytest.raises(ResourceLimitError, match="a search box of radius "
                           "1000000 holds more than 2\\^64 sites"):
            odd_weight_kernel(lam, R, m, 1)
    # B_9 of F_3 holds 2 929 687 nodes, B_10 14 648 437
    assert sum(ball_levels(3, 9)) == free(3).ball_size(9)
    for depth in (10, 12):
        with pytest.raises(ResourceLimitError,
                           match=f"B_{depth} of F_3 has more than 4000000 nodes"):
            BallTree(3, depth)
    with pytest.raises(ResourceLimitError, match="B_14 of F_2 has more than"):
        fg_non2exp_witness(2, (1,) * 14, (2,))
    # 100 001 rows of 100 007 distances
    with pytest.raises(ResourceLimitError, match="walk parity table needs "
                       "10000800007 bytes"):
        walk_parity_table(5, 100_000)


def test_orbits_refuse_before_stepping_or_building(monkeypatch):
    # the spot orbit through t=30 fills B_15 of F_2, 28 697 813 nodes, at
    # its peak: refused by the sparse cell bound before its first step
    def no_step(*args):
        raise AssertionError("a refused run was stepped")
    monkeypatch.setattr(engine, "step", no_step)
    with pytest.raises(ResourceLimitError, match="a sparse orbit of 30 steps "
                       "within radius 15"):
        odd_weight_kernel(lambda_rule(2), 0, 0, 30)
    # through t=22 it fills B_11, 354 293 words: 7.8 * 10^6 cells, under the
    # budget, but about 13 s of stepping; each cell is charged its length 12
    with pytest.raises(ResourceLimitError, match="a sparse orbit of 22 steps "
                       "within radius 11"):
        odd_weight_kernel(lambda_rule(2), 0, 0, 22)
    # the profile's walk table is sized before its tree is built
    monkeypatch.setattr(BallTree, "__init__", no_step)
    with pytest.raises(ResourceLimitError, match="walk parity table"):
        layer_profile(1, 8, 2_000_000)


def test_layer_profile_rank_three():
    # depth-8 ball of F_3 is ~586k nodes; the equivariance and recurrence
    # cross-checks run over all of them
    prof = layer_profile(3, 8, 8)
    assert all(prof.values[l][l] == 1 for l in range(9))


def test_lambda_rejects_bad_rank():
    with pytest.raises(UsageError):
        lambda_rule(0)
