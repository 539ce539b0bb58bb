import random

import numpy as np
import pytest

from caexp import engine
from caexp.config import Configuration, random_config
from caexp.errors import ResourceLimitError, UsageError
from caexp.freegroup import (BallTree, fg_non2exp_witness, fg_oddk_check,
                             lambda_rule, layer_profile, walk_parity_table)
from caexp.lattice import Z, free
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


def test_oddk_k1():
    rep = fg_oddk_check(2, 1, 2)
    assert rep.ok


def test_oddk_k3_small():
    rep = fg_oddk_check(2, 3, 1)
    assert rep.ok


def test_oddk_single_layer_triple():
    # three cells in one layer: origin value 1 at the layer time
    lat = free(2)
    lam = lambda_rule(2)
    cells = [w for w in lat.origin_ball(2) if lat.norm(w) == 2][:3]
    cfg = Configuration(lat, 2, {w: 1 for w in cells})
    out = engine.iterate(lam, cfg, 2)
    assert out.get(()) == 1


def test_oddk_rejects_even_k():
    with pytest.raises(UsageError):
        fg_oddk_check(2, 2, 2)


def test_budgets_refuse_up_front():
    # C(53, 3) = 23 426 subsets of B_3 in F_2; B_12 of F_3 has 3.7e8 nodes
    with pytest.raises(ResourceLimitError) as exc:
        fg_oddk_check(2, 3, 3)
    assert exc.value.requested == 23_426
    with pytest.raises(ResourceLimitError) as exc:
        BallTree(3, 12)
    assert exc.value.requested == free(3).ball_size(12)


def test_layer_profile_rank_three():
    # depth-8 ball of F_3 is ~586k nodes; the equivariance and recurrence
    # cross-checks run over all of them
    prof = layer_profile(3, 8, 8)
    assert all(prof.values[l][l] == 1 for l in range(9))


def test_lambda_rejects_bad_rank():
    with pytest.raises(UsageError):
        lambda_rule(0)
