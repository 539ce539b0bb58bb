"""The totalistic mod-2 family on free groups: layer structure, the odd-k
expansivity decision and the explicit two-spot non-2-expansivity witness.

Large-time trace values of a spot orbit are obtained from the distance
projection of the lazy walk on the 2n-regular tree: every vertex at distance
d > 0 has exactly one neighbor closer to the root and 2n-1 farther, so walk
counts (hence orbit values, mod 2) depend on the distance alone.  The 1-D
recurrence this gives is cross-checked cell-by-cell against a genuine ball
simulation before it is trusted at depths where full simulation is
impossible (the support of a t-step orbit is the whole ball B_t).

Odd k is decided for every odd k at once, for any mod-2 linear rule on F_n,
by one GF(2) rank comparison of the bounded trace map, the ``TraceTable`` of
B_R read on B_m (``odd_weight_kernel``).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine, errors, linearca
from .config import Configuration
from .errors import ResourceLimitError, UsageError
from .expansivity import TraceTable, _box
from .lattice import FreeLattice, free
from .presets import lambda_rule
from .report import Report
from .rules import LinearRule

__all__ = ["lambda_rule", "ball_levels", "BallTree", "walk_parity_table",
           "LayerProfile", "layer_profile", "fg_non2exp_witness",
           "odd_weight_kernel"]

# node budget of a ball: of a BallTree, or of a witness window
_MAX_NODES = 4_000_000


def ball_levels(n: int, r: int) -> list[int]:
    """Node counts of the levels 0..r of the ball B_r in F_n, refused as
    soon as their running total passes the node budget, so that no count
    past it is formed: level d > 0 holds 2n (2n - 1)^(d - 1) words."""
    if n < 1 or r < 0:
        raise UsageError("need n >= 1 and r >= 0")
    counts = [1]
    total = 1
    for d in range(1, r + 1):
        counts.append(2 * n if d == 1 else counts[-1] * (2 * n - 1))
        total += counts[-1]
        if total > _MAX_NODES:
            raise ResourceLimitError(f"ball B_{r} of F_{n} has more than "
                                     f"{_MAX_NODES} nodes")
    return counts


class BallTree:
    """Implicit BFS indexing of the ball B_L in F_n.

    Level d occupies a contiguous index block; the children of the j-th node
    of a level form a contiguous block of the next one, so parent/child
    indices are pure arithmetic and no words are stored.  Node 0 is the
    identity; the generator order is a, a^-1, b, b^-1, ...
    """

    def __init__(self, n: int, depth: int):
        q = 2 * n
        counts = ball_levels(n, depth)
        starts = [0]
        for c in counts:
            starts.append(starts[-1] + c)
        total = starts[-1]
        self.counts = counts
        self.starts = starts
        self.total = total
        self.pad = total  # extra slot holding a permanent 0
        nei = np.full((total, q), self.pad, dtype=np.int64)
        if depth >= 1:
            nei[0, :] = np.arange(1, q + 1)
        for d in range(1, depth + 1):
            idx = np.arange(counts[d])
            base = starts[d]
            if d == 1:
                nei[base + idx, 0] = 0
            else:
                nei[base + idx, 0] = starts[d - 1] + idx // (q - 1)
            if d < depth:
                child0 = starts[d + 1] + idx * (q - 1)
                for j in range(q - 1):
                    nei[base + idx, 1 + j] = child0 + j
        self.nei = nei

    def level_slice(self, d: int) -> slice:
        return slice(self.starts[d], self.starts[d] + self.counts[d])

    def step_totalistic(self, values: np.ndarray) -> np.ndarray:
        """values -> values + sum over tree neighbors, mod 2."""
        ext = np.zeros(self.total + 1, dtype=np.uint8)
        ext[:self.total] = values
        gathered = ext[self.nei]
        return (values ^ np.bitwise_xor.reduce(gathered, axis=1)).astype(np.uint8)


def walk_parity_table(d_max: int, t_max: int) -> np.ndarray:
    """table[t, d] = parity of lazy t-step walks between vertices at distance d
    on the 2n-regular tree, the same table for every n.

    Recurrence (distance projection of the tree walk): for d > 0 the count
    pulls from d-1 once, d+1 with multiplicity 2n-1 and d itself once; at the
    root all 2n neighbors sit at distance 1.  Mod 2 those multiplicities are
    1 and 0, so n drops out and the root keeps its value.
    """
    if d_max < 0 or t_max < 0:
        raise UsageError("need d_max >= 0 and t_max >= 0")
    width = d_max + t_max + 2
    errors.check_array_bytes((t_max + 1) * width, "the walk parity table")
    table = np.zeros((t_max + 1, width), dtype=np.uint8)
    table[0, 0] = 1
    for t in range(1, t_max + 1):
        prev = table[t - 1]
        cur = table[t]
        cur[0] = prev[0]
        cur[1:-1] = prev[1:-1] ^ prev[:-2] ^ prev[2:]
    return table[:, :d_max + 1]


@dataclass(frozen=True)
class LayerProfile:
    """Common state of all norm-l cells of the spot orbit, per time step."""

    n: int
    L: int
    t_max: int
    values: tuple[tuple[int, ...], ...]  # values[t][l]


def _sim_depth(L: int, t_max: int) -> int:
    # Boundary effects reach B_L only after 2*depth + 2 - L steps.
    return max(L, (t_max + L) // 2)


def layer_profile(n: int, L: int, t_max: int) -> LayerProfile:
    """Simulate the spot orbit on a ball, verify cell-by-cell that values at
    equal norms agree, and compress to the per-layer profile.

    A failure of the equivariance assertion would be an engine bug, so it
    raises RuntimeError rather than returning a verdict.
    """
    if L < 0 or t_max < 0:
        raise UsageError("need L >= 0 and t_max >= 0")
    dp = walk_parity_table(L, t_max)  # sized before the tree is built
    tree = BallTree(n, _sim_depth(L, t_max))
    values = np.zeros(tree.total, dtype=np.uint8)
    values[0] = 1
    rows = []
    for t in range(t_max + 1):
        if t > 0:
            values = tree.step_totalistic(values)
        row = []
        for lev in range(L + 1):
            block = values[tree.level_slice(lev)]
            first = int(block[0])
            if block.size and not np.all(block == first):
                raise RuntimeError(
                    f"norm equivariance violated at t={t} level={lev}")
            if first != int(dp[t, lev]):
                raise RuntimeError(
                    f"distance recurrence disagrees with simulation at "
                    f"t={t} level={lev}")
            row.append(first)
        rows.append(tuple(row))
    for lev in range(min(L, t_max) + 1):
        if rows[lev][lev] != 1:
            raise RuntimeError(f"first arrival at level {lev} is not 1")
    return LayerProfile(n=n, L=L, t_max=t_max, values=tuple(rows))


def _single_generator_power(lat: FreeLattice, z) -> tuple[int, int]:
    lat.validate_site(z)
    if not z or any(g != z[0] for g in z):
        raise UsageError("z must be a positive power of a single generator")
    return z[0], len(z)


def fg_non2exp_witness(n: int, z, sprime, t_max: int = 64) -> Report:
    """Two equidistant spots hanging off the tip of z share their radius-|z|
    trace, so the rule is not 2-expansive for n >= 2; the construction
    shields exactly the ball B_{|z|}, which is refused before it is listed
    when it holds more than the node budget."""
    if n < 2:
        raise UsageError("the two-spot witness needs at least 2 generators")
    lat = free(n)
    s, m = _single_generator_power(lat, z)
    ball_levels(n, m)
    lat.validate_site(sprime)
    if len(sprime) != 1 or abs(sprime[0]) == abs(s):
        raise UsageError("s' must be a generator distinct from +-s")
    rep = Report(f"fg-witness n={n} z={lat.format_site(z)} "
                 f"s'={lat.format_site(sprime)} m={m} t_max={t_max}")
    x = lat.add(z, sprime)
    y = lat.add(z, lat.neg(sprime))
    rep.expect("norm(x) = norm(y) = m+1",
               lat.norm(x) == m + 1 and lat.norm(y) == m + 1,
               f"x={lat.format_site(x)} y={lat.format_site(y)}")
    window = lat.origin_ball(m)
    dx = [lat.norm(lat.add(lat.neg(w), x)) for w in window]
    dy = [lat.norm(lat.add(lat.neg(w), y)) for w in window]
    rep.expect("windows are equidistant cell-by-cell", dx == dy,
               f"{len(window)} window cells")
    table = walk_parity_table(max(max(dx), max(dy)), t_max)
    equal = all(np.array_equal(table[:, a], table[:, b]) for a, b in zip(dx, dy))
    rep.expect(f"traces equal through t={t_max}", equal)
    # cross-check the projected values against the sparse engine at small t
    cross_t = min(8, t_max)
    rule = lambda_rule(n)
    ok = all(np.array_equal(
        engine.window_series(rule, Configuration(lat, 2, {site: 1}), window,
                             cross_t), table[:cross_t + 1, dists])
        for site, dists in ((x, dx), (y, dy)))
    rep.expect(f"projection matches sparse engine through t={cross_t}", ok)
    return rep


def odd_weight_kernel(rule: LinearRule, R: int, m: int,
                      t_max: int) -> tuple[int, int, bool]:
    """Rank and kernel dimension over GF(2) of the trace map of configurations
    on B_R, read on B_m through t_max, and whether its kernel holds a
    configuration of odd weight.

    The weight parity sum_z x_z is linear over GF(2), so the kernel holds an
    odd-weight vector iff appending a 1 to every column raises the rank: one
    verdict for every odd k <= |B_R|.  A negative one holds for all time, as
    a trace null forever is null through t_max.  The map is refused before
    the table: |B_{R+m}| <= |B_R| |B_m|, so its check covers the table's.
    """
    lat = rule.lattice
    if not (isinstance(rule, LinearRule) and rule.m == 2
            and isinstance(lat, FreeLattice)):
        raise UsageError("the odd-weight decision needs a mod-2 linear rule "
                         "on a free group")
    if min(R, m, t_max) < 0:
        raise UsageError("need R, m and t_max >= 0")
    errors.check_array_bytes(8 * (t_max + 1) * _box(lat, m) * _box(lat, R),
                             "the trace map")
    columns = list(TraceTable(rule, R, m, t_max).trace_map())
    rank = linearca.gfp_rank(columns, 2)
    odd = linearca.gfp_rank((np.append(c, 1) for c in columns), 2) > rank
    return rank, len(columns) - rank, odd
