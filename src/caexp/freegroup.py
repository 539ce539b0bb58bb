"""The totalistic mod-2 family on free groups: layer structure, the odd-k
expansivity decision and the explicit two-spot non-2-expansivity witness.

Large-time trace values of a spot orbit are read from its distance
projection: every vertex at distance d > 0 from the spot has one neighbor
closer and 2n-1 farther, and the spot has 2n at distance 1, so mod 2 the
value depends on d alone and is the spot orbit of the Z rule P = x^-1 + 1 + x
read at d.  It is cross-checked cell-by-cell against a ball simulation and
the sparse engine before it is trusted at depths where full simulation is
impossible (the support of a t-step orbit is the whole ball B_t).

Odd k is decided for every odd k at once, for any mod-2 linear rule on F_n,
by one GF(2) rank comparison of the bounded trace map, the ``TraceTable`` of
B_R read on B_m (``odd_weight_kernel``).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import engine, errors, linearca
from .config import Configuration
from .errors import ResourceLimitError, UsageError
from .expansivity import TraceTable
from .lattice import Z, FreeLattice, free, size_count
from .presets import lambda_rule
from .report import Report
from .rules import LinearRule

__all__ = ["lambda_rule", "ball_levels", "BallTree", "LayerProfile",
           "layer_profile", "fg_non2exp_witness", "odd_weight_kernel"]

# node budget of a BallTree, the profile's ball or a witness window; no ball
# is listed as words, so it bounds the arrays indexed by the nodes: the
# profile's uint8 values and the window's two int64 distance arrays
_MAX_NODES = 4_000_000

# the Z rule whose spot orbit is the distance projection of the lambda orbit
_P = LinearRule(Z, 2, {-1: 1, 0: 1, 1: 1})


def _projection(d_max: int, t_max: int) -> np.ndarray:
    """orbit[t, d]: the lambda:n spot orbit at time t and distance d from
    the spot, for every n; the P orbit read at 0..d_max."""
    return engine.window_series(_P, Configuration.spot(Z, 2, 1),
                                range(d_max + 1), t_max)


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
    """Implicit BFS indexing of the ball B_L in F_n, in the order of
    ``FreeLattice.origin_ball``.

    Level d occupies a contiguous index block; the children of the j-th node
    of a level form a contiguous block of the next one, so parent/child
    indices are pure arithmetic and no words or neighbors are stored.  Node
    0 is the identity; the generator order is a, a^-1, b, b^-1, ...
    """

    def __init__(self, n: int, depth: int):
        self.n = n
        self.depth = depth
        self.starts = list(itertools.accumulate(ball_levels(n, depth),
                                                initial=0))
        self.total = self.starts[-1]

    def _positions(self, word) -> list[int]:
        """The index of each nonempty prefix of a reduced word within its
        level: a child's is its parent's times 2n - 1, plus its letter's rank
        among the letters that do not cancel the parent's last one."""
        out, j, last = [], 0, 0
        for g in word:
            rank = 2 * abs(g) - 2 + (g < 0)
            if last:
                rank -= rank > 2 * abs(last) - 2 + (last > 0)
            j = j * (2 * self.n - 1) + rank
            out.append(j)
            last = g
        return out

    def index(self, word) -> int:
        """The node of a reduced word of norm <= depth."""
        if len(word) > self.depth:
            raise UsageError(f"word of norm {len(word)} outside B_{self.depth}")
        return self.starts[len(word)] + (self._positions(word) or [0])[-1]

    def distances(self, x) -> np.ndarray:
        """d(w, x) = |w| + |x| - 2 lcp(w, x) for every node w: the nodes of
        level d with the prefix x[:k] are one block of (2n - 1)^(d - k)."""
        pos = self._positions(x)
        out = np.empty(self.total, dtype=np.int64)
        for d in range(self.depth + 1):
            level = out[self.starts[d]:self.starts[d + 1]]
            level[:] = d + len(x)
            for k in range(1, min(d, len(x)) + 1):
                size = (2 * self.n - 1) ** (d - k)
                level[pos[k - 1] * size:(pos[k - 1] + 1) * size] = (
                    d + len(x) - 2 * k)
        return out

    def step_totalistic(self, values: np.ndarray) -> np.ndarray:
        """values -> values + sum over tree neighbors, mod 2; each level
        takes its parents and gives each parent its block of children, so a
        node of the last level sees its parent alone."""
        out = values.copy()
        s = self.starts
        for d in range(1, self.depth + 1):
            upper, level = values[s[d - 1]:s[d]], values[s[d]:s[d + 1]]
            children = level.reshape(len(upper), -1)
            out[s[d]:s[d + 1]] ^= np.repeat(upper, children.shape[1])
            for j in range(children.shape[1]):
                out[s[d - 1]:s[d]] ^= children[:, j]
        return out


@dataclass(frozen=True)
class LayerProfile:
    """Common state of all norm-l cells of the spot orbit, per time step,
    and the ball B_depth of ``nodes`` nodes it was stepped on."""

    n: int
    L: int
    t_max: int
    values: tuple[tuple[int, ...], ...]  # values[t][l]
    depth: int
    nodes: int


def layer_profile(n: int, L: int, t_max: int) -> LayerProfile:
    """Simulate the spot orbit on a ball, verify cell-by-cell that values at
    equal norms agree, and compress to the per-layer profile.

    A failure of the equivariance assertion would be an engine bug, so it
    raises RuntimeError rather than returning a verdict.
    """
    if L < 0 or t_max < 0:
        raise UsageError("need L >= 0 and t_max >= 0")
    dp = _projection(L, t_max)  # refused before the tree is built
    # boundary effects reach B_L only after 2*depth + 2 - L steps
    tree = BallTree(n, max(L, (t_max + L) // 2))
    values = np.zeros(tree.total, dtype=np.uint8)
    values[0] = 1
    rows = []
    for t in range(t_max + 1):
        if t > 0:
            values = tree.step_totalistic(values)
        row = []
        for lev in range(L + 1):
            block = values[tree.starts[lev]:tree.starts[lev + 1]]
            if not np.all(block == block[0]):
                raise RuntimeError(
                    f"norm equivariance violated at t={t} level={lev}")
            if block[0] != dp[t, lev]:
                raise RuntimeError(
                    f"distance projection disagrees with simulation at "
                    f"t={t} level={lev}")
            row.append(int(block[0]))
        rows.append(tuple(row))
    for lev in range(min(L, t_max) + 1):
        if rows[lev][lev] != 1:
            raise RuntimeError(f"first arrival at level {lev} is not 1")
    return LayerProfile(n=n, L=L, t_max=t_max, values=tuple(rows),
                        depth=tree.depth, nodes=tree.total)


def fg_non2exp_witness(n: int, z, sprime, t_max: int = 64) -> Report:
    """Two equidistant spots hanging off the tip of z share their radius-|z|
    trace, so the rule is not 2-expansive for n >= 2; the construction
    shields exactly the ball B_{|z|}, which is refused by the node budget
    before any array over it is formed, as is the projection's orbit.
    Window distances come from the ``BallTree`` index arithmetic, so no
    word of the window is listed, and the sparse cross-check costs the
    orbits' support, not the window."""
    if n < 2:
        raise UsageError("the two-spot witness needs at least 2 generators")
    lat = free(n)
    lat.validate_site(z)
    if not z or any(g != z[0] for g in z):
        raise UsageError("z must be a positive power of a single generator")
    m = len(z)
    tree = BallTree(n, m)
    lat.validate_site(sprime)
    if len(sprime) != 1 or abs(sprime[0]) == abs(z[0]):
        raise UsageError("s' must be a generator distinct from +-s")
    rep = Report(f"fg-witness n={n} z={lat.format_site(z)} "
                 f"s'={lat.format_site(sprime)} m={m} t_max={t_max}")
    x = lat.add(z, sprime)
    y = lat.add(z, lat.neg(sprime))
    rep.expect("norm(x) = norm(y) = m+1",
               lat.norm(x) == m + 1 and lat.norm(y) == m + 1,
               f"x={lat.format_site(x)} y={lat.format_site(y)}")
    # every window cell lies within m + norm(site) of each site
    orbit = _projection(m + max(len(x), len(y)), t_max)
    dx, dy = tree.distances(x), tree.distances(y)
    rep.expect("windows are equidistant cell-by-cell", np.array_equal(dx, dy),
               f"{tree.total} window cells")
    # the distinct (dx, dy) pairs, in lexicographic order
    width = orbit.shape[1]
    pairs = np.zeros((width, width), dtype=bool)
    pairs[dx, dy] = True
    a, b = np.nonzero(pairs)
    rep.expect(f"traces equal through t={t_max}",
               np.array_equal(orbit[:, a], orbit[:, b]))
    # the cells of B_m where a sparse spot orbit is 1 are those whose distance
    # reads 1: each support cell reads a 1, and as many window cells do
    cross_t = min(8, t_max)
    ok = True
    for site, dists in ((x, dx), (y, dy)):
        ones = orbit[:cross_t + 1] @ np.bincount(dists, minlength=width)
        # pruned for reads in B_m (z has norm m), on which it is exact
        states = engine._sparse_orbit(lambda_rule(n), Configuration(
            lat, 2, {site: 1}), cross_t, (z,))
        for t, state in enumerate(states):
            support = [w for w in state.cells if len(w) <= m]
            ok = ok and len(support) == ones[t] and all(
                orbit[t, dists[tree.index(w)]] for w in support)
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
    errors.check_array_bytes(
        8 * (t_max + 1) * size_count(lat, m) * size_count(lat, R),
        "the trace map")
    columns = list(TraceTable(rule, R, m, t_max).trace_map())
    rank = linearca.gfp_rank(columns, 2)
    odd = linearca.gfp_rank((np.append(c, 1) for c in columns), 2) > rank
    return rank, len(columns) - rank, odd
