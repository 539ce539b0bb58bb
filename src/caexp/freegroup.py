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

# node budget of a ball: of a BallTree, or of a witness window
_MAX_NODES = 4_000_000

# the Z rule whose spot orbit is the distance projection of the lambda orbit
_P = LinearRule(Z, 2, {-1: 1, 0: 1, 1: 1})


def _projection(d_max: int, t_max: int) -> np.ndarray:
    """orbit[t, d]: the lambda:n spot orbit at time t and distance d from
    the spot, for every n; the P orbit read at 0..d_max."""
    return engine.window_series(_P, Configuration.spot(Z, 2, 1),
                                range(d_max + 1), t_max)


def _distance(w, x) -> int:
    """d(w, x) = |w^-1 x| of reduced words: |w| + |x| less their common
    prefix, twice."""
    common = 0
    for a, b in zip(w, x):
        if a != b:
            break
        common += 1
    return len(w) + len(x) - 2 * common


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
        self.starts = starts = list(itertools.accumulate(counts, initial=0))
        # the pad is an extra slot holding a permanent 0
        self.total = self.pad = total = starts[-1]
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

    def step_totalistic(self, values: np.ndarray) -> np.ndarray:
        """values -> values + sum over tree neighbors, mod 2."""
        ext = np.zeros(self.total + 1, dtype=np.uint8)
        ext[:self.total] = values
        gathered = ext[self.nei]
        return (values ^ np.bitwise_xor.reduce(gathered, axis=1)).astype(np.uint8)


@dataclass(frozen=True)
class LayerProfile:
    """Common state of all norm-l cells of the spot orbit, per time step."""

    n: int
    L: int
    t_max: int
    values: tuple[tuple[int, ...], ...]  # values[t][l]


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
    return LayerProfile(n=n, L=L, t_max=t_max, values=tuple(rows))


def fg_non2exp_witness(n: int, z, sprime, t_max: int = 64) -> Report:
    """Two equidistant spots hanging off the tip of z share their radius-|z|
    trace, so the rule is not 2-expansive for n >= 2; the construction
    shields exactly the ball B_{|z|}, which is refused before it is listed
    when it holds more than the node budget, as is the projection's orbit.
    Distances come from common prefixes, and the sparse cross-check costs
    the orbits' support, not the window."""
    if n < 2:
        raise UsageError("the two-spot witness needs at least 2 generators")
    lat = free(n)
    lat.validate_site(z)
    if not z or any(g != z[0] for g in z):
        raise UsageError("z must be a positive power of a single generator")
    m = len(z)
    ball_levels(n, m)
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
    window = lat.origin_ball(m)
    dx, dy = (np.fromiter((_distance(w, site) for w in window),
                          dtype=np.int64, count=len(window))
              for site in (x, y))
    rep.expect("windows are equidistant cell-by-cell", np.array_equal(dx, dy),
               f"{len(window)} window cells")
    width = orbit.shape[1]
    a, b = np.divmod(np.unique(dx * width + dy), width)
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
                orbit[t, _distance(w, site)] for w in support)
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
