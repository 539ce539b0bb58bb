"""Rule evaluation, iteration, windowed orbits and propagation fronts.

Sign convention, fixed package-wide: ``sigma_z(c)(x) = c(z + x)``, so a cell
at site s seen through a neighborhood offset v contributes to the image at
``s - v``.  A dedicated test pins this.

The sparse step below is the reference semantics for every rule and lattice.
It has one body (``_step``), the weighted sum and finish of ``dense1d.steps``
on a dict of support cells: a linear rule sums its coefficients and reduces
mod m, and any other rule sums base-q digits (``Rule.digit_weights``) and
decodes them into its local function.  It negates each offset once per
step.  It caches each rule's decoded finishes by digit sum
(``Rule.finishes``, at most ``dense1d.MAX_TABLE`` entries), each filled by a
scalar ``local`` call; it never reads ``Rule.table``, the array evaluation
the dense kernels look up, so every dense-versus-sparse cross-check compares
two evaluations of the local function, not one table with itself.
Each orbit reader takes many configurations of one rule, its single form
being the one-element block, and decides the backends once per block.  The
readers outside ``window_series_many`` use decimation where it runs, and
otherwise ``window_series_many``, also where decimation refuses a block.

- ``window_series_many`` (orbits at fixed sites): one ``dense1d`` block of
  the configurations that ``_dense1d_runs`` admits, ``bitgrid`` for each
  one of a mod-2 linear Z^2 rule with x offsets below 64 cells
  (``_bitgrid_runs``), and the sparse step for each other one;
- ``spot_series`` (the orbit of a spot on a box, for a trace table): by
  decimation (``linearca.decimated_spot_series``) for linear rules with a
  prime modulus on Z or Z^2 (``_decimation_runs``); ``admit_spot_series``
  makes its checks and steps nothing;
- ``first_nonzero_times``, the early-exit twin of ``window_series_many``:
  where ``_decimation_runs``, one state-1 spot series on the box of the
  offsets to the read sites from the support cells within their reach
  (``linearca.decimated_first_nonzero_times``) answers every configuration
  whose sum over the support int64 holds;
- ``fronts_many`` (the difference fronts of many pairs on Z): ``dense1d``
  blocks where the same test holds for a pair's joint cells, and the sparse
  orbits of c and d otherwise.

The sparse step keeps only the cells that can still reach a read site by
t_max (``iterate`` and the fronts keep every cell).
Decimation and a linear ``dense1d`` kernel run only when int64 holds a sum
of n products below (m-1)^2, n coefficients mod m; every other Z rule runs
``dense1d`` through its tabulated local function, up to
``dense1d.MAX_TABLE`` entries.  Both dense backends step only the light-cone
box of the support and the read sites, from ``cone``; ``dense1d`` gathers
the read sites, or records the fronts of a block of pairs, after each step,
so no space-time array exists.  Neither dense backend runs where the cells
it would span (the support, on Z^2 the read sites too, and for fronts both
configurations of a pair) leave a gap wider than the light cone spreads plus
one 64-cell word: the sparse step skips such gaps, a dense row would
allocate them.

Every run counts its work before its first step: the dense backends their
row elements stepped (``cone.MAX_CELL_STEPS``; a ``dense1d`` block over it
halves, down to single configurations or pairs), decimation the words its
steps read and a charge per step (the same cap, in one count of
``linearca._decimated_rows``; the early exit adds its gathered offsets),
the sparse orbit a bound on its cells from ball sizes, weighted by
``Lattice.site_cost`` (``MAX_SPARSE_CELLS``).
Arrays past ``errors.MAX_ARRAY_BYTES`` are refused up front, the
(t_max+1, n) series of each configuration on every backend.
Every backend is cross-checked against the sparse step; results are
bit-identical.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bitgrid, dense1d, linearca
from .config import Configuration
from .errors import ResourceLimitError, UsageError, check_array_bytes
from .lattice import Site, Z2Lattice, ZLattice, size_count, size_domain
from .rules import LinearRule, Rule


def _check_match(rule: Rule, c: Configuration) -> None:
    if rule.lattice != c.lattice:
        raise UsageError(f"rule on {rule.lattice.kind} applied to a "
                         f"{c.lattice.kind} configuration")
    if rule.q != c.q:
        raise UsageError(f"rule alphabet size {rule.q} != configuration q {c.q}")


def step(rule: Rule, c: Configuration) -> Configuration:
    """One exact synchronous update of a finite-support configuration."""
    _check_match(rule, c)
    return _step(rule, c)


def _step(rule: Rule, c: Configuration) -> Configuration:
    """The one sparse step body: each support cell s adds w_v * c(s) to the
    sum of s - v for every neighbourhood offset v, then each sum is finished.
    Each offset is negated once per step, not once per cell.
    A linear rule weighs v by its coefficient and reduces mod m; any other
    weighs site i by ``digit_weights[i]``, so the sum spells the
    neighbourhood in base q, and decodes its digits into ``rule.local``.
    Those finishes are cached per rule (``Rule.finishes``), filled by the
    scalar call, up to ``dense1d.MAX_TABLE`` sums; past that a new sum is
    decoded and not stored.  The cache is not ``rule.table``: the dense
    kernels read that table, and the sparse step checks them."""
    lat, q = rule.lattice, rule.q
    add, neg = lat.add, lat.neg
    linear = isinstance(rule, LinearRule)
    terms = [(neg(v), w) for v, w in (
        rule.coeffs.items() if linear
        else zip(rule.neighborhood, rule.digit_weights))]
    acc: dict[Site, int] = {}
    get = acc.get
    for s, val in c.cells.items():
        for u, w in terms:
            z = add(s, u)
            acc[z] = get(z, 0) + w * val
    if linear:
        out = {z: r for z, x in acc.items() if (r := x % q)}
    else:
        local, weights = rule.local, rule.digit_weights
        cache, room = rule.finishes, dense1d.MAX_TABLE
        out = {}
        for z, x in acc.items():
            r = cache.get(x)
            if r is None:
                r = local([x // w % q for w in weights])
                if len(cache) < room:
                    cache[x] = r
            if r:
                out[z] = r
    return Configuration(lat, q, out, _validated=True)


def _gaps_within(coords, rule: Rule, t_max: int) -> bool:
    """Is no gap between neighbouring coordinates wider than the light cone of
    a t_max-step run spreads, plus one 64-cell word?"""
    reach = 2 * t_max * rule.radius + 64
    xs = sorted(set(coords))
    return all(b - a <= reach for a, b in zip(xs, xs[1:]))


def _dense1d_runs(rule: Rule, cells, t_max: int) -> bool:
    """The one dense1d test: a Z rule a dense kernel covers, over cells
    without a gap a row would allocate."""
    return (dense1d.kernel(rule) is not None
            and _gaps_within(cells, rule, t_max))


def _bitgrid_runs(rule: Rule, c: Configuration, sites, t_max: int) -> bool:
    """The one bitgrid test: a mod-2 linear rule on Z^2 with |dx| < 64, over
    support and read sites without a gap the grid would allocate."""
    return (isinstance(rule, LinearRule) and isinstance(rule.lattice, Z2Lattice)
            and rule.m == 2 and all(-64 < dx < 64 for dx, _ in rule.neighborhood)
            and all(_gaps_within([s[i] for s in [*c.cells, *sites]], rule, t_max)
                    for i in (0, 1)))


# cells the sparse orbit may step, bounded from ball sizes before its first
# step: the largest bound the claims, tests and benchmark make is the mod-3
# Z^2 witness through t=243, 29.8 * 10^6 (43 466 cells stepped, 0.1 s); on
# a free group, the sparse cross-check of ``freegroup --witness z=13a`` on
# F_2 through t=8, 1.9 * 10^6 with its weight
MAX_SPARSE_CELLS = 2 ** 25


def _sparse_orbit(rule: Rule, c: Configuration, t_max: int, sites):
    """c, F(c), ..., F^t_max(c) through the sparse step, exact on the ball B
    of radius max norm(site) (everywhere if None): before step t+1 it drops
    each cell s with norm(s) > max norm(site) + (t_max - t) * radius, which
    by the triangle inequality lies farther from B than F^(t_max - t) reads.
    With no sites, max norm(site) is span + t_max * radius, and nothing is
    dropped.

    So step t+1 reads cells within min(span + t*radius, keep) of the origin,
    span bounding the initial support: at most the mean of the two, whose sum
    does not depend on t.  They also lie within t*radius of the initial
    support.  The run is refused before its first step when t_max steps of
    the fewer of these cells, each charged ``Lattice.site_cost`` at that
    peak norm, pass ``MAX_SPARSE_CELLS``."""
    lat, radius = rule.lattice, rule.radius
    span = max((lat.norm(s) for s in c.cells), default=0)
    reach = (span + t_max * radius if sites is None
             else max((lat.norm(s) for s in sites), default=0))
    peak = min(min(span, reach) + t_max * radius,
               (span + reach + t_max * radius) // 2)
    if t_max:
        # a ball of radius r holds over r cells: past the cap it is not formed
        # (exponential in r on F_n), and a ball past cap cells counts cap + 1,
        # which refuses the same runs and keeps the charge printable; an empty
        # support costs one cell a step
        cap = MAX_SPARSE_CELLS // t_max
        by_origin, by_support = (min(lat.ball_size(r), cap + 1) if r < cap
                                 else cap + 1 for r in (peak, t_max * radius))
        cells = min(by_origin, max(len(c), 1) * by_support)
        charged = t_max * cells * lat.site_cost(peak)
        if charged > MAX_SPARSE_CELLS:
            raise ResourceLimitError(
                f"a sparse orbit of {t_max} steps within radius {peak} "
                f"charges {charged} cells, above the "
                f"{MAX_SPARSE_CELLS}-cell budget")
    yield c
    for t in range(t_max):
        keep = reach + (t_max - t) * radius
        if span > keep:
            c = Configuration(c.lattice, c.q, {s: v for s, v in c.cells.items()
                                               if lat.norm(s) <= keep},
                              _validated=True)
            span = keep
        c = step(rule, c)
        span += radius
        yield c


def _check_run(rule: Rule, configs, t_max: int) -> None:
    if t_max < 0:
        raise UsageError("step count t_max must be >= 0")
    for c in configs:
        _check_match(rule, c)


def iterate(rule: Rule, c: Configuration, t: int) -> Configuration:
    """F^t(c), the last state of the sparse orbit with no read sites, bounded
    before its first step like every sparse run; iterate(rule, c, 0) = c."""
    _check_run(rule, [c], t)
    for cur in _sparse_orbit(rule, c, t, None):
        pass
    return cur


def window_series(rule: Rule, c: Configuration, sites, t_max: int) -> np.ndarray:
    """Orbit values F^t(c)(sites[i]) for t = 0..t_max, shape (t_max+1, n)."""
    return window_series_many(rule, [c], sites, t_max)[0]


def window_series_many(rule: Rule, configs, sites,
                       t_max: int) -> list[np.ndarray]:
    """The ``window_series`` of each configuration, by the one backend
    dispatch (see the module docstring); it accepts every input the sparse
    step accepts.
    """
    configs, sites = list(configs), list(sites)
    _check_run(rule, configs, t_max)
    check_array_bytes(8 * (t_max + 1) * len(configs) * len(sites),
                      "an orbit window series")
    dense = [i for i, c in enumerate(configs)
             if _dense1d_runs(rule, c.cells, t_max)]
    out = {}
    if dense:
        block = dense1d.orbit(rule, [configs[i] for i in dense], sites, t_max)
        out = dict(zip(dense, block.swapaxes(0, 1)))
    for i, c in enumerate(configs):
        if i in out:
            continue
        if _bitgrid_runs(rule, c, sites, t_max):
            out[i] = bitgrid.simulate_series(rule.neighborhood, sorted(c.cells),
                                             t_max, sites)
        else:  # states past int64 stay Python ints
            out[i] = np.zeros((t_max + 1, len(sites)),
                              dtype=np.int64 if rule.q <= 2 ** 63 else object)
            for t, cur in enumerate(_sparse_orbit(rule, c, t_max, sites)):
                out[i][t] = cur.restrict(sites)
    return [out[i] for i in range(len(configs))]


def _decimation_runs(rule: Rule) -> bool:
    """The one decimation test: a linear rule with prime modulus on Z or
    Z^2 whose step int64 holds."""
    return (isinstance(rule, LinearRule)
            and isinstance(rule.lattice, (ZLattice, Z2Lattice))
            and dense1d.int64_exact(len(rule.coeffs), rule.m)
            and linearca.is_prime(rule.m))


def spot_series(rule: Rule, state: int, R: int, t_max: int) -> np.ndarray:
    """Orbit values of the spot of ``state`` at the origin on the size-<=R
    box, shape (t_max+1, |box|) in ``size_domain`` order: by decimation
    where ``_decimation_runs``, and otherwise ``window_series``."""
    spot = Configuration.spot(rule.lattice, rule.q, state)
    _check_run(rule, [spot], t_max)
    size_count(rule.lattice, R)  # refuses R < 0
    if _decimation_runs(rule):
        return linearca.decimated_spot_series(rule, state, R, t_max)
    return window_series(rule, spot, size_domain(rule.lattice, R), t_max)


def admit_spot_series(rule: Rule, state: int, R: int, t_max: int) -> None:
    """Make every check ``spot_series(rule, state, R, t_max)`` makes before
    its first step, through the same check functions, and step nothing: the
    decimated run's word reads and its series' bytes where
    ``_decimation_runs``, and otherwise the window series' bytes and the
    dense1d cell steps or the sparse ball bound.  Every rule ``bitgrid``
    runs decimates.  A reader of a shorter series so admitted is refused
    exactly where the t_max series would be."""
    spot = Configuration.spot(rule.lattice, rule.q, state)
    _check_run(rule, [spot], t_max)
    size_count(rule.lattice, R)  # refuses R < 0
    if _decimation_runs(rule):
        linearca._decimated_series_rows(rule, state, R, t_max)
        return
    sites = size_domain(rule.lattice, R)
    check_array_bytes(8 * (t_max + 1) * len(sites), "an orbit window series")
    if _dense1d_runs(rule, spot.cells, t_max):
        dense1d._Frame(list(spot.cells), sites, rule.neighborhood, t_max)
    else:
        next(_sparse_orbit(rule, spot, t_max, sites))


def first_nonzero_time(rule: Rule, c: Configuration, sites,
                       t_max: int) -> int | None:
    """First t <= t_max at which F^t(c) is nonzero at some site, else None."""
    return first_nonzero_times(rule, [c], sites, t_max)[0]


def first_nonzero_times(rule: Rule, configs, sites,
                        t_max: int) -> list[int | None]:
    """For each configuration c, the first t <= t_max at which F^t(c) is
    nonzero at some site, else None: by decimation (see the module
    docstring) unless it refuses the block up front, and otherwise the first
    nonzero row of its ``window_series``."""
    configs, sites = list(configs), list(sites)
    _check_run(rule, configs, t_max)
    out = dict.fromkeys(range(len(configs)))
    dec = []
    if _decimation_runs(rule):
        dec = [i for i in out if dense1d.int64_exact(len(configs[i]), rule.m)]
        try:
            out.update(zip(dec, linearca.decimated_first_nonzero_times(
                rule, [configs[i] for i in dec], sites, t_max)))
        except ResourceLimitError:
            dec = []  # refused before any array exists
    rest = sorted(out.keys() - set(dec))
    for i, series in zip(rest, window_series_many(
            rule, [configs[i] for i in rest], sites, t_max)):
        out[i] = next((t for t, row in enumerate(series) if row.any()), None)
    return list(out.values())


def traces_equal(rule: Rule, c: Configuration, d: Configuration,
                 m: int, t_max: int) -> bool:
    """Compare two radius-m traces with early exit: False at the first step
    they differ, True once both pruned states are equal: both then step alike.

    Steps the sparse engine on purpose: most pairs differ within a few steps,
    and a full dense orbit of each pair costs far more than those steps.
    """
    _check_run(rule, [c, d], t_max)
    ball = tuple(rule.lattice.origin_ball(m))
    for cc, dd in zip(_sparse_orbit(rule, c, t_max, ball),
                      _sparse_orbit(rule, d, t_max, ball)):
        if cc == dd or cc.restrict(ball) != dd.restrict(ball):
            return cc == dd
    return True


@dataclass
class FrontSeries:
    """Left/right difference positions per step; None marks equal images."""

    l: list[int | None]
    r: list[int | None]


def fronts(rule: Rule, c: Configuration, d: Configuration,
           t_max: int) -> FrontSeries:
    """Exact min/max difference positions of two orbits on Z."""
    return fronts_many(rule, [(c, d)], t_max)[0]


def fronts_many(rule: Rule, pairs, t_max: int) -> list[FrontSeries]:
    """The fronts of each pair (c, d) of distinct configurations on Z, in
    order.  Pairs whose joint cells pass the dense1d test step together in
    blocks; every other pair steps the sparse orbits of c and d."""
    if not isinstance(rule.lattice, ZLattice):
        raise UsageError("fronts are defined on the Z lattice only")
    pairs = list(pairs)
    for c, d in pairs:
        _check_run(rule, [c, d], t_max)
        if c == d:
            raise UsageError("fronts undefined for equal configurations")
    dense = [i for i, (c, d) in enumerate(pairs)
             if _dense1d_runs(rule, [*c.cells, *d.cells], t_max)]
    blocked = dict(zip(dense, dense1d.fronts(rule, [pairs[i] for i in dense],
                                             t_max)))
    return [FrontSeries(*blocked[i]) if i in blocked
            else _sparse_fronts(rule, c, d, t_max)
            for i, (c, d) in enumerate(pairs)]


def _sparse_fronts(rule: Rule, c: Configuration, d: Configuration,
                   t_max: int) -> FrontSeries:
    ls, rs = [], []
    for cur, other in zip(_sparse_orbit(rule, c, t_max, None),
                          _sparse_orbit(rule, d, t_max, None)):
        diff = [s for s in cur.cells.keys() | other.cells.keys()
                if cur.get(s) != other.get(s)]
        ls.append(min(diff, default=None))
        rs.append(max(diff, default=None))
    return FrontSeries(l=ls, r=rs)
