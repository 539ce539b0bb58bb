"""Rule evaluation, iteration, windowed orbits and propagation fronts.

Sign convention, fixed package-wide: ``sigma_z(c)(x) = c(z + x)``, so a cell
at site s seen through a neighborhood offset v contributes to the image at
``s - v``.  A dedicated test pins this.

The sparse step below is the reference semantics for every rule and lattice.
``window_series`` and its early-exit twin ``first_nonzero_time`` are the one
place that picks a backend for reading an orbit at fixed sites: ``bitgrid``
for mod-2 linear rules on Z^2 whose x offsets are below 64 cells (one
predicate for both), ``dense1d`` for linear, multiplication and linear
second-order rules on Z (``window_series`` only), and the sparse step
otherwise, which keeps only the cells that can still reach a read site by
t_max.  A ``dense1d`` kernel runs only when int64 arithmetic is exact for
the rule: n*(m-1)^2 + (m-1) < 2^63 for n coefficients mod m.  Neither dense
backend runs where the cells it would span (the support, and on Z^2 the read
sites) leave a gap wider than the light cone spreads plus one 64-cell word:
the sparse step skips such gaps, a dense array would allocate them.  Arrays
past ``errors.MAX_ARRAY_BYTES`` are refused up front, the (t_max+1, n) output
of ``window_series`` on every backend.  Every backend is
cross-checked against the sparse step; results are bit-identical.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bitgrid, dense1d
from .config import Configuration
from .errors import ResourceLimitError, UsageError, check_array_bytes
from .lattice import Site, Z2Lattice, ZLattice
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
    if isinstance(rule, LinearRule):
        return _step_linear(rule, c)
    return _step_generic(rule, c)


def _step_linear(rule: LinearRule, c: Configuration) -> Configuration:
    lat = rule.lattice
    m = rule.m
    acc: dict[Site, int] = {}
    for s, val in c.cells.items():
        for v, a in rule.coeffs.items():
            z = lat.sub(s, v)
            acc[z] = acc.get(z, 0) + a * val
    out = {z: r for z, r in ((z, x % m) for z, x in acc.items()) if r}
    return Configuration(lat, m, out, _validated=True)


def _step_generic(rule: Rule, c: Configuration) -> Configuration:
    lat = rule.lattice
    nbhd = rule.neighborhood
    candidates = set()
    for s in c.cells:
        for v in nbhd:
            candidates.add(lat.sub(s, v))
    get = c.cells.get
    out: dict[Site, int] = {}
    for z in candidates:
        vals = [get(lat.add(z, v), 0) for v in nbhd]
        r = rule.local(vals)
        if r:
            out[z] = r
    return Configuration(lat, rule.q, out, _validated=True)


def iterate(rule: Rule, c: Configuration, t: int,
            max_cells: int | None = None) -> Configuration:
    """t-fold composition of step; iterate(rule, c, 0) = c.

    ``max_cells`` bounds the evolving support; exceeding it raises a
    ResourceLimitError carrying the last completed step.
    """
    if t < 0:
        raise UsageError("iteration count must be >= 0")
    _check_match(rule, c)
    cur = c
    for done in range(t):
        cur = step(rule, cur)
        if max_cells is not None and len(cur) > max_cells:
            raise ResourceLimitError(
                f"support grew past {max_cells} cells at step {done + 1}",
                last_completed=done + 1)
    return cur


def _gaps_within(coords, rule: Rule, t_max: int) -> bool:
    """Is no gap between neighbouring coordinates wider than the light cone of
    a t_max-step run spreads, plus one 64-cell word?"""
    reach = 2 * t_max * rule.radius + 64
    xs = sorted(set(coords))
    return all(b - a <= reach for a, b in zip(xs, xs[1:]))


def _bitgrid_runs(rule: Rule, c: Configuration, sites, t_max: int) -> bool:
    """The one bitgrid test: a mod-2 linear rule on Z^2 with |dx| < 64, over
    support and read sites without a gap the grid would allocate."""
    return (isinstance(rule, LinearRule) and isinstance(rule.lattice, Z2Lattice)
            and rule.m == 2 and all(-64 < dx < 64 for dx, _ in rule.neighborhood)
            and all(_gaps_within([s[i] for s in [*c.cells, *sites]], rule, t_max)
                    for i in (0, 1)))


def _sparse_orbit(rule: Rule, c: Configuration, t_max: int, sites):
    """c, F(c), ..., F^t_max(c) through the sparse step, exact at ``sites``
    only: before step t+1 it drops each cell s with norm(s) > max norm(site)
    + (t_max - t) * radius, which by the triangle inequality lies farther from
    every site than F^(t_max - t) reads."""
    norm = rule.lattice.norm
    reach = max((norm(s) for s in sites), default=0)
    span = max((norm(s) for s in c.cells), default=0)  # bounds the support
    yield c
    for t in range(t_max):
        keep = reach + (t_max - t) * rule.radius
        if span > keep:
            c = Configuration(c.lattice, c.q, {s: v for s, v in c.cells.items()
                                               if norm(s) <= keep},
                              _validated=True)
            span = keep
        c = step(rule, c)
        span += rule.radius
        yield c


def _check_run(rule: Rule, c: Configuration, t_max: int) -> None:
    if t_max < 0:
        raise UsageError("step count t_max must be >= 0")
    _check_match(rule, c)


def window_series(rule: Rule, c: Configuration, sites, t_max: int) -> np.ndarray:
    """Orbit values F^t(c)(sites[i]) for t = 0..t_max, shape (t_max+1, n).

    The one backend dispatch (see the module docstring); it accepts every
    input the sparse step accepts.
    """
    _check_run(rule, c, t_max)
    check_array_bytes(8 * (t_max + 1) * len(sites), "an orbit window series")
    if _bitgrid_runs(rule, c, sites, t_max):
        return bitgrid.simulate_series(rule.neighborhood, sorted(c.cells),
                                       t_max, list(sites))
    if isinstance(rule.lattice, ZLattice) and _gaps_within(c.cells, rule, t_max):
        dense = dense1d.orbit(rule, c, t_max)
        if dense is not None:
            x0, rows = dense
            cols = np.fromiter((s - x0 for s in sites), dtype=np.intp,
                               count=len(sites))
            # mode="clip" gathers straight into the result, no temporary
            out = rows.take(cols, axis=1, mode="clip")
            out[:, (cols < 0) | (cols >= rows.shape[1])] = 0
            return out
    # states past int64 stay Python ints
    out = np.zeros((t_max + 1, len(sites)),
                   dtype=np.int64 if rule.q <= 2 ** 63 else object)
    for t, cur in enumerate(_sparse_orbit(rule, c, t_max, sites)):
        out[t] = cur.restrict(sites)
    return out


def first_nonzero_time(rule: Rule, c: Configuration, sites,
                       t_max: int) -> int | None:
    """First t <= t_max at which F^t(c) is nonzero at some site, else None:
    the early-exit twin of ``window_series``, through bitgrid where that runs
    it and otherwise the sparse step."""
    _check_run(rule, c, t_max)
    if _bitgrid_runs(rule, c, sites, t_max):
        return bitgrid.first_nonzero_window_time(
            rule.neighborhood, sorted(c.cells), t_max, list(sites))
    for t, cur in enumerate(_sparse_orbit(rule, c, t_max, sites)):
        if any(cur.restrict(sites)):
            return t
    return None


def traces_equal(rule: Rule, c: Configuration, d: Configuration,
                 m: int, t_max: int) -> bool:
    """Compare two radius-m traces with early exit.

    Steps the sparse engine on purpose: most pairs differ within a few steps,
    and a full dense orbit of each pair costs far more than those steps.
    """
    _check_run(rule, c, t_max)
    _check_match(rule, d)
    ball = tuple(rule.lattice.origin_ball(m))
    return all(cc.restrict(ball) == dd.restrict(ball)
               for cc, dd in zip(_sparse_orbit(rule, c, t_max, ball),
                                 _sparse_orbit(rule, d, t_max, ball)))


@dataclass
class FrontSeries:
    """Left/right difference positions per step; None marks equal images."""

    l: list[int | None]
    r: list[int | None]
    radius: int


def fronts(rule: Rule, c: Configuration, d: Configuration,
           t_max: int) -> FrontSeries:
    """Exact min/max difference positions of two orbits on Z."""
    if not isinstance(rule.lattice, ZLattice):
        raise UsageError("fronts are defined on the Z lattice only")
    _check_match(rule, c)
    _check_match(rule, d)
    if c == d:
        raise UsageError("fronts undefined for equal configurations")
    # both orbits over their joint light cone, which holds every difference
    xs = list(c.cells) + list(d.cells)
    disp = [-v for v in rule.neighborhood] + [0]
    lo = min(xs) + t_max * min(disp)
    sites = range(lo, max(xs) + t_max * max(disp) + 1)
    diff = window_series(rule, c, sites, t_max) != window_series(rule, d, sites, t_max)
    some = diff.any(axis=1)
    first = diff.argmax(axis=1)
    last = len(sites) - 1 - diff[:, ::-1].argmax(axis=1)
    ls = [lo + int(i) if ok else None for i, ok in zip(first, some)]
    rs = [lo + int(i) if ok else None for i, ok in zip(last, some)]
    return FrontSeries(l=ls, r=rs, radius=rule.radius)
