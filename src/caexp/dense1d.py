"""Dense array kernels for orbits of Z rules, read at fixed sites or as
difference fronts of pairs.

One step body (``steps``) serves every rule: acc = sum of w_v * old[x+v],
then the in-place finish that ``kernel`` picks with the weights (mod m for
a linear rule, else a lookup in ``Rule.table`` of base-q digit sums).  One
block generator (``_blocks``) frames and counts every dense run, halving a
block over a budget, and its block run (``_run``) steps a row per
configuration in one (rows, width) int64 block of encoded states: ``orbit``
gathers each row's read sites into row t of a (t_max+1, B, n) series, and
``fronts`` records each pair's first and last differing cell, so no
space-time array is built.  Step t computes the light-cone box B_t of one
``cone.Axis`` of the block's joint cells and meets the ``cone`` invariant:
the rows hold the support on B_0 and span F_{t_max} & K_0 plus the offsets'
reach.  Each gather is exact but at sites off the rows, which lie outside
every F_t and which the orbit zeroes.

A block counts its cell steps, each box's width plus two per row, and is
refused above ``cone.MAX_CELL_STEPS``; for one row the count never exceeds
the cells of the light-cone array these kernels replaced.

``engine.window_series_many`` calls ``orbit`` and ``engine.fronts_many``
calls ``fronts`` where ``kernel`` covers the rule, and the tests cross-check
both against the sparse engine.  The step body, which keeps the dtype of its
input, also steps the decimated spot series of ``linearca`` on Z and,
flattened to one row, on Z^2.
"""
from __future__ import annotations

import numpy as np

from . import cone
from .errors import ResourceLimitError, UsageError, check_array_bytes
from .lattice import ZLattice
from .rules import (LinearRule, MultRule, Rule, SecondOrderInverseRule,
                    SecondOrderRule)


class _Frame:
    """Rows, boxes and read columns of one run; ``empty`` runs read zeros.

    A run of ``rows`` rows is counted and refused as a whole; without read
    sites (``sites`` None) it steps the whole light cone and reads no column.
    """

    def __init__(self, cells, sites, offsets, t_max: int, rows: int = 1):
        self.axis = ax = cone.Axis(offsets, cells, sites, t_max)
        self.empty = ax.empty
        if self.empty:
            return
        self.steps = rows * (cone.cells(ax) + 2 * t_max)
        cone.check_steps(self.steps, "a dense orbit", "cell steps")
        lo, hi = ax.hull()
        self.x0 = lo - ax.b
        self.width = hi + ax.a - self.x0 + 1
        check_array_bytes(8 * rows * self.width, "a dense orbit's rows")
        if sites is not None:
            self.cols = np.array([s - self.x0 for s in sites], dtype=np.intp)
            self.off = (self.cols < 0) | (self.cols >= self.width)


def add_shifted(acc: np.ndarray, row: np.ndarray, v: int) -> None:
    """acc[..., x] += row[..., x + v], reading zeros past either end."""
    n = row.shape[-1]
    if v >= 0:
        acc[..., :n - v] += row[..., v:]
    else:
        acc[..., -v:] += row[..., :n + v]


# entries a rule's table may hold.  A second-order rule mod 7 on three cells
# has 49^3 = 117 649: 0.94 MB, built in 11-14 ms with a 13 MB peak (2-core
# host), where a 10^6-entry table took 0.14 s and a 107 MB peak.  Past the
# cap a rule steps sparsely, as second-order rules mod q >= 8 on three cells
# and mult:k,k' with kk' > 362 do; layered:2's 2^15 is the largest preset
MAX_TABLE = 2 ** 17


def int64_exact(n_terms: int, m: int) -> bool:
    """Does int64 hold a sum of ``n_terms`` products below (m-1)^2?"""
    return n_terms * (m - 1) ** 2 < 2 ** 63


def kernel(rule: Rule):
    """The terms [(v, w_v)] and in-place finish of ``steps`` for a Z rule,
    or None.  A linear rule whose sums int64 holds keeps its coefficients
    and reduces mod m, by a mask for a power of two (a fifth to a seventh
    of the cost of ``%``); any other rule of at most ``MAX_TABLE``
    neighbourhoods takes ``rule.digit_weights`` and looks up ``rule.table``."""
    if not isinstance(rule.lattice, ZLattice):
        return None
    if isinstance(rule, LinearRule):
        m = rule.m
        if not int64_exact(len(rule.coeffs), m):
            return None
        mask = m - 1
        return sorted(rule.coeffs.items()), (
            (lambda acc: np.remainder(acc, m, out=acc)) if m & mask
            else (lambda acc: np.bitwise_and(acc, mask, out=acc)))
    q, n = rule.q, len(rule.neighborhood)
    if q ** n > MAX_TABLE:
        return None
    table = rule.table
    # every sum indexes the table, so mode="clip" changes nothing, and it
    # writes straight into a contiguous ``acc``; "raise" would buffer it
    return (list(zip(rule.neighborhood, rule.digit_weights)),
            lambda acc: np.take(table, acc, out=acc, mode="clip"))


def steps(kern, boxes, old: np.ndarray):
    """The one step body, over the last axis of a row or a block of rows:
    acc = sum of w_v * old[x + v] over the terms of ``kern``, then its
    finish, in the dtype of ``old`` (a uint8 sum wraps mod 256, which keeps
    it mod 2).  Yields (t, a, b, state) for each box (t, a, b), counted from
    the row origin, the state holding F^t on cells a..b-1.  The second
    buffer is made with np.zeros, not zeros_like, which writes every page:
    np.zeros pages are mapped only once a box reaches them."""
    ((v0, w0), *rest), finish = kern
    new = np.zeros(old.shape, dtype=old.dtype)
    for t, a, b in boxes:  # row cells a..b-1
        acc = new[..., a:b]
        np.multiply(old[..., a + v0:b + v0], w0, out=acc)
        for v, w in rest:
            src = old[..., a + v:b + v]
            acc += src if w == 1 else w * src
        finish(acc)
        old, new = new, old
        yield t, a, b, old


def _run(rule: Rule, f: _Frame, configs, shifts):
    """Step the cells of ``configs``, row i holding configs[i] translated by
    -shifts[i] and dropped off box 0, as one (rows, width) int64 block of
    encoded states; yields (t, a, b, block) for t = 0..t_max, the block
    holding F^t on row cells a..b-1 and zero off them."""
    kern = kernel(rule)
    if kern is None:
        raise UsageError(f"no exact dense kernel covers {rule.describe()}")
    block = np.zeros((len(configs), f.width), dtype=np.int64)
    _, lo, end = next(f.axis.boxes(0, f.x0))
    for i, (cells, s) in enumerate(zip(configs, shifts)):
        for x, v in cells.items():
            col = x - s - f.x0
            if lo <= col < end:
                block[i, col] = v
    yield 0, lo, end, block
    yield from steps(kern, f.axis.boxes(1, f.x0), block)


def _blocks(rule: Rule, items: list, sites, t_max: int, rows, record=0):
    """Yield (lo, hi, f, shifts, run) for the blocks items[lo:hi] in order,
    but those with an empty frame: ``rows(part)`` gives the cells and shifts
    of a block's rows, whose ``_Frame`` on their joint translated cells
    counts and checks the block, with ``record`` bytes an item and step
    besides, and ``run`` steps them.  A refused block is halved, down to a
    single item."""
    todo = [(0, len(items))] if items else []
    while todo:
        lo, hi = todo.pop()
        cells, shifts = rows(items[lo:hi])
        try:
            f = _Frame([x - s for c, s in zip(cells, shifts) for x in c], sites,
                       rule.neighborhood, t_max, rows=len(cells))
            check_array_bytes(record * (t_max + 1) * (hi - lo),
                              "a dense block's records")
        except ResourceLimitError:
            if hi - lo == 1:
                raise
            todo += [((lo + hi) // 2, hi), (lo, (lo + hi) // 2)]
            continue
        if not f.empty:
            yield lo, hi, f, shifts, _run(rule, f, cells, shifts)


def _orbit(rule: Rule, configs, sites, t_max: int):
    """(cell steps, series) of a rule ``kernel`` covers: series[t, b*n + i]
    holds the encoded state of F^t(configs[b]) at sites[i], n = len(sites)."""
    out = np.zeros((t_max + 1, len(configs), len(sites)), dtype=np.int64)
    steps = 0
    for lo, hi, f, _, run in _blocks(rule, configs, sites, t_max, lambda part: (
            [c.cells for c in part], [0] * len(part))):
        steps += f.steps
        # mode="clip" writes straight into ``out``; "raise" would buffer it
        for t, _, _, block in run:
            block.take(f.cols, axis=1, out=out[t, lo:hi], mode="clip")
        if f.off.any():  # the clipped gathers misread the sites off the rows
            out[:, lo:hi, f.off] = 0
    return steps, out.reshape(t_max + 1, -1)


def orbit_linear(rule: LinearRule, configs, sites, t_max: int):
    """(cell steps, series) of a linear Z rule read at ``sites``."""
    return _orbit(rule, configs, sites, t_max)


def orbit_second_order(rule: SecondOrderRule, configs, sites, t_max: int):
    """(cell steps, series) of SO(F, +), or of its inverse, read at
    ``sites``, encoded a*q + b."""
    return _orbit(rule, configs, sites, t_max)


def orbit_mult(rule: MultRule, configs, sites, t_max: int):
    """(cell steps, series) of the multiplication rule, or of any other
    tabulated Z rule (the layered flip rules), read at ``sites``."""
    return _orbit(rule, configs, sites, t_max)


def orbit(rule: Rule, configs, sites, t_max: int) -> np.ndarray:
    """Encoded orbit values at ``sites``, shape (t_max+1, B, len(sites)), of
    B configurations of a rule that ``kernel`` covers, through one
    ``orbit_*`` by rule class."""
    if kernel(rule) is None:
        raise UsageError(f"no exact dense kernel covers {rule.describe()}")
    # looked up at each call, so that a wrapper bound to a name is reached
    by_class = {LinearRule: orbit_linear, SecondOrderRule: orbit_second_order,
                SecondOrderInverseRule: orbit_second_order}
    read = by_class.get(type(rule), orbit_mult)
    series = read(rule, configs, sites, t_max)[1]
    return series.reshape(t_max + 1, len(configs), len(sites))


def fronts(rule: Rule, pairs: list, t_max: int) -> list[tuple[list, list]]:
    """(l, r) of each pair (c, d) of distinct configurations of a rule that
    ``kernel`` covers, in order: the first and last cell where F^t(c) and
    F^t(d) differ, for t = 0..t_max, None where they agree.

    A block of B pairs steps the c's in rows 0..B-1 and the d's in rows
    B..2B-1, each pair translated so that its lowest cell sits at 0 (the
    rule commutes with shifts), so pairs far apart never widen it.  It steps
    the whole light cone of its rows, and after each step records each row
    pair's first and last differing cell; no space-time array exists.
    """
    def rows(part):
        shifts = [min([*c.cells, *d.cells]) for c, d in part]
        return ([c.cells for c, _ in part] + [d.cells for _, d in part],
                shifts + shifts)
    out: list[tuple[list, list]] = []
    # two int64 positions and a bool per pair and step
    for lo, hi, f, shifts, run in _blocks(rule, pairs, None, t_max, rows,
                                          8 + 8 + 1):
        n = hi - lo
        first = np.empty((t_max + 1, n), dtype=np.int64)
        last = np.empty_like(first)
        some = np.empty((t_max + 1, n), dtype=bool)
        for t, a, b, block in run:
            # the rows are zero off box t, so every difference lies on it
            diff = block[:n, a:b] != block[n:, a:b]
            diff.any(axis=1, out=some[t])
            np.add(diff.argmax(axis=1), a, out=first[t])
            np.subtract(b - 1, diff[:, ::-1].argmax(axis=1), out=last[t])
        for s, ls, rs, ok in zip(shifts[:n], first.T.tolist(),
                                 last.T.tolist(), some.T.tolist()):
            x = f.x0 + s
            out.append(([v + x if k else None for v, k in zip(ls, ok)],
                        [v + x if k else None for v, k in zip(rs, ok)]))
    return out
