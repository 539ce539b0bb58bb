"""Dense array kernels for orbits of Z rules, read at fixed sites or as
difference fronts of pairs.

Each kernel's step arithmetic is written once, in a step body that works over
the last axis, so the same body steps one row or a block of rows.  An orbit
steps two rows (two layers of a second-order rule) and, after each step,
gathers the read sites into row t of a (t_max+1, n) series; ``fronts`` steps
a block of pairs and records each pair's first and last differing cell after
each step.  No space-time array is built.  Step t computes the light-cone box
B_t of one ``cone.Axis`` and meets the ``cone`` invariant: the first row
holds the support on B_0, and the rows span F_{t_max} & K_0 plus the offsets'
reach, so no read falls off them.  Each gather is exact but at sites off the
rows, which lie outside every F_t and which ``_Frame.finish`` zeroes.

Before the first step a run counts its cell steps, each box's width plus two
per row, and is refused above ``cone.MAX_CELL_STEPS``; for one row the count
never exceeds the cells of the light-cone array these kernels replaced.

``kernel`` picks the step body for a rule, or none; ``engine.window_series``
calls ``orbit`` and ``engine.fronts_many`` calls ``fronts`` where it picks
one, and the tests cross-check both against the sparse engine.
"""
from __future__ import annotations

import itertools

import numpy as np

from . import cone
from .config import Configuration
from .errors import ResourceLimitError, UsageError, check_array_bytes
from .lattice import Z
from .rules import LinearRule, MultRule, Rule, SecondOrderRule


class _Frame:
    """Rows, boxes and read columns of one run; ``empty`` runs read zeros.

    A run of ``rows`` rows is counted and refused as a whole; without read
    sites (``sites`` None) it steps the whole light cone and gathers nothing.
    """

    def __init__(self, cells, sites, offsets, t_max: int, rows: int = 1):
        self.t_max = t_max
        self.n = len(sites) if sites is not None else 0
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
            self.cols = np.fromiter((s - self.x0 for s in sites),
                                    dtype=np.intp, count=self.n)
            self.off = (self.cols < 0) | (self.cols >= self.width)

    def row(self, values=()) -> np.ndarray:
        """A zero row holding ``values`` (site -> value) on box 0."""
        row = np.zeros(self.width, dtype=np.int64)
        _, lo, end = next(self.axis.boxes())
        for s, v in dict(values).items():
            if lo <= s < end:
                row[s - self.x0] = v
        return row

    def series(self) -> np.ndarray:
        return np.zeros((self.t_max + 1, self.n), dtype=np.int64)

    def gather(self, row: np.ndarray, out: np.ndarray) -> None:
        # mode="clip" writes straight into ``out``; "raise" would buffer it
        row.take(self.cols, out=out, mode="clip")

    def finish(self, series: np.ndarray) -> np.ndarray:
        """Zero the sites off the rows, which the clipped gathers misread."""
        if self.off.any():
            series[:, self.off] = 0
        return series


def add_shifted(acc: np.ndarray, row: np.ndarray, v: int, a: int = 1) -> None:
    """acc[x] += a * row[x + v], reading zeros past either end of row."""
    n = len(row)
    if v >= 0:
        acc[:n - v] += a * row[v:]
    else:
        acc[-v:] += a * row[:n + v]


# The step bodies.  Each steps a row or a block of rows, over the last axis,
# through ``boxes`` (t, a, b) counted from the row origin, and yields
# (t, a, b, state) after step t; the state's layers hold F^t on cells a..b-1.
# A one-layer body makes its second buffer with np.zeros, not zeros_like,
# which writes every page: np.zeros pages are mapped only once a box reaches
# them.


def _linear_steps(rule: LinearRule, boxes, old: np.ndarray):
    new = np.zeros(old.shape, dtype=np.int64)
    m = rule.m
    (v0, a0), *rest = sorted(rule.coeffs.items())
    for t, a, b in boxes:  # row cells a..b-1
        acc = new[..., a:b]
        np.multiply(old[..., a + v0:b + v0], a0, out=acc)
        for v, co in rest:
            src = old[..., a + v:b + v]
            acc += src if co == 1 else co * src
        acc %= m
        old, new = new, old
        yield t, a, b, (old,)


def _second_order_steps(rule: SecondOrderRule, boxes, first: np.ndarray,
                        second: np.ndarray):
    """The layers update in place: the new second component F(b) + a
    overwrites a, and the old b becomes the new first component."""
    q = rule.inner.q
    items = sorted(rule.inner.coeffs.items())
    for t, a, b in boxes:
        acc = first[..., a:b]
        for v, co in items:
            src = second[..., a + v:b + v]
            acc += src if co == 1 else co * src
        acc %= q
        first, second = second, first
        yield t, a, b, (first, second)


def _mult_steps(rule: MultRule, boxes, old: np.ndarray):
    new = np.zeros(old.shape, dtype=np.int64)
    k, m = rule.k, rule.m
    for t, a, b in boxes:  # each cell reads its right neighbour's carry
        carry, digit = np.divmod(k * old[..., a:b + 1], m)
        np.add(digit[..., :-1], carry[..., 1:], out=new[..., a:b])
        old, new = new, old
        yield t, a, b, (old,)


def _layers(rule: Rule, cells) -> tuple:
    """The state layers of ``cells`` that a step body takes: the components
    (a, b) of a second-order rule, the cells themselves otherwise."""
    if isinstance(rule, SecondOrderRule):
        q = rule.inner.q
        return ({s: v // q for s, v in cells.items()},
                {s: v % q for s, v in cells.items()})
    return (cells,)


def _one_layer_orbit(body, rule: Rule, c: Configuration, sites, t_max: int):
    """(cell steps, series) of a one-layer rule read at ``sites``."""
    f = _Frame(c.cells, sites, rule.neighborhood, t_max)
    out = f.series()
    if f.empty:
        return 0, out
    old = f.row(c.cells)
    f.gather(old, out[0])
    for t, _, _, (cur,) in body(rule, f.axis.boxes(1, f.x0), old):
        f.gather(cur, out[t])
    return f.steps, f.finish(out)


def orbit_linear(rule: LinearRule, c: Configuration, sites, t_max: int):
    """(cell steps, series) of a linear Z rule read at ``sites``."""
    return _one_layer_orbit(_linear_steps, rule, c, sites, t_max)


def orbit_second_order(rule: SecondOrderRule, c: Configuration, sites,
                       t_max: int):
    """(cell steps, A, B) of SO(F, +) read at ``sites``: A[t], B[t] are the
    first/second components of the step-t configuration there.  A[t] =
    B[t-1], so only B is gathered."""
    inner = rule.inner
    if not isinstance(inner, LinearRule) or inner.lattice != Z:
        raise UsageError("dense second-order kernel needs a linear Z inner rule")
    f = _Frame(c.cells, sites, rule.neighborhood, t_max)
    out_a, out_b = f.series(), f.series()
    if f.empty:
        return 0, out_a, out_b
    first, second = (f.row(layer) for layer in _layers(rule, c.cells))
    f.gather(first, out_a[0])
    f.gather(second, out_b[0])
    for t, _, _, (_, cur) in _second_order_steps(
            rule, f.axis.boxes(1, f.x0), first, second):
        f.gather(cur, out_b[t])
    out_a[1:] = out_b[:-1]
    return f.steps, f.finish(out_a), f.finish(out_b)


def orbit_mult(rule: MultRule, c: Configuration, sites, t_max: int):
    """(cell steps, series) of the multiplication rule read at ``sites``."""
    return _one_layer_orbit(_mult_steps, rule, c, sites, t_max)


def _exact(n_terms: int, m: int) -> bool:
    """Does int64 hold every intermediate value?  A step sums ``n_terms``
    products below (m-1)^2; the second-order wrapper adds one more state."""
    return n_terms * (m - 1) ** 2 + (m - 1) < 2 ** 63


def kernel(rule: Rule):
    """The step body that steps ``rule`` with exact int64 arithmetic, or None
    when no kernel covers the rule or int64 would not hold its values."""
    if isinstance(rule, MultRule):
        return _mult_steps if _exact(2, rule.m) else None
    inner = rule.inner if isinstance(rule, SecondOrderRule) else rule
    if not (isinstance(inner, LinearRule) and inner.lattice == Z
            and _exact(len(inner.coeffs), inner.m)):
        return None
    return _linear_steps if inner is rule else _second_order_steps


def orbit(rule: Rule, c: Configuration, sites, t_max: int) -> np.ndarray:
    """Encoded orbit values at ``sites``, shape (t_max+1, len(sites)), of a
    rule that ``kernel`` covers."""
    body = kernel(rule)
    if body is None:
        raise UsageError(f"no exact dense kernel covers {rule.describe()}")
    if body is _mult_steps:
        return orbit_mult(rule, c, sites, t_max)[1]
    if body is _linear_steps:
        return orbit_linear(rule, c, sites, t_max)[1]
    _, series, b = orbit_second_order(rule, c, sites, t_max)
    series *= rule.inner.q  # encode (a, b) as a*q + b in place
    series += b
    return series


def fronts(rule: Rule, pairs: list, t_max: int) -> list[tuple[list, list]]:
    """(l, r) of each pair (c, d) of distinct configurations of a rule that
    ``kernel`` covers, in order: the first and last cell where F^t(c) and
    F^t(d) differ, for t = 0..t_max, None where they agree.

    The pairs step together as one block, the c's in rows 0..B-1 and the d's
    in rows B..2B-1, each pair translated so that its lowest cell sits at 0
    (the rule commutes with shifts), so pairs far apart never widen it.  A
    block steps the whole light cone of its rows, and after each step records
    each row pair's first and last differing cell; no space-time array
    exists.  A block is counted and refused like an orbit of 2B rows; one
    over a budget is halved, so only a single pair over it is refused.
    """
    body = kernel(rule)
    out: list[tuple[list, list]] = []
    todo = [pairs] if pairs else []
    while todo:
        part = todo.pop()
        shifts = [min([*c.cells, *d.cells]) for c, d in part]
        span = max(max([*c.cells, *d.cells]) - s
                   for (c, d), s in zip(part, shifts))
        try:
            f = _Frame((0, span), None, rule.neighborhood, t_max,
                       rows=2 * len(part))
            # two int64 positions and a bool per pair and step
            check_array_bytes((8 + 8 + 1) * (t_max + 1) * len(part),
                              "a dense block's front records")
        except ResourceLimitError:
            if len(part) == 1:
                raise
            half = len(part) // 2
            todo += [part[half:], part[:half]]
            continue
        out += _block_fronts(rule, body, f, part, shifts)
    return out


def _block_fronts(rule: Rule, body, f: _Frame, pairs, shifts):
    n = len(pairs)
    init = [_layers(rule, cfg.cells)
            for cfg in [c for c, _ in pairs] + [d for _, d in pairs]]
    layers = [np.zeros((2 * n, f.width), dtype=np.int64) for _ in init[0]]
    for i, (values, s) in enumerate(zip(init, shifts + shifts)):
        for buf, cells in zip(layers, values):
            for x, v in cells.items():
                buf[i, x - s - f.x0] = v
    lo = np.empty((f.t_max + 1, n), dtype=np.int64)
    hi = np.empty_like(lo)
    some = np.empty((f.t_max + 1, n), dtype=bool)
    for t, a, b, state in itertools.chain(
            [(0, 0, f.width, tuple(layers))],
            body(rule, f.axis.boxes(1, f.x0), *layers)):
        # the rows are zero off box t, so every difference lies on it
        diff = state[0][:n, a:b] != state[0][n:, a:b]
        for layer in state[1:]:
            diff |= layer[:n, a:b] != layer[n:, a:b]
        diff.any(axis=1, out=some[t])
        np.add(diff.argmax(axis=1), a, out=lo[t])
        np.subtract(b - 1, diff[:, ::-1].argmax(axis=1), out=hi[t])
    out = []
    for s, ls, rs, ok in zip(shifts, lo.T.tolist(), hi.T.tolist(),
                             some.T.tolist()):
        x = f.x0 + s
        out.append(([v + x if k else None for v, k in zip(ls, ok)],
                    [v + x if k else None for v, k in zip(rs, ok)]))
    return out
