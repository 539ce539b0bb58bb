"""Dense array kernels for orbits of Z rules, read at fixed sites or as
difference fronts of pairs.

Each kernel's step arithmetic is written once, in a step body over the last
axis.  One block run (``_run``) steps every dense run, a row per
configuration in one (rows, width) block per alphabet component, and yields
the blocks at t = 0..t_max: an orbit gathers its row's read sites into row t
of a (t_max+1, n) series, encoded through the alphabet, and ``fronts``
records each pair's first and last differing cell, so no space-time array is
built.  Step t computes the light-cone box B_t of one ``cone.Axis`` and meets
the ``cone`` invariant: the rows hold the support on B_0 and span
F_{t_max} & K_0 plus the offsets' reach, so no read falls off them.  Each
gather is exact but at sites off the rows, which lie outside every F_t and
which the orbit zeroes.

Before the first step a run counts its cell steps, each box's width plus two
per row, and is refused above ``cone.MAX_CELL_STEPS``; for one row the count
never exceeds the cells of the light-cone array these kernels replaced.

``kernel`` picks the step body for a rule, or none; ``engine.window_series``
calls ``orbit`` and ``engine.fronts_many`` calls ``fronts`` where it picks
one, and the tests cross-check both against the sparse engine.  The linear
body, which keeps the dtype of its input, also steps the decimated spot
series of ``linearca`` on Z and, flattened to one row, on Z^2.
"""
from __future__ import annotations

import numpy as np

from . import cone
from .config import Configuration
from .errors import ResourceLimitError, UsageError, check_array_bytes
from .lattice import Z
from .rules import LinearRule, MultRule, Rule, SecondOrderRule


class _Frame:
    """Rows, boxes and read columns of one run; ``empty`` runs read zeros.

    A run of ``rows`` rows is counted and refused as a whole; without read
    sites (``sites`` None) it steps the whole light cone and reads no column.
    """

    def __init__(self, cells, sites, offsets, t_max: int, rows: int = 1):
        self.t_max = t_max
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
    """acc[x] += row[x + v], reading zeros past either end of row."""
    n = len(row)
    if v >= 0:
        acc[:n - v] += row[v:]
    else:
        acc[-v:] += row[:n + v]


# The step bodies.  Each steps a row or a block of rows, over the last axis,
# through ``boxes`` (t, a, b) counted from the row origin, and yields
# (t, a, b, state) after step t; the state's layers hold F^t on cells a..b-1.
# A one-layer body makes its second buffer with np.zeros, not zeros_like,
# which writes every page: np.zeros pages are mapped only once a box reaches
# them.


def linear_steps(rule: LinearRule, boxes, old: np.ndarray):
    """The linear step body, in the dtype of ``old``: a uint8 sum wraps mod
    256, which keeps it mod 2; other moduli need int64 (``int64_exact``).  A
    power-of-two modulus reduces by a mask, which costs a fifth to a seventh
    of ``%``."""
    new = np.zeros(old.shape, dtype=old.dtype)
    m = rule.m
    mask = m - 1 if m & (m - 1) == 0 else None
    (v0, a0), *rest = sorted(rule.coeffs.items())
    for t, a, b in boxes:  # row cells a..b-1
        acc = new[..., a:b]
        np.multiply(old[..., a + v0:b + v0], a0, out=acc)
        for v, co in rest:
            src = old[..., a + v:b + v]
            acc += src if co == 1 else co * src
        if mask is None:
            acc %= m
        else:
            acc &= mask
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


def int64_exact(n_terms: int, m: int) -> bool:
    """Does int64 hold every intermediate value?  A step sums ``n_terms``
    products below (m-1)^2; the second-order wrapper adds one more state."""
    return n_terms * (m - 1) ** 2 + (m - 1) < 2 ** 63


def kernel(rule: Rule):
    """The step body that steps ``rule`` with exact int64 arithmetic, or None
    when no kernel covers the rule or int64 would not hold its values."""
    if isinstance(rule, MultRule):
        return _mult_steps if int64_exact(2, rule.m) else None
    inner = rule.inner if isinstance(rule, SecondOrderRule) else rule
    if not (isinstance(inner, LinearRule) and inner.lattice == Z
            and int64_exact(len(inner.coeffs), inner.m)):
        return None
    return linear_steps if inner is rule else _second_order_steps


def _run(rule: Rule, f: _Frame, configs, shifts):
    """Step the cells of ``configs``, row i holding configs[i] translated by
    -shifts[i] and dropped off box 0, as one block; yields (t, a, b, layers)
    for t = 0..t_max, the layers (one (rows, width) block per component of
    the alphabet) holding F^t on row cells a..b-1 and zero off them."""
    body = kernel(rule)
    if body is None:
        raise UsageError(f"no exact dense kernel covers {rule.describe()}")
    components = rule.alphabet.components
    layers = tuple(np.zeros((len(configs), f.width), dtype=np.int64)
                   for _ in rule.alphabet.moduli)
    _, lo, end = next(f.axis.boxes(0, f.x0))
    for i, (cells, s) in enumerate(zip(configs, shifts)):
        for x, v in cells.items():
            col = x - s - f.x0
            if lo <= col < end:
                for layer, value in zip(layers, components(v)):
                    layer[i, col] = value
    yield 0, lo, end, layers
    yield from body(rule, f.axis.boxes(1, f.x0), *layers)


def _orbit(rule: Rule, c: Configuration, sites, t_max: int):
    """(cell steps, series) of a rule ``kernel`` covers, read at ``sites``:
    series[t] holds the encoded states of F^t(c) there."""
    f = _Frame(c.cells, sites, rule.neighborhood, t_max)
    out = np.zeros((t_max + 1, len(sites)), dtype=np.int64)
    if f.empty:
        return 0, out
    encode = rule.alphabet.from_components
    # mode="clip" writes straight into ``out``; "raise" would buffer it
    for t, _, _, layers in _run(rule, f, [c.cells], [0]):
        if len(layers) == 1:
            layers[0][0].take(f.cols, out=out[t], mode="clip")
        else:
            out[t] = encode([x[0].take(f.cols, mode="clip") for x in layers])
    if f.off.any():  # the clipped gathers misread the sites off the rows
        out[:, f.off] = 0
    return f.steps, out


def orbit_linear(rule: LinearRule, c: Configuration, sites, t_max: int):
    """(cell steps, series) of a linear Z rule read at ``sites``."""
    return _orbit(rule, c, sites, t_max)


def orbit_second_order(rule: SecondOrderRule, c: Configuration, sites,
                       t_max: int):
    """(cell steps, series) of SO(F, +) read at ``sites``, encoded a*q + b."""
    return _orbit(rule, c, sites, t_max)


def orbit_mult(rule: MultRule, c: Configuration, sites, t_max: int):
    """(cell steps, series) of the multiplication rule read at ``sites``."""
    return _orbit(rule, c, sites, t_max)


def orbit(rule: Rule, c: Configuration, sites, t_max: int) -> np.ndarray:
    """Encoded orbit values at ``sites``, shape (t_max+1, len(sites)), of a
    rule that ``kernel`` covers."""
    # looked up at each call, so that a wrapper bound to a name is reached
    run = {linear_steps: orbit_linear, _second_order_steps: orbit_second_order,
           _mult_steps: orbit_mult}.get(kernel(rule))
    if run is None:
        raise UsageError(f"no exact dense kernel covers {rule.describe()}")
    return run(rule, c, sites, t_max)[1]


def fronts(rule: Rule, pairs: list, t_max: int) -> list[tuple[list, list]]:
    """(l, r) of each pair (c, d) of distinct configurations of a rule that
    ``kernel`` covers, in order: the first and last cell where F^t(c) and
    F^t(d) differ, for t = 0..t_max, None where they agree.

    The pairs step together as one block run, the c's in rows 0..B-1 and the
    d's in rows B..2B-1, each pair translated so that its lowest cell sits at
    0 (the rule commutes with shifts), so pairs far apart never widen it.  A
    block steps the whole light cone of its rows, and after each step records
    each row pair's first and last differing cell; no space-time array
    exists.  A block is counted and refused like an orbit of 2B rows; one
    over a budget is halved, so only a single pair over it is refused.
    """
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
        out += _block_fronts(rule, f, part, shifts)
    return out


def _block_fronts(rule: Rule, f: _Frame, pairs, shifts):
    n = len(pairs)
    configs = [c.cells for c, _ in pairs] + [d.cells for _, d in pairs]
    lo = np.empty((f.t_max + 1, n), dtype=np.int64)
    hi = np.empty_like(lo)
    some = np.empty((f.t_max + 1, n), dtype=bool)
    for t, a, b, state in _run(rule, f, configs, shifts + shifts):
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
