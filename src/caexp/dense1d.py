"""Dense array kernels for orbits of Z rules, read at fixed sites.

Each kernel steps two rows (two layers of a second-order rule) and, after each
step, gathers the read sites into row t of a (t_max+1, n) series; no
space-time array is built.  Step t computes the light-cone box B_t of one
``cone.Axis`` and meets the ``cone`` invariant: the first row holds the
support on B_0, and the rows span F_{t_max} & K_0 plus the offsets' reach,
so no read falls off them.  Each gather is exact but at sites off the rows,
which lie outside every F_t and which ``_Frame.finish`` zeroes.

Before the first step a run counts its cell steps, each box's width plus
two, and is refused above ``cone.MAX_CELL_STEPS``; the count never exceeds
the cells of the light-cone array these kernels replaced.

``orbit`` picks the kernel for a rule, or none; ``engine.window_series``
calls it and the tests cross-check it against the sparse engine.
"""
from __future__ import annotations

import numpy as np

from . import cone
from .config import Configuration
from .errors import UsageError, check_array_bytes
from .lattice import Z
from .rules import LinearRule, MultRule, Rule, SecondOrderRule


class _Frame:
    """Rows, boxes and read columns of one run; ``empty`` runs read zeros."""

    def __init__(self, cells, sites, offsets, t_max: int):
        self.t_max = t_max
        self.n = len(sites)
        self.axis = ax = cone.Axis(offsets, cells, sites, t_max)
        self.empty = ax.empty
        if self.empty:
            return
        self.steps = cone.cells(ax) + 2 * t_max
        cone.check_steps(self.steps, "a dense orbit", "cell steps")
        lo, hi = ax.hull()
        self.x0 = lo - ax.b
        self.width = hi + ax.a - self.x0 + 1
        check_array_bytes(8 * self.width, "a dense orbit row")
        self.cols = np.fromiter((s - self.x0 for s in sites), dtype=np.intp,
                                count=self.n)
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


def orbit_linear(rule: LinearRule, c: Configuration, sites, t_max: int):
    """(cell steps, series) of a linear Z rule read at ``sites``."""
    f = _Frame(c.cells, sites, rule.neighborhood, t_max)
    out = f.series()
    if f.empty:
        return 0, out
    old, new = f.row(c.cells), f.row()
    f.gather(old, out[0])
    m = rule.m
    (v0, a0), *rest = sorted(rule.coeffs.items())
    for t, a, b in f.axis.boxes(1, f.x0):  # row cells a..b-1
        acc = new[a:b]
        np.multiply(old[a + v0:b + v0], a0, out=acc)
        for v, co in rest:
            src = old[a + v:b + v]
            acc += src if co == 1 else co * src
        acc %= m
        old, new = new, old
        f.gather(old, out[t])
    return f.steps, f.finish(out)


def orbit_second_order(rule: SecondOrderRule, c: Configuration, sites,
                       t_max: int):
    """(cell steps, A, B) of SO(F, +) read at ``sites``: A[t], B[t] are the
    first/second components of the step-t configuration there.

    The layers update in place: the new second component F(b) + a overwrites
    a, and the old b becomes the new first component, so A[t] = B[t-1] and
    only B is gathered.
    """
    inner = rule.inner
    if not isinstance(inner, LinearRule) or inner.lattice != Z:
        raise UsageError("dense second-order kernel needs a linear Z inner rule")
    f = _Frame(c.cells, sites, rule.neighborhood, t_max)
    out_a, out_b = f.series(), f.series()
    if f.empty:
        return 0, out_a, out_b
    q = inner.q
    first = f.row({s: val // q for s, val in c.cells.items()})
    second = f.row({s: val % q for s, val in c.cells.items()})
    f.gather(first, out_a[0])
    f.gather(second, out_b[0])
    items = sorted(inner.coeffs.items())
    for t, a, b in f.axis.boxes(1, f.x0):
        acc = first[a:b]
        for v, co in items:
            src = second[a + v:b + v]
            acc += src if co == 1 else co * src
        acc %= q
        first, second = second, first
        f.gather(second, out_b[t])
    out_a[1:] = out_b[:-1]
    return f.steps, f.finish(out_a), f.finish(out_b)


def orbit_mult(rule: MultRule, c: Configuration, sites, t_max: int):
    """(cell steps, series) of the multiplication rule read at ``sites``."""
    f = _Frame(c.cells, sites, rule.neighborhood, t_max)
    out = f.series()
    if f.empty:
        return 0, out
    old, new = f.row(c.cells), f.row()
    f.gather(old, out[0])
    k, m = rule.k, rule.m
    for t, a, b in f.axis.boxes(1, f.x0):
        carry, digit = np.divmod(k * old[a:b + 1], m)  # box + right neighbour
        np.add(digit[:-1], carry[1:], out=new[a:b])
        old, new = new, old
        f.gather(old, out[t])
    return f.steps, f.finish(out)


def _exact(n_terms: int, m: int) -> bool:
    """Does int64 hold every intermediate value?  A step sums ``n_terms``
    products below (m-1)^2; the second-order wrapper adds one more state."""
    return n_terms * (m - 1) ** 2 + (m - 1) < 2 ** 63


def orbit(rule: Rule, c: Configuration, sites, t_max: int):
    """Encoded orbit values at ``sites``, shape (t_max+1, len(sites)), or None
    when no kernel covers the rule or int64 arithmetic would not be exact
    for it."""
    if isinstance(rule, MultRule):
        return orbit_mult(rule, c, sites, t_max)[1] if _exact(2, rule.m) else None
    inner = rule.inner if isinstance(rule, SecondOrderRule) else rule
    if not (isinstance(inner, LinearRule) and inner.lattice == Z
            and _exact(len(inner.coeffs), inner.m)):
        return None
    if inner is rule:
        return orbit_linear(rule, c, sites, t_max)[1]
    _, series, b = orbit_second_order(rule, c, sites, t_max)
    series *= inner.q  # encode (a, b) as a*q + b in place
    series += b
    return series
