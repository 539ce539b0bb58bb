"""Dense array kernels for orbits of Z rules, read at fixed sites.

Each kernel steps two rows (two layers of a second-order rule) and, after each
step, gathers the read sites into row t of a (t_max+1, n) series; no
space-time array is built.  Each step computes only a box.  With the offsets
N, let p = max(max N, 0) and r = max(-min N, 0), the cells one step spreads
the support to the left and to the right.  The support at time t lies in
F_t = [min supp - t*p, max supp + t*r], and a cell at time t can reach a read
site by t_max only if it lies in K_t = [min site - (t_max-t)*r, max site +
(t_max-t)*p].  F_t only grows, K_t only shrinks, and K_t + N lies inside
K_{t-1}.  Step t computes the box F_t & K_t.

Invariant: after step t, every row cell inside K_t holds its exact value.

- A computed cell reads cells inside K_{t-1}, exact by induction.  The rows
  reach p cells past every box on the left and r on the right, so no read
  falls off them.
- A cell of K_t outside the box lies outside F_t, so it is zero at time t and
  at every earlier time.  No step has computed it, F only growing, so it
  still holds its initial zero.

Every read site lies in every K_t, so each gather is exact; a site off the
rows lies outside every box and reads zero.  Cells outside K_t may hold stale
values, but nothing reads them again.  A box is empty either at every t or at
none: of the four edge conditions of F_t & K_t, the two that can fail do not
depend on t.

Before the first step a run counts its cell steps, each step's box width
plus two, in closed form.  Runs above ``MAX_CELL_STEPS`` are refused with
``ResourceLimitError``.  The count never exceeds the (t_max+1)-row array the
whole light cone plus a margin cell on each side would fill, so every run
such an array of ``errors.MAX_ARRAY_BYTES`` held still runs, and a run whose
boxes are one cell wide cannot step without bound.

``orbit`` picks the kernel for a rule, or none; ``engine.window_series``
calls it and the tests cross-check it against the sparse engine.
"""
from __future__ import annotations

import numpy as np

from .config import Configuration
from .errors import ResourceLimitError, UsageError, check_array_bytes
from .lattice import Z
from .rules import LinearRule, MultRule, Rule, SecondOrderRule

# the cells of the largest int64 space-time array below 1.1 GB, the cap of
# the full-cone arrays these kernels replaced
MAX_CELL_STEPS = 137_500_000


def _series_sum(a: int, s: int, i: int, j: int) -> int:
    """sum of a + s*t over i < t <= j."""
    return a * (j - i) + s * (j * (j + 1) - i * (i + 1)) // 2


def _sum_min(a1: int, s1: int, a2: int, s2: int, n: int) -> int:
    """sum of min(a1 + s1*t, a2 + s2*t) over 1 <= t <= n."""
    if s1 > s2:
        a1, s1, a2, s2 = a2, s2, a1, s1
    # the steeper line 2 is the smaller one while t <= (a1 - a2) / (s2 - s1)
    if s1 == s2:
        cut = n if a2 <= a1 else 0
    else:
        cut = min(n, max(0, (a1 - a2) // (s2 - s1)))
    return _series_sum(a2, s2, 0, cut) + _series_sum(a1, s1, cut, n)


class _Frame:
    """Rows, boxes and read columns of one run (see the module docstring).

    ``empty`` runs have no cell in any box, so every value read is zero.
    """

    def __init__(self, cells, sites, offsets, t_max: int):
        self.t_max = t_max
        self.n = len(sites)
        self.empty = not cells or not self.n
        if self.empty:
            return
        p, r = max(max(offsets), 0), max(-min(offsets), 0)
        self.smin, self.smax = min(cells), max(cells)
        self.kl, self.kh = min(sites) - t_max * r, max(sites) + t_max * p
        self.p, self.r = p, r
        # box_t = [max(smin - t*p, kl + t*r), min(smax + t*r, kh - t*p)]
        self.empty = self.smax < self.kl or self.kh < self.smin
        if self.empty:
            return
        self.steps = (_sum_min(self.smax, r, self.kh, -p, t_max)
                      + _sum_min(-self.smin, p, -self.kl, -r, t_max)
                      + 3 * t_max)
        if self.steps > MAX_CELL_STEPS:
            raise ResourceLimitError(
                f"a dense orbit of {self.steps} cell steps exceeds the "
                f"{MAX_CELL_STEPS} budget")
        self.x0 = max(self.smin - t_max * p, self.kl) - r
        self.width = min(self.smax + t_max * r, self.kh) + p - self.x0 + 1
        check_array_bytes(8 * self.width, "a dense orbit row")
        self.cols = np.fromiter((s - self.x0 for s in sites), dtype=np.intp,
                                count=self.n)
        self.off = (self.cols < 0) | (self.cols >= self.width)

    def row(self, values=()) -> np.ndarray:
        """A zero row holding ``values`` (site -> value) on box 0."""
        row = np.zeros(self.width, dtype=np.int64)
        lo, hi = max(self.smin, self.kl), min(self.smax, self.kh)
        for s, v in dict(values).items():
            if lo <= s <= hi:
                row[s - self.x0] = v
        return row

    def boxes(self):
        """(t, a, b): step t computes row cells a..b-1."""
        p, r, x0 = self.p, self.r, self.x0
        for t in range(1, self.t_max + 1):
            yield (t, max(self.smin - t * p, self.kl + t * r) - x0,
                   min(self.smax + t * r, self.kh - t * p) + 1 - x0)

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
    for t, a, b in f.boxes():
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
    for t, a, b in f.boxes():
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
    for t, a, b in f.boxes():
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
