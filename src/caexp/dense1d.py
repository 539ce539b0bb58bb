"""Dense array kernels for orbits of Z rules.

Arrays are allocated over the full light cone of the requested run plus one
cell, and shifted reads see zeros past either end, so every cell is exact.
``orbit`` picks the kernel for a rule, or none; ``engine.window_series``
calls it and the tests cross-check it against the sparse engine.
"""
from __future__ import annotations

import numpy as np

from .config import Configuration
from .errors import UsageError, check_array_bytes
from .lattice import Z
from .rules import LinearRule, MultRule, Rule, SecondOrderRule


def _space_time(cells, offsets, t_max: int):
    """(x0, zeros of shape (t_max+1, L)): cells x0..x0+L-1 cover the run's
    light cone plus one cell on each side."""
    xs = list(cells) or [0]
    disp = [-v for v in offsets] + [0]
    lo = min(xs) + t_max * min(disp) - 1
    hi = max(xs) + t_max * max(disp) + 1
    check_array_bytes(8 * (t_max + 1) * (hi - lo + 1), "a space-time array")
    return lo, np.zeros((t_max + 1, hi - lo + 1), dtype=np.int64)


def add_shifted(acc: np.ndarray, row: np.ndarray, v: int, a: int = 1) -> None:
    """acc[x] += a * row[x + v], reading zeros past either end of row."""
    n = len(row)
    if v >= 0:
        acc[:n - v] += a * row[v:]
    else:
        acc[-v:] += a * row[:n + v]


def orbit_linear(rule: LinearRule, c: Configuration, t_max: int):
    """Orbit of a linear Z rule; returns (x0, array of shape (t_max+1, L))."""
    x0, rows = _space_time(c.cells, rule.neighborhood, t_max)
    for s, v in c.cells.items():
        rows[0, s - x0] = v
    m = rule.m
    items = sorted(rule.coeffs.items())
    for t in range(1, t_max + 1):
        acc = rows[t]
        for v, a in items:
            add_shifted(acc, rows[t - 1], v, a)
        acc %= m
    return x0, rows


def orbit_second_order(rule: SecondOrderRule, c: Configuration, t_max: int):
    """Orbit of SO(F, +) split into layers; returns (x0, A, B).

    A[t], B[t] are the first/second components of the step-t configuration.
    """
    inner = rule.inner
    if not isinstance(inner, LinearRule) or inner.lattice != Z:
        raise UsageError("dense second-order kernel needs a linear Z inner rule")
    q = inner.q
    x0, a = _space_time(c.cells, rule.neighborhood, t_max)
    b = np.zeros_like(a)
    for s, val in c.cells.items():
        a[0, s - x0], b[0, s - x0] = divmod(val, q)
    items = sorted(inner.coeffs.items())
    for t in range(1, t_max + 1):
        acc = b[t]
        for v, co in items:
            add_shifted(acc, b[t - 1], v, co)
        acc += a[t - 1]
        acc %= q
        a[t] = b[t - 1]
    return x0, a, b


def orbit_mult(rule: MultRule, c: Configuration, t_max: int):
    x0, rows = _space_time(c.cells, rule.neighborhood, t_max)
    for s, v in c.cells.items():
        rows[0, s - x0] = v
    k, m = rule.k, rule.m
    for t in range(1, t_max + 1):
        prev, cur = rows[t - 1], rows[t]
        np.remainder(k * prev, m, out=cur)
        cur[:-1] += (k * prev[1:]) // m  # the last cell's right neighbour is 0
    return x0, rows


def _exact(n_terms: int, m: int) -> bool:
    """Does int64 hold every intermediate value?  A step sums ``n_terms``
    products below (m-1)^2; the second-order wrapper adds one more state."""
    return n_terms * (m - 1) ** 2 + (m - 1) < 2 ** 63


def orbit(rule: Rule, c: Configuration, t_max: int):
    """Encoded orbit (x0, rows) of a Z rule, rows of shape (t_max+1, L), or
    None when no kernel covers the rule or int64 arithmetic would not be
    exact for it."""
    if isinstance(rule, MultRule):
        return orbit_mult(rule, c, t_max) if _exact(2, rule.m) else None
    inner = rule.inner if isinstance(rule, SecondOrderRule) else rule
    if not (isinstance(inner, LinearRule) and inner.lattice == Z
            and _exact(len(inner.coeffs), inner.m)):
        return None
    if inner is rule:
        return orbit_linear(rule, c, t_max)
    x0, rows, b = orbit_second_order(rule, c, t_max)
    rows *= inner.q  # encode (a, b) as a*q + b in place
    rows += b
    return x0, rows
