"""Exact algebra special to linear rules.

Over GF(p) a bounded trace map is a matrix: column (z, b) is the trace of
basis state b at site z, stacked over the window cells, components and
times.  Its rank decides at once whether any nonzero configuration on the
support box has a trace null through the bound.  ``gfp_rank`` eliminates
the int64 columns mod p, p = 2 included, keeping only an echelon basis of the
columns it has read.

In prime characteristic p the p^k-th power of a linear rule is the same rule
with its neighborhood scaled by p^k.  The same fact decides null traces for
all time (``null_trace_forever``), the one exact oracle of the package.
For a composite modulus ``crt_decompose`` splits the rule into one rule per
prime-power factor.  For a squarefree modulus every part is prime, and the
oracle decides each of them; prime powers p^e with e > 1 stay undecided.
"""
from __future__ import annotations

import numpy as np

from . import engine
from .config import Configuration
from .errors import ResourceLimitError, UsageError
from .lattice import Site, Z2Lattice, ZLattice
from .rules import LinearRule, Rule

# cells null_trace_forever may read; every state holds one, so states too
_CELL_CAP = 1_000_000


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime-power factorization [(p, e), ...] by trial division."""
    if n < 2:
        raise UsageError("factorize expects n >= 2")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == [(n, 1)]


def gfp_rank(columns, p: int) -> int:
    """Rank over GF(p) of 1-D integer arrays (the columns), by an echelon basis.

    Each column, reduced mod p, is cleared against the basis vectors at their
    pivots (first nonzero entries) in the order they joined; a column left
    nonzero joins the basis, scaled to pivot 1.  Entries stay below p, so the
    products are exact in int64 for every p < 3 * 10^9; larger p is refused.
    """
    if p >= 3 * 10 ** 9:  # checked first: is_prime trial-divides up to sqrt(p)
        raise UsageError("row reduction is exact in int64 for p < 3 * 10^9")
    if not is_prime(p):
        raise UsageError("row reduction needs a prime modulus")
    basis: list[tuple[int, np.ndarray]] = []
    for v in columns:
        v = np.asarray(v, dtype=np.int64) % p
        for j, b in basis:
            if v[j]:
                v = (v - v[j] * b) % p
        nz = np.flatnonzero(v)
        if nz.size:
            j = int(nz[0])
            basis.append((j, v * pow(int(v[j]), -1, p) % p))
    return len(basis)


def _scale_site(v: Site, factor: int) -> Site:
    if isinstance(v, int):
        return v * factor
    if isinstance(v, tuple) and len(v) == 2 and all(isinstance(x, int) for x in v):
        return (v[0] * factor, v[1] * factor)
    raise UsageError("neighborhood scaling needs a Z or Z^2 site")


def null_trace_decidable(rule: Rule) -> bool:
    """Does null_trace_forever cover the rule: linear, squarefree m, Z or Z^2?"""
    return (isinstance(rule, LinearRule)
            and isinstance(rule.lattice, (ZLattice, Z2Lattice))
            and all(e == 1 for _, e in factorize(rule.m)))


def _coset(s: Site, p: int) -> tuple[Site, Site]:
    """(y, r) with s = p*y + r and every coordinate of r in [0, p)."""
    if isinstance(s, int):
        return divmod(s, p)
    (y0, r0), (y1, r1) = divmod(s[0], p), divmod(s[1], p)
    return (y0, y1), (r0, r1)


def null_trace_forever(rule: LinearRule, c: Configuration, m: int) -> bool:
    """Exact decision: is the radius-m trace of c null at every t >= 0?

    Decimation (Allouche, von Haeseler, Peitgen and Skordev, Discrete Appl.
    Math. 66, 1996): over F_p, F^(j + p*t)(e)(p*y + r) = F^t(e_jr)(y) with
    e_jr(y) = F^j(e)(p*y + r).  So the state (e, W), "F^t(e) vanishes on W
    for all t", splits into the states (e_jr, {y : p*y + r in W}), j < p.
    Supports and windows shrink towards the neighbourhood, so finitely many
    states are reachable; by induction on t the trace is null iff none of
    them is nonzero on its own window.  For a squarefree m, Z_m is the
    product of the Z_p of its primes, so the trace is null iff it is null
    mod every p: each ``crt_decompose`` part decides the residues of c.
    """
    if not null_trace_decidable(rule):
        raise UsageError("exact null-trace decision needs a linear rule with "
                         "squarefree modulus on Z or Z^2")
    if m < 0:
        raise UsageError("window radius must be >= 0")
    engine._check_match(rule, c)
    window = frozenset(rule.lattice.origin_ball(m))
    if any(s in window for s in c.cells):
        return False  # t = 0, also for the primes crt_decompose leaves out
    parts = {part.m: part for part in crt_decompose(rule)}  # a state's q is p
    todo = [(Configuration(rule.lattice, p, {s: v % p for s, v in c.cells.items()
                                             if v % p}, _validated=True), window)
            for p in parts]
    seen = set(todo)
    cells_read = 0
    while todo:
        e, window = todo.pop()
        p = e.q
        if any(s in window for s in e.cells):
            return False
        windows: dict[Site, set] = {}
        for w in window:
            y, r = _coset(w, p)
            windows.setdefault(r, set()).add(y)
        for j in range(p):
            if j:
                e = engine._step_linear(parts[p], e)
            if e.is_zero():
                break
            cells_read += len(e)
            if cells_read > _CELL_CAP:
                raise ResourceLimitError(
                    f"null-trace decision read more than {_CELL_CAP} cells")
            cosets: dict[Site, dict] = {}
            for s, v in e.cells.items():
                y, r = _coset(s, p)
                if r in windows:
                    cosets.setdefault(r, {})[y] = v
            for r, cells in cosets.items():
                state = (Configuration(rule.lattice, p, cells, _validated=True),
                         frozenset(windows[r]))
                if state not in seen:
                    seen.add(state)
                    todo.append(state)
    return True


def crt_decompose(rule: LinearRule) -> list[LinearRule]:
    """One linear rule per prime power p^e of m, coefficients reduced mod p^e.

    A prime power on which every coefficient vanishes gets no rule: there
    the rule maps every configuration to 0.
    """
    parts = []
    for p, e in factorize(rule.m):
        mod = p ** e
        coeffs = {v: a % mod for v, a in rule.coeffs.items() if a % mod}
        if coeffs:
            parts.append(LinearRule(rule.lattice, mod, coeffs,
                                    name=f"{rule.name} mod {mod}"))
    return parts


def amplify(rule: LinearRule, c: Configuration, m_target: int) -> Configuration:
    """Dilate a null-trace witness: c'(p^k x) = c(x), minimal k with
    m_target <= p^k - 1 (and k >= 1).

    If trace(rule, c, r, .) is identically null for the rule radius r, the
    dilated configuration has a null trace on the radius-m_target ball.
    """
    if c.is_zero():
        raise UsageError("amplify needs a nonzero configuration")
    if not is_prime(rule.m):
        raise UsageError("prime modulus required")
    p = rule.m
    k = 1
    while p ** k - 1 < m_target:
        k += 1
    factor = p ** k
    cells = {_scale_site(s, factor): v for s, v in c.cells.items()}
    return Configuration(c.lattice, c.q, cells, _validated=True)
