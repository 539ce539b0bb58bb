"""Exact algebra special to linear rules.

Over GF(p) a bounded trace map is a matrix: column (z, b) is the trace of
basis state b at site z, stacked over the window cells, components and
times.  Its rank decides at once whether any nonzero configuration on the
support box has a trace null through the bound.  ``gfp_rank`` eliminates
the int64 columns mod p, p = 2 included, keeping only an echelon basis of the
columns it has read.

In prime characteristic p the p^k-th power of a linear rule is the same rule
with its neighborhood scaled by p^k.  The same fact decides null traces for
all time (``null_trace_forever``), the one exact oracle of the package, and
builds the spot series of a trace table (``decimated_spot_series``): the
spot orbit at time p*t is the orbit at time t dilated by p, so each time
step costs one step of a box fixed by the read sites, not of the light cone.
For a composite modulus ``crt_decompose`` splits the rule into one rule per
prime-power factor.  For a squarefree modulus every part is prime, and the
oracle decides each of them; prime powers p^e with e > 1 stay undecided.
"""
from __future__ import annotations

import numpy as np

from . import cone, dense1d, engine
from .config import Configuration
from .errors import ResourceLimitError, UsageError, check_array_bytes
from .lattice import Z, Site, Z2Lattice, ZLattice
from .rules import LinearRule, Rule

# cells null_trace_forever may read; every state holds one, so states too
_CELL_CAP = 1_000_000

# trial divisors factorize may try: it factorizes every n up to 10^12, and
# every n whose largest prime factor is below ``_MR_LIMIT`` and whose
# second-largest is at most 10^6
_TRIAL_CAP = 1_000_000

# the first 13 primes, as Miller-Rabin bases, decide every n below
# 3 317 044 064 679 887 385 961 981 (Sorenson and Webster, Math. Comp. 86,
# 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; n past ``_MR_LIMIT`` is refused."""
    if n < 2:
        return False
    if n >= _MR_LIMIT:
        raise ResourceLimitError(f"primality is decided only below {_MR_LIMIT}")
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime-power factorization [(p, e), ...] by trial division, which stops
    once the cofactor is prime and is refused past ``_TRIAL_CAP``."""
    if n < 2:
        raise UsageError("factorize expects n >= 2")
    out = []
    d = 2
    while n > 1 and (n >= _MR_LIMIT or not is_prime(n)):
        while n % d:  # the least prime factor of a composite n
            d += 1
            if d > _TRIAL_CAP:
                raise ResourceLimitError(
                    f"factorizing needs a trial divisor above {_TRIAL_CAP}")
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        out.append((d, e))
    if n > 1:
        out.append((n, 1))
    return out


def gfp_rank(columns, p: int) -> int:
    """Rank over GF(p) of 1-D integer arrays (the columns), by an echelon basis.

    Each column, reduced mod p, is cleared against the basis vectors at their
    pivots (first nonzero entries) in the order they joined; a column left
    nonzero joins the basis, scaled to pivot 1, until the basis spans every
    column.  Entries stay below p, so the products are exact in int64 for
    every p < 3 * 10^9; larger p is refused.
    """
    if p >= 3 * 10 ** 9:
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
        if len(basis) == v.size:
            break
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


# the fixed cost of one decimation step, in the 8-byte words a step reads:
# a step on a tiny box costs about 5 us (f3, f2, vn2 at R = 0; 2-core
# host), and an int64 cell read about 3.2 ns (f3 rows of 4 005 cells, a
# mod-3 Z^2 box of 42 025 cells), so about 2^10.6 word reads; a uint8 read
# costs about 0.14 ns (vn2 on 162 409 cells), 1.1 ns a word
_STEP_CHARGE = 2 ** 11


def decimated_spot_series(rule: LinearRule, state: int, R: int,
                          t_max: int) -> np.ndarray:
    """F^t(e) on the size-<=R box for t = 0..t_max, e the spot of ``state``
    at the origin, shape (t_max+1, |box|) in ``lattice.size_domain`` order,
    for a linear rule with prime modulus p on Z or Z^2 whose step int64
    holds (``dense1d.int64_exact``).

    Over GF(p), Q(X)^p = Q(X^p) for the rule's polynomial Q, so the spot
    orbit S_t = Q^t has S_{pt}(y) = S_t(y/p) where p divides y and 0
    elsewhere, and S_{pt+j} = F^j(S_{pt}).  The series is kept on the box H
    of size h = max(R, r), r the rule's L-inf radius: for each s, S_s is
    dilated into the box E of size h + g, g = min(p-1, t_max) * r, which
    reads S_s only on H because r <= h, and stepped up to p - 1 times by
    ``dense1d.linear_steps``.  On Z^2, E is stepped as one x-major row, by
    the Z rule with offsets dx*w + dy (w the side of E).  Step j computes E
    shrunk by j*r: each of its cells reads cells of E shrunk by (j-1)*r,
    which step j-1 computed, without wrapping across a row end, so H stays
    exact.  The series is uint8 for p = 2, int64 otherwise, written
    straight into the output when R >= r.  Before the first allocation the
    run counts the 8-byte words its steps read, |E| * |N| cells of its
    dtype, plus ``_STEP_CHARGE`` a step, against ``cone.MAX_CELL_STEPS``,
    and the bytes of its store on H against the array cap."""
    p, lat = rule.m, rule.lattice
    d = 2 if isinstance(lat, Z2Lattice) else 1
    r = max(lat.size_norm(v) for v in rule.coeffs)
    h = max(R, r)
    g = min(p - 1, t_max) * r
    n, w = 2 * h + 1, 2 * (h + g) + 1
    dtype = np.dtype(np.uint8 if p == 2 else np.int64)
    words = -(-w ** d * len(rule.coeffs) * dtype.itemsize // 8)
    cone.check_steps((t_max + 1) * (words + _STEP_CHARGE),
                     "a decimated spot series", "word reads")
    check_array_bytes(dtype.itemsize * (t_max + 1) * n ** d,
                      "a decimated spot series")
    store = np.zeros((t_max + 1,) + (n,) * d, dtype=dtype)
    store[(0,) + (h,) * d] = state % p
    k = (h + g) // p  # S_s(y) for |y| <= k lands in E
    dilate = (slice(h + g - p * k, h + g + p * k + 1, p),) * d
    source = (slice(h - k, h + k + 1),) * d
    core = (slice(g, g + n),) * d  # H within E
    row = rule if d == 1 else LinearRule(
        Z, p, {dx * w + dy: a for (dx, dy), a in rule.coeffs.items()})
    edge = r * (w + 1 if d == 2 else 1)  # the row cells of E shrunk by r
    grid = np.empty(w ** d, dtype=dtype)
    for s in range(t_max // p + 1):
        grid.fill(0)
        grid.reshape((w,) * d)[dilate] = store[s][source]
        store[p * s] = grid.reshape((w,) * d)[core]
        boxes = ((p * s + j, j * edge, w ** d - j * edge)
                 for j in range(1, min(p - 1, t_max - p * s) + 1))
        for t, _, _, (cur,) in dense1d.linear_steps(row, boxes, grid):
            store[t] = cur.reshape((w,) * d)[core]
    if h > R:
        store = store[(slice(None),) + (slice(h - R, h + R + 1),) * d]
    return store.reshape(t_max + 1, -1)


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
