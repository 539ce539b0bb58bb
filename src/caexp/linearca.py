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
builds the spot series of a trace table (``decimated_spot_series``) and the
early exit of a block of null-trace reads, all off one spot series
(``decimated_first_nonzero_times``): the spot orbit at time p*t is the
orbit at time t dilated by p, so each time step costs one step of a box
fixed by the read sites, not of the light cone.
For a composite modulus ``crt_decompose`` splits the rule into one rule per
prime-power factor.  For a squarefree modulus every part is prime, and the
oracle decides each of them; prime powers p^e with e > 1 stay undecided.
"""
from __future__ import annotations

import itertools

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
                e = engine._step(parts[p], e)
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


def _decimated_rows(rule: LinearRule, state: int, R: int, t_max: int,
                    reads: int = 0):
    """Yield (t, S_t on the size-<=R box) for t = 0..t_max in increasing t:
    S_t = F^t(e), e the spot of ``state`` at the origin.  Each row is a view
    of the step's grid, valid until the next one.

    Over GF(p), Q(X)^p = Q(X^p) for the rule's polynomial Q, so the spot
    orbit S_t = Q^t has S_{pt}(y) = S_t(y/p) where p divides y and 0
    elsewhere, and S_{pt+j} = F^j(S_{pt}).  The run keeps the box H of size
    h = max(R, r), r the rule's L-inf radius.  For each s, S_s is dilated
    into the box E of size h + g, g = min(p-1, t_max) * r, which reads S_s
    only on the box |y| <= k = (h+g)//p <= h, and stepped up to p - 1 times
    by ``dense1d.steps``, in uint8 for p = 2 and int64 otherwise.  On
    Z^2, E is stepped as one x-major row, by the Z rule with offsets
    dx*w + dy (w the side of E).  Step j computes E shrunk by j*r: each of
    its cells reads cells of E shrunk by (j-1)*r, which step j-1 computed,
    without wrapping across a row end, so H stays exact.  The source rows,
    s <= t_max//p on the box |y| <= k, are kept as they pass.

    When the function is called, before any array exists, the run checks
    against ``cone.MAX_CELL_STEPS`` the 8-byte words a row costs, the
    |E| * |N| cells its step reads, ``_STEP_CHARGE`` and the caller's
    ``reads``, and the bytes of its source rows against the array cap."""
    p = rule.m
    r = max(rule.lattice.size_norm(v) for v in rule.coeffs)
    d = 2 if isinstance(rule.lattice, Z2Lattice) else 1
    dtype = np.dtype(np.uint8 if p == 2 else np.int64)
    h = max(R, r)
    g = min(p - 1, t_max) * r
    w, k = 2 * (h + g) + 1, (h + g) // p
    words = -(-w ** d * len(rule.coeffs) * dtype.itemsize // 8)
    cone.check_steps((t_max + 1) * (words + _STEP_CHARGE + reads),
                     "a decimated run", "word reads")
    shape = (t_max // p + 1,) + (2 * k + 1,) * d
    check_array_bytes(dtype.itemsize * shape[0] * shape[1] ** d,
                      "the source rows of a decimated run")
    dilate = (slice(h + g - p * k, h + g + p * k + 1, p),) * d
    crop = (slice(h + g - R, h + g + R + 1),) * d  # the size-<=R box in E
    source = (slice(h + g - k, h + g + k + 1),) * d  # the source box in E
    row = rule if d == 1 else LinearRule(
        Z, p, {dx * w + dy: a for (dx, dy), a in rule.coeffs.items()})
    kern = dense1d.kernel(row)
    edge = r * (w + 1) if d == 2 else r

    def rows():
        store = np.zeros(shape, dtype=dtype)
        store[(0,) + (k,) * d] = state % p
        grid = np.empty(w ** d, dtype=dtype)
        for s in range(len(store)):
            grid.fill(0)
            grid.reshape((w,) * d)[dilate] = store[s]
            boxes = ((p * s + j, j * edge, w ** d - j * edge)
                     for j in range(1, min(p - 1, t_max - p * s) + 1))
            steps = dense1d.steps(kern, boxes, grid)
            for t, cur in itertools.chain(
                    [(p * s, grid)], ((t, cur) for t, _, _, cur in steps)):
                cur = cur.reshape((w,) * d)
                if t < len(store):
                    store[t] = cur[source]
                yield t, cur[crop]
    return rows()


def decimated_spot_series(rule: LinearRule, state: int, R: int,
                          t_max: int) -> np.ndarray:
    """F^t(e) on the size-<=R box for t = 0..t_max, e the spot of ``state``
    at the origin, shape (t_max+1, |box|) in ``lattice.size_domain`` order,
    for a linear rule with prime modulus p on Z or Z^2 whose step int64
    holds (``dense1d.int64_exact``): the rows of ``_decimated_rows``, in
    their dtype, uint8 for p = 2 and int64 otherwise, copied into one array
    whose bytes are checked against the array cap after the run's own
    checks, before any array exists."""
    rows = _decimated_series_rows(rule, state, R, t_max)
    d = 2 if isinstance(rule.lattice, Z2Lattice) else 1
    series = np.empty((t_max + 1,) + (2 * R + 1,) * d,
                      dtype=np.uint8 if rule.m == 2 else np.int64)
    for t, row in rows:
        series[t] = row
    return series.reshape(t_max + 1, -1)


def _decimated_series_rows(rule: LinearRule, state: int, R: int, t_max: int):
    """The rows of ``decimated_spot_series``, not yet stepped, once every
    check it makes has passed."""
    rows = _decimated_rows(rule, state, R, t_max)
    d = 2 if isinstance(rule.lattice, Z2Lattice) else 1
    check_array_bytes((1 if rule.m == 2 else 8) * (t_max + 1)
                      * (2 * R + 1) ** d, "a decimated spot series")
    return rows


def decimated_first_nonzero_times(rule: LinearRule, configs, sites,
                                  t_max: int) -> list[int | None]:
    """For each configuration c, the first t <= t_max at which F^t(c) is
    nonzero at some read site, else None, for a rule
    ``decimated_spot_series`` covers.

    Over GF(p), F^t(c)(w) = sum over z of c(z) * S_t(w - z), S_t the orbit
    of the state-1 spot, which vanishes past t*r in L-inf, r the rule's
    radius.  So a support cell farther than t_max*r from the read sites'
    bounding box on some axis adds zero to every read: such cells are
    dropped first, and with none left every answer is None, with no step.
    One decimated spot series on the size-<=R box, R the largest |w - z|
    on an axis over read sites w and kept cells z, answers every read:
    row t gathers S_t at w - z + R, and the products with the kept values,
    summed per configuration mod p, are F^t(c) on the sites.  The rows come
    in increasing t and are dropped once read, until every configuration
    has answered, so the run holds only the grid and the source rows.
    ``_decimated_rows`` counts one word a gathered offset a row besides its
    own, and the offsets' bytes are checked against the array cap, so every
    refusal comes before any array exists.  A sum of |support| products
    below (p-1)^2 must fit int64 (``dense1d.int64_exact``)."""
    sites = list(sites)
    out: list[int | None] = [None] * len(configs)

    def coords(s):
        return (s,) if isinstance(s, int) else s
    reach = t_max * max(rule.lattice.size_norm(v) for v in rule.coeffs)
    ws = list(zip(*map(coords, sites)))  # per axis, the sites' coordinates
    box = [(min(a), max(a)) for a in ws]
    kept = [(i, z, v) for i, c in enumerate(configs) for z, v in c.cells.items()
            if sites and all(lo - reach <= x <= hi + reach
                             for x, (lo, hi) in zip(coords(z), box))]
    if not kept:
        return out
    owner, cells, values = zip(*kept)
    zs = list(zip(*map(coords, cells)))
    R = max(max(hi - min(a), max(a) - lo) for a, (lo, hi) in zip(zs, box))
    rows = _decimated_rows(rule, 1, R, t_max, len(sites) * len(kept))
    check_array_bytes(8 * len(box) * len(sites) * len(kept),
                      "the offsets of a decimated early exit")
    # w - lo and z - lo lie in [-R, 2R]: int64 holds them once R is checked
    offsets = tuple(
        np.array([x - lo for x in w], dtype=np.int64)[:, None]
        - np.array([x - lo for x in z], dtype=np.int64)[None, :] + R
        for w, z, (lo, _) in zip(ws, zs, box))
    owner, values = np.array(owner), np.array(values, dtype=np.int64)
    starts = np.flatnonzero(np.diff(owner, prepend=-1))  # each one's cells
    for t, row in rows:
        sums = np.add.reduceat(row[offsets] * values, starts, axis=1) % rule.m
        if sums.any():  # the values of a configuration that answered are 0
            for i in owner[starts[sums.any(axis=0)]]:
                out[i] = t
                values[owner == i] = 0
            if not values.any():
                break
    return out


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
            parts.append(LinearRule(rule.lattice, mod, coeffs))
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
