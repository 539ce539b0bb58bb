"""Bounded empirical verification of k-expansivity and pre-expansivity,
directional front analysis, and the one-dimensional example families.

All verdicts are explicitly bound-relative: a Witness certifies a null trace
only up to the stated t_max unless an exact oracle confirms it, and a
NoWitness verdict carries the bounds that were searched.  Searches over
trace-additive rules reduce to cached single-cell traces: the trace of a
finite sum of spots is the componentwise sum of the spot traces, and the
trace of value a at a cell is a times the value-1 trace (cyclic factors).
Over a prime field those traces form the columns of the bounded trace map.
``TraceTable`` is that map on one search box: it checks its size, lists the
box, the window and the spot offsets, and takes its GF(p) kernel; a trivial
kernel decides every candidate of a k >= 2 search at once, exactly and
relative to the same t_max.  A k = 1 search reads one null mask per value
class, on tables of doubling horizons h <= t_max from the box's light-cone
time: a trace nonzero by h stays nonzero through t_max, so it stops at the
first h with no null spot, or whose first null spot the exact oracle
certifies, and its verdict is the t_max one.  Each verdict's ``horizon`` is
the t that decided it.  Every ``searched`` count follows the ``_candidates``
order.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import dense1d, engine, errors, linearca
from .config import Configuration
from .errors import ResourceLimitError, UsageError
from .lattice import Lattice, Z, ZLattice, size_count, size_domain
from .presets import psi as make_psi
from .presets import upsilon as make_upsilon
from .report import Report
from .rules import MultRule, Rule

# candidate budget of kexp_search and pair budget of pair_preexp_probe
_MAX_CANDIDATES = 5_000_000
_MAX_PAIRS = 2_000_000

# ---------------------------------------------------------------------------
# verdicts and search domains

@dataclass
class ExpansivityVerdict:
    found: bool
    bounds: dict
    witness: Configuration | None = None
    pair: tuple[Configuration, Configuration] | None = None
    certified_exact: bool = False
    searched: int = 0
    kernel_dim: int | None = None  # of the bounded trace map; None: not taken
    horizon: int | None = None  # the t that decided the verdict; None: t_max

    def __post_init__(self):
        if self.horizon is None:
            self.horizon = self.bounds["t_max"]

    def __str__(self):
        b = " ".join(f"{k}={v}" for k, v in sorted(self.bounds.items()))
        if not self.found:
            cert = " (exact)" if self.certified_exact else ""
            return (f"no-witness-within-bounds{cert} [{b}] "
                    f"searched={self.searched}")
        head = "witness" if self.witness is not None else "witness-pair"
        cert = (" (exact)" if self.certified_exact
                else f" (null through t={self.bounds['t_max']})")
        return f"{head}{cert} [{b}]"


def _capped_count(box: int, q: int, s: int, cap: int) -> int:
    """Configurations with exactly s nonzero cells on a box of ``box`` sites,
    C(box, s) * (q - 1)^s, or cap + 1 as soon as the running product passes
    cap.  C(box, i) >= (box / i)^i >= 2^i for i <= box / 2, and so is any
    power of q - 1 >= 2, so both loops stop within log2(cap) + 1 steps."""
    if s > box:
        return 0
    count = 1
    for i in range(min(s, box - s)):
        count = count * (box - i) // (i + 1)
        if count > cap:
            return cap + 1
    for _ in range(s if q > 2 else 0):
        count *= q - 1
        if count > cap:
            return cap + 1
    return count


def _search_box(lattice: Lattice, k: int, R: int, m: int, t_max: int) -> int:
    """Check a search's bounds; the number of sites of its size-<=R box."""
    if k < 1:
        raise UsageError("difference count k must be >= 1")
    if t_max < 0:
        raise UsageError("step count t_max must be >= 0")
    if m < 0:
        raise UsageError("window radius must be >= 0")
    return size_count(lattice, R)


# ---------------------------------------------------------------------------
# single-cell trace tables

def _basis(rule: Rule) -> list[int]:
    """The basis states of the rule's alphabet, one per cyclic component."""
    n = len(rule.alphabet.moduli)
    return [rule.alphabet.from_components([int(i == b) for i in range(n)])
            for b in range(n)]


class TraceTable:
    """The bounded trace map of a trace-additive rule on one search box.

    ``TraceTable(rule, R, m, t_max)`` reads the configurations on the
    size-<=R box (``domain``) on the radius-m ball (``window``) through
    t_max.  Rules read F(c)(x) = f(c(x + v)), so they commute with left
    translation: the spot at z reads at w what the spot at the origin reads
    at (-z) + w, which is w - z only on abelian lattices.  Every such offset
    lies in the size-(R + m) box (``offsets``), whose spot series are cached
    per basis component; their bytes are checked before any box is listed.
    Arbitrary states combine by componentwise scaling, c^a = a * c^1 on each
    cyclic factor.  Each basis state's series comes from one
    ``engine.spot_series`` call, by decimation for linear rules with a prime
    modulus on Z and Z^2 and otherwise from ``engine.window_series``; it
    stays in the dtype it comes in (uint8 for p = 2 by decimation, int64
    otherwise), split into components and copied once: the k >= 2 loop and
    the k = 1 masks read one offset's series contiguously.
    """

    def __init__(self, rule: Rule, R: int, m: int, t_max: int):
        lat = rule.lattice
        self.rule = rule
        self.alphabet = rule.alphabet
        self.moduli = rule.alphabet.moduli
        self.t_max = t_max
        self._check_bytes(rule, R, m, t_max)
        self.domain = size_domain(lat, R)
        self.window = lat.origin_ball(m)
        self.offsets = size_domain(lat, R + m)
        self._index = {y: i for i, y in enumerate(self.offsets)}
        # components work elementwise on arrays: [ci][offset, t]
        self._series = np.array([  # [b, ci, offset, t]
            self.alphabet.components(
                engine.spot_series(rule, state, R + m, t_max).T)
            for state in _basis(rule)])

    @staticmethod
    def _check_bytes(rule: Rule, R: int, m: int, t_max: int) -> None:
        if not rule.is_linear:
            raise UsageError("trace caching needs a rule linear for its alphabet law")
        errors.check_array_bytes(
            8 * len(rule.alphabet.moduli) * (t_max + 1)
            * size_count(rule.lattice, R + m), "the trace table")

    @classmethod
    def admit(cls, rule: Rule, R: int, m: int, t_max: int) -> None:
        """Make every check ``TraceTable(rule, R, m, t_max)`` makes before
        its first step, its bytes and then each basis state's
        ``engine.admit_spot_series``, and step nothing: a table read at a
        shorter horizon is then refused where the t_max table would be."""
        cls._check_bytes(rule, R, m, t_max)
        for state in _basis(rule):
            engine.admit_spot_series(rule, state, R + m, t_max)

    def null_at_window_cell(self, support_items, w) -> bool:
        """Is the summed trace at window cell w identically zero through t_max?"""
        lat = self.rule.lattice
        acc = 0
        for z, state in support_items:
            spots = self._series[:, :, self._index[lat.add(lat.neg(z), w)]]
            for b, c in enumerate(self.alphabet.components(state)):
                if c:
                    acc = acc + c * spots[b]
        # every alphabet here has one modulus for all of its components; the
        # uint8 sums of mod-2 series wrap mod 256, which keeps them mod 2
        return not np.count_nonzero(acc % self.moduli[0])

    def null_offsets(self, value: int) -> np.ndarray:
        """Boolean mask over ``offsets``: is the spot trace of ``value`` null
        through t_max there?  ``null_at_window_cell``'s sums and reduction,
        read in doubling time chunks over the offsets still null."""
        coefs = self.alphabet.components(value)
        alive, lo = np.arange(len(self.offsets)), 0
        while lo <= self.t_max and alive.size:
            acc = sum(c * self._series[b][:, alive, lo:2 * lo + 1]
                      for b, c in enumerate(coefs) if c)
            if sum(coefs) > 1:  # a basis state's series is reduced already
                acc %= self.moduli[0]
            alive = alive[~acc.any(axis=(0, 2))]
            lo = 2 * lo + 1
        return np.isin(np.arange(len(self.offsets)), alive)

    def trace_map(self):
        """The trace map, column by column.

        Column (z, b), z-major over ``domain``, is basis state b at site z:
        the spot series at offsets (-z) + w, stacked over the components,
        the window cells w and t = 0..t_max.
        """
        lat = self.rule.lattice
        for z in self.domain:
            idxs = [self._index[lat.add(lat.neg(z), w)] for w in self.window]
            for spots in self._series:  # [ci, offset, t]
                yield spots[:, idxs].ravel()

    def kernel_dim(self, budget: int) -> int | None:
        """Dimension over GF(p) of the trace map's kernel, or None when the
        alphabet is not a power of one prime field, when the elimination
        takes more than ``budget`` entry operations (rows * columns *
        min(rows, columns)) or when the map's entries need more than
        ``errors.MAX_ARRAY_BYTES`` as int64."""
        p = self.moduli[0]
        if any(q != p for q in self.moduli) or not linearca.is_prime(p):
            return None
        ncomp = len(self.moduli)
        rows = len(self.window) * ncomp * (self.t_max + 1)
        cols = len(self.domain) * ncomp
        if rows * cols * min(rows, cols) > budget:
            return None
        if rows * cols * 8 > errors.MAX_ARRAY_BYTES:
            return None
        return cols - linearca.gfp_rank(self.trace_map(), p)


# ---------------------------------------------------------------------------
# the bounded k-expansivity search

def _candidates(domain, q: int, k: int):
    """The configurations on ``domain`` with exactly k nonzero cells, as
    (site, value) tuples: sites in ``itertools.combinations`` order, then
    values in ``itertools.product`` order.  Every ``searched`` count
    follows this order."""
    nonzero = range(1, q)
    for sites in itertools.combinations(domain, k):
        for values in itertools.product(nonzero, repeat=k):
            yield tuple(zip(sites, values))


def _first_null_spot(table: TraceTable, q: int):
    """[(searched, items)] of the first null k = 1 candidate, or [].  The
    spot (z, a) is null iff a's ``null_offsets`` mask holds at (-z) + w for
    every window cell w.  On Z_q, a*s = 0 iff s = 0 mod q/gcd(a, q), so each
    divisor class has one mask, read at its least value."""
    lat, index, domain = table.rule.lattice, table._index, table.domain
    values = range(1, q)
    if len(table.moduli) == 1:
        small = [d for d in range(1, math.isqrt(q) + 1) if q % d == 0]
        values = sorted({*small, *(q // d for d in small)} - {q})
    spots = np.array([index[lat.neg(z)] for z in domain])  # read first
    best = (len(domain), 0)  # (domain index, value); values come in order
    for a in values:
        mask = table.null_offsets(a)
        null = mask.tolist()
        hits = (i for i in np.flatnonzero(mask[spots[:best[0]]]).tolist()
                if all(null[index[lat.add(lat.neg(domain[i]), w)]]
                       for w in table.window))
        best = min(best, (next(hits, len(domain)), a))
    i, a = best
    return [(i * (q - 1) + a, ((domain[i], a),))] if i < len(domain) else []


def _verify_witness(rule: Rule, cfg: Configuration, m: int, t_max: int) -> bool:
    """Re-check a candidate by simulating the actual configuration directly
    (independent of the trace-cache composition path)."""
    return not engine.window_series(rule, cfg, rule.lattice.origin_ball(m),
                                    t_max).any()


def _null_forever(rule: Rule, cfg: Configuration, m: int) -> bool | None:
    """``linearca.null_trace_forever`` on cfg, or None where the rule is
    outside ``null_trace_decidable`` or the oracle refuses it."""
    if not linearca.null_trace_decidable(rule):
        return None
    try:
        return linearca.null_trace_forever(rule, cfg, m)
    except ResourceLimitError:
        return None


def _witness(rule: Rule, cfg: Configuration, searched: int, bounds: dict,
             horizon: int, certified: bool | None,
             kernel_dim: int | None = None) -> ExpansivityVerdict:
    """The verdict on a null candidate with its oracle verdict, once direct
    simulation has re-verified it through t_max."""
    if not _verify_witness(rule, cfg, bounds["m"], bounds["t_max"]):
        raise RuntimeError(
            f"trace cache and direct simulation disagree on {cfg!r}")
    return ExpansivityVerdict(found=True, bounds=bounds, witness=cfg,
                              certified_exact=bool(certified),
                              searched=searched, kernel_dim=kernel_dim,
                              horizon=horizon)


def _kexp1_search(rule: Rule, R: int, m: int, t_max: int, count: int,
                  bounds: dict) -> ExpansivityVerdict:
    """The k = 1 search, read at doubling horizons h <= t_max.

    A trace nonzero by h stays nonzero through t_max, so at every h the
    candidates before the first one null through h are decided, and none
    null means none null through t_max.  The first null candidate is the
    t_max search's witness once ``null_trace_forever`` certifies it; where
    the oracle says no, h doubles, and where it cannot answer, h jumps to
    t_max.  The first h is the box's light-cone time, the largest offset
    norm over the rule radius, plus one: before it the far spots are null by
    the light cone alone.  The t_max table is admitted first, so the search
    is refused where it would be, and each table is built anew at its h."""
    TraceTable.admit(rule, R, m, t_max)
    lat = rule.lattice
    # the size-(R + m) box's largest norm, R + m times the size-1 box's on
    # Z, Z^2 and free groups alike
    far = (R + m) * max(map(lat.norm, size_domain(lat, 1)))
    h = min(far // max(rule.radius, 1) + 1, t_max)
    oracle: dict = {}  # a candidate's null_trace_forever, asked once
    while True:
        hits = _first_null_spot(TraceTable(rule, R, m, h), rule.q)
        if not hits:
            return ExpansivityVerdict(found=False, bounds=bounds,
                                      searched=count, horizon=h)
        searched, items = hits[0]
        cfg = Configuration(lat, rule.q, dict(items), _validated=True)
        if items not in oracle:
            oracle[items] = _null_forever(rule, cfg, m)
        if h == t_max or oracle[items]:
            return _witness(rule, cfg, searched, bounds, h, oracle[items])
        h = t_max if oracle[items] is None else min(2 * h, t_max)


def kexp_search(rule: Rule, k: int, support_radius: int, window: int,
                t_max: int) -> ExpansivityVerdict:
    """Hunt for a k-cell configuration whose radius-``window`` trace is null
    through t_max.

    The candidates are counted against the budget before the
    ``TraceTable`` of the size-``support_radius`` box is built.  For k >= 2
    over a prime field GF(p)^n, the table's kernel dimension is computed
    first, wherever that elimination reads no more entries than the loop
    would.  A trivial kernel means that no nonzero configuration on the box
    has a trace null through t_max, so none has one null forever: that
    decides every candidate at once, exactly and for all time on the box,
    and the verdict counts them all as searched and is ``certified_exact``.
    Larger k walk the candidates in ``_candidates`` order, summing cached
    spot traces.  k = 1 reads one ``null_offsets`` mask per value class, on
    tables of doubling horizons (``_kexp1_search``): its verdict is the t_max
    verdict, and ``horizon`` on it is the t that decided it; every other
    verdict has horizon t_max.
    A found witness is re-verified by direct simulation through t_max and
    certified for all time where ``linearca.null_trace_forever`` decides the
    rule within its budget.  ``kernel_dim`` on the verdict is None when no
    rank was computed.
    """
    box = _search_box(rule.lattice, k, support_radius, window, t_max)
    count = _capped_count(box, rule.q, k, _MAX_CANDIDATES)
    bounds = {"R": support_radius, "m": window, "t_max": t_max, "k": k}
    if count > _MAX_CANDIDATES:
        raise ResourceLimitError(
            f"search space (k={k}, R={support_radius}, q={rule.q}) exceeds "
            f"the {_MAX_CANDIDATES} candidate budget")
    if count == 0:  # k exceeds the box: no candidate, so no table to build
        return ExpansivityVerdict(found=False, bounds=bounds, searched=0)
    if k == 1:
        return _kexp1_search(rule, support_radius, window, t_max, count,
                             bounds)
    table = TraceTable(rule, support_radius, window, t_max)
    # the loop reads about t_max + 1 entries per component and candidate
    loop_work = count * (t_max + 1) * len(table.moduli)
    kernel_dim = table.kernel_dim(loop_work)
    if kernel_dim == 0:
        return ExpansivityVerdict(found=False, bounds=bounds, searched=count,
                                  certified_exact=True, kernel_dim=0)
    for n, items in enumerate(_candidates(table.domain, rule.q, k), 1):
        if all(table.null_at_window_cell(items, w) for w in table.window):
            cfg = Configuration(rule.lattice, rule.q, dict(items),
                                _validated=True)
            return _witness(rule, cfg, n, bounds, t_max,
                            _null_forever(rule, cfg, window), kernel_dim)
    return ExpansivityVerdict(found=False, bounds=bounds, searched=count,
                              kernel_dim=kernel_dim)


# ---------------------------------------------------------------------------
# the general (possibly nonlinear) pair probe

def pair_preexp_probe(rule: Rule, k: int, R: int, m: int,
                      t_max: int) -> ExpansivityVerdict:
    """Search unordered pairs c !=_k d (supports of size-<=R sites) for a
    radius-m trace collision through t_max.

    Only pairs of combined support weight |supp c| + |supp d| = k are
    enumerated, the least weight a k-difference pair can have; their number
    is counted up front, from the box size alone, and refused as soon as it
    exceeds the pair budget.
    """
    box = _search_box(rule.lattice, k, R, m, t_max)
    # supports of a and k - a cells, a <= k - a, both fitting the box; a
    # capped count, _MAX_PAIRS + 1, alone makes more than _MAX_PAIRS pairs
    sizes = []
    total_pairs = 0
    for a in range(max(0, k - box), k // 2 + 1):
        ca, cb = (_capped_count(box, rule.q, s, _MAX_PAIRS) for s in (a, k - a))
        total_pairs += ca * (ca - 1) // 2 if a == k - a else ca * cb
        if total_pairs > _MAX_PAIRS:
            raise ResourceLimitError(
                f"pair search space (k={k}, R={R}, q={rule.q}) exceeds the "
                f"{_MAX_PAIRS} budget")
        sizes.append((a, k - a))
    bounds = {"R": R, "m": m, "t_max": t_max, "k": k}
    if total_pairs == 0:  # no pair of weight k fits the box
        return ExpansivityVerdict(found=False, bounds=bounds, searched=0)
    lat = rule.lattice
    domain = size_domain(lat, R)
    by_size = {s: [Configuration(lat, rule.q, dict(items), _validated=True)
                   for items in _candidates(domain, rule.q, s)]
               for pair in sizes for s in pair}
    searched = 0
    for a, b in sizes:
        group_b = by_size[b]
        for i, c in enumerate(by_size[a]):
            for d in group_b[i + 1 if a == b else 0:]:
                searched += 1
                if c.diff_count(d) != k:
                    continue
                if engine.traces_equal(rule, c, d, m, t_max):
                    return ExpansivityVerdict(found=True, bounds=bounds,
                                              pair=(c, d), searched=searched)
    return ExpansivityVerdict(found=False, bounds=bounds, searched=searched)


# ---------------------------------------------------------------------------
# directional fronts

@dataclass
class DirectionalFronts:
    alpha: Fraction
    adj_l: list[int | None]
    adj_r: list[int | None]
    threshold: int
    escapes_below: bool = field(init=False)
    escapes_above: bool = field(init=False)

    def __post_init__(self):
        self.escapes_below = any(v is not None and v <= -self.threshold
                                 for v in self.adj_l)
        self.escapes_above = any(v is not None and v >= self.threshold
                                 for v in self.adj_r)


def directional_fronts(rule: Rule, c: Configuration, d: Configuration,
                       alpha, t_max: int) -> DirectionalFronts:
    """Fronts corrected by the drift ceil(alpha * t); a front escapes once it
    is half the light cone, t_max * radius / 2, away from the drift."""
    alpha = Fraction(alpha)
    fr = engine.fronts(rule, c, d, t_max)
    threshold = max(1, (t_max * rule.radius) // 2)
    adj_l: list[int | None] = []
    adj_r: list[int | None] = []
    for t in range(t_max + 1):
        drift = math.ceil(alpha * t)
        adj_l.append(None if fr.l[t] is None else fr.l[t] - drift)
        adj_r.append(None if fr.r[t] is None else fr.r[t] - drift)
    return DirectionalFronts(alpha=alpha, adj_l=adj_l, adj_r=adj_r,
                             threshold=threshold)


# ---------------------------------------------------------------------------
# the second-order examples on Z

def psi_relation_sweep(configs, k_max: int, t_max: int) -> tuple[int, int]:
    """The (checked, bad) counts of (configuration, k, t) comparisons of the
    dependency identity, for every k <= k_max and t <= t_max.

    Each configuration is translated to start at 0, and blocks of them are
    read as orbit series of at most 2^19 bytes on the light cone of the
    latest step around the widest support, plus one cell: the shifts read
    zeros past its ends, so every cell that can be nonzero is compared.
    Shifting by z relabels positions identically on both sides, so one
    comparison per (k, t) holds for every z at once.
    """
    if k_max < 0 or t_max < 0:
        raise UsageError("need k >= 0 and t >= 0")
    configs = list(configs)
    if any(c.q != 9 or not isinstance(c.lattice, ZLattice) for c in configs):
        raise UsageError("expected 9-state Z configurations")
    top = 2 * 3 ** k_max + t_max
    moved = [c.shift(min(c.cells, default=0)) for c in configs]
    span = max((max(c.cells, default=0) for c in moved), default=0)
    cone = range(-top - 1, span + top + 2)  # psi has radius 1
    size = max(1, 2 ** 19 // (8 * (top + 1) * len(cone)))
    rule = make_psi()
    bad = 0
    for i in range(0, len(moved), size):
        a, b = rule.alphabet.components(np.stack(
            engine.window_series_many(rule, moved[i:i + size], cone, top), 1))
        for d in (3 ** k for k in range(k_max + 1)):  # all t <= t_max at once
            wrong = False
            for x in (a, b):
                rhs = x[:t_max + 1].copy()
                dense1d.add_shifted(rhs, x[d:d + t_max + 1], d)
                dense1d.add_shifted(rhs, x[d:d + t_max + 1], -d)
                wrong |= (x[2 * d:2 * d + t_max + 1] != rhs % 3).any(axis=2)
            bad += int(np.sum(wrong))
    return len(moved) * (k_max + 1) * (t_max + 1), bad


def psi_relation_config_check(c: Configuration, k: int, t: int, z: int) -> bool:
    """Same identity checked through full sparse configurations (slow path)."""
    rule = make_psi()
    d = 3 ** k
    lhs = engine.iterate(rule, c, 2 * d + t).shift(z)
    mid = engine.iterate(rule, c, d + t)
    rhs = (engine.iterate(rule, c, t).shift(z)
           .add(mid.shift(z - d), rule.alphabet)
           .add(mid.shift(z + d), rule.alphabet))
    return lhs == rhs


def psi_landmarks(a: int, b: int, M: int, k: int) -> Report:
    """Landmark values and the zero band of the spot orbit at time M*3^{k+1}."""
    if not (0 <= a < 3 and 0 <= b < 3):
        raise UsageError("(a, b) must lie in Z_3 x Z_3")
    if M < 1 or k < 0:
        raise UsageError("need M >= 1 and k >= 0")
    rep = Report(f"psi-landmarks a={a} b={b} M={M} k={k}")
    T = M * 3 ** (k + 1)
    c = Configuration(Z, 9, {0: a * 3 + b})
    pos = M * 3 ** (k + 1) - 2 * 3 ** k
    lo = (M - 1) * 3 ** (k + 1)
    hi = lo + 3 ** k
    band = [*range(lo, hi), *range(-hi + 1, -lo + 1)]
    rule = make_psi()
    final = engine.window_series(rule, c, [pos, -pos, *band], T)[T]
    expect = (a, (2 * b) % 3)
    for sign, state in zip((1, -1), final):
        got = rule.alphabet.components(int(state))
        rep.expect(f"value at {sign * pos}", got == expect,
                   f"got {got}, want {expect}")
    rep.expect(f"zero band {lo} <= |i| < {hi}", not final[2:].any())
    return rep


def _glider(z: int, k: int) -> Configuration:
    rule = make_upsilon()
    enc = rule.alphabet.encode
    cells = {z: enc(0, 1)}
    for zp in range(z + 1, z + k - 1):
        cells[zp] = enc(1, 1)
    cells[z + k - 1] = enc(1, 0)
    return Configuration(Z, 4, cells)


def upsilon_glider(z: int, k: int) -> Configuration:
    """The k-cell left-moving soliton of the second-order mod-2 rule; one
    step maps it to its translate by -1 (asserted on construction)."""
    if k < 2:
        raise UsageError("glider needs k >= 2")
    cfg = _glider(z, k)
    if engine.step(make_upsilon(), cfg) != _glider(z - 1, k):
        raise RuntimeError(f"glider property failed at z={z} k={k}")
    return cfg


# ---------------------------------------------------------------------------
# the multiplication family

@dataclass(frozen=True)
class MultParams:
    k: int
    kp: int
    m: int
    q: int
    p: int


def mult_params(k: int, kp: int) -> MultParams:
    """q = min{n in 1..m-1 : exists p with k' | k^p n}, p = min{n : k' | k^n q}."""
    if k < 2 or kp < 2:
        raise UsageError("need k, k' >= 2")
    m = k * kp
    p_cap = 64

    def divides_eventually(n: int) -> bool:
        return any((k ** p * n) % kp == 0 for p in range(p_cap + 1))

    q = next(n for n in range(1, m) if divides_eventually(n))
    p = next(n for n in range(p_cap + 1) if (k ** n * q) % kp == 0)
    return MultParams(k=k, kp=kp, m=m, q=q, p=p)


def g_value(c: Configuration, m: int) -> Fraction:
    """sum over i >= 0 of c_i m^{-i}, exact."""
    total = Fraction(0)
    for s, v in c.cells.items():
        if s >= 0:
            total += Fraction(v, m ** s)
    return total


def _random_mult_config(rng, m) -> Configuration:
    sites = rng.sample(range(11), rng.randint(1, 6))
    return Configuration(Z, m, {s: rng.randint(1, m - 1) for s in sites})


def mult_front_checks(k: int, kp: int, samples: int = 30, t_max: int = 100,
                      seed: int = 0) -> Report:
    """The exact value recurrence and the front bounds of the multiplication
    rule, on random asymptotic pairs with support in nonnegative positions.

    Log comparisons are done with exact integer powers: l_t < r_0+1-t*log(k)/log(m)
    iff m^(r_0+1-l_t) > k^t.
    """
    rule = MultRule(k, kp)
    m = rule.m
    params = mult_params(k, kp)
    rep = Report(f"mult-fronts k={k} k'={kp} (q={params.q}, p={params.p})")
    rng = random.Random(seed)

    bad_g = 0
    for _ in range(samples):
        c = _random_mult_config(rng, m)
        expected = k * g_value(c, m) - m * ((k * c.get(0)) // m)
        if g_value(engine.step(rule, c), m) != expected:
            bad_g += 1
    rep.expect("value recurrence g(F(c)) = k g(c) - m floor(k c_0 / m)",
               bad_g == 0, f"{samples} configs")

    pair_count = max(4, samples // 3)
    pairs = []
    while len(pairs) < pair_count:  # redraw a pair with c == d
        c = _random_mult_config(rng, m)
        d = _random_mult_config(rng, m)
        if c != d:
            pairs.append((c, d))
    powers = [k ** t for t in range(t_max + 1)]
    bad_l = bad_r = bad_decay = 0
    never_constant = 0
    for (c, d), fr in zip(pairs, engine.fronts_many(rule, pairs, t_max)):
        r0 = fr.r[0] if fr.r[0] is not None else max(0, *c.cells, *d.cells)
        l0 = fr.l[0]
        for t in range(t_max + 1):
            lt, rt = fr.l[t], fr.r[t]
            if lt is None:
                continue  # bijective rule, so differences never vanish
            if not m ** (r0 + 1 - lt) > powers[t]:
                bad_l += 1
            if l0 - 1 - rt > 0 and not powers[t] > m ** (l0 - 1 - rt):
                bad_r += 1
            if params.q == 1 and not rt <= r0 - t // (params.p + 1):
                bad_decay += 1
        if params.q > 1 and kp > k ** params.p:
            # t0: the first step from which the right front stays constant
            t0 = t_max
            while t0 and fr.r[t0 - 1] == fr.r[t_max]:
                t0 -= 1
            if t0 >= t_max:
                never_constant += 1
    rep.expect("left front bound l_t < r_0 + 1 - t log(k)/log(m)", bad_l == 0,
               f"{pair_count} pairs, t <= {t_max}")
    rep.expect("right front bound l_0 - 1 - t log(k)/log(m) < r_t", bad_r == 0)
    if params.q == 1:
        rep.expect(f"decay r_t <= r_0 - floor(t/{params.p + 1})", bad_decay == 0)
    if params.q > 1 and kp > k ** params.p:
        rep.expect("right front eventually constant", never_constant == 0)
    return rep

