"""The von Neumann substitution words, and the two mod-2 rules' claims on Z^2.

For the von Neumann sum rule, the orbit of a single spot is eventually
substitutive: the trace of cell z over times [0, 2^k-1] and [2^k, 2^{k+1}-1]
is a pair of binary words (u_k(z), v_k(z)) built by a three-case recursion
(inside the inner ball / translated around one of the five scale-2^{k-1}
spots / identically zero on the diagonals), and the block sequence at scale
2^k follows the fixed point of U -> UV, V -> UU starting at U.  Since both
letters occur in that fixed point, the *infinite* trace of a finite sum of
spots is null iff both the u-sum and the v-sum vanish at a scale covering
every shifted cell.  That turns null-trace checking into a total, exact
decision; a unit test checks the block reduction against simulation.

``linearca.null_trace_forever`` decides the same for every linear rule with
prime or squarefree modulus.  The words stay as the paper's substitution
under test, and because they make the decision a XOR: ``window_word`` packs
one cell's words over a whole window into one int, so ``three_trace_check``
decides its 234 136 triples with three XORs each, in about 0.1 s, against
about 28 s through the general oracle (120 us each; 2-core host).

Words are stored as ints, bit i = trace value at time offset i.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine, linearca
from .config import Configuration
from .errors import ResourceLimitError, UsageError
from .lattice import Z2
from .presets import tri2, vn2
from .report import Report

# largest scale k whose 2^k-bit trace words are built (uv_words, exact_trace_null)
_K_CAP = 12


def _norm(z) -> int:
    return abs(z[0]) + abs(z[1])


def _s_points(j: int):
    d = 1 << j
    return ((0, d), (d, 0), (0, -d), (-d, 0))


_U_CACHE: dict[tuple[tuple[int, int], int], int] = {}
_V_CACHE: dict[tuple[tuple[int, int], int], int] = {}


def _u(z: tuple[int, int], k: int) -> int:
    if k == 0:
        return 1
    key = (z, k)
    got = _U_CACHE.get(key)
    if got is not None:
        return got
    h = 1 << (k - 1)
    if _norm(z) <= h - 1:
        val = _u(z, k - 1) | (_v(z, k - 1) << h)
    else:
        val = 0
        for x in _s_points(k - 1):
            zz = (z[0] - x[0], z[1] - x[1])
            if _norm(zz) <= h - 1:
                val = _u(zz, k - 1) << h
                break
    _U_CACHE[key] = val
    return val


def _v(z: tuple[int, int], k: int) -> int:
    if k == 0:
        return 1
    key = (z, k)
    got = _V_CACHE.get(key)
    if got is not None:
        return got
    h = 1 << (k - 1)
    if _norm(z) <= h - 1:
        w = _u(z, k - 1)
        val = w | (w << h)
    else:
        val = 0
        for x in _s_points(k):
            zz = (z[0] - x[0], z[1] - x[1])
            if _norm(zz) <= h - 1:
                w = _u(zz, k - 1)
                val = w | (w << h)
                break
    _V_CACHE[key] = val
    return val


@dataclass(frozen=True)
class UVPair:
    z: tuple[int, int]
    k: int
    u: int
    v: int

    @property
    def length(self) -> int:
        return 1 << self.k

    def u_word(self) -> str:
        return format(self.u, f"0{self.length}b")[::-1]

    def v_word(self) -> str:
        return format(self.v, f"0{self.length}b")[::-1]


def uv_words(z: tuple[int, int], k: int) -> UVPair:
    """The two trace words of cell z at scale k (times [0,2^k) and [2^k,2^{k+1}))."""
    if k < 0:
        raise UsageError("scale k must be >= 0")
    if k > _K_CAP:
        raise ResourceLimitError(f"scale 2^{k} exceeds the cap 2^{_K_CAP}",
                                 requested=1 << k)
    Z2.validate_site(z)
    if _norm(z) > (1 << k) - 1:
        raise UsageError(f"cell {z} outside B_{(1 << k) - 1}; raise k")
    return UVPair(z=z, k=k, u=_u(z, k), v=_v(z, k))


def word_is_square(bits: int, length: int) -> bool:
    h = length // 2
    return bits >> h == bits & ((1 << h) - 1)


def first_one_index(bits: int) -> int | None:
    if bits == 0:
        return None
    return (bits & -bits).bit_length() - 1


def scale_for_norm(max_norm: int) -> int:
    k = 0
    while (1 << k) - 1 < max_norm:
        k += 1
    return k


def uv_vs_simulation(k_max: int) -> Report:
    """Exact equality of u_k.v_k against the simulated spot traces."""
    if k_max < 0:
        raise UsageError("k_max must be >= 0")
    rep = Report(f"uv-vs-simulation k_max={k_max}")
    radius = (1 << k_max) - 1
    cells = Z2.origin_ball(radius)
    t_max = (1 << (k_max + 1)) - 1
    series = engine.window_series(vn2(), Configuration.spot(Z2, 2, 1), cells,
                                  t_max)
    packed = np.packbits(series, axis=0, bitorder="little")  # bit t = time t
    length = 1 << k_max
    bad = 0
    for i, z in enumerate(cells):
        expected = _u(z, k_max) | (_v(z, k_max) << length)
        simulated = int.from_bytes(packed[:, i].tobytes(), "little")
        if expected != simulated:
            bad += 1
            rep.expect(f"cell {z}", False,
                       f"uv={expected:b} sim={simulated:b}")
    rep.expect("all cells match", bad == 0,
               f"{len(cells)} cells, prefix length {t_max + 1}")
    return rep


def window_word(z: tuple[int, int], window, k: int) -> int:
    """The u and v words of w - z at scale k for every w in ``window``, packed
    into one int, 2^(k+1) bits per window cell.  Where B_{2^k-1} holds every
    w - z, a sum of spots has a null trace iff its cells' words XOR to 0."""
    half = 1 << k
    word = 0
    for i, w in enumerate(window):
        y = (w[0] - z[0], w[1] - z[1])
        word |= (_u(y, k) | _v(y, k) << half) << (2 * half * i)
    return word


def exact_trace_null(c: Configuration, m: int) -> bool:
    """Total decision: is the radius-m trace of c under the vN rule null forever?

    Picks the scale k0 covering every window-shifted support cell and reduces
    to the vanishing of the u- and v-sums there, the XOR of the cells'
    ``window_word``s.
    """
    if c.lattice != Z2 or c.q != 2:
        raise UsageError("exact oracle works on mod-2 Z^2 configurations")
    if m < 0:
        raise UsageError("window radius must be >= 0")
    if c.is_zero():
        return True
    window = Z2.origin_ball(m)
    reach = max(_norm(s) for s in c.cells) + m
    k0 = scale_for_norm(reach)
    if k0 > _K_CAP:
        raise ResourceLimitError(
            f"needed scale 2^{k0} exceeds the cap 2^{_K_CAP}",
            requested=1 << k0)
    acc = 0
    for z in c.cells:
        acc ^= window_word(z, window, k0)
    return acc == 0


def _val2(n: int) -> int:
    if n == 0:
        return 1 << 30
    v = 0
    while n % 2 == 0:
        n //= 2
        v += 1
    return v


def uv_structure_checks(k_max: int) -> Report:
    """Square/non-square, parity and diagonal structure of the u/v words,
    plus the radius-1 consequence used for 1-expansivity.

    Diagonal cells are null but not the only null ones: exhaustively, the
    null cells of B_{2^k-1} are exactly those whose coordinates share their
    2-adic valuation (both-odd cells and their dyadic dilates).  Single-cell
    expansivity only needs the radius-1 window, where an odd neighbor always
    answers.
    """
    if k_max < 1:
        raise UsageError("k_max must be >= 1")
    rep = Report(f"uv-structure k_max={k_max}")
    for k in range(1, k_max + 1):
        length = 1 << k
        cells = Z2.origin_ball(length - 1)
        v_square = u_nonsquare = odd_ok = even_ok = diag_ok = 0
        null_even = val_char = 0
        for z in cells:
            u = _u(z, k)
            v = _v(z, k)
            diagonal = abs(z[0]) == abs(z[1]) and z != (0, 0)
            if word_is_square(v, length):
                v_square += 1
            if z == (0, 0) or u == 0 or not word_is_square(u, length):
                u_nonsquare += 1
            if (z[0] + z[1]) % 2:
                first = first_one_index(u)
                if first is not None and first % 2 == 1:
                    odd_ok += 1
            else:
                first = first_one_index(u)
                if first is None or first % 2 == 0:
                    even_ok += 1
            if not diagonal or (u == 0 and v == 0):
                diag_ok += 1
            if u != 0 or (z[0] + z[1]) % 2 == 0:
                null_even += 1
            null_cell = u == 0 and v == 0
            if null_cell == (z != (0, 0) and _val2(z[0]) == _val2(z[1])):
                val_char += 1
        n = len(cells)
        odd_total = sum(1 for z in cells if (z[0] + z[1]) % 2)
        even_total = n - odd_total
        rep.expect(f"k={k} v is a square", v_square == n, f"{v_square}/{n}")
        rep.expect(f"k={k} u zero-or-not-square", u_nonsquare == n, f"{u_nonsquare}/{n}")
        rep.expect(f"k={k} odd cells first-1 odd", odd_ok == odd_total,
                   f"{odd_ok}/{odd_total}")
        rep.expect(f"k={k} even attained cells first-1 even", even_ok == even_total,
                   f"{even_ok}/{even_total}")
        rep.expect(f"k={k} diagonals null", diag_ok == n, f"{diag_ok}/{n}")
        rep.expect(f"k={k} null cells are even", null_even == n, f"{null_even}/{n}")
        rep.expect(f"k={k} null set = equal 2-adic valuations", val_char == n,
                   f"{val_char}/{n}")
        inner = Z2.origin_ball(length - 2)
        window = Z2.origin_ball(1)
        bad_window = sum(
            1 for z in inner
            if all(_u((z[0] + w[0], z[1] + w[1]), k) == 0
                   and _v((z[0] + w[0], z[1] + w[1]), k) == 0
                   for w in window))
        rep.expect(f"k={k} every cell answers in the radius-1 window",
                   bad_window == 0, f"{len(inner)} cells")
    return rep


def three_trace_check(R: int) -> Report:
    """Triples with a null trace sum must contain a null-trace (diagonal) cell,
    and no triple has a null radius-1 trace (the 3-expansivity evidence),
    decided as ``exact_trace_null`` does at one scale covering all of B_R."""
    if R < 1:
        raise UsageError("R must be >= 1")
    rep = Report(f"three-trace R={R}")
    cells = Z2.origin_ball(R)
    k1 = scale_for_norm(R)
    words = {z: _u(z, k1) for z in cells}
    window = Z2.origin_ball(1)
    k_window = scale_for_norm(R + 1)
    window_words = [window_word(z, window, k_window) for z in cells]
    n = len(cells)
    triples = 0
    null_sum_triples = 0
    no_null_member = 0
    t1_null = 0
    for i in range(n):
        zi = cells[i]
        ui = words[zi]
        for j in range(i + 1, n):
            zj = cells[j]
            uij = ui ^ words[zj]
            wij = window_words[i] ^ window_words[j]
            for l in range(j + 1, n):
                zl = cells[l]
                triples += 1
                if uij ^ words[zl] == 0:
                    null_sum_triples += 1
                    if ui != 0 and words[zj] != 0 and words[zl] != 0:
                        no_null_member += 1
                if wij == window_words[l]:
                    t1_null += 1
    rep.note("triples", f"{triples} over B_{R}")
    rep.expect("null u-sum implies a null member", no_null_member == 0,
               f"{null_sum_triples} null-sum triples")
    rep.expect("no triple has a null radius-1 trace", t1_null == 0,
               f"checked {triples}")
    return rep


def tri_claim_check(t_sim: int) -> Report:
    """Null radius-2 trace of the triangular-rule spot at (0, 36): simulated
    through t_sim, then decided for all time by the general oracle."""
    spot, m = (0, 36), 2
    rep = Report(f"tri-null spot={spot} m={m}")
    c = Configuration.spot(Z2, 2, 1, spot)
    hit = engine.first_nonzero_time(tri2(), c, Z2.origin_ball(m), t_sim)
    rep.expect(f"simulated trace null through t={t_sim}", hit is None,
               "" if hit is None else f"window first nonzero at t={hit}")
    rep.expect("trace null for all time (exact decision)",
               linearca.null_trace_forever(tri2(), c, m))
    return rep


def vn_witness(k: int) -> Configuration:
    """The two-spot non-2-expansivity witness at scale k: the scale-1 pair
    {(-2, 1), (2, 1)} dilated by 2^(k-1) (``linearca.amplify``)."""
    if k < 1:
        raise UsageError("scale k must be >= 1")
    base = Configuration(Z2, 2, {(-2, 1): 1, (2, 1): 1}, _validated=True)
    if k == 1:
        return base
    return linearca.amplify(vn2(), base, (1 << (k - 1)) - 1)
