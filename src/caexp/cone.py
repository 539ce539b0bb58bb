"""The light cone of a finite run on one axis, shared by the dense backends.

A run steps offsets N from c for t_max steps and reads fixed read sites.  On
an axis let a = max(max N, 0), b = max(-min N, 0): a cell at s feeds s - v,
so a step spreads the support a cells left and b right.  The support at time
t lies in F_t = [lo - t*a, hi + t*b], and a cell at time t reaches a read
site by t_max only inside K_t = [klo - (t_max-t)*b, khi + (t_max-t)*a]
([lo, hi] and [klo, khi] hold the support and the read sites; without read
sites K_t is the line).  F_t grows, K_t shrinks, K_t + N lies in K_{t-1},
and every K_t holds the read sites.  Step t computes B_t = F_t & K_t.

Invariant: after step t every buffer cell in K_t holds F^t(c), if (init)
every buffer (two swapped each step count as one per parity) is zero off
F_0 and the one holding c agrees with it on K_0, and (step) step t writes
every cell of B_t, and maybe more, by the rule from the previous state,
reading zero off the buffer and only outside F_{t-1}.  Proof, by induction;
take x in K_t on the buffer.  If step t wrote x, it read x + N in K_{t-1}:
exact by induction on the buffer, and zero off it.  Otherwise x lies outside
B_t, so outside F_t and every earlier F_s, where F^s(c)(x) = 0; the buffer
holds its initial zero or what a step s < t wrote while x lay in K_s, which
was exact, so zero.  Nothing reads a cell outside K_t again.

Each edge of B_t is the larger (left) or smaller (right) of an F line and a
K line, so B_t is empty at every t or at none, and its width is linear in t
between two cuts: ``cells`` sums it, or the product of two axes' widths, in
closed form.  Both dense backends count their work so before their first
step and refuse runs above ``MAX_CELL_STEPS``.
"""
from __future__ import annotations

from .errors import ResourceLimitError

# row elements one dense run may step (int64 cells in dense1d, uint64 words
# in bitgrid, the 8-byte words a decimated run reads): the cells of the
# 1.1 GB int64 space-time arrays dense1d once built.  The largest count the
# claims, tests and benchmark make is 103.6 * 10^6, the decimated early exit
# of ``z2 --tri-claim --tsim 20000``, which a test admits (0.6 s for the
# whole command); ``--tsim 26533`` counts 137.5 * 10^6, at the cap's edge;
# of the claims, tri-null's early exit through t=2048 counts 10.6 * 10^6,
# and of the benchmark, the decimated f3 table through t=8192 counts
# 18.9 * 10^6.
MAX_CELL_STEPS = 137_500_000


def check_steps(count: int, what: str, unit: str) -> None:
    if count > MAX_CELL_STEPS:
        raise ResourceLimitError(f"{what} of {count} {unit} exceeds the "
                                 f"{MAX_CELL_STEPS} budget")


class Axis:
    """One axis of the boxes B_t of a t_max-step run, from the coordinates
    on it of the offsets, the support and the read sites (None: no read
    sites).  ``empty`` axes have no cell in any box."""

    def __init__(self, offsets, support, read, t_max: int):
        self.t_max, a, b = t_max, max(max(offsets), 0), max(-min(offsets), 0)
        lo, hi = min(support, default=0), max(support, default=0)
        self.read = (min(read), max(read)) if read else None
        self.empty = not support or (read is not None and not read)
        # each edge's lines (c, s), edge = c + s*t: F_t's, then K_t's, which
        # without read sites repeat F_t's
        self.left, self.right, self.cuts = [(lo, -a)] * 2, [(hi, b)] * 2, ()
        if self.read:
            klo, khi = self.read
            self.left[1] = (klo - t_max * b, b)
            self.right[1] = (khi + t_max * a, -a)
            self.empty = self.empty or khi + t_max * a < lo \
                or hi + t_max * b < klo
            if a + b:  # the F line is the edge while t*(a+b) <= d
                self.cuts = tuple(min(max(d // (a + b), 0), t_max) for d in
                                  (lo - klo + t_max * b, khi - hi + t_max * a))
        self.a, self.b = a, b

    def _edges(self, t: int):
        """B_t's left and right lines; ties keep the F line, as the cuts do."""
        (f, k), (g, h) = self.left, self.right
        return (f if f[0] + f[1] * t >= k[0] + k[1] * t else k,
                g if g[0] + g[1] * t <= h[0] + h[1] * t else h)

    def boxes(self, t0: int = 0, origin: int = 0):
        """(t, first, end) for t = t0..t_max: B_t holds cells first..end-1,
        counted from origin; meaningless on an empty axis."""
        (c1, s1), (c2, s2) = self.left
        (c3, s3), (c4, s4) = self.right
        for t in range(t0, self.t_max + 1):
            yield (t, max(c1 + s1 * t, c2 + s2 * t) - origin,
                   min(c3 + s3 * t, c4 + s4 * t) + 1 - origin)

    def forward(self, t: int) -> tuple[int, int]:
        """F_t."""
        (lc, ls), (rc, rs) = self.left[0], self.right[0]
        return lc + ls * t, rc + rs * t

    def hull(self) -> tuple[int, int]:
        """F_{t_max} & K_0, which holds every box: each line's farthest reach."""
        t = self.t_max
        return (max(min(c, c + s * t) for c, s in self.left),
                min(max(c, c + s * t) for c, s in self.right))


def _power_sum(k: int, n: int) -> int:
    """sum of t**k over 1 <= t <= n, for k <= 2."""
    return (n, n * (n + 1) // 2, n * (n + 1) * (2 * n + 1) // 6)[k]


def cells(*axes: Axis) -> int:
    """Sum over steps 1..t_max of the product of one or two axes' widths."""
    if any(ax.empty for ax in axes):
        return 0
    ends = sorted({0, axes[0].t_max, *(c for ax in axes for c in ax.cuts)})
    total = 0
    for i, j in zip(ends, ends[1:]):
        poly = [1]  # the product of the widths on (i, j], by powers of t
        for ax in axes:
            (lc, ls), (rc, rs) = ax._edges(j)
            c, s = rc - lc + 1, rs - ls
            poly = [c * p + s * q for p, q in zip(poly + [0], [0] + poly)]
        total += sum(coef * (_power_sum(k, j) - _power_sum(k, i))
                     for k, coef in enumerate(poly))
    return total
