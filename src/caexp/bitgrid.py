"""Bit-packed dense backend for mod-2 linear rules on Z^2.

Rows are y-slices; each row packs x-cells into uint64 words, LSB first.  A
grid holds two state buffers and one scratch buffer, all allocated up front.
``BitGrid.step`` builds each offset's term in the scratch buffer with ``out=``
shifts on row and word slices, XORs it into the back state buffer and then
swaps the two; nothing is allocated per step.  Cells outside the grid read as
zero, and padding bits past the logical width are kept zero.

The module functions size the grid to the bounding box of the support's
forward light cone over the whole run, plus the read sites and a one-cell
margin, and clip every step to the cells that can still matter.  With the
offsets N, the support at time t lies in ``sites - t*N``; a cell at time t can
reach a read site at some time t' >= t only if it lies in
``read_sites + (t' - t)*N``.  Let F_t and K_t be the bounding boxes of these
two cones, computed as if N held the zero offset, so that F_t only grows and
K_t only shrinks with t, and K_t + N lies inside K_{t-1}.  Step t computes the
rows of F_t & K_t, and in those rows the whole words covering its x-range.

Invariant: after step t, every grid cell inside K_t holds its exact value.

- A computed cell inside K_t reads cells inside K_{t-1}, exact by induction,
  or cells off the grid, which read as zero and are exactly zero because the
  grid contains every F_t.
- A cell of K_t outside the box lies outside F_t, so its value is zero at time
  t and, F only growing, at every earlier time.  Its buffer holds either its
  initial zero (every site lies in F_0) or what an earlier step of the same
  parity computed there, while it lay inside the larger K of that step; that
  value was exact, so zero.
- Rounding the box out to whole words computes some cells outside F_t & K_t.
  Inside K_t they are exact by the first point.  Outside K_t they may hold
  stale or wrong values, but neither a read nor a later step looks at a cell
  outside the current K again.  So the box's word edges need no margin and
  no mask.

``simulate_support`` has no read sites: its K_t is the whole plane, so every
grid cell is exact after every step.  A grid without a cone (``cli bench``)
steps all of its cells.  Results are bit-identical to the sparse engine.
"""
from __future__ import annotations

import numpy as np

from .errors import UsageError, check_array_bytes

_U64 = np.uint64
_SHIFT = [_U64(s) for s in range(64)]


def _check_offsets(offsets) -> None:
    if any(not -64 < dx < 64 for (dx, _) in offsets):
        raise UsageError("x offsets must be smaller than 64")


def _box(sites):
    """(xmin, xmax, ymin, ymax) of a nonempty site list."""
    xs = [s[0] for s in sites]
    ys = [s[1] for s in sites]
    return min(xs), max(xs), min(ys), max(ys)


class _Cone:
    """The cell box that step t computes (see the module docstring)."""

    def __init__(self, offsets, sites, t_max, read_sites):
        self.t_max = t_max
        # per-step growth: a box [lo, hi] widens to [lo - a, hi + b] forward
        # and to [lo - b, hi + a] backward, per axis
        self.ax = max([0] + [v[0] for v in offsets])
        self.bx = max([0] + [-v[0] for v in offsets])
        self.ay = max([0] + [v[1] for v in offsets])
        self.by = max([0] + [-v[1] for v in offsets])
        self.forward = _box(sites or [(0, 0)])
        self.backward = _box(read_sites) if read_sites else None
        # no support, or read sites given but none of them: nothing to compute
        self.empty = not sites or (read_sites is not None and not read_sites)

    def forward_box(self, t: int):
        """Bounding box F_t of the support's forward cone at step t."""
        x0, x1, y0, y1 = self.forward
        return (x0 - t * self.ax, x1 + t * self.bx,
                y0 - t * self.ay, y1 + t * self.by)

    def grid_bounds(self):
        """Cell box holding F_{t_max} and the read sites, widened by one cell
        on each side; it contains every box that ``box`` returns."""
        x0, x1, y0, y1 = self.forward_box(self.t_max)
        if self.backward is not None:
            kx0, kx1, ky0, ky1 = self.backward
            x0, x1 = min(x0, kx0), max(x1, kx1)
            y0, y1 = min(y0, ky0), max(y1, ky1)
        return x0 - 1, x1 + 1, y0 - 1, y1 + 1

    def box(self, t: int):
        """(xmin, xmax, ymin, ymax) to compute at step t, or None if empty."""
        if self.empty:
            return None
        x0, x1, y0, y1 = self.forward_box(t)
        if self.backward is not None:
            s = self.t_max - t
            kx0, kx1, ky0, ky1 = self.backward
            x0 = max(x0, kx0 - s * self.bx); x1 = min(x1, kx1 + s * self.ax)
            y0 = max(y0, ky0 - s * self.by); y1 = min(y1, ky1 + s * self.ay)
        if x0 > x1 or y0 > y1:
            return None
        return x0, x1, y0, y1


class BitGrid:
    def __init__(self, xmin: int, xmax: int, ymin: int, ymax: int):
        if xmax < xmin or ymax < ymin:
            raise UsageError("empty grid bounds")
        self.xmin = xmin
        self.ymin = ymin
        self.width = xmax - xmin + 1
        self.height = ymax - ymin + 1
        self.nwords = (self.width + 63) // 64
        shape = (self.height, self.nwords)
        check_array_bytes(8 * self.height * self.nwords, "a bit grid buffer")
        self.words = np.zeros(shape, dtype=_U64)
        self._back = np.zeros(shape, dtype=_U64)
        self._scratch = np.empty(shape, dtype=_U64)
        # padding bits past the logical width must stay zero
        tail = self.width % 64
        self._tail = _U64((1 << tail) - 1) if tail else None
        self._t = 0
        self._cone = None  # a _Cone clips each step; None steps the whole grid

    def set_sites(self, sites) -> None:
        for (x, y) in sites:
            b = x - self.xmin
            self.words[y - self.ymin, b >> 6] ^= _U64(1) << _U64(b & 63)

    def step(self, offsets) -> None:
        """new(x, y) = XOR over (dx, dy) in offsets of old(x+dx, y+dy)."""
        if self._cone is None:  # a clipped grid's offsets are checked by _grid
            _check_offsets(offsets)
        self._t += 1
        old, new = self.words, self._back
        box = self._rows_words(self._t)
        if box is not None:
            self._compute(old, new, box, offsets)
        self.words, self._back = new, old

    def _rows_words(self, t: int):
        """(row0, row1, word0, word1) covering the cone's box at step t (which
        lies on the grid), the whole grid without a cone, or None."""
        if self._cone is None:
            return 0, self.height, 0, self.nwords
        box = self._cone.box(t)
        if box is None:
            return None
        x0, x1, y0, y1 = box
        return (y0 - self.ymin, y1 - self.ymin + 1,
                (x0 - self.xmin) >> 6, ((x1 - self.xmin) >> 6) + 1)

    def _compute(self, old, new, box, offsets) -> None:
        """Write the XOR of the offsets' terms into new's box."""
        r0, r1, c0, c1 = box
        height, nwords, tmp = self.height, self.nwords, self._scratch
        new[r0:r1, c0:c1] = 0
        for (dx, dy) in offsets:
            # target rows whose source row y+dy lies on the grid
            a, b = max(r0, -dy), min(r1, height - dy)
            if a >= b:
                continue
            src = old[a + dy:b + dy]
            dst = new[a:b]
            if dx == 0:
                np.bitwise_xor(dst[:, c0:c1], src[:, c0:c1], out=dst[:, c0:c1])
                continue
            # bit i of word c reads bit i+dx: the word itself shifted, plus the
            # carry from the next word (dx > 0) or the previous one (dx < 0)
            if dx > 0:
                main, carry = np.right_shift, np.left_shift
                d0, d1, step_in = c0, min(c1, nwords - 1), 1
            else:
                main, carry = np.left_shift, np.right_shift
                d0, d1, step_in = max(c0, 1), c1, -1
            s = abs(dx)
            out = tmp[a:b, c0:c1]
            main(src[:, c0:c1], _SHIFT[s], out=out)
            np.bitwise_xor(dst[:, c0:c1], out, out=dst[:, c0:c1])
            if d0 < d1:
                out = tmp[a:b, d0:d1]
                carry(src[:, d0 + step_in:d1 + step_in], _SHIFT[64 - s], out=out)
                np.bitwise_xor(dst[:, d0:d1], out, out=dst[:, d0:d1])
        if c1 == nwords and self._tail is not None:
            np.bitwise_and(new[r0:r1, -1], self._tail, out=new[r0:r1, -1])


def _grid(offsets, sites, t_max: int, read_sites=None) -> BitGrid:
    """A grid holding sites, clipped to the cones of a t_max-step run."""
    if t_max < 0:
        raise UsageError("step count t_max must be >= 0")
    _check_offsets(offsets)
    cone = _Cone(offsets, sites, t_max, read_sites)
    grid = BitGrid(*cone.grid_bounds())
    grid.set_sites(sites)
    grid._cone = cone
    return grid


def _reader(grid: BitGrid, read_sites):
    rows = np.array([y - grid.ymin for (_, y) in read_sites], dtype=np.intp)
    bits = np.array([x - grid.xmin for (x, _) in read_sites], dtype=np.intp)
    cols = bits >> 6
    shifts = (bits & 63).astype(np.uint64)

    def read() -> np.ndarray:
        return ((grid.words[rows, cols] >> shifts) & _U64(1)).astype(np.uint8)

    return read


def simulate_series(offsets, sites, t_max: int, read_sites) -> np.ndarray:
    """Orbit values at read_sites for t = 0..t_max; shape (t_max+1, n)."""
    grid = _grid(offsets, sites, t_max, read_sites)
    read = _reader(grid, read_sites)
    out = np.empty((t_max + 1, len(read_sites)), dtype=np.uint8)
    out[0] = read()
    for t in range(1, t_max + 1):
        grid.step(offsets)
        out[t] = read()
    return out


def simulate_support(offsets, sites, t: int) -> set[tuple[int, int]]:
    """Support of the t-step image as a set of sites."""
    grid = _grid(offsets, sites, t)
    for _ in range(t):
        grid.step(offsets)
    rows, cols = np.nonzero(grid.words)
    out = set()
    for r, c in zip(rows, cols):
        word = int(grid.words[r, c])
        base = c << 6
        while word:
            low = word & -word
            out.add((grid.xmin + base + low.bit_length() - 1, grid.ymin + int(r)))
            word ^= low
    return out


def first_nonzero_window_time(offsets, sites, t_max: int, window_sites) -> int | None:
    """First t <= t_max with a nonzero value in the window, else None."""
    grid = _grid(offsets, sites, t_max, window_sites)
    read = _reader(grid, window_sites)
    if read().any():
        return 0
    for t in range(1, t_max + 1):
        grid.step(offsets)
        if read().any():
            return t
    return None
