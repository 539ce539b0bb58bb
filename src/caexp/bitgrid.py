"""Bit-packed dense backend for mod-2 linear rules on Z^2.

Rows are y-slices; each row packs x-cells into uint64 words, LSB first.  A
grid holds two state buffers and one scratch buffer, all allocated up front.
``BitGrid.step`` builds each offset's term in the scratch buffer with ``out=``
shifts on row and word slices, XORs it into the back state buffer and then
swaps the two; nothing is allocated per step.  Cells outside the grid read as
zero, and padding bits past the logical width are kept zero.

The module functions step the light-cone boxes of ``cone``, one ``cone.Axis``
per axis, rounded out to whole words, and meet its invariant: the grid holds
the support, the read sites and F_{t_max} with a one-cell margin, so reads
off it fall outside every F_t.  One read loop (``_read``) builds the grid
once and yields the values at the read sites after each step, which
``simulate_series`` stores and ``first_nonzero_window_time`` scans for the
first nonzero row.  ``simulate_support`` reads no sites, so every grid cell
is exact.  A grid without boxes (``cli bench``) steps all of its cells.
Before the grid is allocated a run bounds its word-row steps
(``_word_steps``) against ``cone.MAX_CELL_STEPS``.  Results are
bit-identical to the sparse engine.
"""
from __future__ import annotations

import numpy as np

from . import cone
from .errors import UsageError, check_array_bytes

_U64 = np.uint64
_SHIFT = [_U64(s) for s in range(64)]


def _check_offsets(offsets) -> None:
    if any(not -64 < dx < 64 for (dx, _) in offsets):
        raise UsageError("x offsets must be smaller than 64")


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
        self._boxes = None  # each step's (x, y) cone boxes; None steps all

    def set_sites(self, sites) -> None:
        for (x, y) in sites:
            b = x - self.xmin
            self.words[y - self.ymin, b >> 6] ^= _U64(1) << _U64(b & 63)

    def step(self, offsets) -> None:
        """new(x, y) = XOR over (dx, dy) in offsets of old(x+dx, y+dy)."""
        if self._boxes is None:  # a clipped grid's offsets are checked by _grid
            _check_offsets(offsets)
        old, new = self.words, self._back
        box = self._rows_words()
        if box is not None:
            self._compute(old, new, box, offsets)
        self.words, self._back = new, old

    def _rows_words(self):
        """(row0, row1, word0, word1) covering the next step's box (which lies
        on the grid), the whole grid without boxes, or None."""
        if self._boxes is None:
            return 0, self.height, 0, self.nwords
        (_, x0, x1), (_, y0, y1) = next(self._boxes, ((0, 0, 0),) * 2)
        return (y0, y1, x0 >> 6, ((x1 - 1) >> 6) + 1) if y0 < y1 else None

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


def _word_steps(x: cone.Axis, y: cone.Axis) -> int:
    """A bound on the rows x words a run's steps compute: a box w cells wide
    covers at most (w + 126) // 64 words, whatever the word alignment."""
    return (cone.cells(x, y) + 126 * cone.cells(y)) // 64


def _grid(offsets, sites, t_max: int, read_sites=None) -> BitGrid:
    """A grid holding sites, clipped to the cones of a t_max-step run, whose
    work is bounded before the grid is allocated."""
    if t_max < 0:
        raise UsageError("step count t_max must be >= 0")
    _check_offsets(offsets)
    x, y = axes = [cone.Axis([v[i] for v in offsets], [s[i] for s in sites],
                             None if read_sites is None
                             else [s[i] for s in read_sites], t_max)
                   for i in (0, 1)]
    cone.check_steps(_word_steps(x, y), "a bit grid run", "word-row steps")
    bounds = []
    for ax in axes:  # F_{t_max} with the read sites, and a one-cell margin
        lo, hi = ax.forward(t_max)
        klo, khi = ax.read or (lo, hi)
        bounds += [min(lo, klo) - 1, max(hi, khi) + 1]
    grid = BitGrid(*bounds)
    grid.set_sites(sites)
    grid._boxes = iter(()) if x.empty or y.empty else zip(
        x.boxes(1, grid.xmin), y.boxes(1, grid.ymin))
    return grid


def _read(offsets, sites, t_max: int, read_sites):
    """The uint8 values at read_sites after each of steps 0..t_max."""
    grid = _grid(offsets, sites, t_max, read_sites)
    rows = np.array([y - grid.ymin for (_, y) in read_sites], dtype=np.intp)
    bits = np.array([x - grid.xmin for (x, _) in read_sites], dtype=np.intp)
    cols = bits >> 6
    shifts = (bits & 63).astype(np.uint64)
    for t in range(t_max + 1):
        if t:
            grid.step(offsets)
        yield ((grid.words[rows, cols] >> shifts) & _U64(1)).astype(np.uint8)


def simulate_series(offsets, sites, t_max: int, read_sites) -> np.ndarray:
    """Orbit values at read_sites for t = 0..t_max; shape (t_max+1, n)."""
    rows = _read(offsets, sites, t_max, read_sites)
    row = next(rows)  # the run is bounded before its series is allocated
    out = np.empty((t_max + 1, len(row)), dtype=np.uint8)
    out[0] = row
    for t, row in enumerate(rows, 1):
        out[t] = row
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
    return next((t for t, row in enumerate(
        _read(offsets, sites, t_max, window_sites)) if row.any()), None)
