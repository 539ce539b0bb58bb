"""Space-time rendering to binary PGM (P5) or plain-text files.

Z rules produce one strip image with time running bottom-to-top (the last
computed step is the top row).  Z^2 rules produce one numbered frame per
step.  ``render_spacetime`` writes the files into a directory and returns
their paths.  Gray value is floor(255 * state / (q - 1)); output is
byte-exact for fixed inputs.
"""
from __future__ import annotations

import os

import numpy as np

from . import engine
from .config import Configuration
from .errors import UsageError
from .lattice import Z2Lattice, ZLattice
from .rules import Rule


def _pgm_bytes(img: np.ndarray) -> bytes:
    h, w = img.shape
    return f"P5\n{w} {h}\n255\n".encode("ascii") + img.astype(np.uint8).tobytes()


def _gray(states: np.ndarray, q: int) -> np.ndarray:
    """floor(255 * state / (q - 1)) as uint8, in exact integer arithmetic."""
    return (states.astype(object) * 255 // (q - 1)).astype(np.uint8)


def _span(width_window: int) -> range:
    if width_window < 0:
        raise UsageError("render window must be >= 0")
    return range(-width_window, width_window + 1)


def render_strip(rule: Rule, c: Configuration, width_window: int,
                 t_max: int) -> np.ndarray:
    """Z space-time diagram as a (t_max+1, 2*width_window+1) gray array."""
    if not isinstance(rule.lattice, ZLattice):
        raise UsageError("strip rendering needs a Z rule")
    series = engine.window_series(rule, c, _span(width_window), t_max)
    return _gray(series[::-1], rule.q)  # bottom-to-top time axis


def render_frames(rule: Rule, c: Configuration, width_window: int,
                  t_max: int) -> list[np.ndarray]:
    """Z^2 orbit as one gray frame per step (rows are decreasing y)."""
    if not isinstance(rule.lattice, Z2Lattice):
        raise UsageError("frame rendering needs a Z^2 rule")
    span = _span(width_window)
    sites = [(x, y) for y in reversed(span) for x in span]
    series = engine.window_series(rule, c, sites, t_max)
    return list(_gray(series, rule.q).reshape(t_max + 1, len(span), len(span)))


def render_spacetime(rule: Rule, c: Configuration, width_window: int,
                     t_max: int, fmt: str, out_dir: str) -> list[str]:
    """Write the render into ``out_dir`` and return the paths written: one
    ``spacetime.pgm`` or ``spacetime.txt`` strip on Z, one
    ``spacetime_<t>.pgm`` frame per step on Z^2 (PGM only)."""
    lat = rule.lattice
    if isinstance(lat, ZLattice):
        img = render_strip(rule, c, width_window, t_max)
        if fmt == "text":
            txt = "\n".join("".join(str((int(v) * (rule.q - 1) + 254) // 255) for v in row)
                            for row in img) + "\n"
            return [_write(out_dir, "spacetime.txt", txt.encode())]
        return [_write(out_dir, "spacetime.pgm", _pgm_bytes(img))]
    if isinstance(lat, Z2Lattice):
        if fmt == "text":
            raise UsageError("text format is only available for Z strips")
        frames = render_frames(rule, c, width_window, t_max)
        return [_write(out_dir, f"spacetime_{t:04d}.pgm", _pgm_bytes(img))
                for t, img in enumerate(frames)]
    raise UsageError("rendering supports Z and Z^2 only; "
                     "use the textual configuration dump for free groups")


def _write(out_dir: str, name: str, data: bytes) -> str:
    path = os.path.join(out_dir, name)
    with open(path, "wb") as fh:
        fh.write(data)
    return path
