"""Finite-support configurations over a lattice.

A configuration maps sites to states 0..q-1 with quiescent state 0; the
support dictionary never stores 0, which makes equality plain map equality.
Configurations are immutable values: every operation returns a new one.
"""
from __future__ import annotations

import random
from typing import Iterable, Mapping

from .alphabet import Alphabet
from .errors import UsageError
from .lattice import Lattice, Site


class Configuration:
    __slots__ = ("lattice", "q", "cells", "_hash")

    def __init__(self, lattice: Lattice, q: int, cells: Mapping[Site, int] | None = None,
                 _validated: bool = False):
        if q < 2:
            raise UsageError("alphabet size q must be >= 2")
        self.lattice = lattice
        self.q = q
        if cells is None:
            cleaned: dict[Site, int] = {}
        elif _validated:
            cleaned = dict(cells)
        else:
            cleaned = {}
            for site, state in cells.items():
                lattice.validate_site(site)
                if not isinstance(state, int) or not 0 <= state < q:
                    raise UsageError(f"state {state!r} outside 0..{q - 1}")
                if state != 0:
                    cleaned[site] = state
        self.cells = cleaned
        self._hash: int | None = None

    # -- constructors ------------------------------------------------------
    @staticmethod
    def zero(lattice: Lattice, q: int) -> "Configuration":
        return Configuration(lattice, q, None)

    @staticmethod
    def spot(lattice: Lattice, q: int, state: int, site: Site | None = None) -> "Configuration":
        if site is None:
            site = lattice.origin
        return Configuration(lattice, q, {site: state})

    # -- basic queries -----------------------------------------------------
    def get(self, site: Site) -> int:
        return self.cells.get(site, 0)

    def is_zero(self) -> bool:
        return not self.cells

    def support(self) -> list[Site]:
        return sorted(self.cells)

    def size(self) -> int:
        """Bounding radius of the support (L-inf on Z^2, word norm elsewhere)."""
        if not self.cells:
            return 0
        return max(self.lattice.size_norm(s) for s in self.cells)

    def __len__(self):
        return len(self.cells)

    def __eq__(self, other):
        return (isinstance(other, Configuration)
                and self.lattice == other.lattice
                and self.q == other.q
                and self.cells == other.cells)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.lattice.kind, self.q,
                               frozenset(self.cells.items())))
        return self._hash

    def __repr__(self):
        items = ", ".join(f"{self.lattice.format_site(s)}:{v}"
                          for s, v in sorted(self.cells.items())[:8])
        more = "..." if len(self.cells) > 8 else ""
        return f"<config q={self.q} |supp|={len(self.cells)} {{{items}{more}}}>"

    # -- algebra -----------------------------------------------------------
    def shift(self, z: Site) -> "Configuration":
        """sigma_z(c), with sigma_z(c)(x) = c(z + x)."""
        lat = self.lattice
        zinv = lat.neg(z)
        return Configuration(lat, self.q,
                             {lat.add(zinv, s): v for s, v in self.cells.items()},
                             _validated=True)

    def add(self, other: "Configuration", alphabet: Alphabet) -> "Configuration":
        """Cellwise sum for the given group law."""
        self._check_compatible(other)
        out = dict(self.cells)
        for site, v in other.cells.items():
            s = alphabet.add(out.get(site, 0), v)
            if s:
                out[site] = s
            else:
                out.pop(site, None)
        return Configuration(self.lattice, self.q, out, _validated=True)

    def diff_count(self, other: "Configuration") -> int:
        """Number of sites where the two configurations differ."""
        self._check_compatible(other)
        n = 0
        for site, v in self.cells.items():
            if other.cells.get(site, 0) != v:
                n += 1
        for site in other.cells:
            if site not in self.cells:
                n += 1
        return n

    def restrict(self, sites: Iterable[Site]) -> tuple[int, ...]:
        return tuple(self.cells.get(s, 0) for s in sites)

    def _check_compatible(self, other: "Configuration") -> None:
        if self.lattice != other.lattice:
            raise UsageError("configurations live on different lattices")
        if self.q != other.q:
            raise UsageError("configurations have different alphabets")


def random_config(lattice: Lattice, q: int, rng: random.Random,
                  radius: int = 8, max_cells: int = 12) -> Configuration:
    """Seeded random finite-support configuration inside the radius ball."""
    domain = lattice.origin_ball(radius)
    n = rng.randint(1, max_cells)
    sites = rng.sample(domain, min(n, len(domain)))
    return Configuration(lattice, q, {s: rng.randrange(1, q) for s in sites})
