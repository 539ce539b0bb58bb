"""Finitely generated groups used as cell lattices: Z, Z^2 and free groups.

Sites are plain values: an ``int`` for Z, an ``(x, y)`` tuple for Z^2, and a
tuple of nonzero signed generator indices (always in reduced form) for a free
group.  All operations are pure; lattice objects are immutable and safe to
share.  ``parse_site`` reads back what ``format_site`` writes: ``7`` on Z,
``3,-2`` on Z^2, and on F_n whitespace-separated letters, uppercase meaning
inverse (``a b A``), with ``1`` for the identity, which no letter spells
(``e`` is generator 5 from F_5 on, and still reads as the identity below).
"""
from __future__ import annotations

from functools import lru_cache
from typing import Iterable

from .errors import ResourceLimitError, UsageError, parse_int

Site = object  # int | tuple[int, int] | tuple[int, ...]


class Lattice:
    """Group operations, the word norm and ball enumeration."""

    kind: str

    # -- group structure -------------------------------------------------
    @property
    def origin(self) -> Site:
        raise NotImplementedError

    def add(self, a: Site, b: Site) -> Site:
        raise NotImplementedError

    def neg(self, a: Site) -> Site:
        raise NotImplementedError

    def sub(self, a: Site, b: Site) -> Site:
        """a + (-b)."""
        return self.add(a, self.neg(b))

    def norm(self, a: Site) -> int:
        raise NotImplementedError

    def size_norm(self, a: Site) -> int:
        """Bounding radius used for configuration size (L-inf on Z^2)."""
        return self.norm(a)

    def generators(self) -> list[Site]:
        """Generator set, closed under inversion."""
        raise NotImplementedError

    def validate_site(self, a: Site) -> None:
        raise NotImplementedError

    # -- balls ------------------------------------------------------------
    def origin_ball(self, r: int) -> list[Site]:
        raise NotImplementedError

    def ball_size(self, r: int) -> int:
        """len(origin_ball(r)), without listing the ball."""
        raise NotImplementedError

    def site_cost(self, r: int) -> int:
        """Relative cost of a group operation on sites of norm <= r."""
        return 1

    # -- textual form -----------------------------------------------------
    def parse_site(self, text: str) -> Site:
        raise NotImplementedError

    def format_site(self, a: Site) -> str:
        raise NotImplementedError

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self.kind == getattr(other, "kind", None)

    def __hash__(self):
        return hash(self.kind)

    def __repr__(self):
        return f"<lattice {self.kind}>"


class ZLattice(Lattice):
    kind = "z"

    @property
    def origin(self) -> int:
        return 0

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def norm(self, a):
        return abs(a)

    def generators(self):
        return [1, -1]

    def validate_site(self, a):
        if not isinstance(a, int):
            raise UsageError(f"not a Z site: {a!r}")

    def origin_ball(self, r):
        return list(range(-r, r + 1))

    def ball_size(self, r):
        return 2 * r + 1

    def parse_site(self, text):
        return parse_int(text, "Z site")

    def format_site(self, a):
        return str(a)


class Z2Lattice(Lattice):
    kind = "z2"

    @property
    def origin(self):
        return (0, 0)

    def add(self, a, b):
        return (a[0] + b[0], a[1] + b[1])

    def neg(self, a):
        return (-a[0], -a[1])

    def norm(self, a):
        # word norm w.r.t. the unit generators = L1
        return abs(a[0]) + abs(a[1])

    def size_norm(self, a):
        return max(abs(a[0]), abs(a[1]))

    def generators(self):
        return [(1, 0), (-1, 0), (0, 1), (0, -1)]

    def validate_site(self, a):
        if not (isinstance(a, tuple) and len(a) == 2
                and all(isinstance(c, int) for c in a)):
            raise UsageError(f"not a Z^2 site: {a!r}")

    def origin_ball(self, r):
        out = []
        for x in range(-r, r + 1):
            rest = r - abs(x)
            for y in range(-rest, rest + 1):
                out.append((x, y))
        return out

    def ball_size(self, r):
        return 2 * r * r + 2 * r + 1

    def box(self, r: int) -> list[tuple[int, int]]:
        """L-inf box of radius r (the size-<=r sites)."""
        return [(x, y) for x in range(-r, r + 1) for y in range(-r, r + 1)]

    def parse_site(self, text):
        parts = text.split(",")
        if len(parts) != 2:
            raise UsageError(f"bad Z^2 site: {text!r}")
        return tuple(parse_int(x, "Z^2 site coordinate") for x in parts)

    def format_site(self, a):
        return f"{a[0]},{a[1]}"


def reduce_word(letters: Iterable[int]) -> tuple[int, ...]:
    """Cancel adjacent inverse pairs; the result is the canonical reduced word."""
    stack: list[int] = []
    for g in letters:
        if stack and stack[-1] == -g:
            stack.pop()
        else:
            stack.append(g)
    return tuple(stack)


class FreeLattice(Lattice):
    """Free group F_n; sites are reduced words over signed generators 1..n."""

    def __init__(self, n: int):
        if n < 1:
            raise UsageError("free group rank must be >= 1")
        if n > 26:
            raise UsageError("free group rank capped at 26 (letter names a..z)")
        self.n = n
        self.kind = f"free:{n}"

    @property
    def origin(self):
        return ()

    def add(self, a, b):
        # sites are reduced words (``parse_site`` reduces, ``validate_site``
        # refuses any other, ``neg`` keeps a word reduced), so a + b cancels
        # only where a's tail meets b's head
        if not (a and b and a[-1] == -b[0]):
            return a + b
        n, i = min(len(a), len(b)), 1
        while i < n and a[-1 - i] == -b[i]:
            i += 1
        return a[:len(a) - i] + b[i:]

    def neg(self, a):
        return tuple(-g for g in reversed(a))

    def norm(self, a):
        return len(a)

    def generators(self):
        out = []
        for i in range(1, self.n + 1):
            out.append((i,))
            out.append((-i,))
        return out

    def validate_site(self, a):
        if not isinstance(a, tuple):
            raise UsageError(f"not a free-group site: {a!r}")
        for g in a:
            if not isinstance(g, int) or g == 0 or abs(g) > self.n:
                raise UsageError(f"bad generator {g!r} in word {a!r}")
        if reduce_word(a) != a:
            raise UsageError(f"word not reduced: {a!r}")

    def origin_ball(self, r):
        # BFS with last-letter exclusion; children appended in generator order,
        # so the listing is by norm and deterministic.
        out: list[tuple[int, ...]] = [()]
        frontier: list[tuple[int, ...]] = [()]
        signed = [g for i in range(1, self.n + 1) for g in (i, -i)]
        for _ in range(r):
            nxt = []
            for w in frontier:
                last = w[-1] if w else 0
                for g in signed:
                    if g != -last:
                        nxt.append(w + (g,))
            out.extend(nxt)
            frontier = nxt
        return out

    def ball_size(self, r: int) -> int:
        if r == 0:
            return 1
        q = 2 * self.n
        if self.n == 1:
            return 2 * r + 1
        return 1 + q * ((q - 1) ** r - 1) // (q - 2)

    def site_cost(self, r: int) -> int:
        # add copies both words into a new tuple, so its cost grows with the
        # word length: weight r + 1 (its Python loop runs only over the
        # letters that cancel at the junction, at most the shorter word)
        return r + 1

    def parse_site(self, text):
        text = text.strip()
        # no letter spells the identity 1; below F_5, e also reads as it
        if text == "1" or (text == "e" and self.n < 5):
            return ()
        letters = []
        for tok in text.split():
            if len(tok) != 1 or not tok.isalpha():
                raise UsageError(f"bad free-group letter: {tok!r}")
            idx = ord(tok.lower()) - ord("a") + 1
            if idx > self.n:
                raise UsageError(f"generator {tok!r} outside F_{self.n}")
            letters.append(-idx if tok.isupper() else idx)
        word = reduce_word(letters)
        return word

    def format_site(self, a):
        if not a:
            return "1"
        return " ".join(
            chr(ord("a") + abs(g) - 1).upper() if g < 0
            else chr(ord("a") + g - 1)
            for g in a)


@lru_cache(maxsize=None)
def lattice_by_kind(kind: str) -> Lattice:
    if kind == "z":
        return ZLattice()
    if kind == "z2":
        return Z2Lattice()
    if kind.startswith("free:"):
        return FreeLattice(parse_int(kind.split(":", 1)[1], "free-group rank"))
    raise UsageError(f"unknown lattice kind: {kind!r}")


Z = lattice_by_kind("z")
Z2 = lattice_by_kind("z2")


def free(n: int) -> FreeLattice:
    return lattice_by_kind(f"free:{n}")  # type: ignore[return-value]


def size_count(lattice: Lattice, R: int) -> int:
    """Number of sites of size <= R: (2R + 1)^2 on Z^2, |B_R| elsewhere.  Past
    2^64 sites every search but an empty one is over budget: a free group's
    ball passes that by R = 41, and is refused before its size is formed."""
    if R < 0:
        raise UsageError("support radius must be >= 0")
    if isinstance(lattice, Z2Lattice):
        return (2 * R + 1) ** 2
    if lattice.ball_size(min(R, 64)) > 2 ** 64:
        raise ResourceLimitError(f"a search box of radius {R} holds more "
                                 f"than 2^64 sites")
    return lattice.ball_size(R)


def size_domain(lattice: Lattice, R: int) -> list:
    """Sites of size <= R: the L-inf box on Z^2 (x-major), the ball B_R
    elsewhere."""
    size_count(lattice, R)
    if isinstance(lattice, Z2Lattice):
        return lattice.box(R)
    return lattice.origin_ball(R)
