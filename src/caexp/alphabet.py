"""State alphabets and the group laws rules are linear for.

States are stored as integers 0..size-1 everywhere; structured alphabets
(pairs, bit vectors) define how those integers encode tuples and
what the componentwise addition law is.
"""
from __future__ import annotations

from .errors import UsageError


class Alphabet:
    size: int

    def add(self, s: int, t: int) -> int:
        raise NotImplementedError

    @property
    def moduli(self) -> tuple[int, ...]:
        """Cyclic factors: every alphabet here is a product of Z_{m_i}."""
        raise NotImplementedError

    def components(self, s: int) -> tuple[int, ...]:
        raise NotImplementedError

    def from_components(self, comps) -> int:
        raise NotImplementedError

    def __eq__(self, other):
        return type(self) is type(other) and self.__dict__ == other.__dict__

    def __hash__(self):
        return hash((type(self).__name__, tuple(sorted(self.__dict__.items()))))


class Cyclic(Alphabet):
    """Z_m with addition mod m."""

    def __init__(self, m: int):
        if m < 2:
            raise UsageError("alphabet size must be >= 2")
        self.size = m

    def add(self, s, t):
        return (s + t) % self.size

    @property
    def moduli(self):
        return (self.size,)

    def components(self, s):
        return (s,)

    def from_components(self, comps):
        return comps[0] % self.size

    def __repr__(self):
        return f"Z_{self.size}"


class Pair(Alphabet):
    """Q x Q for Q = Z_q, encoded as a*q + b, with componentwise addition."""

    def __init__(self, q: int):
        if q < 2:
            raise UsageError("component size must be >= 2")
        self.q = q
        self.size = q * q

    def encode(self, a: int, b: int) -> int:
        return a * self.q + b

    def add(self, s, t):
        q = self.q
        sa, sb = divmod(s, q)
        ta, tb = divmod(t, q)
        return ((sa + ta) % q) * q + (sb + tb) % q

    @property
    def moduli(self):
        return (self.q, self.q)

    def components(self, s):
        return divmod(s, self.q)

    def from_components(self, comps):
        return (comps[0] % self.q) * self.q + comps[1] % self.q

    def __repr__(self):
        return f"(Z_{self.q})^2"


class Bits(Alphabet):
    """{0,1}^layers encoded as a bitmask, with XOR as the group law."""

    def __init__(self, layers: int):
        if layers < 1:
            raise UsageError("need at least one layer")
        self.layers = layers
        self.size = 1 << layers

    def add(self, s, t):
        return s ^ t

    @property
    def moduli(self):
        return (2,) * self.layers

    def components(self, s):
        return tuple((s >> i) & 1 for i in range(self.layers))

    def from_components(self, comps):
        out = 0
        for i, c in enumerate(comps):
            out |= (c & 1) << i
        return out

    def __repr__(self):
        return f"(Z_2)^{self.layers}"
