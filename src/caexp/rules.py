"""Rule variants: linear rules, second-order wrappers and their inverses, the
base-kk' multiplication rule and the layered flip family.

Every rule knows its lattice, its alphabet (with the group law it is linear
for, when it is linear) and its neighborhood V; the semantics is always
``F(c)(z) = f(v -> c(z+v))``.  Construction-time validation guarantees the
all-quiescent neighborhood maps to the quiescent state, so finite support is
preserved and ``step`` never fails on data.
"""
from __future__ import annotations

from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .alphabet import Alphabet, Bits, Cyclic, Pair
from .errors import UsageError
from .lattice import Lattice, Site, Z


class Rule:
    lattice: Lattice
    alphabet: Alphabet
    neighborhood: tuple[Site, ...]
    is_linear: bool = False
    name: str = "rule"

    @property
    def q(self) -> int:
        return self.alphabet.size

    @property
    def radius(self) -> int:
        """Smallest r with V contained in B_r(0)."""
        if not self.neighborhood:
            return 0
        return max(self.lattice.norm(v) for v in self.neighborhood)

    def local(self, values: Sequence[int]) -> int:
        """Local function on states listed in neighborhood order.  The states
        may be int64 arrays of one shape, and ``local`` applies elementwise:
        ``table`` evaluates it once on arrays."""
        raise NotImplementedError

    @cached_property
    def digit_weights(self) -> tuple[int, ...]:
        """q^(n-1-i) for site i of n: a sum of states so weighed spells the
        neighbourhood in base q, site 0 leading."""
        n = len(self.neighborhood)
        return tuple(self.q ** (n - 1 - i) for i in range(n))

    @cached_property
    def table(self) -> np.ndarray:
        """``local`` of all q^n neighbourhoods of n sites, built once: entry
        sum_i s_i * digit_weights[i] holds local(s_0, ..., s_{n-1})."""
        q = self.q
        index = np.arange(q ** len(self.neighborhood), dtype=np.int64)
        digits = [index // w % q for w in self.digit_weights]
        return np.asarray(self.local(digits), dtype=np.int64)

    @cached_property
    def finishes(self) -> dict[int, int]:
        """The sparse step's finish cache: a digit sum x (weighed by
        ``digit_weights``) maps to ``local`` of its base-q digits, each entry
        filled by one scalar ``local`` call, at most ``dense1d.MAX_TABLE`` of
        them.  It is not ``table``, which evaluates ``local`` on arrays for
        the dense kernels, so that the sparse step stays a check on them."""
        return {}

    def describe(self) -> str:
        return self.name

    def _check_neighborhood(self) -> None:
        seen = set()
        for v in self.neighborhood:
            self.lattice.validate_site(v)
            if v in seen:
                raise UsageError(f"duplicate neighborhood site {v!r}")
            seen.add(v)
        if self.local(tuple(0 for _ in self.neighborhood)) != 0:
            raise UsageError("rule does not fix the quiescent state")


class LinearRule(Rule):
    """c(z) -> sum_v coeffs[v] * c(z+v) mod m.  Linear for addition mod m."""

    is_linear = True

    def __init__(self, lattice: Lattice, m: int, coeffs: Mapping[Site, int]):
        self.lattice = lattice
        self.alphabet = Cyclic(m)
        cleaned: dict[Site, int] = {}
        for site, a in coeffs.items():
            lattice.validate_site(site)
            a = a % m
            if a == 0:
                raise UsageError(f"coefficient at {site!r} is 0 mod {m}")
            cleaned[site] = a
        if not cleaned:
            raise UsageError("linear rule needs at least one coefficient")
        self.coeffs = cleaned
        self.neighborhood = tuple(sorted(cleaned))
        self._check_neighborhood()

    @property
    def m(self) -> int:
        return self.alphabet.size

    def local(self, values):
        m = self.m
        return sum(self.coeffs[v] * x for v, x in zip(self.neighborhood, values)) % m

    def describe(self):
        """The spec ``presets.parse_rule`` reads back into this rule."""
        lat = self.lattice
        terms = (";" if lat.kind == "z2" else ",").join(
            f"{lat.format_site(v)}:{a}" for v, a in sorted(self.coeffs.items()))
        where = "" if lat.kind == "z" else f" lattice={lat.kind}"
        return f"linear{where} m={self.m} coeffs={terms}"


class MultRule(Rule):
    """Multiplication by k in base m = k*k' on Z; no carry propagation."""

    def __init__(self, k: int, kp: int):
        if k < 2 or kp < 2:
            raise UsageError("multiplication rule needs k, k' >= 2")
        self.k = k
        self.kp = kp
        self.lattice = Z
        self.alphabet = Cyclic(k * kp)
        self.neighborhood = (0, 1)
        self.name = f"mult:{k},{kp}"
        self._check_neighborhood()

    @property
    def m(self) -> int:
        return self.alphabet.size

    def local(self, values):
        c0, c1 = values
        return (self.k * c0) % self.m + (self.k * c1) // self.m


class SecondOrderRule(Rule):
    """Reversible wrapper on Q x Q: (c, d) -> (d, F(d) (+) c)."""

    def __init__(self, inner: Rule, name: str | None = None):
        if not isinstance(inner.alphabet, Cyclic):
            raise UsageError("second-order construction expects a cyclic alphabet")
        self.inner = inner
        self.lattice = inner.lattice
        self.alphabet = Pair(inner.q)
        nbhd = sorted(set(inner.neighborhood) | {inner.lattice.origin})
        self.neighborhood = tuple(nbhd)
        self._origin_idx = nbhd.index(inner.lattice.origin)
        self._inner_idx = [nbhd.index(v) for v in inner.neighborhood]
        self.is_linear = inner.is_linear
        self.name = name or f"SO({inner.describe()})"
        self._check_neighborhood()

    def local(self, values):
        q = self.inner.q
        pairs = [divmod(s, q) for s in values]
        b_here = pairs[self._origin_idx][1]
        a_here = pairs[self._origin_idx][0]
        f_val = self.inner.local([pairs[i][1] for i in self._inner_idx])
        return b_here * q + (f_val + a_here) % q


class SecondOrderInverseRule(Rule):
    """Inverse of the second-order wrapper: (c, d) -> (inv(F(c)) (+) d, c)."""

    def __init__(self, forward: SecondOrderRule):
        if not isinstance(forward, SecondOrderRule):
            raise UsageError("expected a second-order rule")
        inner = forward.inner
        self.inner = inner
        self.forward = forward
        self.lattice = inner.lattice
        self.alphabet = Pair(inner.q)
        self.neighborhood = forward.neighborhood
        self._origin_idx = forward._origin_idx
        self._inner_idx = forward._inner_idx
        self.is_linear = inner.is_linear
        self.name = f"SO_inv({forward.describe()})"
        self._check_neighborhood()

    def local(self, values):
        q = self.inner.q
        pairs = [divmod(s, q) for s in values]
        a_here, b_here = pairs[self._origin_idx]
        f_val = self.inner.local([pairs[i][0] for i in self._inner_idx])
        return ((b_here - f_val) % q) * q + a_here


class LayeredFlipRule(Rule):
    """k copies of a radius-1 binary rule plus a one-shot flip layer.

    Layer i of the image is F applied to layer i, XOR the previous step's
    layer k+1 read at offset -3i; layer k+1 is reset to 0, so the rule is
    never surjective while staying k'-expansive for k' <= k.
    """

    def __init__(self, inner: Rule, k: int):
        if inner.lattice != Z:
            raise UsageError("layered flip is a Z construction")
        if inner.q != 2:
            raise UsageError("layered flip needs a binary inner rule")
        if inner.radius != 1:
            raise UsageError("layered flip needs an inner rule of radius 1")
        if k < 1:
            raise UsageError("layer count k must be >= 1")
        self.inner = inner
        self.k = k
        self.lattice = Z
        self.alphabet = Bits(k + 1)
        nbhd = sorted(set(inner.neighborhood) | {0} | {-3 * i for i in range(1, k + 1)})
        self.neighborhood = tuple(nbhd)
        self._inner_idx = [nbhd.index(v) for v in inner.neighborhood]
        self._flip_idx = [nbhd.index(-3 * i) for i in range(1, k + 1)]
        self.is_linear = inner.is_linear
        # the spec ``layered:k`` names the f2 inner rule
        f2 = isinstance(inner, LinearRule) and inner.coeffs == {-1: 1, 1: 1}
        self.name = (f"layered:{k}" if f2
                     else f"layered({inner.describe()},{k})")
        self._check_neighborhood()

    def local(self, values):
        out = 0
        flip_layer = self.k  # 0-based bit index of layer k+1
        for i in range(self.k):
            f_val = self.inner.local(
                [(values[j] >> i) & 1 for j in self._inner_idx])
            flip = (values[self._flip_idx[i]] >> flip_layer) & 1
            out |= ((f_val ^ flip) & 1) << i
        return out
