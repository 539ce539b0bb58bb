"""Named rule presets and the textual rule syntax used by the CLI.

Presets: ``f2``, ``f3`` (sum of the two neighbors mod 2/3 on Z), ``psi`` and
``upsilon`` (their second-order wrappers), ``vn2`` and ``tri2`` (mod-2 sums
over the von Neumann / triangular neighborhoods on Z^2), ``mult:k,k'``,
``lambda:n`` (totalistic mod-2 rule on F_n) and ``layered:k``.

Arbitrary linear rules: ``linear m=3 coeffs=-1:1,1:1`` with an optional
``lattice=<z2|free:n>`` field (Z^2 coefficient entries are then separated by
';', e.g. ``coeffs=0,1:1;1,0:1``; free-group words keep their spaces,
``coeffs=1:1,a b:1``).  The fields are read by ``errors.parse_fields``, so
a bare token, a missing, unknown or repeated key is refused, and
``parse_rule(r.describe())`` reads back every linear rule and every preset
r (a linear preset as its ``linear`` spec).
"""
from __future__ import annotations

from .errors import UsageError, parse_fields, parse_int
from .lattice import Z, Z2, free, lattice_by_kind
from .rules import LayeredFlipRule, LinearRule, MultRule, Rule, SecondOrderRule


def f2() -> LinearRule:
    return LinearRule(Z, 2, {1: 1, -1: 1})


def f3() -> LinearRule:
    return LinearRule(Z, 3, {1: 1, -1: 1})


def psi() -> SecondOrderRule:
    return SecondOrderRule(f3(), name="psi")


def upsilon() -> SecondOrderRule:
    return SecondOrderRule(f2(), name="upsilon")


def vn2() -> LinearRule:
    sites = [(0, 0), (0, 1), (1, 0), (0, -1), (-1, 0)]
    return LinearRule(Z2, 2, {s: 1 for s in sites})


def tri2() -> LinearRule:
    sites = [(-1, 1), (1, 1), (0, 0), (0, -1)]
    return LinearRule(Z2, 2, {s: 1 for s in sites})


def mult(k: int, kp: int) -> MultRule:
    return MultRule(k, kp)


def lambda_rule(n: int) -> LinearRule:
    """Totalistic mod-2 rule on F_n: cell plus all 2n neighbors."""
    if n < 1:
        raise UsageError("lambda rule needs n >= 1")
    lat = free(n)
    coeffs = {lat.origin: 1}
    for g in lat.generators():
        coeffs[g] = 1
    return LinearRule(lat, 2, coeffs)


def layered(k: int) -> LayeredFlipRule:
    return LayeredFlipRule(f2(), k)


_SIMPLE = {"f2": f2, "f3": f3, "psi": psi, "upsilon": upsilon,
           "vn2": vn2, "tri2": tri2}
_FAMILIES = {"mult": (mult, 2), "lambda": (lambda_rule, 1),
             "layered": (layered, 1)}  # constructor, argument count


def _parse_linear_spec(text: str) -> LinearRule:
    fields = parse_fields(text, ("m", "coeffs"), ("lattice",))
    lat = lattice_by_kind(fields.get("lattice", "z"))
    m = parse_int(fields["m"], "modulus")
    raw = fields["coeffs"]
    # a Z^2 site holds a comma, so Z^2 entries are separated by ";" only
    entries = raw.split(";" if ";" in raw or lat == Z2 else ",")
    coeffs = {}
    for entry in entries:
        site_text, _, coef_text = entry.rpartition(":")
        if not site_text:
            raise UsageError(f"bad coefficient entry {entry!r}")
        site = lat.parse_site(site_text)
        if site in coeffs:
            raise UsageError(f"repeated coefficient site {site_text!r}")
        coeffs[site] = parse_int(coef_text, "coefficient")
    return LinearRule(lat, m, coeffs)


def parse_rule(text: str) -> Rule:
    token = text.strip()
    if token.partition(" ")[0] == "linear":
        return _parse_linear_spec(token[len("linear"):])
    if ":" in token:
        name, args = token.split(":", 1)
        if name not in _FAMILIES:
            raise UsageError(f"unknown rule family {name!r}")
        make, arity = _FAMILIES[name]
        nums = [parse_int(x, "rule argument") for x in args.split(",")]
        if len(nums) != arity:
            raise UsageError(f"bad rule arguments in {token!r}")
        return make(*nums)
    if token in _SIMPLE:
        return _SIMPLE[token]()
    raise UsageError(f"unknown rule preset {token!r}")
