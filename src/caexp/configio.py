"""Text format for configurations.

Header line: ``lattice=<z|z2|free:n> q=<int> quiescent=<int>`` (quiescent
optional), read by ``errors.parse_fields``, so a bare token, a missing,
unknown or repeated key is refused; then one ``site<TAB>state`` line per
support entry, in ``Lattice.format_site``'s syntax, which ``parse_site``
reads back: Z ``7``, Z^2 ``3,-2``, free groups whitespace-separated letters
with uppercase meaning inverse (``a b A``) and ``1`` for the identity.  So
``loads(dumps(c)) == c`` for every configuration.
"""
from __future__ import annotations

from .config import Configuration
from .errors import UsageError, parse_fields, parse_int
from .lattice import lattice_by_kind


def dumps(c: Configuration) -> str:
    lines = [f"lattice={c.lattice.kind} q={c.q} quiescent=0"]
    for site in c.support():
        lines.append(f"{c.lattice.format_site(site)}\t{c.cells[site]}")
    return "\n".join(lines) + "\n"


def loads(text: str) -> Configuration:
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise UsageError("empty configuration file")
    fields = parse_fields(lines[0], ("lattice", "q"), ("quiescent",))
    lattice = lattice_by_kind(fields["lattice"])
    q = parse_int(fields["q"], "state count")
    quiescent = parse_int(fields.get("quiescent", "0"), "quiescent state")
    if quiescent != 0:
        raise UsageError("only quiescent state 0 is supported")
    cells = {}
    for ln in lines[1:]:
        if "\t" not in ln:
            raise UsageError(f"expected site<TAB>state: {ln!r}")
        site_text, state_text = ln.split("\t", 1)
        site = lattice.parse_site(site_text)
        state = parse_int(state_text, "state")
        if site in cells:
            raise UsageError(f"duplicate site {site_text!r}")
        cells[site] = state
    return Configuration(lattice, q, cells)


def save(c: Configuration, path) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dumps(c))
    except OSError as exc:
        raise UsageError(f"cannot write configuration file: {exc}") from None


def load(path) -> Configuration:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read configuration file: {exc}") from None
    return loads(text)
