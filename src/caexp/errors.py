"""Error types shared across the package.

Exit-code contract for the CLI: usage errors map to 2, resource errors to 3,
failed verification assertions to 1.
"""
import re


class UsageError(ValueError):
    """Caller violated a precondition (bad arguments, mismatched lattices, ...)."""


class ResourceLimitError(RuntimeError):
    """A bounded computation exceeded its configured budget.

    The message states the budget and the size that passed it."""


# the largest array one orbit or search may allocate.  The largest count the
# claims, tests and benchmark make against it is 144 * 10^6 bytes, the series
# of a ``freegroup --profile`` that the cell-step cap then refuses; of the
# runs that go on, 128.1 * 10^6, which the benchmark's vn2 trace table counts
# at 8 bytes a value (15 625 offsets through t=1024; its decimated spot series
# is a 16 MB uint8 array)
MAX_ARRAY_BYTES = 2 ** 28


def parse_int(text: str, what: str) -> int:
    """int(text), or a UsageError naming what the text should have been."""
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"bad {what} {text!r}") from None


# a key: a word and "=", at the start of the text or after whitespace
_KEY = re.compile(r"(?:^|\s+)(\w+)=")


def parse_fields(text: str, required, optional=()) -> dict[str, str]:
    """The KEY=VALUE fields of a rule spec, file header or CLI field.  A value
    runs to the next key, so it may hold spaces (a free-group word ``a b``);
    a bare token, a repeated, unknown or missing key is a UsageError."""
    lead, *pairs = _KEY.split(text.strip())
    keys = pairs[::2]
    bad = ([f"bad field {lead.split()[0]!r}"] if lead else []) + [
        f"repeated key {k!r}" for i, k in enumerate(keys) if k in keys[:i]] + [
        f"unknown key {k!r}" for k in keys if k not in (*required, *optional)] + [
        f"missing key {k!r}" for k in required if k not in keys]
    if bad:
        raise UsageError(f"{bad[0]} in {text.strip()!r}")
    return dict(zip(keys, pairs[1::2]))


def check_array_bytes(nbytes: int, what: str) -> None:
    if nbytes > MAX_ARRAY_BYTES:
        raise ResourceLimitError(f"{what} needs {nbytes} bytes, above the "
                                 f"{MAX_ARRAY_BYTES}-byte cap")
