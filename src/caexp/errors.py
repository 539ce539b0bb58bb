"""Error types shared across the package.

Exit-code contract for the CLI: usage errors map to 2, resource errors to 3,
failed verification assertions to 1.
"""


class UsageError(ValueError):
    """Caller violated a precondition (bad arguments, mismatched lattices, ...)."""


class ResourceLimitError(RuntimeError):
    """A bounded computation exceeded its configured budget.

    The message states the budget and the size that passed it."""


# the largest array one orbit or search may allocate: above the 128 MB int64
# spot series of the vn2 trace table (15 625 offsets through t=1024), the
# largest a benchmark search builds
MAX_ARRAY_BYTES = 2 ** 28


def parse_int(text: str, what: str) -> int:
    """int(text), or a UsageError naming what the text should have been."""
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"bad {what} {text!r}") from None


def check_array_bytes(nbytes: int, what: str) -> None:
    if nbytes > MAX_ARRAY_BYTES:
        raise ResourceLimitError(f"{what} needs {nbytes} bytes, above the "
                                 f"{MAX_ARRAY_BYTES}-byte cap")
