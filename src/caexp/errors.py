"""Error types shared across the package.

Exit-code contract for the CLI: usage errors map to 2, resource errors to 3,
failed verification assertions to 1.
"""


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


def check_array_bytes(nbytes: int, what: str) -> None:
    if nbytes > MAX_ARRAY_BYTES:
        raise ResourceLimitError(f"{what} needs {nbytes} bytes, above the "
                                 f"{MAX_ARRAY_BYTES}-byte cap")
