"""Exception types shared across the package."""

import json
import math


class XorqError(Exception):
    """Base class for all errors raised by this package."""


class NotSquareError(XorqError):
    pass


class NotHermitianError(XorqError):
    """index: the flat stack position of the matrix that failed, or None
    when one matrix was checked."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class DimensionMismatchError(XorqError):
    pass


class BadPermutationError(XorqError):
    pass


class NotAPermutationError(XorqError):
    pass


class TraceNormExceededError(XorqError):
    """Raised when a candidate game matrix has trace norm above 1."""

    def __init__(self, norm: float):
        super().__init__(f"trace norm {norm:.12g} exceeds 1")
        self.norm = norm


# Entries of the largest dense array the package builds from input sizes.
DENSE_AMPLITUDE_CAP = 2**24


class TooLargeError(XorqError):
    """Raised before building a dense array above DENSE_AMPLITUDE_CAP entries."""


def check_dense(entries: int, what: str):
    """TooLargeError when a dense array of this many entries, named by what,
    is above DENSE_AMPLITUDE_CAP; called before allocating it. A count of
    more than 64 bits is given by its bit length, so every count prints."""
    if entries > DENSE_AMPLITUDE_CAP:
        bits = entries.bit_length()
        count = entries if bits <= 64 else f"2^{bits - 1} or more"
        raise TooLargeError(f"{what} has {count} entries (> 2^24), above the dense cap")


class BadArgsError(XorqError):
    pass


class FormatError(XorqError):
    """Raised on malformed serialized files."""


def json_int(x) -> int:
    """x when it is a JSON integer; FormatError for a float, bool or other."""
    if not isinstance(x, int) or isinstance(x, bool):
        raise FormatError(f"expected an integer, got {x!r}")
    return x


def load_json(path):
    """The JSON value in a file; FormatError for every parse failure, also
    the plain ValueError of an integer literal beyond Python's int-string
    limit and the RecursionError of a value nested too deep."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
            raise FormatError(f"invalid JSON: {exc}") from exc


def json_float(x) -> float:
    """x as a float when it is a JSON number: an integer that is not a bool,
    or a finite float. FormatError for a string, bool, null, NaN, infinity,
    an integer beyond the float range or any other value."""
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        raise FormatError(f"expected a number, got {x!r}")
    try:
        v = float(x)
    except OverflowError:
        raise FormatError(f"number {x} is beyond the float range") from None
    if not math.isfinite(v):
        raise FormatError(f"non-finite number {v}")
    return v


class SeesawError(XorqError):
    """A see-saw invariant failed: a half-step or state step lowered the
    value, or an effective operator lost Hermiticity."""


class SdpError(XorqError):
    pass
