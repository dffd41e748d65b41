"""Shared exception types, the q^e size guard test and the one integer rule.

Every input is an integer read exactly, never truncated, and a bool is not one:
read_int reads argv text, is_int one value, integer_array a list or array and
json_counts the counts of a JSON object. Each refusal is a ValueError.
"""

from itertools import chain

import numpy as np


class ResourceLimitError(ValueError):
    """An enumeration, sweep or state-vector size guard was exceeded."""


def guarded_power(base: int, exponent: int, limit: int, guard: str) -> int:
    """base**exponent, or ResourceLimitError when it exceeds limit.

    The power is built one factor at a time and refused as soon as it
    passes limit, so a huge exponent costs at most log2(limit) + 1 steps
    and no power past the limit is formed. Bases -1, 0 and 1 never grow
    and are answered at once. A negative exponent is no size and is a
    ValueError. guard names the limit in the message, as in
    "2^25 exceeds state guard 16777216".
    """
    if exponent < 0:
        raise ValueError(f"{guard} needs a nonnegative exponent, got {exponent}")
    if -1 <= base <= 1:
        return base**exponent
    power = 1
    for _ in range(exponent):
        power *= base
        if power > limit:
            raise ResourceLimitError(f"{base}^{exponent} exceeds {guard} {limit}")
    return power


def is_int(value) -> bool:
    """True iff value is a Python int and not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def read_int(text: str, what: str) -> int:
    """The integer that text spells in ASCII digits, with optional whitespace around them."""
    digits = text.strip()
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{what} must be written in ASCII digits, got {text!r}")
    return int(digits)


def integer_array(values, what: str) -> np.ndarray:
    """np.asarray(values); floats, bools and strings are refused, never truncated.

    An ndarray is judged by its dtype. A list is also scanned, because numpy
    promotes [True, 2] and [np.array(True), 2] to integer arrays: each innermost
    entry must be a numpy integer or an int that is not a bool. An empty array
    passes, so the caller's own emptiness test decides it.
    """
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind not in "iu":
        raise ValueError(f"{what} must be integers, got dtype {arr.dtype}")
    if arr.size and arr.ndim and not isinstance(values, np.ndarray):
        entries = values
        for _ in range(arr.ndim - 1):
            entries = chain.from_iterable(entries)
        if not {int}.issuperset(map(type, entries)):  # else every entry is a plain int
            kinds = set(map(type, np.array(values, dtype=object).flat))
            if not kinds.isdisjoint((bool, np.bool_)):
                raise ValueError(f"{what} must be integers, got a boolean entry")
            if not all(issubclass(kind, (int, np.integer)) for kind in kinds):
                names = sorted(kind.__name__ for kind in kinds)
                raise ValueError(f"{what} must be integers, got entries of type {names}")
    return arr


def json_counts(payload, counts: tuple[str, ...], *keys: str) -> list[int]:
    """The int values under counts of a JSON object that also holds keys."""
    if not isinstance(payload, dict):
        raise ValueError(f"expected a JSON object, got {type(payload).__name__}")
    if missing := [key for key in (*counts, *keys) if key not in payload]:
        raise ValueError(f"missing key {missing[0]!r}")
    for key in counts:
        if not is_int(payload[key]):
            raise ValueError(f"{key!r} must be an integer, got {payload[key]!r}")
    return [payload[key] for key in counts]
