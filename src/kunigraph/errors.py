"""Shared exception types, the q^e size guard test and the integer input test."""

from itertools import chain

import numpy as np


class ResourceLimitError(ValueError):
    """An enumeration, sweep or state-vector size guard was exceeded."""


def guarded_power(base: int, exponent: int, limit: int, guard: str) -> int:
    """base**exponent, or ResourceLimitError when it exceeds limit.

    The power is built one factor at a time and refused as soon as it
    passes limit, so a huge exponent costs at most log2(limit) + 1 steps
    and no power past the limit is formed. Bases -1, 0 and 1 never grow
    and are answered at once. guard names the limit in the message, as in
    "2^25 exceeds state guard 16777216".
    """
    if -1 <= base <= 1:
        return base**exponent
    power = 1
    for _ in range(exponent):
        power *= base
        if power > limit:
            raise ResourceLimitError(f"{base}^{exponent} exceeds {guard} {limit}")
    return power


def integer_array(values, what: str) -> np.ndarray:
    """np.asarray(values); floats, bools and strings are refused, never truncated.

    An ndarray is judged by its dtype. Any other input is also scanned entry
    by entry, because numpy promotes [True, 2] to an integer array: a bool or
    numpy bool entry among ints is refused too. An empty array passes, so the
    caller's own emptiness test decides it.
    """
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind not in "iu":
        raise ValueError(f"{what} must be integers, got dtype {arr.dtype}")
    if arr.size and not isinstance(values, np.ndarray):
        entries = values
        for _ in range(arr.ndim - 1):
            entries = chain.from_iterable(entries)
        if not {bool, np.bool_}.isdisjoint(map(type, entries)):
            raise ValueError(f"{what} must be integers, got a boolean entry")
    return arr
