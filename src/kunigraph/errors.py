"""Shared exception types and the size test behind every q^e guard."""


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
