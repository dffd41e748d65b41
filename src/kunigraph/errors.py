"""Shared exception types and the size test behind the enumeration guards."""


class ResourceLimitError(ValueError):
    """An enumeration or state-vector size guard was exceeded."""


def max_exponent(base: int, limit: int) -> int:
    """Largest e with base**e <= limit, for base >= 2.

    Guards compare an exponent with this bound instead of forming the power,
    which for a huge exponent would take unbounded time and memory.
    """
    e, power = 0, base
    while power <= limit:
        e, power = e + 1, power * base
    return e
