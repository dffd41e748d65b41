"""Prime fields GF(p): the modulus check, inverses and primitive elements."""

from __future__ import annotations

import numpy as np

MAX_MODULUS = 1 << 20


def _is_prime(p: int) -> bool:
    """Deterministic trial-division primality test."""
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def _prime_factors(m: int) -> list[int]:
    """Distinct prime factors of m, ascending."""
    factors = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            factors.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        factors.append(m)
    return factors


class PrimeField:
    """The finite field GF(p) for a prime modulus p.

    Elements are plain ints, added and multiplied mod p by the caller;
    inv returns the canonical representative in [0, p).
    """

    __slots__ = ("p", "_inverse")

    def __init__(self, p: int):
        if not isinstance(p, int) or isinstance(p, bool):
            raise TypeError("modulus must be an integer")
        if p > MAX_MODULUS:
            raise ValueError(f"modulus {p} exceeds supported bound {MAX_MODULUS}")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        object.__setattr__(self, "p", p)
        # inverse table, filled on first use by inverses()
        object.__setattr__(self, "_inverse", None)

    def __setattr__(self, name, value):
        raise AttributeError("PrimeField is immutable")

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def inv(self, a: int) -> int:
        """Multiplicative inverse of a nonzero element."""
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return int(self.inverses()[a])

    def inverses(self) -> np.ndarray:
        """Read-only table of inverses indexed by element; entry 0 holds 0."""
        if self._inverse is None:
            table = np.array(
                [0] + [pow(x, self.p - 2, self.p) for x in range(1, self.p)], dtype=np.int64
            )
            table.setflags(write=False)
            object.__setattr__(self, "_inverse", table)
        return self._inverse

    # -- primitive elements ------------------------------------------------

    def is_primitive(self, g: int) -> bool:
        """True iff g has multiplicative order p-1."""
        g %= self.p
        if g == 0:
            return False
        if self.p == 2:
            return g == 1
        for f in _prime_factors(self.p - 1):
            if pow(g, (self.p - 1) // f, self.p) == 1:
                return False
        return True

