"""Exact arithmetic in prime fields GF(p)."""

from __future__ import annotations

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

    Elements are plain ints; every operation returns the canonical
    representative in [0, p).
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
        # lazily filled inverse table, index 0 unused
        object.__setattr__(self, "_inverse", None)

    def __setattr__(self, name, value):
        raise AttributeError("PrimeField is immutable")

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    # -- scalar arithmetic on canonical int representatives ---------------

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def inv(self, a: int) -> int:
        """Multiplicative inverse of a nonzero element."""
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        if self._inverse is None:
            table = [0] * self.p
            for x in range(1, self.p):
                table[x] = pow(x, self.p - 2, self.p)
            object.__setattr__(self, "_inverse", table)
        return self._inverse[a]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return pow(self.inv(a), -e, self.p)
        return pow(a % self.p, e, self.p)

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


def find_primitive(field: PrimeField) -> int:
    """Smallest element of GF(p) with multiplicative order p-1.

    For p = 2 the only nonzero element, 1, is returned.
    """
    if field.p == 2:
        return 1
    for g in range(2, field.p):
        if field.is_primitive(g):
            return g
    raise RuntimeError("no primitive element found")  # unreachable for prime p
