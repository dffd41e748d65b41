"""Prime fields GF(p): the modulus check and primitive elements.

Elements are plain ints. Callers add and multiply them mod p themselves and
invert a scalar with pow(x, -1, p), as matrix.row_reduce does each pivot.
A PrimeField holds only its modulus.
"""

from __future__ import annotations

from .errors import is_int

MAX_MODULUS = 1 << 20


def _is_prime(p: int) -> bool:
    """Deterministic trial-division primality test."""
    return p >= 2 and _prime_factors(p) == [p]


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
    """The finite field GF(p) for a prime p <= MAX_MODULUS; immutable and hashable.

    Its one attribute is p; elements are plain ints, reduced mod p by the caller.
    """

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not is_int(p):
            raise ValueError(f"modulus must be an integer, got {p!r}")
        if p > MAX_MODULUS:
            raise ValueError(f"modulus {p} exceeds supported bound {MAX_MODULUS}")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):
        raise AttributeError("PrimeField is immutable")

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    # -- primitive elements ------------------------------------------------

    def is_primitive(self, g: int) -> bool:
        """True iff g has multiplicative order p-1."""
        g %= self.p
        if g == 0:
            return False
        for f in _prime_factors(self.p - 1):
            if pow(g, (self.p - 1) // f, self.p) == 1:
                return False
        return True

