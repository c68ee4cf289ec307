"""Exact coefficient rings: the integers, the rationals, and prime fields.

Ring elements are plain Python values -- ``int`` for Z and for F_p residues
(kept reduced in ``[0, p)``), ``fractions.Fraction`` for Q (always in lowest
terms with positive denominator).  A :class:`Ring` instance normalizes such
values and performs the arithmetic on them, so polynomials and operator
elements only ever carry one ring reference plus plain scalars.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt


class NonUnitError(ArithmeticError):
    """Inversion (or exact division) was asked of a non-unit."""


MODULUS_LIMIT = 1 << 40  # prime fields need p below it, so trial division stops by 2^20 steps


def is_prime(m: int) -> bool:
    """Deterministic trial division; moduli stay below ``MODULUS_LIMIT``."""
    return m >= 2 and all(m % d for d in range(2, isqrt(m) + 1))


def primes_upto(bound: int) -> list[int]:
    """The primes <= bound, by the sieve of Eratosthenes."""
    if bound < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for d in range(2, isqrt(bound) + 1):
        if sieve[d]:
            sieve[d * d :: d] = bytes(len(range(d * d, bound + 1, d)))
    return [m for m, flag in enumerate(sieve) if flag]


@dataclass(frozen=True)
class Ring:
    """Descriptor of an exact coefficient ring.

    ``kind`` is one of ``"Z"``, ``"Q"``, ``"Fp"``; ``p`` is the modulus and
    is nonzero exactly for prime fields.
    """

    kind: str
    p: int = 0

    def __post_init__(self):
        if self.kind not in ("Z", "Q", "Fp"):
            raise ValueError(f"unknown ring kind {self.kind!r}")
        if self.kind == "Fp":
            if self.p >= MODULUS_LIMIT:
                raise ValueError(f"modulus {self.p} is not below the limit of 2^40")
            if not is_prime(self.p):
                raise ValueError(f"modulus {self.p} is not prime")
        elif self.p:
            raise ValueError("only prime fields carry a modulus")

    def __str__(self) -> str:
        return f"F{self.p}" if self.kind == "Fp" else self.kind

    # -- structure queries -------------------------------------------------

    def characteristic(self) -> int:
        return self.p if self.kind == "Fp" else 0

    def is_field(self) -> bool:
        return self.kind != "Z"

    def factorial_is_unit(self, n: int) -> bool:
        """Whether n! is a unit: always in Q, iff p > n in F_p, iff n <= 1 in Z."""
        if n < 1:
            raise ValueError("n must be >= 1")
        if self.kind == "Q":
            return True
        if self.kind == "Fp":
            return self.p > n
        return n <= 1

    # -- element construction ------------------------------------------------

    def zero(self):
        return Fraction(0) if self.kind == "Q" else 0

    def one(self):
        return Fraction(1) if self.kind == "Q" else 1

    def of_int(self, k: int):
        if self.kind == "Fp":
            return k % self.p
        if self.kind == "Q":
            return Fraction(k)
        return k

    def of_fraction(self, fr: Fraction):
        """Map an exact rational into the ring, when that makes sense."""
        if self.kind == "Q":
            return Fraction(fr)
        if fr.denominator == 1:
            return self.of_int(fr.numerator)
        if self.kind == "Fp":
            return self.mul(self.of_int(fr.numerator), self.inv(self.of_int(fr.denominator)))
        raise NonUnitError(f"{fr} has no image in Z")

    def coerce(self, c):
        """The element of this ring that an int or a Fraction stands for."""
        if isinstance(c, Fraction):
            return c if self.kind == "Q" else self.of_fraction(c)
        return self.of_int(c)

    # -- arithmetic ----------------------------------------------------------

    def add(self, a, b):
        return (a + b) % self.p if self.kind == "Fp" else a + b

    def sub(self, a, b):
        return (a - b) % self.p if self.kind == "Fp" else a - b

    def mul(self, a, b):
        return (a * b) % self.p if self.kind == "Fp" else a * b

    def neg(self, a):
        return (-a) % self.p if self.kind == "Fp" else -a

    def is_zero(self, a) -> bool:
        return a == 0

    def is_unit(self, a) -> bool:
        if self.kind == "Z":
            return a in (1, -1)
        return a != 0

    def inv(self, a):
        """Multiplicative inverse; raises NonUnitError for non-units."""
        if not self.is_unit(a):
            raise NonUnitError(f"{a} is not a unit of {self}")
        if self.kind == "Fp":
            return pow(a, self.p - 2, self.p)
        if self.kind == "Q":
            return 1 / Fraction(a)
        return a  # 1 and -1 are self-inverse


ZZ = Ring("Z")
QQ = Ring("Q")


def GF(p: int) -> Ring:
    """The prime field F_p; rejects composite moduli at construction."""
    return Ring("Fp", p)


def is_numeral(text: str) -> bool:
    """Whether ``text`` is one or more ASCII digits 0-9: the numerals every reader of input takes."""
    return text.isascii() and text.isdigit()


def ring_from_text(text: str) -> Ring:
    """Parse a ring literal: ``Z``, ``Q``, ``F<p>`` or ``Fp(<p>)``."""
    t = text.strip()
    if t == "Z":
        return ZZ
    if t == "Q":
        return QQ
    if t.startswith("Fp(") and t.endswith(")"):
        body = t[3:-1]
    elif t.startswith("F"):
        body = t[1:]
    else:
        raise ValueError(f"unknown ring literal {text!r}")
    if not is_numeral(body):
        raise ValueError(f"unknown ring literal {text!r}")
    return GF(int(body))
