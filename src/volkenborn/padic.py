"""p-adic valuations, norms and primality.

This is the metric side of the library: level sums of p-adic integrals
converge in the norm |x|_p = p**(-v_p(x)), and the convergence reports
measure error sizes through ``valuation``.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .polynomials import _as_fraction

__all__ = [
    "is_prime",
    "padic_distance",
    "valuation",
]

Rational = Union[Fraction, int]


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin with the bases _SMALL_PRIMES has no strong pseudoprime below
# this bound (Sorenson and Webster, "Strong pseudoprimes to twelve prime
# bases", 2017), so the test is exact there.
_MILLER_RABIN_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(p: int) -> bool:
    """Deterministic primality: division by the primes up to 41, then
    Miller-Rabin with those 13 bases.

    Raises ValueError for p >= 3317044064679887385961981 (about 3.3 * 10**24)
    without a factor among those primes, where the test is no longer exact,
    and for a p that is not an int (7.0 is not a prime).
    """
    if not isinstance(p, int):
        raise ValueError(f"a prime must be an int, got {type(p).__name__}")
    if p < 2:
        return False
    for b in _SMALL_PRIMES:
        if p % b == 0:
            return p == b
    if p < 43 * 43:
        return True
    if p >= _MILLER_RABIN_LIMIT:
        raise ValueError(f"primality is only decided below {_MILLER_RABIN_LIMIT}: got {p}")
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _int_valuation(n: int, p: int) -> int:
    # n != 0
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def valuation(x: Rational, p: int) -> int | float:
    """The p-adic valuation v_p(x); math.inf for x = 0."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    xf = _as_fraction(x)
    if xf == 0:
        return math.inf
    return _int_valuation(xf.numerator, p) - _int_valuation(xf.denominator, p)


def padic_distance(x: Rational, y: Rational, p: int) -> Fraction:
    """The p-adic norm p**(-v_p(x - y)) as an exact rational; 0 when x = y."""
    v = valuation(_as_fraction(x) - _as_fraction(y), p)
    return Fraction(0) if v == math.inf else Fraction(p) ** -v
