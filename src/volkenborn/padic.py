"""p-adic valuations, norms, and reduction of rationals mod p**M.

This is the metric side of the library: level sums of p-adic integrals
converge in the norm |x|_p = p**(-v_p(x)), and the convergence reports
measure error sizes through ``valuation``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

__all__ = [
    "PAdicContext",
    "PAdicValue",
    "is_prime",
    "padic_distance",
    "reduce",
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
    without a factor among those primes, where the test is no longer exact.
    """
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


def _check_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def _int_valuation(n: int, p: int) -> int:
    # n != 0
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def valuation(x: Rational, p: int) -> int | float:
    """The p-adic valuation v_p(x); math.inf for x = 0."""
    _check_prime(p)
    xf = Fraction(x)
    if xf == 0:
        return math.inf
    return _int_valuation(xf.numerator, p) - _int_valuation(xf.denominator, p)


def padic_distance(x: Rational, y: Rational, p: int) -> Fraction:
    """The p-adic norm p**(-v_p(x - y)) as an exact rational; 0 when x = y."""
    d = Fraction(x) - Fraction(y)
    if d == 0:
        return Fraction(0)
    v = valuation(d, p)
    if v >= 0:
        return Fraction(1, p**v)
    return Fraction(p ** (-v))


@dataclass(frozen=True)
class PAdicContext:
    """A prime together with a working precision M (residues live in Z/p**M)."""

    p: int
    precision: int

    def __post_init__(self) -> None:
        _check_prime(self.p)
        if self.precision < 1:
            raise ValueError("precision must be >= 1")

    @property
    def modulus(self) -> int:
        return self.p**self.precision


@dataclass(frozen=True)
class PAdicValue:
    """A rational seen p-adically: p**valuation * unit, unit known mod p**M.

    ``unit_residue`` is coprime to p and lives in [0, p**M).  The zero
    flag marks an exact zero (or a value indistinguishable from zero at
    the working precision after arithmetic).
    """

    context: PAdicContext
    valuation: int
    unit_residue: int
    is_zero: bool = False

    def __post_init__(self) -> None:
        if self.is_zero:
            return
        m = self.context.modulus
        if not (0 <= self.unit_residue < m):
            raise ValueError("unit residue out of range")
        if self.unit_residue % self.context.p == 0:
            raise ValueError("unit residue must be coprime to p")

    def residue(self) -> int:
        """The image of the value in Z/p**M; requires valuation >= 0."""
        if self.is_zero:
            return 0
        if self.valuation < 0:
            raise ValueError("value with negative valuation has no residue mod p**M")
        return (self.unit_residue * self.context.p**self.valuation) % self.context.modulus

    def __add__(self, other: "PAdicValue") -> "PAdicValue":
        self._check_same_context(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        ctx = self.context
        v = min(self.valuation, other.valuation)
        u = (
            self.unit_residue * ctx.p ** (self.valuation - v)
            + other.unit_residue * ctx.p ** (other.valuation - v)
        ) % ctx.modulus
        return _from_scaled_unit(ctx, v, u)

    def __mul__(self, other: "PAdicValue") -> "PAdicValue":
        self._check_same_context(other)
        if self.is_zero or other.is_zero:
            return PAdicValue(self.context, 0, 0, is_zero=True)
        u = (self.unit_residue * other.unit_residue) % self.context.modulus
        return PAdicValue(self.context, self.valuation + other.valuation, u)

    def _check_same_context(self, other: "PAdicValue") -> None:
        if self.context != other.context:
            raise ValueError("mixed p-adic contexts")

    def __str__(self) -> str:
        ctx = self.context
        if self.is_zero:
            return f"0 (mod {ctx.p}^{ctx.precision})"
        return f"{ctx.p}^{self.valuation} * {self.unit_residue} (mod {ctx.p}^{ctx.precision})"

    def to_json_obj(self) -> dict:
        return {
            "prime": self.context.p,
            "precision": self.context.precision,
            "valuation": None if self.is_zero else self.valuation,
            "residue": None if self.is_zero else self.unit_residue,
        }


def _from_scaled_unit(ctx: PAdicContext, v: int, u: int) -> PAdicValue:
    """Normalize p**v * u (u taken mod p**M, possibly divisible by p)."""
    if u % ctx.modulus == 0:
        # indistinguishable from zero at precision M
        return PAdicValue(ctx, 0, 0, is_zero=True)
    e = _int_valuation(u, ctx.p)
    return PAdicValue(ctx, v + e, (u // ctx.p**e) % ctx.modulus)


def reduce(x: Rational, ctx: PAdicContext) -> PAdicValue:
    """Exact image of a rational in p-adic form at the context's precision.

    Negative valuations are first class: 1/p reduces to p**-1 times a unit.
    """
    xf = Fraction(x)
    if xf == 0:
        return PAdicValue(ctx, 0, 0, is_zero=True)
    p = ctx.p
    vn = _int_valuation(xf.numerator, p)
    vd = _int_valuation(xf.denominator, p)
    num_unit = xf.numerator // p**vn
    den_unit = xf.denominator // p**vd
    m = ctx.modulus
    residue = (num_unit * pow(den_unit, -1, m)) % m
    return PAdicValue(ctx, vn - vd, residue)
