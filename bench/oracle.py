"""Reference values for the level_sums workload, computed without the package.

Nothing here imports ``volkenborn``.  Bernoulli numbers come from the
Akiyama-Tanigawa algorithm (the package uses the binomial recurrence),
Euler numbers E_n = E_n(0) from the Bernoulli numbers, power sums from
Faulhaber's formula, alternating sums from the split into even and odd
terms, and q-weighted sums from an integer Horner loop.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from math import comb


@lru_cache(maxsize=None)
def bernoulli_numbers(n: int) -> tuple[Fraction, ...]:
    """B_0 .. B_n with B_1 = -1/2 (Akiyama-Tanigawa)."""
    out = []
    a = [Fraction(0)] * (n + 1)
    for m in range(n + 1):
        a[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        out.append(a[0])
    if n >= 1:
        out[1] = -out[1]  # the algorithm yields B_1 = +1/2
    return tuple(out)


@lru_cache(maxsize=None)
def euler_numbers(n: int) -> tuple[Fraction, ...]:
    """E_k(0) for k = 0..n, from E_k(0) = -2 (2^(k+1) - 1) B_(k+1) / (k+1)."""
    B = bernoulli_numbers(n + 1)
    return tuple(-2 * (2 ** (k + 1) - 1) * B[k + 1] / (k + 1) for k in range(n + 1))


def power_sum(n: int, m: int) -> Fraction:
    """sum_{x=0}^{m-1} x^n with 0^0 = 1, by Faulhaber's formula."""
    B = bernoulli_numbers(n)
    total = sum(comb(n + 1, k) * B[k] * m ** (n + 1 - k) for k in range(n + 1))
    return Fraction(total) / (n + 1)


def alternating_power_sum(n: int, m: int) -> Fraction:
    """sum_{x=0}^{m-1} (-1)^x x^n: twice the even terms minus all terms."""
    return 2 * 2**n * power_sum(n, (m + 1) // 2) - power_sum(n, m)


def valuation(x: Fraction, p: int) -> int | float:
    if x == 0:
        return math.inf
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def exact_integral(coeffs: tuple[int, ...], kind: str) -> Fraction:
    numbers = bernoulli_numbers if kind == "b" else euler_numbers
    table = numbers(max(len(coeffs) - 1, 0))
    return sum((c * table[i] for i, c in enumerate(coeffs)), Fraction(0))


def level_sum(coeffs: tuple[int, ...], kind: str, m: int, q: int | None = None) -> Fraction:
    """Level sum over x = 0..m-1 of the polynomial with these coefficients.

    kind "b": (1/m) sum f(x); "f": sum (-1)^x f(x); "q": sum f(x) q^x / [m]_q
    for an integer q != 1, summed exactly by Horner's rule in q.
    """
    if kind == "b":
        return sum((c * power_sum(i, m) for i, c in enumerate(coeffs)), Fraction(0)) / m
    if kind == "f":
        return sum((c * alternating_power_sum(i, m) for i, c in enumerate(coeffs)), Fraction(0))
    total = 0
    for x in range(m - 1, -1, -1):
        fx = 0
        for c in reversed(coeffs):
            fx = fx * x + c
        total = total * q + fx
    return Fraction(total * (1 - q), 1 - q**m)
