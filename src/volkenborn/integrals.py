"""Exact p-adic integrals of polynomials and their level-sum approximations.

``Measure`` is the one measure type: bosonic (Volkenborn), fermionic or
q-weighted.  The bosonic integral over the p-adic integers sends x^n to the
Bernoulli number B_n and (x)_n to the Daehee number, the fermionic one x^n
to the Euler number E_n and (x)_n to the Changhee number; a measure carries
these facts for the catalog in ``identities`` and the rules of its level sums.
Each integral is one ``polynomials._moment_integral`` over a moment view: the
exact ones over the Bernoulli or Euler view, the bosonic and fermionic level-N
sums over the int power sums at m = p^N over m, or the alternating ones over 1.
A power sum is one dot product of 1, m, ..., m^k with a memoized int row of
den B_k(x) or den E_k(x) (``sequences``), with no p^N term loop.  The q level
sum still loops over all p^N terms, so it is refused past ``Q_LEVEL_GUARD``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from operator import mul
from typing import Callable, Iterable, Optional, Union

from . import padic, sequences as seq
from .polynomials import Polynomial, _as_fraction, _factorial_ints, _moment_integral

__all__ = [
    "ConvergenceReport",
    "ConvergenceRow",
    "Measure",
    "alternating_power_sum",
    "convergence_report",
    "exact_integral",
    "fermionic_exact",
    "level_integral",
    "power_sum",
    "volkenborn_exact",
]

Q_LEVEL_GUARD = 10**6  # q-weighted level sums are evaluated term by term


@dataclass(frozen=True)
class Measure:
    """A measure on Z_p: bosonic, fermionic, or q-weighted.

    Equality, hash and repr read ``kind`` and ``q`` only.  The constructor sets
    the rest from the names bound when the measure is made (so a tracer's
    rebinding reaches it): ``exact`` integrates a polynomial (None for the q
    measure, whose value is outside this polynomial calculus), ``moment(n)``
    is the integral of x^n, ``ints(n)`` the moments 0..n as int numerators
    over one denominator, ``falling(n)`` the integral of (x)_n, ``hat(n)`` the
    closed form of that of the rising factorial (the second-kind number), and
    ``den(k)`` the int denominator of the integral (-1)^k/den(k) of C(x, k)
    (k + 1 or 2^k).  An ``alternating`` level sum is sum (-1)^x f(x), any
    other (1/p^N) sum f(x); an ``odd_prime`` one refuses p = 2.
    """

    kind: str  # "bosonic" | "fermionic" | "q"
    q: Optional[Fraction] = None

    def __post_init__(self) -> None:
        facts = {
            "bosonic": (volkenborn_exact, seq.bernoulli, seq._bernoulli_ints, seq.daehee,
                        seq.daehee_hat, lambda k: k + 1, False, False),
            "fermionic": (fermionic_exact, seq.euler, seq._euler_ints, seq.changhee,
                          seq.changhee_hat, lambda k: 2**k, True, True),
            "q": (lambda f: None, None, None, None, None, None, False, True),
        }.get(self.kind)
        if facts is None:
            raise ValueError(f"unknown measure kind {self.kind!r}")
        if self.kind == "q":
            if self.q is None:
                raise ValueError("q-weighted measure needs a rational q")
            object.__setattr__(self, "q", _as_fraction(self.q))
        elif self.q is not None:
            raise ValueError("q parameter only applies to the q-weighted measure")
        names = ("exact", "moment", "ints", "falling", "hat", "den", "alternating", "odd_prime")
        vars(self).update(zip(names, facts))

    def __reduce__(self):  # made again from (kind, q): a copy shares the module's tables
        return type(self), (self.kind, self.q)

    @classmethod
    def bosonic(cls) -> "Measure":
        return cls("bosonic")

    @classmethod
    def fermionic(cls) -> "Measure":
        return cls("fermionic")

    @classmethod
    def q_weighted(cls, q: Union[Fraction, int]) -> "Measure":
        return cls("q", q)

    def dot(self, weights: Iterable[int], shift: int = 0, scale: int = 1) -> Fraction:
        """sum_k weights[k] m_(k+shift) / scale, added in ints over the moments' one denominator."""
        return _moment_integral(weights, self.ints, shift, scale)

    def binom(self, n: int, a: Fraction | int = 0, b: int = 1, s: int = 0) -> Fraction:
        """Integral of x^s C(a + b x, n), for rational a and integer b: a ``dot`` over the int
        coefficients of n! v^n C(a + b x, n), a = u/v, divided once by n! v^n."""
        weights, vn = _factorial_ints(n, a, b)
        return self.dot(weights, s, math.factorial(n) * vn)


def volkenborn_exact(f: Polynomial) -> Fraction:
    """Bosonic integral of a polynomial: sum of coefficient i times B_i."""
    return _moment_integral(f._coeffs, seq._bernoulli_ints)


def fermionic_exact(f: Polynomial) -> Fraction:
    """Fermionic integral of a polynomial: sum of coefficient i times E_i."""
    return _moment_integral(f._coeffs, seq._euler_ints)


def exact_integral(f: Polynomial, measure: Measure) -> Optional[Fraction]:
    """Symbolic value of the integral, or None for the q-weighted measure."""
    return measure.exact(f)


def _power_sums(m: int, n_max: int, alternating: bool) -> Callable[[int], int]:
    """n -> the int sum of x^n, or of (-1)^x x^n, for x = 0..m-1 (0^0 = 1), n <= n_max:
    (B_{n+1}(m) - B_{n+1})/(n+1), or (E_n(0) - (-1)^m E_n(m))/2 by telescoping
    E_n(x+1) + E_n(x) = 2 x^n; den P_k(m) is one dot product of row k (its d = 0 entry
    den P_k(0)) with 1, m, ..., m^k, made once, and the division by den is exact."""
    rows = (seq._EULER_ROWS if alternating else seq._BERNOULLI_ROWS).get
    powers = list(accumulate(repeat(m, n_max + (not alternating)), mul, initial=1))
    sign = -1 if m % 2 else 1

    def power_sum(n: int) -> int:
        if alternating:
            row, den = rows(n)
            return (row[0] - sign * sum(map(mul, row, powers))) // (2 * den)
        row, den = rows(n + 1)
        return (sum(map(mul, row, powers)) - row[0]) // (den * (n + 1))

    return power_sum


def _power_sum(n: int, m: int, alternating: bool) -> Fraction:
    """The sum of x^n, or of (-1)^x x^n, for x = 0..m-1 and m, n >= 0, from ``_power_sums``."""
    if not (isinstance(n, int) and isinstance(m, int)):
        raise TypeError(f"n and m must be ints, got {type(n).__name__} and {type(m).__name__}")
    if n < 0:
        raise ValueError("n must be >= 0")
    if m < 0:
        raise ValueError("m must be >= 0")
    return Fraction(_power_sums(m, n, alternating)(n))


def power_sum(n: int, m: int) -> Fraction:
    """Sum of x^n for x = 0..m-1 (0^0 = 1), from a cached Bernoulli row, with no loop over m."""
    return _power_sum(n, m, False)


def alternating_power_sum(n: int, m: int) -> Fraction:
    """Sum of (-1)^x x^n for x = 0..m-1 (0^0 = 1), from a cached Euler row, with no loop over m."""
    return _power_sum(n, m, True)


def _check_level_args(measure: Measure, p: int, N: int) -> None:
    if not padic.is_prime(p):
        raise ValueError(f"{p} is not prime")
    if N < 1:
        raise ValueError("N must be >= 1")
    if measure.odd_prime and p == 2:
        raise ValueError(f"{measure.kind} level sums require an odd prime")
    q = measure.q
    if q is not None:
        if q != 1 and padic.valuation(1 - q, p) < 1:
            raise ValueError("q-weighted measure requires v_p(1 - q) >= 1")
        if p**N > Q_LEVEL_GUARD:
            raise ValueError(f"q-weighted level sum limited to p^N <= {Q_LEVEL_GUARD}")


def level_integral(f: Polynomial, measure: Measure, p: int, N: int) -> Fraction:
    """Exact value of the level-N Riemann sum for the given measure.

    Bosonic: (1/p^N) sum_{x<p^N} f(x).  Fermionic: sum_{x<p^N} (-1)^x f(x).
    q-weighted: (1/[p^N]_q) sum_{x<p^N} f(x) q^x, with [m]_q = (1-q^m)/(1-q);
    q = 1 gives the bosonic sum.
    """
    _check_level_args(measure, p, N)
    return _level_sum(f, measure, p**N)


def _level_sum(f: Polynomial, measure: Measure, m: int) -> Fraction:
    """``level_integral`` at m = p^N, its arguments already checked: bosonic or fermionic,
    one ``_moment_integral`` over the power sums at m over m, or the alternating ones over 1."""
    q = measure.q
    if q is None or q == 1:
        power_sum = _power_sums(m, f.degree, measure.alternating)
        return _moment_integral(f._coeffs, lambda n: ([*map(power_sum, range(n + 1))],
                                                      1 if measure.alternating else m))
    total = Fraction(0)
    qx = Fraction(1)
    for x in range(m):
        total += f(x) * qx
        qx *= q
    bracket = (1 - q**m) / (1 - q)
    return total / bracket


@dataclass(frozen=True)
class ConvergenceRow:
    N: int
    value: Fraction
    # valuation of (level value - exact value); inf when exact, None without a reference
    err_valuation: Union[int, float, None]


@dataclass(frozen=True)
class ConvergenceReport:
    measure: Measure
    polynomial: Polynomial
    p: int
    exact: Optional[Fraction]
    rows: tuple[ConvergenceRow, ...]

    def to_json_obj(self) -> dict:
        def err(v):
            if v is None or v == math.inf:
                return None if v is None else "inf"
            return v

        return {
            "measure": self.measure.kind,
            "q": None if self.measure.q is None else str(self.measure.q),
            "p": self.p,
            "poly": self.polynomial.to_coeff_strings(),
            "exact": None if self.exact is None else str(self.exact),
            "rows": [
                {"N": r.N, "value": str(r.value), "err_valuation": err(r.err_valuation)}
                for r in self.rows
            ],
        }


def convergence_report(f: Polynomial, measure: Measure, p: int, N_max: int) -> ConvergenceReport:
    """Level values for N = 1..N_max with p-adic error sizes against the exact integral.

    The q-weighted measure has no symbolic reference here, so its rows
    carry no error valuation.
    """
    if N_max < 1:
        raise ValueError("N_max must be >= 1")
    # the largest level is the strictest, so a bad request fails before any work,
    # and no level below it is checked again
    _check_level_args(measure, p, N_max)
    reference = exact_integral(f, measure)
    rows = []
    for N in range(1, N_max + 1):
        value = _level_sum(f, measure, p**N)
        if reference is None:
            ev: Union[int, float, None] = None
        else:
            ev = padic.valuation(value - reference, p)
        rows.append(ConvergenceRow(N, value, ev))
    return ConvergenceReport(measure, f, p, reference, tuple(rows))
