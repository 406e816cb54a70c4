"""Exact p-adic integrals of polynomials and their level-sum approximations.

The bosonic integral over the p-adic integers sends x^n to the Bernoulli
number B_n and the fermionic integral sends x^n to the Euler number E_n;
both extend to polynomials by linearity, which makes them exactly
computable.  Both exact integrals add int products over the integer view
of the moment table (numerators over one denominator, see ``sequences``)
and reduce them once through ``polynomials._reduce``.
Bosonic and fermionic level-N Riemann sums are evaluated in closed form
through power sums, Horner's rule in ints over the same views (no p^N
term loops, and one reduction per sum), so their convergence can be
observed p-adically at useful depths.  The q-weighted level sum
still loops over all p^N terms, so it is refused past
p^N = ``Q_LEVEL_GUARD``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Callable, Iterable, Optional, Union

from . import padic
from .polynomials import Polynomial, Scalar, _as_fraction, _reduce
from .sequences import _bernoulli_ints, _euler_ints

__all__ = [
    "ConvergenceReport",
    "ConvergenceRow",
    "Measure",
    "alternating_power_sum",
    "check_fermionic_shift",
    "check_shift_equation",
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
    """One of the three level-sum weightings: bosonic, fermionic, or q-weighted."""

    kind: str  # "bosonic" | "fermionic" | "q"
    q: Optional[Fraction] = None

    def __post_init__(self) -> None:
        if self.kind not in ("bosonic", "fermionic", "q"):
            raise ValueError(f"unknown measure kind {self.kind!r}")
        if self.kind == "q":
            if self.q is None:
                raise ValueError("q-weighted measure needs a rational q")
            object.__setattr__(self, "q", _as_fraction(self.q))
        elif self.q is not None:
            raise ValueError("q parameter only applies to the q-weighted measure")

    @classmethod
    def bosonic(cls) -> "Measure":
        return cls("bosonic")

    @classmethod
    def fermionic(cls) -> "Measure":
        return cls("fermionic")

    @classmethod
    def q_weighted(cls, q: Union[Fraction, int]) -> "Measure":
        return cls("q", q)


def _moment_integral(
    coeffs: Iterable[Scalar], moments: Callable, shift: int = 0, scale: int = 1
) -> Fraction:
    """sum_i c_i m_(i+shift) / scale for moments(n) = (numerators of m_0..m_n, den): one int
    sum for int weights, else ``_reduce`` over int terms; either divided once by den * scale."""
    cs = list(coeffs)
    nums, den = moments(len(cs) + shift - 1)
    if {*map(type, cs)} <= {int}:
        return Fraction(sum(map(mul, cs, nums[shift:])), den * scale)
    return _reduce([(c.numerator * m, c.denominator) for c, m in zip(cs, nums[shift:]) if m],
                   den * scale)


def volkenborn_exact(f: Polynomial) -> Fraction:
    """Bosonic integral of a polynomial: sum of coefficient i times B_i."""
    return _moment_integral(f._coeffs, _bernoulli_ints)


def fermionic_exact(f: Polynomial) -> Fraction:
    """Fermionic integral of a polynomial: sum of coefficient i times E_i."""
    return _moment_integral(f._coeffs, _euler_ints)


def exact_integral(f: Polynomial, measure: Measure) -> Optional[Fraction]:
    """Symbolic value of the integral, or None for the q-weighted measure
    (its symbolic value is outside the polynomial calculus handled here)."""
    if measure.kind == "bosonic":
        return volkenborn_exact(f)
    if measure.kind == "fermionic":
        return fermionic_exact(f)
    return None


def _power_sum(n: int, m: int, alternating: bool) -> tuple[int, int]:
    """The sum of x^n, or of (-1)^x x^n, for x = 0..m-1 (0^0 = 1), as (num, den):
    (B_{n+1}(m) - B_{n+1})/(n+1), or (E_n(0) - (-1)^m E_n(m))/2 by telescoping
    E_n(x+1) + E_n(x) = 2 x^n, each polynomial evaluated by Horner's rule in ints
    over its table's view: den B_k(m) = sum_d C(k, d) nums[k-d] m^d."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if m < 0:
        raise ValueError("m must be >= 0")
    k = n if alternating else n + 1
    nums, den = _euler_ints(k) if alternating else _bernoulli_ints(k)
    acc, c = 0, 1  # c = C(k, d), from d = k down
    for d in range(k, -1, -1):
        acc = acc * m + c * nums[k - d]
        c = c * d // (k - d + 1)
    if alternating:
        return nums[k] - (-1 if m % 2 else 1) * acc, 2 * den
    return acc - nums[k], den * k


def power_sum(n: int, m: int) -> Fraction:
    """Sum of x^n for x = 0..m-1, via Bernoulli polynomials (0^0 = 1), with no loop over m."""
    return Fraction(*_power_sum(n, m, False))


def alternating_power_sum(n: int, m: int) -> Fraction:
    """Sum of (-1)^x x^n for x = 0..m-1, via Euler polynomials (0^0 = 1), with no loop over m."""
    return Fraction(*_power_sum(n, m, True))


def _check_level_args(measure: Measure, p: int, N: int) -> None:
    if not padic.is_prime(p):
        raise ValueError(f"{p} is not prime")
    if N < 1:
        raise ValueError("N must be >= 1")
    if measure.kind in ("fermionic", "q") and p == 2:
        raise ValueError(f"{measure.kind} level sums require an odd prime")
    if measure.kind == "q":
        q = measure.q
        if q != 1 and padic.valuation(1 - q, p) < 1:
            raise ValueError("q-weighted measure requires v_p(1 - q) >= 1")
        if p**N > Q_LEVEL_GUARD:
            raise ValueError(f"q-weighted level sum limited to p^N <= {Q_LEVEL_GUARD}")


def level_integral(f: Polynomial, measure: Measure, p: int, N: int) -> Fraction:
    """Exact value of the level-N Riemann sum for the given measure.

    Bosonic: (1/p^N) sum_{x<p^N} f(x).  Fermionic: sum_{x<p^N} (-1)^x f(x).
    q-weighted: (1/[p^N]_q) sum_{x<p^N} f(x) q^x, with [m]_q = (1-q^m)/(1-q);
    q = 1 delegates to the bosonic sum.
    """
    _check_level_args(measure, p, N)
    m = p**N
    if measure.kind != "q":
        terms = ((c.numerator * num, c.denominator * den) for n, c in enumerate(f._coeffs) if c
                 for num, den in [_power_sum(n, m, measure.kind == "fermionic")])
        return _reduce(terms, m if measure.kind == "bosonic" else 1)
    q = measure.q
    if q == 1:
        return level_integral(f, Measure.bosonic(), p, N)
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
    # the largest level is the strictest, so a bad request fails before any work
    _check_level_args(measure, p, N_max)
    reference = exact_integral(f, measure)
    rows = []
    for N in range(1, N_max + 1):
        value = level_integral(f, measure, p, N)
        if reference is None:
            ev: Union[int, float, None] = None
        else:
            ev = padic.valuation(value - reference, p)
        rows.append(ConvergenceRow(N, value, ev))
    return ConvergenceReport(measure, f, p, reference, tuple(rows))


def check_shift_equation(f: Polynomial, m: int) -> bool:
    """Exact check of the bosonic shift law:

    integral of f(x+m) equals integral of f plus sum_{x=0}^{m-1} f'(x).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    lhs = volkenborn_exact(f.shift(m))
    fprime = f.derivative()
    rhs = volkenborn_exact(f) + sum((fprime(x) for x in range(m)), Fraction(0))
    return lhs == rhs


def check_fermionic_shift(f: Polynomial, n: int) -> bool:
    """Exact check of the fermionic shift law:

    integral of f(x+n) plus (-1)^(n+1) integral of f equals
    2 sum_{j=0}^{n-1} (-1)^(n-1-j) f(j).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    lhs = fermionic_exact(f.shift(n)) + (-1) ** (n + 1) * fermionic_exact(f)
    rhs = 2 * sum(((-1) ** (n - 1 - j) * f(j) for j in range(n)), Fraction(0))
    return lhs == rhs
