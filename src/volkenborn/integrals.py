"""Exact p-adic integrals of polynomials and their level-sum approximations.

The bosonic integral over the p-adic integers sends x^n to the Bernoulli
number B_n and the fermionic integral sends x^n to the Euler number E_n;
both extend to polynomials by linearity, which makes them exactly
computable.  Both exact integrals add int products over the integer view
of the moment table (numerators over one denominator, see ``sequences``)
and reduce them once through ``polynomials._reduce``.
Bosonic and fermionic level-N Riemann sums are evaluated in closed form
through power sums (no p^N term loop): each is one dot product of the
powers 1, m, ..., m^k of m = p^N, made once per sum, with a memoized row
of int coefficients of den B_k(x) or den E_k(x) over the same views.  The
q-weighted level sum still loops over all p^N terms, so it is refused
past p^N = ``Q_LEVEL_GUARD``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import accumulate, repeat
from operator import mul
from typing import Callable, Iterable, Optional, Union

from . import padic
from .polynomials import Polynomial, Scalar, _as_fraction, _reduce
from .sequences import _bernoulli_ints, _euler_ints, _rows

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


def _appell_row(ints: Callable, k: int) -> tuple[tuple[int, ...], int]:
    """den P_k(x) = sum_d C(k, d) nums[k-d] x^d over a view (nums, den) of the moments of
    P_k = B_k or E_k: its int coefficients for d = 0..k, and den."""
    nums, den = ints(k)
    return tuple(math.comb(k, d) * nums[k - d] for d in range(k + 1)), den


_BERNOULLI_ROWS = _rows(partial(_appell_row, _bernoulli_ints))
_EULER_ROWS = _rows(partial(_appell_row, _euler_ints))


def _power_sums(m: int, n_max: int, alternating: bool) -> Callable[[int], int]:
    """n -> the int sum of x^n, or of (-1)^x x^n, for x = 0..m-1 (0^0 = 1), n <= n_max:
    (B_{n+1}(m) - B_{n+1})/(n+1), or (E_n(0) - (-1)^m E_n(m))/2 by telescoping
    E_n(x+1) + E_n(x) = 2 x^n; den P_k(m) is one dot product of row k (its d = 0 entry
    den P_k(0)) with 1, m, ..., m^k, made once, and the division by den is exact."""
    rows = (_EULER_ROWS if alternating else _BERNOULLI_ROWS).get
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
    q = 1 gives the bosonic sum.
    """
    _check_level_args(measure, p, N)
    return _level_sum(f, measure, p**N)


def _level_sum(f: Polynomial, measure: Measure, m: int) -> Fraction:
    """``level_integral`` at m = p^N, its arguments already checked: for the bosonic and
    fermionic measures, sum_n c_n times the n-th power sum at m (an int), summed as one
    int for int coefficients and else through ``_reduce``, and divided once by m or 1."""
    q = measure.q
    if q is None or q == 1:
        fermionic, cs = measure.kind == "fermionic", f._coeffs
        power_sum, scale = _power_sums(m, len(cs) - 1, fermionic), 1 if fermionic else m
        if {*map(type, cs)} <= {int}:
            return Fraction(sum(c * power_sum(n) for n, c in enumerate(cs) if c), scale)
        terms = ((c.numerator * power_sum(n), c.denominator) for n, c in enumerate(cs) if c)
        return _reduce(terms, scale)
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
