"""Special-number families: Bernoulli, Euler, Stirling, Lah, Daehee,
Changhee, Fubini, Cauchy, Eulerian, harmonic, and rational-parameter
Apostol/Frobenius variants.

Every family is generated by its defining recurrence or closed form.
Euler numbers are read off the Bernoulli numbers through
E_n(0) = -2 (2^(n+1) - 1) B_(n+1) / (n + 1); the Stirling and Eulerian
triangles share one two-term row rule; the Apostol, Frobenius and
Fubini numbers share one recurrence for the coefficients of
r t^j / (c e^t + d).  The associated and lambda-Stirling numbers, the
order-k Fubini numbers and the Cauchy numbers are finite sums over the
Stirling triangles and the falling factorials.
Every family polynomial is the integral in t of a shifted polynomial
f(x + t) against a measure, built by ``polynomials._shifted_integral``
from the measure's moments: the Bernoulli, Euler and array polynomials
integrate x^n, the Daehee and Changhee polynomials a falling or rising
factorial, and the second-kind Bernoulli polynomials the falling
factorial against dt on [0, 1].
The Stirling and Eulerian rows are stored as ints, so a sum over a whole
row reads it once; the public entry functions return ``Fraction``s.
The memoized families keep their values in a ``_Memo``: one list per
key (the family's parameter, or ``None``), grown under the single
module lock by appending one entry at a time.  A list is only ever
appended to (clearing drops whole lists), so a stored value is read
without the lock and the library is safe to query from several threads.
All returned values are immutable ``Fraction``s or ``Polynomial``s.
"""
from __future__ import annotations

import threading
from fractions import Fraction
from functools import partial
from math import comb, factorial
from typing import Callable, Hashable

from .polynomials import (
    Polynomial,
    _dot,
    _shifted_integral,
    binom_int,
    falling_poly,
    rising_poly,
)

__all__ = [
    "apostol_bernoulli",
    "apostol_euler",
    "array_poly",
    "assoc_stirling1",
    "assoc_stirling2",
    "bernoulli",
    "bernoulli_poly",
    "bernoulli_second_poly",
    "cauchy",
    "changhee",
    "changhee_hat",
    "changhee_poly",
    "clear_caches",
    "daehee",
    "daehee_hat",
    "daehee_hat_poly",
    "daehee_poly",
    "euler",
    "euler_poly",
    "euler_second",
    "eulerian",
    "frobenius_euler",
    "fubini",
    "fubini_order",
    "harmonic",
    "lah",
    "lah_unsigned",
    "osgood_wu",
    "stirling1",
    "stirling1_unsigned",
    "stirling2",
    "stirling2_lambda",
]


def _check_index(n: int, name: str = "n") -> None:
    if n < 0:
        raise ValueError(f"{name} must be >= 0")


_LOCK = threading.RLock()
_TABLES: list["_Memo"] = []


class _Memo:
    """Memoized values of one family, one list per key.

    ``step(values, key)`` returns the entry at index ``len(values)``.
    """

    def __init__(self, step: Callable[[list, Hashable], object]):
        self._step = step
        self._lists: dict[Hashable, list] = {}
        _TABLES.append(self)

    def get(self, key: Hashable, n: int):
        _check_index(n)
        vals = self._lists.get(key)
        if vals is not None and n < len(vals):
            return vals[n]
        with _LOCK:
            vals = self._lists.setdefault(key, [])
            while len(vals) <= n:
                vals.append(self._step(vals, key))
            return vals[n]

    def clear(self) -> None:
        with _LOCK:
            self._lists = {}


# ---------------------------------------------------------------------------
# Bernoulli and Euler numbers and polynomials


def _next_bernoulli(vals: list[Fraction], _key: None) -> Fraction:
    n = len(vals)
    if n == 0:
        return Fraction(1)
    # sum_{k=0}^{n} C(n+1, k) B_k = 0, first-kind convention (B_1 = -1/2)
    s = sum(binom_int(n + 1, k) * vals[k] for k in range(n))
    return -s / (n + 1)


def _next_euler(vals: list[Fraction], _key: None) -> Fraction:
    n = len(vals)
    # E_n(0) = -2 (2^(n+1) - 1) B_(n+1) / (n + 1)
    return -2 * (2 ** (n + 1) - 1) * bernoulli(n + 1) / (n + 1)


_BERNOULLI = _Memo(_next_bernoulli)
_EULER = _Memo(_next_euler)


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n, first kind (B_1 = -1/2)."""
    return _BERNOULLI.get(None, n)


def euler(n: int) -> Fraction:
    """Euler number E_n = E_n(0), the value of the Euler polynomial at 0."""
    return _EULER.get(None, n)


def bernoulli_poly(n: int) -> Polynomial:
    """Bernoulli polynomial B_n(x) = sum C(n, k) B_k x^(n-k): the bosonic integral of (x+t)^n."""
    _check_index(n)
    return _shifted_integral(Polynomial.monomial(n), bernoulli)


def euler_poly(n: int) -> Polynomial:
    """Euler polynomial E_n(x) = sum C(n, k) E_k x^(n-k): the fermionic integral of (x+t)^n."""
    _check_index(n)
    return _shifted_integral(Polynomial.monomial(n), euler)


def euler_second(n: int) -> Fraction:
    """Second-kind (integer) Euler number 2^n E_n(1/2)."""
    _check_index(n)
    return 2**n * euler_poly(n)(Fraction(1, 2))


# ---------------------------------------------------------------------------
# Apostol / Frobenius variants with rational parameters

def _egf_quotient(params: Callable[[Hashable], tuple[Fraction | int, ...]]) -> _Memo:
    """EGF coefficients a_m of r t^j / (c e^t + d), with (c, d, r, j) = params(key).

    Matching coefficients of t^m/m! in (c e^t + d) A(t) = r t^j (j <= 1) gives
    (c + d) a_m = r [m = j] - c sum_{k<m} C(m, k) a_k.
    """

    def step(vals: list[Fraction], key: Hashable) -> Fraction:
        c, d, r, j = params(key)
        m = len(vals)
        s = sum(binom_int(m, k) * vals[k] for k in range(m))
        return (Fraction(r if m == j else 0) - c * s) / (c + d)

    return _Memo(step)


_APOSTOL_BERNOULLI = _egf_quotient(lambda lam: (lam, -1, 1, 1))
_APOSTOL_EULER = _egf_quotient(lambda lam: (lam, 1, 2, 0))
_FROBENIUS_EULER = _egf_quotient(lambda u: (1, -u, 1 - u, 0))


def apostol_bernoulli(n: int, lam: Fraction | int) -> Fraction:
    """Apostol-Bernoulli number at rational lambda != 1.

    Coefficients of t/(lambda e^t - 1) solved triangularly from
    lambda sum_k C(n, k) b_k - b_n = [n = 1].
    """
    _check_index(n)
    lam = Fraction(lam)
    if lam == 1:
        raise ValueError("lambda = 1 is excluded (denominator series has zero constant term)")
    return _APOSTOL_BERNOULLI.get(lam, n)


def apostol_euler(n: int, lam: Fraction | int) -> Fraction:
    """Apostol-Euler number at rational lambda != -1 (lambda = 1 gives E_n).

    Coefficients of 2/(lambda e^t + 1) from
    lambda sum_k C(n, k) e_k + e_n = 2 [n = 0].
    """
    _check_index(n)
    lam = Fraction(lam)
    if lam == -1:
        raise ValueError("lambda = -1 is excluded (function undefined at t = 0)")
    return _APOSTOL_EULER.get(lam, n)


def frobenius_euler(n: int, u: Fraction | int) -> Fraction:
    """Frobenius-Euler number H_n(u) for rational u != 1 (u = -1 gives E_n).

    Coefficients of (1-u)/(e^t - u) from
    sum_k C(n, k) H_k - u H_n = (1-u) [n = 0].
    """
    _check_index(n)
    u = Fraction(u)
    if u == 1:
        raise ValueError("u = 1 is excluded (function undefined)")
    return _FROBENIUS_EULER.get(u, n)


# ---------------------------------------------------------------------------
# Stirling numbers, both kinds, plus lambda and associated variants


def _triangle(a: Callable[[int, int], int], b: Callable[[int, int], int]) -> _Memo:
    """Rows of T(n, k) = a(n, k) T(n-1, k-1) + b(n, k) T(n-1, k), T(0, 0) = 1.

    Entries outside 0 <= k <= n are 0.
    """

    def row(rows: list[list[int]], _key: None) -> list[int]:
        n = len(rows)
        if n == 0:
            return [1]
        prev = [0, *rows[-1], 0]  # prev[k] = T(n-1, k-1)
        return [a(n, k) * prev[k] + b(n, k) * prev[k + 1] for k in range(n + 1)]

    return _Memo(row)


_STIRLING1 = _triangle(lambda n, k: 1, lambda n, k: 1 - n)
_STIRLING2 = _triangle(lambda n, k: 1, lambda n, k: k)
_EULERIAN = _triangle(lambda n, k: n - k + 1, lambda n, k: k)
# row n of a triangle as ints, index k: the stored list, to be read and not changed
_stirling1_row = partial(_STIRLING1.get, None)
_stirling2_row = partial(_STIRLING2.get, None)
_eulerian_row = partial(_EULERIAN.get, None)


def _entry(rows: _Memo, n: int, k: int) -> Fraction:
    """Entry (n, k) of a triangle stored row by row; 0 outside it."""
    _check_index(n)
    _check_index(k, "k")
    if k > n:
        return Fraction(0)
    return Fraction(rows.get(None, n)[k])


def stirling1(n: int, k: int) -> Fraction:
    """Signed Stirling number of the first kind; row n expands x(x-1)...(x-n+1)."""
    return _entry(_STIRLING1, n, k)


def stirling1_unsigned(n: int, k: int) -> Fraction:
    return abs(_entry(_STIRLING1, n, k))


def stirling2(n: int, k: int) -> Fraction:
    """Stirling number of the second kind: partitions of an n-set into k blocks."""
    return _entry(_STIRLING2, n, k)


def eulerian(n: int, k: int) -> Fraction:
    """Eulerian number: permutations of n letters with exactly k ascending runs."""
    return _entry(_EULERIAN, n, k)


def stirling2_lambda(n: int, k: int, lam: Fraction | int) -> Fraction:
    """Generalized second-kind Stirling number, read off (lambda e^t - 1)^k / k!.

    Expanding the power binomially gives
    sum_{j=0..k} (-1)^(k-j) C(k, j) lambda^j j^n / k!.  At lambda = 1 this
    reduces to the classical second kind.
    """
    _check_index(k, "k")
    _check_index(n)
    lam = Fraction(lam)
    s = sum((-1) ** (k - j) * binom_int(k, j) * lam**j * j**n for j in range(k + 1))
    return s / factorial(k)


def array_poly(n: int, v: int, lam: Fraction | int) -> Polynomial:
    """Array polynomial of order v: coefficient n of (lambda e^t - 1)^v / v! * e^(tx).

    That is sum C(n, j) S2(j, v, lambda) x^(n-j): the integral of (x+t)^n against
    the moments S2(i, v, lambda) of the generating function (lambda e^t - 1)^v / v!.
    """
    _check_index(n)
    _check_index(v, "v")
    return _shifted_integral(Polynomial.monomial(n), lambda i: stirling2_lambda(i, v, lam))


def _associated_entry(vals: list[Fraction], key: tuple) -> Fraction:
    """EGF coefficient n = len(vals) of (B(t) - t)^k / k!, for key = (k, stirling).

    B^m / m! has EGF coefficients stirling(., m).  Expanding the power
    binomially gives sum_{j=0..k} (-1)^j C(n, j) stirling(n - j, k - j).
    The base series starts at t^2, so the value vanishes for 2k > n.
    """
    k, stirling = key
    n = len(vals)
    if 2 * k > n:
        return Fraction(0)
    return sum((-1) ** j * binom_int(n, j) * stirling(n - j, k - j) for j in range(k + 1))


_ASSOCIATED = _Memo(_associated_entry)


def _associated(n: int, k: int, stirling: Callable[[int, int], Fraction]) -> Fraction:
    _check_index(n)
    _check_index(k, "k")
    return _ASSOCIATED.get((k, stirling), n)


def assoc_stirling1(n: int, k: int) -> Fraction:
    """Associated Stirling number of the first kind, from (log(1+t) - t)^k / k!.

    Vanishes for k > n/2.
    """
    return _associated(n, k, stirling1)


def assoc_stirling2(n: int, k: int) -> Fraction:
    """Associated Stirling number of the second kind, from (e^t - 1 - t)^k / k!.

    Counts partitions of an n-set into k blocks all of size >= 2, hence
    vanishes for k > n/2.
    """
    return _associated(n, k, stirling2)


# ---------------------------------------------------------------------------
# Lah numbers


def lah(n: int, k: int) -> Fraction:
    """Signed Lah number (-1)^n (n!/k!) C(n-1, k-1); Kronecker deltas on the axes."""
    _check_index(n)
    _check_index(k, "k")
    if n == 0 or k == 0:
        return Fraction(1 if n == k else 0)
    if k > n:
        return Fraction(0)
    return Fraction((-1) ** n * factorial(n), factorial(k)) * binom_int(n - 1, k - 1)


def lah_unsigned(n: int, k: int) -> Fraction:
    return abs(lah(n, k))


# ---------------------------------------------------------------------------
# Daehee and Changhee numbers and polynomials


def daehee(n: int) -> Fraction:
    """Daehee number (-1)^n n!/(n+1): the bosonic integral of the falling factorial."""
    _check_index(n)
    return Fraction((-1) ** n * factorial(n), n + 1)


def _second_kind(n: int, weight: Callable[[int], Fraction]) -> Fraction:
    """n! sum_m (-1)^m C(n-1, n-m) weight(m): the integral of the rising factorial, read
    off the integrals (-1)^m weight(m) of C(x, m), for weight 1/(m+1) or 1/2^m."""
    _check_index(n)
    if n == 0:
        return Fraction(1)
    return factorial(n) * _dot(
        ((-1) ** m * comb(n - 1, n - m), weight(m)) for m in range(1, n + 1)
    )


def daehee_hat(n: int) -> Fraction:
    """Second-kind Daehee number: the bosonic integral of the rising factorial."""
    return _second_kind(n, lambda m: Fraction(1, m + 1))


def changhee(n: int) -> Fraction:
    """Changhee number (-1)^n n!/2^n: the fermionic integral of the falling factorial."""
    _check_index(n)
    return Fraction((-1) ** n * factorial(n), 2**n)


def changhee_hat(n: int) -> Fraction:
    """Second-kind Changhee number: the fermionic integral of the rising factorial."""
    return _second_kind(n, lambda m: Fraction(1, 2**m))


def daehee_poly(n: int) -> Polynomial:
    """Daehee polynomial: bosonic integral of (x+t)(x+t-1)...(x+t-n+1) in t."""
    _check_index(n)
    return _shifted_integral(falling_poly(n), bernoulli)


def daehee_hat_poly(n: int) -> Polynomial:
    """Second-kind Daehee polynomial: bosonic integral of the shifted rising factorial."""
    _check_index(n)
    return _shifted_integral(rising_poly(n), bernoulli)


def changhee_poly(n: int) -> Polynomial:
    """Changhee polynomial: fermionic integral of the shifted falling factorial."""
    _check_index(n)
    return _shifted_integral(falling_poly(n), euler)


# ---------------------------------------------------------------------------
# Fubini, Cauchy, harmonic


_FUBINI = _egf_quotient(lambda _key: (-1, 2, 1, 0))


def fubini(n: int) -> Fraction:
    """Fubini number: ordered set partitions of an n-set."""
    return _FUBINI.get(None, n)


def fubini_order(n: int, k: int) -> Fraction:
    """Order-k Fubini number, read off 1/(2 - e^t)^k; k = 1 is the plain family.

    With u = e^t - 1, 1/(1 - u)^k = sum_j C(k+j-1, j) u^j and u^j / j! has
    coefficients S2(., j), which gives sum_{j=0..n} C(k+j-1, j) j! S2(n, j).
    """
    _check_index(n)
    if k <= 0:
        raise ValueError("k must be >= 1")
    row = _stirling2_row(n)
    return Fraction(sum(comb(k + j - 1, j) * factorial(j) * s for j, s in enumerate(row)))


def cauchy(n: int) -> Fraction:
    """Cauchy number: the Riemann integral of the falling factorial over [0, 1]."""
    _check_index(n)
    return _dot((c, Fraction(1, i + 1)) for i, c in enumerate(falling_poly(n)))


def bernoulli_second_poly(n: int) -> Polynomial:
    """Second-kind Bernoulli polynomial: int_0^1 (x+t)_n dt, the falling factorial integrated.

    It is coefficient n of t/log(1+t) (1+t)^x, the EGF of the Cauchy numbers
    times that of the falling factorials, so it equals
    sum C(n, k) cauchy(n - k) (x)_k; the moments of dt on [0, 1] are 1/(i+1).
    """
    _check_index(n)
    return _shifted_integral(falling_poly(n), lambda i: Fraction(1, i + 1))


def harmonic(n: int) -> Fraction:
    """Partial sum 1 + 1/2 + ... + 1/(n+1) (shifted by one from the classical H_n)."""
    _check_index(n)
    return sum((Fraction(1, k + 1) for k in range(n + 1)), Fraction(0))


# ---------------------------------------------------------------------------
# Osgood-Wu connection coefficients

def osgood_wu(k: int, l: int, m: int) -> Fraction:
    """Connection coefficient expanding (xy) falling k in products of falling factorials.

    Symmetric in (l, m).  The first-kind Stirling weight enters signed,
    which is what makes the defining bivariate expansion come out right.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not (1 <= l <= k and 1 <= m <= k):
        raise ValueError("l and m must lie in 1..k")
    s1 = _stirling1_row(k)
    return Fraction(sum(
        s1[j] * _stirling2_row(j)[l] * _stirling2_row(j)[m] for j in range(max(l, m), k + 1)
    ))


def clear_caches() -> None:
    """Drop every memoized table; families regrow on demand (for determinism tests)."""
    for table in _TABLES:
        table.clear()
