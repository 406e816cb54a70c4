"""Special-number families: Bernoulli, Euler, Stirling, Lah, Daehee,
Changhee, Fubini, Cauchy, Eulerian, harmonic, and rational-parameter
Apostol/Frobenius variants.

The Bernoulli numbers come from the tangent numbers, built in ints for a
batch that doubles the table; every other family from its defining
recurrence or closed form.  Euler numbers are read off the Bernoulli
numbers through E_n(0) = -2 (2^(n+1) - 1) B_(n+1) / (n + 1); the
Stirling and Eulerian triangles share one two-term row rule.  The
Apostol, Frobenius and Fubini numbers, the coefficients of
r t^j / (c e^t + d), are values of the Fubini polynomial
F_n(x) = sum_k k! S2(n, k) x^k, since c e^t + d = (c + d)(1 - x (e^t - 1))
with x = -c/(c + d).  The associated and lambda-Stirling numbers, the
order-k Fubini numbers and the Cauchy numbers are finite sums over the
Stirling triangles.
The falling factorial (x)_n = sum_k S1(n, k) x^k is row n of the stored
Stirling-1 table read as a polynomial, and C(x, n) is that row over n!.
The rising factorial (x + n - 1)_n is not read off |S1|: it is built from
its linear factors by ``polynomials._factorial_poly``, so the catalog's
rising-factorial records, which compare its integral with the unsigned
Stirling sums, keep two independent sides.
The Stirling, Eulerian and associated Stirling rows are stored as ints;
the public entry functions return ``Fraction``s.  A memoized family keeps
its values in a ``_Memo``: one list, grown under the single module lock
by one ``list.extend`` per step and only ever extended (clearing replaces
it), so a stored value is read without the lock, from any thread.
The Bernoulli and Euler tables also give ``ints(n)``, their moment view
(see ``polynomials``): entries 0..n as int numerators over the lcm of their
denominators, grown by doubling and published as one tuple.  Row k of
``_BERNOULLI_ROWS`` (``_EULER_ROWS``) holds the int coefficients of
den B_k(x) (den E_k(x)) over it, for ``bernoulli_poly``, ``euler_poly``
and the power sums.  Every other family polynomial integrates f(x + t)
against a view with ``polynomials._shifted_integral``: x^n against the
lambda-Stirling view (array), a falling or rising factorial against
``ints`` (Daehee, Changhee), the falling factorial against dt on [0, 1]
(second-kind Bernoulli, ``_unit_ints``).
All returned values are immutable ``Fraction``s or ``Polynomial``s.
"""
from __future__ import annotations

import threading
from fractions import Fraction
from math import comb, factorial, lcm
from typing import Callable

from .polynomials import Moments, Polynomial, _as_fraction, _factorial_poly, _reduce
from .polynomials import _shifted_integral

__all__ = [
    "apostol_bernoulli",
    "apostol_euler",
    "array_poly",
    "assoc_stirling1",
    "assoc_stirling2",
    "bernoulli",
    "bernoulli_poly",
    "bernoulli_second_poly",
    "binom_poly",
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
    "falling_poly",
    "frobenius_euler",
    "fubini",
    "fubini_order",
    "harmonic",
    "lah",
    "lah_unsigned",
    "osgood_wu",
    "rising_poly",
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
    """Memoized values of one family in one list.

    ``step(values)`` returns the entries from index ``len(values)`` on (at least one).
    """

    def __init__(self, step: Callable[[list], list]):
        self._step = step
        self._values: list = []
        self._ints: tuple[tuple[int, ...], int] = ((), 1)
        _TABLES.append(self)

    def get(self, n: int):
        _check_index(n)
        vals = self._values
        if n < len(vals):
            return vals[n]
        with _LOCK:
            vals = self._values
            while len(vals) <= n:
                vals.extend(self._step(vals))
            return vals[n]

    def ints(self, n: int) -> tuple[tuple[int, ...], int]:
        """Entries 0..n (or more) as (numerators, den), den the lcm of their denominators.

        A growth doubles the view's length where the table already holds the
        entries (it asks for no index past n that the table lacks, though the
        table's own step may add more), reads only the new ones, and publishes
        the view as one tuple, so it is read without the lock."""
        view = self._ints
        if n >= len(view[0]):
            with _LOCK:
                view = self._ints
                nums, den = view
                if n >= len(nums):  # not grown by another thread meanwhile
                    size = max(n + 1, min(2 * len(nums), len(self._values)))
                    new = [self.get(i) for i in range(len(nums), size)]
                    d = lcm(den, *(v.denominator for v in new))
                    nums = nums if d == den else tuple(c * (d // den) for c in nums)
                    view = nums + tuple(v.numerator * (d // v.denominator) for v in new), d
                    self._ints = view
        return view

    def clear(self) -> None:
        with _LOCK:
            self._values = []
            self._ints = ((), 1)


def _rows(row: Callable[[int], list]) -> _Memo:
    """A memo table whose entry n is row(n)."""
    return _Memo(lambda values: [row(len(values))])


# ---------------------------------------------------------------------------
# Bernoulli and Euler numbers and polynomials


def _bernoulli_batch(vals: list[Fraction]) -> list[Fraction]:
    """B_i for len(vals) <= i <= 2K + 1, K = len(vals) + 1, read off the tangent numbers
    T_1..T_K, which Brent and Harvey's Algorithm TangentNumbers (2011) builds in ints:
    B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)), B_1 = -1/2, B_i = 0 for odd i > 1."""
    K = len(vals) + 1
    t = [0, *(factorial(k) for k in range(K))]  # t[k] = (k - 1)!, then T_k in place
    for k in range(2, K + 1):
        for j in range(k, K + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    out = [Fraction(1), Fraction(-1, 2)]
    for k in range(1, K + 1):
        out += Fraction((-1) ** (k - 1) * 2 * k * t[k], 4**k * (4**k - 1)), Fraction(0)
    return out[len(vals):]


def _next_euler(vals: list[Fraction]) -> list[Fraction]:
    n = len(vals)
    # E_n(0) = -2 (2^(n+1) - 1) B_(n+1) / (n + 1)
    return [-2 * (2 ** (n + 1) - 1) * bernoulli(n + 1) / (n + 1)]


_BERNOULLI = _Memo(_bernoulli_batch)
_EULER = _Memo(_next_euler)
# B_0..B_n and E_0..E_n as (numerators, den), for sums that divide once
_bernoulli_ints = _BERNOULLI.ints
_euler_ints = _EULER.ints


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n, first kind (B_1 = -1/2)."""
    return _BERNOULLI.get(n)


def euler(n: int) -> Fraction:
    """Euler number E_n = E_n(0), the value of the Euler polynomial at 0."""
    return _EULER.get(n)


def _appell_row(ints: Moments, k: int) -> tuple[tuple[int, ...], int]:
    """den P_k(x) = sum_d C(k, d) nums[k-d] x^d over a view (nums, den) of the moments of
    P_k = B_k or E_k: its int coefficients for d = 0..k, and den."""
    nums, den = ints(k)
    return tuple(comb(k, d) * nums[k - d] for d in range(k + 1)), den


# row k: the int coefficients of den B_k(x) or den E_k(x), and den (the level sums' power sums)
_BERNOULLI_ROWS = _rows(lambda k: _appell_row(_bernoulli_ints, k))
_EULER_ROWS = _rows(lambda k: _appell_row(_euler_ints, k))


def bernoulli_poly(n: int) -> Polynomial:
    """Bernoulli polynomial B_n(x) = sum C(n, k) B_k x^(n-k): the bosonic integral of (x+t)^n."""
    row, den = _BERNOULLI_ROWS.get(n)
    return Polynomial([Fraction(c, den) for c in row])


def euler_poly(n: int) -> Polynomial:
    """Euler polynomial E_n(x) = sum C(n, k) E_k x^(n-k): the fermionic integral of (x+t)^n."""
    row, den = _EULER_ROWS.get(n)
    return Polynomial([Fraction(c, den) for c in row])


def euler_second(n: int) -> Fraction:
    """Second-kind (integer) Euler number 2^n E_n(1/2)."""
    return 2**n * euler_poly(n)(Fraction(1, 2))


# ---------------------------------------------------------------------------
# Stirling numbers, both kinds, plus lambda and associated variants


def _triangle(a: Callable[[int, int], int], b: Callable[[int, int], int]) -> _Memo:
    """Rows of T(n, k) = a(n, k) T(n-1, k-1) + b(n, k) T(n-1, k), T(0, 0) = 1.

    Entries outside 0 <= k <= n are 0.
    """

    def row(rows: list[list[int]]) -> list[list[int]]:
        n = len(rows)
        if n == 0:
            return [[1]]
        prev = [0, *rows[-1], 0]  # prev[k] = T(n-1, k-1)
        return [[a(n, k) * prev[k] + b(n, k) * prev[k + 1] for k in range(n + 1)]]

    return _Memo(row)


def _associated(stirling: _Memo) -> _Memo:
    """Rows of the EGF coefficients of (B(t) - t)^k / k!, where the rows
    ``stirling`` hold the coefficients of B(t)^m / m!.

    Expanding the power binomially gives
    sum_{j=0..k} (-1)^j C(n, j) stirling(n - j, k - j).  The base series
    starts at t^2, so row n holds only k <= n/2; the rest vanish.
    """
    return _rows(lambda n: [
        sum((-1) ** j * comb(n, j) * stirling.get(n - j)[k - j] for j in range(k + 1))
        for k in range(n // 2 + 1)
    ])


_STIRLING1 = _triangle(lambda n, k: 1, lambda n, k: 1 - n)
_STIRLING2 = _triangle(lambda n, k: 1, lambda n, k: k)
_EULERIAN = _triangle(lambda n, k: n - k + 1, lambda n, k: k)
_ASSOC_STIRLING1 = _associated(_STIRLING1)
_ASSOC_STIRLING2 = _associated(_STIRLING2)
# row n of a triangle as ints, index k: the stored list, to be read and not changed
_stirling1_row = _STIRLING1.get
_stirling2_row = _STIRLING2.get
_eulerian_row = _EULERIAN.get


def falling_poly(n: int) -> Polynomial:
    """The falling factorial x(x-1)...(x-n+1) = sum_k S1(n, k) x^k, read off row n; 1 for n = 0."""
    return Polynomial(_stirling1_row(n))


def binom_poly(n: int) -> Polynomial:
    """The polynomial C(x, n) = (x)_n / n!: row n of S1 over n!."""
    row = _stirling1_row(n)
    den = factorial(n)
    return Polynomial([Fraction(c, den) for c in row])


def rising_poly(n: int) -> Polynomial:
    """The rising factorial x(x+1)...(x+n-1) = (x + n - 1)_n; 1 for n = 0."""
    # from its linear factors, not |S1(n, k)|: records I05a and I27b check that expansion
    return _factorial_poly(n, n - 1)


def _entry(rows: _Memo, n: int, k: int) -> Fraction:
    """Entry (n, k) of a table stored as int rows; 0 outside its row."""
    _check_index(n)
    _check_index(k, "k")
    row = rows.get(n)
    return Fraction(row[k] if k < len(row) else 0)


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
    lam = _as_fraction(lam)
    s = sum((-1) ** (k - j) * comb(k, j) * lam**j * j**n for j in range(k + 1))
    return s / factorial(k)


def array_poly(n: int, v: int, lam: Fraction | int) -> Polynomial:
    """Array polynomial of order v: coefficient n of (lambda e^t - 1)^v / v! * e^(tx).

    That is sum C(n, j) S2(j, v, lambda) x^(n-j): the integral of (x+t)^n against
    the moments S2(i, v, lambda) of the generating function (lambda e^t - 1)^v / v!.
    """
    _check_index(n)
    _check_index(v, "v")
    return _shifted_integral(Polynomial.monomial(n), _stirling2_lambda_ints(v, lam))


def _stirling2_lambda_ints(v: int, lam: Fraction | int) -> Moments:
    """The moments S2(i, v, lambda) as a view, lambda = a/b: the numerators
    sum_j (-1)^(v-j) C(v, j) a^j b^(v-j) j^i over b^v v!."""
    a, b = _as_fraction(lam).as_integer_ratio()
    ws = [(-1) ** (v - j) * comb(v, j) * a**j * b ** (v - j) for j in range(v + 1)]
    den = b**v * factorial(v)
    return lambda n: ([sum(w * j**i for j, w in enumerate(ws)) for i in range(n + 1)], den)


def assoc_stirling1(n: int, k: int) -> Fraction:
    """Associated Stirling number of the first kind, from (log(1+t) - t)^k / k!.

    Vanishes for k > n/2.
    """
    return _entry(_ASSOC_STIRLING1, n, k)


def assoc_stirling2(n: int, k: int) -> Fraction:
    """Associated Stirling number of the second kind, from (e^t - 1 - t)^k / k!.

    Counts partitions of an n-set into k blocks all of size >= 2, hence
    vanishes for k > n/2.
    """
    return _entry(_ASSOC_STIRLING2, n, k)


# ---------------------------------------------------------------------------
# Values of the Fubini polynomial: Fubini, Apostol and Frobenius-Euler numbers


def _fubini_at(n: int, x: Fraction | int, k: int = 1) -> Fraction:
    """Order-k Fubini polynomial sum_{j=0..n} C(k+j-1, j) j! S2(n, j) x^j.

    It is coefficient n of 1/(1 - x (e^t - 1))^k: with u = e^t - 1,
    1/(1 - x u)^k = sum_j C(k+j-1, j) x^j u^j, and u^j / j! has
    coefficients S2(., j).  At x = a/b it is ``_fubini_sum`` over b^n.
    """
    return Fraction(_fubini_sum(n, x.numerator, x.denominator, k), x.denominator**n)


def _fubini_sum(n: int, a: int, b: int, k: int) -> int:
    """b^n F_n(a/b) of order k in ints: sum_j C(k+j-1, j) j! S2(n, j) a^j b^(n-j)."""
    total, weight = 0, 1  # weight = C(k+j-1, j) j! = k (k+1) ... (k+j-1)
    for j, s in enumerate(_stirling2_row(n)):
        total += weight * s * a**j * b ** (n - j)
        weight *= k + j
    return total


def fubini(n: int) -> Fraction:
    """Fubini number: ordered set partitions of an n-set, F_n(1)."""
    return _fubini_at(n, 1)


def fubini_order(n: int, k: int) -> Fraction:
    """Order-k Fubini number, coefficient n of 1/(2 - e^t)^k; k = 1 is the plain family."""
    _check_index(n)
    if k <= 0:
        raise ValueError("k must be >= 1")
    return _fubini_at(n, 1, k)


def apostol_bernoulli(n: int, lam: Fraction | int) -> Fraction:
    """Apostol-Bernoulli number at rational lambda != 1.

    Coefficient n of t/(lambda e^t - 1) = t/(lambda - 1) / (1 - x (e^t - 1))
    with x = lambda/(1 - lambda), that is n F_(n-1)(x)/(lambda - 1).
    """
    _check_index(n)
    lam = _as_fraction(lam)
    if lam == 1:
        raise ValueError("lambda = 1 is excluded (denominator series has zero constant term)")
    if n == 0:
        return Fraction(0)
    return n * _fubini_at(n - 1, lam / (1 - lam)) / (lam - 1)


def apostol_euler(n: int, lam: Fraction | int) -> Fraction:
    """Apostol-Euler number at rational lambda != -1 (lambda = 1 gives E_n).

    Coefficient n of 2/(lambda e^t + 1) = 2/(lambda + 1) / (1 - x (e^t - 1))
    with x = -lambda/(lambda + 1), that is 2 F_n(x)/(lambda + 1).
    """
    _check_index(n)
    lam = _as_fraction(lam)
    if lam == -1:
        raise ValueError("lambda = -1 is excluded (function undefined at t = 0)")
    return 2 * _fubini_at(n, -lam / (lam + 1)) / (lam + 1)


def frobenius_euler(n: int, u: Fraction | int) -> Fraction:
    """Frobenius-Euler number H_n(u) for rational u != 1 (u = -1 gives E_n).

    Coefficient n of (1-u)/(e^t - u) = 1/(1 - x (e^t - 1)) with
    x = 1/(u - 1), that is F_n(x).
    """
    _check_index(n)
    u = _as_fraction(u)
    if u == 1:
        raise ValueError("u = 1 is excluded (function undefined)")
    return _fubini_at(n, 1 / (u - 1))


# ---------------------------------------------------------------------------
# Lah numbers


def _lah_int(n: int, k: int) -> int:
    """Unsigned Lah number (n!/k!) C(n-1, k-1) as an int; Kronecker deltas on the axes."""
    _check_index(n)
    _check_index(k, "k")
    if n == 0 or k == 0:
        return int(n == k)
    return factorial(n) // factorial(k) * comb(n - 1, k - 1)


def lah(n: int, k: int) -> Fraction:
    """Signed Lah number (-1)^n (n!/k!) C(n-1, k-1); Kronecker deltas on the axes."""
    return Fraction((-1) ** n * _lah_int(n, k))


def lah_unsigned(n: int, k: int) -> Fraction:
    return Fraction(_lah_int(n, k))


# ---------------------------------------------------------------------------
# Daehee and Changhee numbers and polynomials


def daehee(n: int) -> Fraction:
    """Daehee number (-1)^n n!/(n+1): the bosonic integral of the falling factorial."""
    _check_index(n)
    return Fraction((-1) ** n * factorial(n), n + 1)


def _second_kind(n: int, den: Callable[[int], int]) -> Fraction:
    """n! sum_m (-1)^m C(n-1, n-m)/den(m): the integral of the rising factorial, read
    off the integrals (-1)^m/den(m) of C(x, m), for den(m) = m + 1 or 2^m."""
    _check_index(n)
    if n == 0:
        return Fraction(1)
    return factorial(n) * _reduce(((-1) ** m * comb(n - 1, n - m), den(m)) for m in range(1, n + 1))


def daehee_hat(n: int) -> Fraction:
    """Second-kind Daehee number: the bosonic integral of the rising factorial."""
    return _second_kind(n, lambda m: m + 1)


def changhee(n: int) -> Fraction:
    """Changhee number (-1)^n n!/2^n: the fermionic integral of the falling factorial."""
    _check_index(n)
    return Fraction((-1) ** n * factorial(n), 2**n)


def changhee_hat(n: int) -> Fraction:
    """Second-kind Changhee number: the fermionic integral of the rising factorial."""
    return _second_kind(n, lambda m: 2**m)


def daehee_poly(n: int) -> Polynomial:
    """Daehee polynomial: bosonic integral of (x+t)(x+t-1)...(x+t-n+1) in t."""
    return _shifted_integral(falling_poly(n), _bernoulli_ints)


def daehee_hat_poly(n: int) -> Polynomial:
    """Second-kind Daehee polynomial: bosonic integral of the shifted rising factorial."""
    return _shifted_integral(rising_poly(n), _bernoulli_ints)


def changhee_poly(n: int) -> Polynomial:
    """Changhee polynomial: fermionic integral of the shifted falling factorial."""
    return _shifted_integral(falling_poly(n), _euler_ints)


# ---------------------------------------------------------------------------
# Cauchy, harmonic


def cauchy(n: int) -> Fraction:
    """Cauchy number sum_k S1(n, k)/(k+1): the integral of the falling factorial over [0, 1]."""
    _check_index(n)
    return _reduce((s, i + 1) for i, s in enumerate(_stirling1_row(n)))


def bernoulli_second_poly(n: int) -> Polynomial:
    """Second-kind Bernoulli polynomial: int_0^1 (x+t)_n dt, the falling factorial integrated.

    It is coefficient n of t/log(1+t) (1+t)^x, the EGF of the Cauchy numbers
    times that of the falling factorials, so it equals
    sum C(n, k) cauchy(n - k) (x)_k; the moments of dt on [0, 1] are 1/(i+1).
    """
    return _shifted_integral(falling_poly(n), _unit_ints)


def _unit_ints(n: int) -> tuple[list[int], int]:
    """The moments 1/(i + 1) of dt on [0, 1] as a view: L/(i + 1) over L = lcm(1..n+1)."""
    den = lcm(*range(1, n + 2))
    return [den // (i + 1) for i in range(n + 1)], den


def harmonic(n: int) -> Fraction:
    """Partial sum 1 + 1/2 + ... + 1/(n+1) (shifted by one from the classical H_n)."""
    _check_index(n)
    return _reduce((1, k + 1) for k in range(n + 1))


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
