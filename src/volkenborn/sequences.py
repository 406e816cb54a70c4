"""Special-number families: Bernoulli, Euler, Stirling, Lah, Daehee,
Changhee, Fubini, Cauchy, Eulerian, harmonic, and rational-parameter
Apostol/Frobenius variants.

Every family is generated by its defining recurrence or closed form and
memoized.  Tables grow whole rows at a time under a lock and are safe to
query concurrently once published; all returned values are immutable
``Fraction``s or ``Polynomial``s.
"""
from __future__ import annotations

import threading
from fractions import Fraction
from math import factorial
from typing import Callable

from .polynomials import Polynomial, binom_int, falling_poly, linear_product, taylor_rows
from .series import PowerSeries

__all__ = [
    "TriangularTable",
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


class TriangularTable:
    """Lazily grown (n, k)-indexed table of exact rationals.

    Rows are produced by ``row_fn(n, previous_row)`` starting from
    ``row_fn(0, None)``.  A whole row is computed before it is published,
    so concurrent readers never observe a partial row; queries outside
    the triangle return 0.
    """

    def __init__(self, name: str, row_fn: Callable[[int, list[Fraction] | None], list[Fraction]]):
        self.name = name
        self._row_fn = row_fn
        self._rows: list[list[Fraction]] = []
        self._lock = threading.RLock()

    def row(self, n: int) -> list[Fraction]:
        _check_index(n)
        rows = self._rows
        if n < len(rows):
            return list(rows[n])
        with self._lock:
            while len(self._rows) <= n:
                m = len(self._rows)
                prev = self._rows[m - 1] if m else None
                self._rows.append(self._row_fn(m, prev))
            return list(self._rows[n])

    def value(self, n: int, k: int) -> Fraction:
        _check_index(n)
        _check_index(k, "k")
        if k > n:
            return Fraction(0)
        return self.row(n)[k]

    def clear(self) -> None:
        with self._lock:
            self._rows.clear()


class _SequenceCache:
    """Lock-guarded list cache for one-index families defined by a recurrence."""

    def __init__(self, extend_fn: Callable[[list[Fraction]], Fraction]):
        self._extend_fn = extend_fn
        self._values: list[Fraction] = []
        self._lock = threading.RLock()

    def value(self, n: int) -> Fraction:
        _check_index(n)
        vals = self._values
        if n < len(vals):
            return vals[n]
        with self._lock:
            while len(self._values) <= n:
                self._values.append(self._extend_fn(self._values))
            return self._values[n]

    def clear(self) -> None:
        with self._lock:
            self._values.clear()


# ---------------------------------------------------------------------------
# Bernoulli and Euler numbers and polynomials


def _next_bernoulli(vals: list[Fraction]) -> Fraction:
    n = len(vals)
    if n == 0:
        return Fraction(1)
    # sum_{k=0}^{n} C(n+1, k) B_k = 0, first-kind convention (B_1 = -1/2)
    s = sum(binom_int(n + 1, k) * vals[k] for k in range(n))
    return -s / (n + 1)


def _next_euler(vals: list[Fraction]) -> Fraction:
    n = len(vals)
    if n == 0:
        return Fraction(1)
    # from 2 = (e^t + 1) sum E_n t^n/n!:  2 E_n = -sum_{k<n} C(n, k) E_k
    s = sum(binom_int(n, k) * vals[k] for k in range(n))
    return -s / 2


_BERNOULLI = _SequenceCache(_next_bernoulli)
_EULER = _SequenceCache(_next_euler)


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n, first kind (B_1 = -1/2)."""
    return _BERNOULLI.value(n)


def euler(n: int) -> Fraction:
    """Euler number E_n = E_n(0), the value of the Euler polynomial at 0."""
    return _EULER.value(n)


def bernoulli_poly(n: int) -> Polynomial:
    """Bernoulli polynomial B_n(x) = sum C(n, k) B_k x^(n-k)."""
    _check_index(n)
    out = [Fraction(0)] * (n + 1)
    for k in range(n + 1):
        out[n - k] = binom_int(n, k) * bernoulli(k)
    return Polynomial(out)


def euler_poly(n: int) -> Polynomial:
    """Euler polynomial E_n(x) = sum C(n, k) E_k x^(n-k)."""
    _check_index(n)
    out = [Fraction(0)] * (n + 1)
    for k in range(n + 1):
        out[n - k] = binom_int(n, k) * euler(k)
    return Polynomial(out)


def euler_second(n: int) -> Fraction:
    """Second-kind (integer) Euler number 2^n E_n(1/2)."""
    _check_index(n)
    return 2**n * euler_poly(n)(Fraction(1, 2))


# ---------------------------------------------------------------------------
# Apostol / Frobenius variants with rational parameters

_PARAMETRIC_LOCK = threading.RLock()
_APOSTOL_BERNOULLI: dict[Fraction, list[Fraction]] = {}
_APOSTOL_EULER: dict[Fraction, list[Fraction]] = {}
_FROBENIUS_EULER: dict[Fraction, list[Fraction]] = {}


def _grow_parametric(cache: dict, key: Fraction, n: int, step: Callable[[list[Fraction], int], Fraction]) -> Fraction:
    with _PARAMETRIC_LOCK:
        vals = cache.setdefault(key, [])
        while len(vals) <= n:
            vals.append(step(vals, len(vals)))
        return vals[n]


def apostol_bernoulli(n: int, lam: Fraction | int) -> Fraction:
    """Apostol-Bernoulli number at rational lambda != 1.

    Coefficients of t/(lambda e^t - 1) solved triangularly from
    lambda sum_k C(n, k) b_k - b_n = [n = 1].
    """
    _check_index(n)
    lam = Fraction(lam)
    if lam == 1:
        raise ValueError("lambda = 1 is excluded (denominator series has zero constant term)")

    def step(vals: list[Fraction], m: int) -> Fraction:
        rhs = Fraction(1 if m == 1 else 0)
        s = sum(binom_int(m, k) * vals[k] for k in range(m))
        return (rhs - lam * s) / (lam - 1)

    return _grow_parametric(_APOSTOL_BERNOULLI, lam, n, step)


def apostol_euler(n: int, lam: Fraction | int) -> Fraction:
    """Apostol-Euler number at rational lambda != -1 (lambda = 1 gives E_n).

    Coefficients of 2/(lambda e^t + 1) from
    lambda sum_k C(n, k) e_k + e_n = 2 [n = 0].
    """
    _check_index(n)
    lam = Fraction(lam)
    if lam == -1:
        raise ValueError("lambda = -1 is excluded (function undefined at t = 0)")

    def step(vals: list[Fraction], m: int) -> Fraction:
        rhs = Fraction(2 if m == 0 else 0)
        s = sum(binom_int(m, k) * vals[k] for k in range(m))
        return (rhs - lam * s) / (lam + 1)

    return _grow_parametric(_APOSTOL_EULER, lam, n, step)


def frobenius_euler(n: int, u: Fraction | int) -> Fraction:
    """Frobenius-Euler number H_n(u) for rational u != 1 (u = -1 gives E_n).

    Coefficients of (1-u)/(e^t - u) from
    sum_k C(n, k) H_k - u H_n = (1-u) [n = 0].
    """
    _check_index(n)
    u = Fraction(u)
    if u == 1:
        raise ValueError("u = 1 is excluded (function undefined)")

    def step(vals: list[Fraction], m: int) -> Fraction:
        if m == 0:
            return Fraction(1)
        s = sum(binom_int(m, k) * vals[k] for k in range(m))
        return s / (u - 1)

    return _grow_parametric(_FROBENIUS_EULER, u, n, step)


# ---------------------------------------------------------------------------
# Stirling numbers, both kinds, plus lambda and associated variants


def _stirling1_row(n: int, prev: list[Fraction] | None) -> list[Fraction]:
    if prev is None:
        return [Fraction(1)]
    # S1(n+1, k) = -n S1(n, k) + S1(n, k-1)
    m = n - 1
    return [
        -m * (prev[k] if k <= m else Fraction(0)) + (prev[k - 1] if 1 <= k <= m + 1 else Fraction(0))
        for k in range(n + 1)
    ]


def _stirling2_row(n: int, prev: list[Fraction] | None) -> list[Fraction]:
    if prev is None:
        return [Fraction(1)]
    # S2(n+1, k) = k S2(n, k) + S2(n, k-1)
    m = n - 1
    return [
        k * (prev[k] if k <= m else Fraction(0)) + (prev[k - 1] if 1 <= k <= m + 1 else Fraction(0))
        for k in range(n + 1)
    ]


def _eulerian_row(n: int, prev: list[Fraction] | None) -> list[Fraction]:
    if prev is None:
        return [Fraction(1)]
    m = n - 1
    row = []
    for k in range(n + 1):
        a = prev[k - 1] if 1 <= k <= m + 1 else Fraction(0)
        b = prev[k] if k <= m else Fraction(0)
        row.append((n - k + 1) * a + k * b)
    return row


_STIRLING1 = TriangularTable("stirling1", _stirling1_row)
_STIRLING2 = TriangularTable("stirling2", _stirling2_row)
_EULERIAN = TriangularTable("eulerian", _eulerian_row)


def stirling1(n: int, k: int) -> Fraction:
    """Signed Stirling number of the first kind; row n expands x(x-1)...(x-n+1)."""
    return _STIRLING1.value(n, k)


def stirling1_unsigned(n: int, k: int) -> Fraction:
    return abs(_STIRLING1.value(n, k))


def stirling2(n: int, k: int) -> Fraction:
    """Stirling number of the second kind: partitions of an n-set into k blocks."""
    return _STIRLING2.value(n, k)


def eulerian(n: int, k: int) -> Fraction:
    """Eulerian number: permutations of n letters with exactly k ascending runs."""
    return _EULERIAN.value(n, k)


_LAMBDA_STIRLING_LOCK = threading.RLock()
_LAMBDA_STIRLING: dict[tuple[Fraction, int], list[Fraction]] = {}


def stirling2_lambda(n: int, k: int, lam: Fraction | int) -> Fraction:
    """Generalized second-kind Stirling number, read off (lambda e^t - 1)^k / k!.

    At lambda = 1 this reduces to the classical second kind.
    """
    _check_index(n)
    _check_index(k, "k")
    lam = Fraction(lam)
    key = (lam, k)
    with _LAMBDA_STIRLING_LOCK:
        vals = _LAMBDA_STIRLING.get(key)
        if vals is None or len(vals) <= n:
            order = max(n + 1, 8)
            base = PowerSeries.exp(order) * lam - PowerSeries.one(order)
            series = (base**k) * Fraction(1, factorial(k))
            vals = [series.egf_coeff(m) for m in range(order)]
            _LAMBDA_STIRLING[key] = vals
        return vals[n]


def array_poly(n: int, v: int, lam: Fraction | int) -> Polynomial:
    """Array polynomial of order v: coefficient n of (lambda e^t - 1)^v / v! * e^(tx)."""
    _check_index(n)
    _check_index(v, "v")
    out = Polynomial.zero()
    for j in range(n + 1):
        c = binom_int(n, j) * stirling2_lambda(j, v, lam)
        if c:
            out = out + Polynomial.monomial(n - j, c)
    return out


_ASSOC_LOCK = threading.RLock()
_ASSOC1: dict[int, list[Fraction]] = {}
_ASSOC2: dict[int, list[Fraction]] = {}


def _assoc_values(cache: dict[int, list[Fraction]], k: int, n: int, base_fn) -> Fraction:
    with _ASSOC_LOCK:
        vals = cache.get(k)
        if vals is None or len(vals) <= n:
            order = max(n + 1, 8)
            series = (base_fn(order) ** k) * Fraction(1, factorial(k))
            vals = [series.egf_coeff(m) for m in range(order)]
            cache[k] = vals
        return vals[n]


def assoc_stirling1(n: int, k: int) -> Fraction:
    """Associated Stirling number of the first kind, from (log(1+t) - t)^k / k!.

    Vanishes for k > n/2: the base series starts at t^2.
    """
    _check_index(n)
    _check_index(k, "k")
    if 2 * k > n and not (n == 0 and k == 0):
        return Fraction(0)
    return _assoc_values(_ASSOC1, k, n, lambda T: PowerSeries.log1p(T) - PowerSeries.identity(T))


def assoc_stirling2(n: int, k: int) -> Fraction:
    """Associated Stirling number of the second kind, from (e^t - 1 - t)^k / k!.

    Counts partitions of an n-set into k blocks all of size >= 2, hence
    vanishes for k > n/2.
    """
    _check_index(n)
    _check_index(k, "k")
    if 2 * k > n and not (n == 0 and k == 0):
        return Fraction(0)
    return _assoc_values(
        _ASSOC2,
        k,
        n,
        lambda T: PowerSeries.exp(T) - PowerSeries.one(T) - PowerSeries.identity(T),
    )


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


def daehee_hat(n: int) -> Fraction:
    """Second-kind Daehee number: the bosonic integral of the rising factorial."""
    _check_index(n)
    if n == 0:
        return Fraction(1)
    return sum(
        Fraction((-1) ** k * factorial(n), k + 1) * binom_int(n - 1, k - 1)
        for k in range(1, n + 1)
    )


def changhee(n: int) -> Fraction:
    """Changhee number (-1)^n n!/2^n: the fermionic integral of the falling factorial."""
    _check_index(n)
    return Fraction((-1) ** n * factorial(n), 2**n)


def changhee_hat(n: int) -> Fraction:
    """Second-kind Changhee number: the fermionic integral of the rising factorial."""
    _check_index(n)
    if n == 0:
        return Fraction(1)
    return factorial(n) * sum(
        Fraction((-1) ** m, 2**m) * binom_int(n - 1, n - m) for m in range(n + 1)
    )


def _shifted_factorial_in_t(n: int, rising: bool) -> list[Polynomial]:
    """Coefficients (polynomials in x) of t^i in (x+t)(x+t-+1)...; see callers."""
    return taylor_rows(linear_product((j if rising else -j, 1) for j in range(n)))


def _integrate_shifted(n: int, rising: bool, weights: Callable[[int], Fraction]) -> Polynomial:
    out = Polynomial.zero()
    for i, c in enumerate(_shifted_factorial_in_t(n, rising)):
        w = weights(i)
        if w and not c.is_zero():
            out = out + c * w
    return out


def daehee_poly(n: int) -> Polynomial:
    """Daehee polynomial: bosonic integral of (x+t)(x+t-1)...(x+t-n+1) in t."""
    _check_index(n)
    return _integrate_shifted(n, rising=False, weights=bernoulli)


def daehee_hat_poly(n: int) -> Polynomial:
    """Second-kind Daehee polynomial: bosonic integral of the shifted rising factorial."""
    _check_index(n)
    return _integrate_shifted(n, rising=True, weights=bernoulli)


def changhee_poly(n: int) -> Polynomial:
    """Changhee polynomial: fermionic integral of the shifted falling factorial."""
    _check_index(n)
    return _integrate_shifted(n, rising=False, weights=euler)


# ---------------------------------------------------------------------------
# Fubini, Cauchy, harmonic


def _next_fubini(vals: list[Fraction]) -> Fraction:
    n = len(vals)
    if n == 0:
        return Fraction(1)
    return sum(binom_int(n, j) * vals[n - j] for j in range(1, n + 1))


_FUBINI = _SequenceCache(_next_fubini)

_FUBINI_ORDER_LOCK = threading.RLock()
_FUBINI_ORDER: dict[int, list[Fraction]] = {}


def fubini(n: int) -> Fraction:
    """Fubini number: ordered set partitions of an n-set."""
    return _FUBINI.value(n)


def fubini_order(n: int, k: int) -> Fraction:
    """Order-k Fubini number, read off 1/(2 - e^t)^k; k = 1 is the plain family."""
    _check_index(n)
    if k <= 0:
        raise ValueError("k must be >= 1")
    with _FUBINI_ORDER_LOCK:
        vals = _FUBINI_ORDER.get(k)
        if vals is None or len(vals) <= n:
            order = max(n + 1, 8)
            two = PowerSeries.one(order) * 2
            series = (two - PowerSeries.exp(order)).inverse() ** k
            vals = [series.egf_coeff(m) for m in range(order)]
            _FUBINI_ORDER[k] = vals
        return vals[n]


def cauchy(n: int) -> Fraction:
    """Cauchy number: the Riemann integral of the falling factorial over [0, 1]."""
    _check_index(n)
    return sum((c / (i + 1) for i, c in enumerate(falling_poly(n))), Fraction(0))


_CAUCHY_SERIES_LOCK = threading.RLock()
_CAUCHY_SERIES: list[Fraction] = []


def _cauchy_from_series(n: int) -> Fraction:
    # t/log(1+t) read as an exponential generating function
    with _CAUCHY_SERIES_LOCK:
        if len(_CAUCHY_SERIES) <= n:
            order = max(n + 1, 8)
            log_over_t = PowerSeries(PowerSeries.log1p(order + 1).coeffs[1:], order)
            series = log_over_t.inverse()
            _CAUCHY_SERIES[:] = [series.egf_coeff(m) for m in range(order)]
        return _CAUCHY_SERIES[n]


def bernoulli_second_poly(n: int) -> Polynomial:
    """Second-kind Bernoulli polynomial, assembled from t/log(1+t) and (1+t)^x."""
    _check_index(n)
    out = Polynomial.zero()
    for k in range(n + 1):
        c = binom_int(n, k) * _cauchy_from_series(n - k)
        if c:
            out = out + falling_poly(k) * c
    return out


def harmonic(n: int) -> Fraction:
    """Partial sum 1 + 1/2 + ... + 1/(n+1) (shifted by one from the classical H_n)."""
    _check_index(n)
    return sum((Fraction(1, k + 1) for k in range(n + 1)), Fraction(0))


# ---------------------------------------------------------------------------
# Osgood-Wu connection coefficients

_OSGOOD_LOCK = threading.RLock()
_OSGOOD: dict[tuple[int, int, int], Fraction] = {}


def osgood_wu(k: int, l: int, m: int) -> Fraction:
    """Connection coefficient expanding (xy) falling k in products of falling factorials.

    Symmetric in (l, m).  The first-kind Stirling weight enters signed,
    which is what makes the defining bivariate expansion come out right.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not (1 <= l <= k and 1 <= m <= k):
        raise ValueError("l and m must lie in 1..k")
    lo, hi = min(l, m), max(l, m)
    key = (k, lo, hi)
    cached = _OSGOOD.get(key)
    if cached is not None:
        return cached
    s = sum(stirling1(k, j) * stirling2(j, lo) * stirling2(j, hi) for j in range(1, k + 1))
    with _OSGOOD_LOCK:
        _OSGOOD[key] = s
    return s


def clear_caches() -> None:
    """Drop every memoized table; families regrow on demand (for determinism tests)."""
    _BERNOULLI.clear()
    _EULER.clear()
    _FUBINI.clear()
    _STIRLING1.clear()
    _STIRLING2.clear()
    _EULERIAN.clear()
    with _PARAMETRIC_LOCK:
        _APOSTOL_BERNOULLI.clear()
        _APOSTOL_EULER.clear()
        _FROBENIUS_EULER.clear()
    with _LAMBDA_STIRLING_LOCK:
        _LAMBDA_STIRLING.clear()
    with _ASSOC_LOCK:
        _ASSOC1.clear()
        _ASSOC2.clear()
    with _FUBINI_ORDER_LOCK:
        _FUBINI_ORDER.clear()
    with _CAUCHY_SERIES_LOCK:
        _CAUCHY_SERIES.clear()
    with _OSGOOD_LOCK:
        _OSGOOD.clear()
