"""Executable catalog of integral and combinatorial identities.

Each record carries two evaluators over a finite parameter grid,
computed independently except for shared tables: the falling
factorial, C(x, n) and the Stirling-1 sums are all read off the stored
Stirling-1 rows.  In I08b, I11a, I12b, I14a, I14b, I22, I23b, I23c, I23f, I26e,
I26f, I32b, I32d and I33a both sides read those rows (in I30 the Stirling-2
rows), so there the tests, not the catalog, check them; they also pin which
tables both sides of each record read (``tests/test_shared_tables.py``).
Every side sums in ints (one int sum, int terms over the lcm of their denominators in
``polynomials._reduce``, or a ``_dot`` of weights and checked values) except I33a's right
side, which adds ``Fraction``s: its left side, ``seq.cauchy``, is that very sum via ``_reduce``.
Sub-sums shared by several records are computed once per pass, in ``sequences`` memo
tables that ``clear_caches`` drops: per row M, for n <= M, the bosonic integrals of
(x)_M (x)_n (I23a-I23d's left side) and I23b's double-Stirling sums (dot products with
one vector per row); per N, I23c's Stirling-Bernoulli sum and the Daehee number I23d
reads; the I23a and I23c sums at each (m, n); and the int moment weights of I28 and of
I29 (per n, for both measures, each built in O(n^2)).  A product of linear factors is
never a ``Polynomial`` here: the moments are weighted by the int coefficients of
``polynomials._factorial_ints`` and divided once, for x^s C(a + b x, n) (I15-I17, I19-I21
and their fermionic twins, ``integrals.Measure.binom``) and for (-x)_n, x (x + n - 1)_n
and (x - 1)_n (I04, I06, I09, I26d); Newton series take their differences from an int table.
A record is ``verified`` when the statement checks out in its commonly
stated form, and ``corrected`` when brute-force expansion pinned down an
amended statement; a corrected record stores a counterexample and only
the side or sides the commonly stated form writes differently, so the
original mismatch stays reproducible.  The runner adjudicates nothing on
its own: it just evaluates both sides exactly on every grid point.  A
statement that holds for both the bosonic and the fermionic measure is
written once, over an ``integrals.Measure``, and built once for each.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from itertools import accumulate, product
from math import comb, factorial, perm
from operator import mul
from typing import Callable, Optional, Sequence

from .integrals import Measure
from .integrals import fermionic_exact as _ferm
from .integrals import volkenborn_exact as _volk
from .polynomials import Polynomial, _dot, _factorial_ints, _reduce, _shifted_ints
from .polynomials import _times_linear
from . import sequences as seq
from .sequences import binom_poly, falling_poly, rising_poly

__all__ = [
    "IdentityRecord",
    "IdentityReport",
    "Mismatch",
    "RecordResult",
    "catalog",
    "resolve_ids",
    "verify",
    "verify_all",
]

VERIFIED = "verified"
CORRECTED = "corrected"

Evaluator = Callable[..., Fraction]
Grid = Callable[[Optional[int]], tuple[tuple[int, ...], ...]]


@dataclass(frozen=True)
class IdentityRecord:
    """Two independently evaluable sides of one identity over a finite grid."""

    id: str
    title: str
    grid: Grid
    lhs: Evaluator
    rhs: Evaluator
    note: str = ""
    # corrected records only: the side or sides the uncorrected claim states
    # differently (an unset one is the record's own), and one parameter
    # point where the claim demonstrably fails
    literal_lhs: Optional[Evaluator] = None
    literal_rhs: Optional[Evaluator] = None
    counterexample: Optional[tuple[int, ...]] = None

    @property
    def status(self) -> str:
        return VERIFIED if self.counterexample is None else CORRECTED


@dataclass(frozen=True)
class Mismatch:
    params: tuple[int, ...]
    lhs: Fraction
    rhs: Fraction


@dataclass(frozen=True)
class RecordResult:
    id: str
    status: str
    points: int
    mismatch_count: int
    first_mismatch: Optional[Mismatch]
    # corrected records: does the stored counterexample still break the literal form?
    literal_confirmed: Optional[bool]
    note: str

    @property
    def ok(self) -> bool:
        return self.mismatch_count == 0 and self.literal_confirmed is not False

    def to_json_obj(self) -> dict:
        fm = None
        if self.first_mismatch is not None:
            fm = {
                "params": list(self.first_mismatch.params),
                "lhs": str(self.first_mismatch.lhs),
                "rhs": str(self.first_mismatch.rhs),
            }
        return {
            "id": self.id,
            "status": self.status,
            "points": self.points,
            "mismatches": self.mismatch_count,
            "first_mismatch": fm,
            "literal_confirmed": self.literal_confirmed,
            "note": self.note,
        }


@dataclass(frozen=True)
class IdentityReport:
    n_max: Optional[int]
    results: tuple[RecordResult, ...]

    @property
    def unadjudicated_failures(self) -> int:
        return sum(1 for r in self.results if not r.ok)

    @property
    def ok(self) -> bool:
        return self.unadjudicated_failures == 0

    def to_json_obj(self) -> dict:
        counts: dict[str, int] = {}
        for r in self.results:
            counts[r.status] = counts.get(r.status, 0) + 1
        return {
            "n_max": self.n_max,
            "records": [r.to_json_obj() for r in self.results],
            "totals": {
                "records": len(self.results),
                "by_status": counts,
                "failing_records": self.unadjudicated_failures,
                "points": sum(r.points for r in self.results),
            },
        }

    def to_text_table(self) -> str:
        lines = [f"{'id':<6} {'status':<10} {'points':>6} {'result':<6} note"]
        for r in self.results:
            verdict = "ok" if r.ok else "FAIL"
            lines.append(f"{r.id:<6} {r.status:<10} {r.points:>6} {verdict:<6} {r.note}")
        lines.append(
            f"total records={len(self.results)} "
            f"failures={self.unadjudicated_failures}"
        )
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# integrals the twin statements share


def _rising(mu: Measure, n: int) -> Fraction:
    """Integral of the rising factorial: a second-kind Daehee or Changhee number."""
    return mu.exact(rising_poly(n))


def _falling_of_product(mu: Measure, k: int) -> Fraction:
    """Double integral in x and y of (xy)_k = sum c_i (xy)^i: the integral in y
    leaves the diagonal sum c_i m_i x^i, which is then integrated in x."""
    row = seq._stirling1_row(k)
    return mu.exact(Polynomial([c * mu.moment(i) for i, c in enumerate(row)]))


# ---------------------------------------------------------------------------
# grids


def _grid(*axes: range | tuple[int, ...]) -> Grid:
    """The points of a product of axes, the last axis varying fastest.

    A ``range`` axis is fixed.  An axis (lo, hi) runs from lo to hi, or from
    lo to max(lo, cap) under a cap; (lo, hi, most) also clamps the cap at most.
    """

    def capped(cap: Optional[int], lo: int, hi: int, most: Optional[int] = None) -> range:
        if cap is not None:
            hi = max(lo, cap if most is None else min(cap, most))
        return range(lo, hi + 1)

    def g(cap: Optional[int]) -> tuple[tuple[int, ...], ...]:
        return tuple(product(*(a if isinstance(a, range) else capped(cap, *a) for a in axes)))

    return g


# ---------------------------------------------------------------------------
# shared sides


_BOS = Measure.bosonic()  # the module-level sides' and tables' one bosonic measure


def _reflected_falling(n: int) -> Fraction:
    """The bosonic integral of (-x)_n, n! times that of C(-x, n): the left side of I04a and I04b."""
    return _BOS.dot(_factorial_ints(n, 0, -1)[0])


def _x_rising(n: int) -> Fraction:
    """The bosonic integral of x (x)^(n), (x)^(n) = (x + n - 1)_n: the left side of I06a and I06b."""
    return _BOS.dot(_factorial_ints(n, n - 1)[0], 1)


def _x_falling(n: int) -> Fraction:
    """The bosonic integral of x (x)_n: the left side of I08a and I08b."""
    return _volk(Polynomial.x() * falling_poly(n))


def _daehee_step(n: int) -> Fraction:
    """The integral of (x)_(n+1) plus n times that of (x)_n: the left side of I11a and I11b."""
    return _volk(falling_poly(n + 1)) + n * _volk(falling_poly(n))


def _x_falling_closed(n: int) -> Fraction:
    """(-1)^(n+1) n!/((n+1)(n+2)): the right side of I08a and I11b."""
    return Fraction((-1) ** (n + 1) * factorial(n), n * n + 3 * n + 2)


def _x_falling_stirling(bos: Measure, n: int) -> Fraction:
    """sum_k S1(n, k-1) B_k + B_(n+1): the right side of I08b and I11a."""
    return bos.dot([*seq._stirling1_row(n)[:n], 1], 1)


def _binom_of_sum(n: int) -> Fraction:
    """The bosonic double integral of C(x + y, n) (I12a and I12b's left side): the int kernel
    in y over Stirling-1 row n, n! C(x, n), then one ``dot`` in x divided by den n!."""
    ints, den = _shifted_ints(seq._stirling1_row(n), seq._bernoulli_ints)
    return _BOS.dot(ints, 0, den * factorial(n))


def _bernoulli_convolution(n: int) -> Fraction:
    """sum_k S1(n, k) sum_j C(k, j) B_j B_(k-j)/n!, the right side of I12b, in ints."""
    nums, den = seq._bernoulli_ints(n)
    return _reduce((
        (s * comb(k, j) * nums[j] * nums[k - j], 1)
        for k, s in enumerate(seq._stirling1_row(n)) for j in range(k + 1)
    ), den * den * factorial(n))


def _pairs(f: Callable[[int, int], Fraction]) -> Evaluator:
    """f(m, n) for m, n >= 0 off a row table: row M holds f(M, n) for n <= M, then f(n, M)
    for n < M, so each point is evaluated once, as itself (no symmetry is assumed)."""
    rows = seq._rows(lambda M: [*(f(M, n) for n in range(M + 1)), *(f(n, M) for n in range(M))])
    return lambda m, n: rows.get(m)[n] if m >= n else rows.get(n)[n + 1 + m]


def _falling_pair_row(M: int) -> list[Fraction]:
    """The bosonic integrals of (x)_M (x)_n, n <= M: (x)_M times (x - n) one factor at a time,
    each product's int coefficients one ``dot``."""
    products = accumulate(range(0, -M, -1), _times_linear, initial=seq._stirling1_row(M))
    return [_BOS.dot(p) for p in products]


def _double_stirling_row(M: int) -> list[Fraction]:
    """sum_j S1(n, j) sum_i S1(M, i) B_(i+j) for n <= M: v[j] = sum_i S1(M, i) B_(i+j) in ints
    over one den, once per row, then one dot product of Stirling-1 row n with v per entry."""
    (nums, den), s1 = seq._bernoulli_ints(2 * M), seq._stirling1_row(M)
    v = [sum(map(mul, s1, nums[j:j + M + 1])) for j in range(M + 1)]
    return [Fraction(sum(map(mul, seq._stirling1_row(n), v)), den) for n in range(M + 1)]


_FALLING_PAIRS = seq._rows(_falling_pair_row)
_DOUBLE_STIRLING = seq._rows(_double_stirling_row)
# per N, as (numerator, denominator): I23c's Stirling-Bernoulli sum sum_i S1(N, i) B_i, and the
# Daehee number seq.daehee(N) that I23d reads
_STIRLING_BERNOULLI_SUMS = seq._rows(lambda N: _BOS.dot(seq._stirling1_row(N)).as_integer_ratio())
_DAEHEE_PAIRS = seq._rows(lambda N: seq.daehee(N).as_integer_ratio())


def _falling_pair(m: int, n: int) -> Fraction:
    """The bosonic integral of (x)_m (x)_n (I23a-I23d): row max(m, n), entry min(m, n)."""
    return _FALLING_PAIRS.get(max(m, n))[min(m, n)]


def _sum_1f(m: int, n: int) -> Fraction:
    return _reduce(
        ((-1) ** (m + n - k) * comb(m, k) * comb(n, k) * factorial(k) * factorial(m + n - k),
         m + n - k + 1)
        for k in range(min(m, n) + 1)
    )


def _sum_1h(m: int, n: int) -> Fraction:
    """sum_j S1(n, j) sum_i S1(m, i) B_(i+j) (I23b), the same double sum in either order:
    row max(m, n), entry min(m, n)."""
    return _DOUBLE_STIRLING.get(max(m, n))[min(m, n)]


def _sum_1i(m: int, n: int) -> Fraction:
    """sum_k C(m, k) C(n, k) k! sum_i S1(N, i) B_i, N = m + n - k."""
    sums = map(_STIRLING_BERNOULLI_SUMS.get, range(m + n, max(m, n) - 1, -1))
    return _reduce((comb(m, k) * perm(n, k) * s, den) for k, (s, den) in enumerate(sums))


def _lah_fubini(n: int, k: int) -> Fraction:
    """The Lah numbers composed with e^t - 1, through the order-k Fubini numbers, in ints."""
    s2, fubini = seq._stirling2_row, seq._fubini_sum  # S2(n - m, k) = 0 for m > n - k
    return Fraction(sum(comb(n, m) * s2(n - m)[k] * fubini(m, 1, 1, k) for m in range(n - k + 1)))


def _newton(mu: Measure, f: Callable[[int], int], top: int) -> Fraction:
    """The integral of f (degree <= top) through its Newton series: the sum over k of
    the integral of C(x, k), which is (-1)^k/den(k), times the k-th difference of f at 0."""
    fs, terms = [f(i) for i in range(top + 1)], []
    for k in range(top + 1):  # fs[0] is the k-th difference: a difference table in ints
        terms.append(((-1) ** k * fs[0], mu.den(k)))
        fs = [v - u for u, v in zip(fs, fs[1:])]
    return _reduce(terms)


def _eulerian_weights(n: int, paired: bool = True) -> list[int]:
    """n! times I28's moment weights: with P[e] = sum_k A(n, k) (n - k)^e, that of m_l is
    sum_(j>=l) S1(n, j) C(j, l) P[j - l]; paired=False (uncorrected) takes C(j, l) as 1."""
    eulerian, bases, powers, P = seq._eulerian_row(n), range(n, -1, -1), [1] * (n + 1), []
    for _ in range(n + 1):
        P.append(sum(map(mul, eulerian, powers)))
        powers = list(map(mul, powers, bases))
    s1 = seq._stirling1_row(n)
    return [sum(s1[j] * (comb(j, l) if paired else 1) * P[j - l] for j in range(l, n + 1))
            for l in range(n + 1)]


def _eulerian_moment(n: int, mu: Measure, paired: bool = True) -> Fraction:
    """I28's right side: int weights over n!, the paired ones built once for both measures."""
    weights = _EULERIAN_WEIGHTS.get(n) if paired else _eulerian_weights(n, paired)
    return mu.dot(weights, 0, factorial(n))


def _worpitzky_coeff(n: int, j: int) -> int:
    """The Eulerian number as the alternating binomial sum sum_k (-1)^(j+k) C(n+1, j-k) k^n."""
    return sum((-1) ** (j + k) * comb(n + 1, j - k) * k**n for k in range(j + 1))


def _worpitzky_weights(n: int) -> list[int]:
    """The moments' int weights in n! times I29's right side, sum_j W(n, j) C(x + j - 1, n).
    By Vandermonde C(x + j - 1, n) = sum_i C(j, i) C(x - 1, n - i), so with V_i = sum_j W(n, j)
    C(j, i) it is sum_i V_i C(x - 1, n - i), and n! C(x - 1, n - i) = n!/(n - i)! (x - 1)_(n-i)."""
    ws, weights = [_worpitzky_coeff(n, j) for j in range(n + 1)], [0] * (n + 1)
    products = accumulate(range(-1, -n - 1, -1), _times_linear, initial=[1])
    for d, q in enumerate(products):  # q = (x - 1)...(x - d), the term i = n - d
        c = perm(n, n - d) * sum(w * comb(j, n - d) for j, w in enumerate(ws))
        weights[:d + 1] = [w + c * b for w, b in zip(weights, q)]
    return weights


# the sub-sums that several records share, one table each
_SUM_1F, _SUM_1I = map(_pairs, (_sum_1f, _sum_1i))
_EULERIAN_WEIGHTS, _WORPITZKY_WEIGHTS = seq._rows(_eulerian_weights), seq._rows(_worpitzky_weights)


def _worpitzky_literal(n: int, den: Callable[[int], int]) -> Fraction:
    # C(j - 1, j - m) is the polynomial C(x, j - m) at x = j - 1, which is 1 at j = 0
    return _reduce((
        ((-1) ** (j + k + m) * (comb(j - 1, j - m) if j else 1) * comb(n + 1, j - k)
         * factorial(j) * k**n, den(m))
        for j in range(n + 1) for k in range(j + 1) for m in range(j + 1)
    ), factorial(n))


def _assoc_weights(n: int) -> list[int]:
    """The falling factorial's coefficient of x^i through associated Stirling numbers,
    sum over k + j = i of C(n, j) S1a(n - j, k): its weight of the i-th moment."""
    weights = [0] * (n + 1)
    for j in range(n + 1):
        for k, a in enumerate(seq._ASSOC_STIRLING1.get(n - j)):
            weights[k + j] += comb(n, j) * a
    return weights


def _stirling_round_trip(n: int) -> list[int]:
    """The weight of B_j in sum_k S2(n, k) (sum_(j<k) S1(k, j) B_j + B_k), the right side of I35."""
    s2 = seq._stirling2_row(n)
    return [
        s2[j] + sum(s2[k] * seq._stirling1_row(k)[j] for k in range(j + 1, n + 1))
        for j in range(n + 1)
    ]


# ---------------------------------------------------------------------------
# statements that hold for both measures: one builder each, called once per
# measure at its record's place in the catalog; the first five record fields
# are passed in order (id, title, grid, lhs, rhs)


def _falling_by_stirling(rid: str, title: str, mu: Measure) -> IdentityRecord:
    def lhs(n: int) -> Fraction:
        return mu.dot(seq._stirling1_row(n))

    return IdentityRecord(rid, title, _grid((0, 20)), lhs, mu.falling)


def _rising_unsigned_stirling(rid: str, title: str, mu: Measure, lo: int) -> IdentityRecord:
    def rhs(n: int) -> Fraction:
        return mu.dot(map(abs, seq._stirling1_row(n)[lo:]), lo)

    return IdentityRecord(rid, title, _grid((lo, 15)), partial(_rising, mu), rhs)


def _rising_lah(rid: str, title: str, mu: Measure, lo: int) -> IdentityRecord:
    def rhs(n: int) -> Fraction:
        return _dot((seq._lah_int(n, k), mu.falling(k)) for k in range(lo, n + 1))

    return IdentityRecord(rid, title, _grid((lo, 15)), partial(_rising, mu), rhs)


def _rising_lah_stirling(rid: str, title: str, mu: Measure) -> IdentityRecord:
    def rhs(n: int) -> Fraction:
        weights = [0] * (n + 1)
        for k in range(n + 1):
            lah = seq._lah_int(n, k)
            for j, s in enumerate(seq._stirling1_row(k)):
                weights[j] += lah * s
        return mu.dot(weights)

    return IdentityRecord(rid, title, _grid((0, 15)), partial(_rising, mu), rhs)


def _falling_over_x_integral(rid: str, title: str, mu: Measure) -> IdentityRecord:
    def rhs(n: int) -> Fraction:
        return _reduce(((-1) ** n * perm(n, n - k) * factorial(k), mu.den(k)) for k in range(n + 1))

    return IdentityRecord(
        rid, title, _grid((0, 15)), lambda n: mu.dot(_factorial_ints(n, -1)[0]), rhs
    )


def _product_falling_tensor(rid: str, title: str, mu: Measure) -> IdentityRecord:
    def rhs(k: int) -> Fraction:
        return _dot(
            (mu.falling(l), _dot((seq.osgood_wu(k, l, m), mu.falling(m)) for m in range(1, k + 1)))
            for l in range(1, k + 1)
        )

    return IdentityRecord(rid, title, _grid((1, 8, 8)), partial(_falling_of_product, mu), rhs)


def _product_falling_stirling(rid: str, title: str, mu: Measure, note: str) -> IdentityRecord:
    return IdentityRecord(
        id=rid,
        title=title,
        grid=_grid((1, 8, 8)),
        lhs=partial(_falling_of_product, mu),
        rhs=lambda k: _dot((seq.stirling1(k, m), mu.moment(m) ** 2) for m in range(k + 1)),
        note=note,
        literal_rhs=lambda k: _dot((seq.stirling1(k, m), mu.moment(k) ** 2) for m in range(k + 1)),
        counterexample=(2,),
    )


def _shifted_binomial_times_x(rid: str, title: str, mu: Measure) -> IdentityRecord:
    def lhs(n: int) -> Fraction:
        return mu.binom(n - 1, -2, 1, 1)

    def rhs(n: int) -> Fraction:
        return _reduce(((-1) ** n * k, mu.den(k)) for k in range(1, n + 1))

    return IdentityRecord(rid, title, _grid((1, 15)), lhs, rhs)


def _scaled_binomial(rid: str, title: str, mu: Measure) -> IdentityRecord:
    def lhs(m: int, n: int) -> Fraction:
        return mu.binom(n, 0, m)

    def rhs(m: int, n: int) -> Fraction:
        return _newton(mu, lambda i: comb(m * i, n), n)

    return IdentityRecord(rid, title, _grid(range(1, 6), (0, 15)), lhs, rhs)


def _binomial_power(rid: str, title: str, mu: Measure) -> IdentityRecord:
    def lhs(r: int, n: int) -> Fraction:
        return mu.exact(falling_poly(n) ** r) / factorial(n) ** r

    def rhs(r: int, n: int) -> Fraction:
        return _newton(mu, lambda i: comb(i, n) ** r, n * r)

    return IdentityRecord(rid, title, _grid(range(1, 4), (0, 15)), lhs, rhs)


def _gould_square(rid: str, title: str, mu: Measure, note: str) -> IdentityRecord:
    # x C(x-2, n-1) + x(x-1) C(x-3, n-2), the expansion of sum (-1)^k C(x,k) k^2, by linearity;
    # the literal form puts the constant C(n-3, n-2) in place of C(x-3, n-2)
    return IdentityRecord(
        id=rid,
        title=title,
        grid=_grid((2, 15)),
        lhs=lambda n: (mu.binom(n - 1, -2, 1, 1) + mu.binom(n - 2, -3, 1, 2)
                       - mu.binom(n - 2, -3, 1, 1)),
        rhs=lambda n: _reduce(((-1) ** n * k * k, mu.den(k)) for k in range(n + 1)),
        note=note,
        literal_lhs=lambda n: (mu.binom(n - 1, -2, 1, 1)
                               + binom_poly(n - 2)(n - 3) * (mu.moment(2) - mu.moment(1))),
        counterexample=(3,),
    )


def _degree_shifted_newton(rid: str, title: str, mu: Measure) -> IdentityRecord:
    def rhs(n: int) -> Fraction:
        return _newton(mu, lambda i: comb(i + n, n), n)

    return IdentityRecord(rid, title, _grid((0, 15)), lambda n: mu.binom(n, n), rhs)


def _degree_shifted_stirling(rid: str, title: str, mu: Measure) -> IdentityRecord:
    def rhs(n: int) -> Fraction:
        # sum_k m_k sum_j C(n, j) S1(j, k)/j!, over n! to keep the weights ints
        weights = [0] * (n + 1)
        for j in range(n + 1):
            for k, s in enumerate(seq._stirling1_row(j)):
                weights[k] += comb(n, j) * perm(n, n - j) * s
        return mu.dot(weights) / factorial(n)

    return IdentityRecord(rid, title, _grid((0, 15)), lambda n: mu.binom(n, n), rhs)


def _half_integer_binomial(rid: str, title: str, mu: Measure) -> IdentityRecord:
    def lhs(n: int) -> Fraction:
        return mu.binom(n, Fraction(2 * n + 1, 2))

    def rhs(n: int) -> Fraction:
        c = (2 * n + 1) * comb(2 * n, n)
        return _reduce((
            ((-1) ** k * c * comb(n, k) * 4**k, (2 * k + 1) * comb(2 * k, k) * mu.den(k))
            for k in range(n + 1)
        ), 4**n)

    return IdentityRecord(rid, title, _grid((0, 15)), lhs, rhs)


def _rising_signed_stirling(rid: str, title: str, mu: Measure) -> IdentityRecord:
    def rhs(n: int) -> Fraction:
        return mu.dot((-1) ** (m + n) * s for m, s in enumerate(seq._stirling1_row(n)))

    return IdentityRecord(rid, title, _grid((0, 15)), partial(_rising, mu), rhs)


def _rising_alternating(rid: str, title: str, mu: Measure) -> IdentityRecord:
    return IdentityRecord(rid, title, _grid((1, 15)), partial(_rising, mu), mu.hat)


def _eulerian_expansion(rid: str, title: str, mu: Measure, note: str) -> IdentityRecord:
    return IdentityRecord(
        id=rid,
        title=title,
        grid=_grid((1, 15)),
        lhs=mu.moment,
        rhs=lambda n: _eulerian_moment(n, mu),
        note=note,
        literal_rhs=lambda n: _eulerian_moment(n, mu, paired=False),
        counterexample=(2,),
    )


def _worpitzky(rid: str, title: str, mu: Measure, note: str) -> IdentityRecord:
    return IdentityRecord(
        id=rid,
        title=title,
        grid=_grid((1, 15)),
        lhs=mu.moment,
        rhs=lambda n: mu.dot(_WORPITZKY_WEIGHTS.get(n), 0, factorial(n)),
        note=note,
        literal_rhs=lambda n: _worpitzky_literal(n, mu.den),
        counterexample=(2,),
    )


def _assoc_closed_form(rid: str, title: str, mu: Measure) -> IdentityRecord:
    return IdentityRecord(
        rid, title, _grid((0, 15)), lambda n: mu.dot(_assoc_weights(n)), mu.falling
    )


# ---------------------------------------------------------------------------
# the catalog

_CATALOG_CACHE: Optional[tuple[IdentityRecord, ...]] = None


def catalog() -> tuple[IdentityRecord, ...]:
    """All identity records, in stable order."""
    global _CATALOG_CACHE
    if _CATALOG_CACHE is None:
        _CATALOG_CACHE = tuple(_build_catalog())
    return _CATALOG_CACHE


def _build_catalog() -> list[IdentityRecord]:
    F = Fraction
    bos, fer = Measure.bosonic(), Measure.fermionic()
    records: list[IdentityRecord] = []
    add = records.append

    # --- falling-factorial integrals and the first Daehee family ----------

    add(_falling_by_stirling(
        "I01", "Stirling-weighted Bernoulli sum gives the Daehee closed form", bos
    ))

    add(IdentityRecord(
        id="I02",
        title="Bosonic integral of the shifted falling factorial",
        grid=_grid((1, 15)),
        lhs=lambda n: _volk(falling_poly(n).shift(1)),
        rhs=lambda n: F((-1) ** (n + 1) * factorial(n), n * n + n),
    ))

    add(IdentityRecord(
        id="I03",
        title="Bosonic integral of the forward difference of the falling factorial",
        grid=_grid((1, 15)),
        lhs=lambda n: _volk(falling_poly(n).shift(1) - falling_poly(n)),
        rhs=lambda n: F((-1) ** (n + 1) * factorial(n - 1)),
    ))

    add(IdentityRecord(
        id="I04a",
        title="Bosonic integral of the reflected falling factorial, Lah form",
        grid=_grid((1, 15)),
        lhs=_reflected_falling,
        rhs=lambda n: _reduce(
            ((-1) ** (k + n) * comb(n - 1, k - 1) * factorial(n), k + 1) for k in range(1, n + 1)
        ),
    ))
    add(IdentityRecord(
        id="I04b",
        title="Bosonic integral of the reflected falling factorial, Stirling form",
        grid=_grid((1, 15)),
        lhs=_reflected_falling,
        rhs=lambda n: bos.dot((-1) ** m * s for m, s in enumerate(seq._stirling1_row(n))),
    ))

    # --- second-kind Daehee numbers: four expressions ---------------------

    add(_rising_unsigned_stirling(
        "I05a", "Rising-factorial integral equals the unsigned-Stirling Bernoulli sum", bos, 0
    ))
    add(_rising_alternating("I05b", "Rising-factorial integral, alternating binomial form", bos))
    add(_rising_lah("I05c", "Rising-factorial integral, unsigned-Lah form", bos, 0))
    add(_rising_lah_stirling("I05d", "Rising-factorial integral, Lah-Stirling double sum", bos))

    # --- products with one extra factor of x -------------------------------

    add(IdentityRecord(
        id="I06a",
        title="Integral of x times the rising factorial, binomial form",
        grid=_grid((1, 15)),
        lhs=_x_rising,
        rhs=lambda n: _reduce(
            ((-1) ** (k + 1) * comb(n - 1, k - 1) * factorial(n), k * k + 3 * k + 2)
            for k in range(1, n + 1)
        ),
    ))
    add(IdentityRecord(
        id="I06b",
        title="Integral of x times the rising factorial, Bernoulli form",
        grid=_grid((1, 15)),
        lhs=_x_rising,
        rhs=lambda n: bos.dot(map(abs, seq._stirling1_row(n)[1:]), 2),
    ))

    add(IdentityRecord(
        id="I07",
        title="Recurrence for the rising-factorial integrals with Lah weights",
        grid=_grid((1, 15)),
        lhs=lambda n: _volk(rising_poly(n + 1)) - n * _volk(rising_poly(n)),
        rhs=lambda n: _reduce(
            ((-1) ** (k + 1) * seq._lah_int(n, k) * factorial(k), k * k + 3 * k + 2)
            for k in range(1, n + 1)
        ),
    ))

    add(IdentityRecord(
        id="I08a",
        title="Integral of x times the falling factorial, closed form",
        grid=_grid((0, 15)),
        lhs=_x_falling,
        rhs=_x_falling_closed,
    ))
    add(IdentityRecord(
        id="I08b",
        title="Integral of x times the falling factorial, Stirling form",
        grid=_grid((0, 15)),
        lhs=_x_falling,
        rhs=lambda n: _x_falling_stirling(bos, n),
    ))

    add(_falling_over_x_integral(
        "I09", "Integral of the falling factorial with its linear factor removed", bos
    ))

    add(IdentityRecord(
        id="I10",
        title="Integral of the shifted falling factorial of one higher degree",
        grid=_grid((0, 15)),
        lhs=lambda n: _volk(falling_poly(n + 1).shift(1)),
        rhs=lambda n: F((-1) ** n * factorial(n), n + 2),
    ))

    add(IdentityRecord(
        id="I11a",
        title="First-kind Daehee recurrence, Stirling-Bernoulli form",
        grid=_grid((1, 15)),
        lhs=_daehee_step,
        rhs=lambda n: _x_falling_stirling(bos, n),
    ))
    add(IdentityRecord(
        id="I11b",
        title="First-kind Daehee recurrence, closed form",
        grid=_grid((1, 15)),
        lhs=_daehee_step,
        rhs=_x_falling_closed,
    ))

    # --- double integrals over two p-adic variables ------------------------

    add(IdentityRecord(
        id="I12a",
        title="Double integral of the binomial of a sum (Chu-Vandermonde route)",
        grid=_grid((0, 15)),
        lhs=_binom_of_sum,
        rhs=lambda n: _reduce(((-1) ** n, (k + 1) * (n - k + 1)) for k in range(n + 1)),
    ))
    add(IdentityRecord(
        id="I12b",
        title="Double integral of the binomial of a sum, Bernoulli-product form",
        grid=_grid((0, 15)),
        lhs=_binom_of_sum,
        rhs=_bernoulli_convolution,
    ))
    add(IdentityRecord(
        id="I12c",
        title="Integral of the Daehee polynomial against its argument",
        grid=_grid((0, 15)),
        lhs=lambda n: _volk(seq.daehee_poly(n)),
        rhs=lambda n: _reduce(
            ((-1) ** n * factorial(n), (k + 1) * (n - k + 1)) for k in range(n + 1)
        ),
    ))

    add(IdentityRecord(
        id="I13a",
        title="Integral of the shifted binomial coefficient",
        grid=_grid((1, 15)),
        lhs=lambda n: _volk(binom_poly(n).shift(1)),
        rhs=lambda n: F((-1) ** (n + 1), n * n + n),
    ))
    add(IdentityRecord(
        id="I13b",
        title="Integral of the shifted binomial coefficient, next degree",
        grid=_grid((0, 15)),
        lhs=lambda n: _volk(binom_poly(n + 1).shift(1)),
        rhs=lambda n: F((-1) ** n, n * n + 3 * n + 2),
    ))

    add(_product_falling_tensor(
        "I14a", "Double integral of the falling factorial of a product, tensor form", bos
    ))
    add(_product_falling_stirling(
        "I14b",
        "Double integral of the falling factorial of a product, Stirling form",
        bos,
        "the uncorrected form squares a Bernoulli number with an unbound index; "
        "the summation index must also drive the squared factor",
    ))

    # --- classical binomial-sum integrals ----------------------------------

    add(_shifted_binomial_times_x(
        "I15", "Integral of x times a doubly shifted binomial coefficient", bos
    ))

    add(IdentityRecord(
        id="I16",
        title="Integral of the reflected binomial gives harmonic partial sums",
        grid=_grid((0, 15)),
        lhs=lambda n: bos.binom(n, n, -1),
        rhs=lambda n: seq.harmonic(n),
        note="holds under the bosonic measure and without the alternating sign; "
        "the fermionic statement with (-1)^n fails already at n = 1",
        literal_lhs=lambda n: fer.binom(n, n, -1),
        literal_rhs=lambda n: (-1) ** n * seq.harmonic(n),
        counterexample=(1,),
    ))

    add(_scaled_binomial("I17", "Integral of a binomial with scaled argument", bos))

    add(_binomial_power("I18", "Integral of an integer power of the binomial coefficient", bos))

    add(_gould_square(
        "I19",
        "Integral of the square-weighted binomial expansion",
        bos,
        "the constant binomial in the uncorrected statement must be the "
        "polynomial C(x-3, n-2); with the constant the statement fails at n = 3",
    ))

    add(_degree_shifted_newton(
        "I20a", "Integral of the binomial shifted by its own degree, alternating form", bos
    ))
    add(_degree_shifted_stirling(
        "I20b", "Integral of the binomial shifted by its own degree, Bernoulli form", bos
    ))

    add(_half_integer_binomial("I21", "Integral of the half-integer shifted binomial", bos))

    add(IdentityRecord(
        id="I22",
        title="Integral of a monomial times the falling factorial",
        grid=_grid((0, 15), (0, 15)),
        lhs=lambda m, n: _volk(Polynomial.monomial(m) * falling_poly(n)),
        rhs=lambda m, n: bos.dot(seq._stirling1_row(n), m),
    ))

    # --- products of two falling factorials ---------------------------------

    add(IdentityRecord(
        id="I23a",
        title="Integral of a product of falling factorials, connection form",
        grid=_grid((0, 15), (0, 15)),
        lhs=_falling_pair,
        rhs=_SUM_1F,
    ))
    add(IdentityRecord(
        id="I23b",
        title="Integral of a product of falling factorials, double-Stirling form",
        grid=_grid((0, 15), (0, 15)),
        lhs=_falling_pair,
        rhs=_sum_1h,
    ))
    add(IdentityRecord(
        id="I23c",
        title="Integral of a product of falling factorials, mixed form",
        grid=_grid((0, 15), (0, 15)),
        lhs=_falling_pair,
        rhs=_SUM_1I,
    ))
    add(IdentityRecord(
        id="I23d",
        title="Integral of a product of falling factorials, Daehee-weighted form",
        grid=_grid((0, 15), (0, 15)),
        lhs=_falling_pair,
        rhs=lambda m, n: _reduce(
            (comb(m, k) * perm(n, k) * d, e)
            for k, (d, e) in enumerate(map(_DAEHEE_PAIRS.get, range(m + n, max(m, n) - 1, -1)))
        ),
        note="the uncorrected form drops the k! connection factor and carries a spurious "
        "alternating sign on the already signed Daehee values",
        literal_rhs=lambda m, n: _dot(
            ((-1) ** (m + n - k) * comb(m, k) * comb(n, k), seq.daehee(m + n - k))
            for k in range(m + 1)
        ),
        counterexample=(1, 1),
    ))
    add(IdentityRecord(
        id="I23e",
        title="Connection form equals double-Stirling form",
        grid=_grid((0, 15), (0, 15)),
        lhs=_sum_1h,
        rhs=_SUM_1F,
    ))
    add(IdentityRecord(
        id="I23f",
        title="Double-Stirling form equals mixed form",
        grid=_grid((0, 15), (0, 15)),
        lhs=_sum_1h,
        rhs=_SUM_1I,
    ))

    # --- rising factorial as shifted falling factorial ---------------------

    add(_rising_signed_stirling(
        "I24a", "Rising-factorial integral, signed Stirling-Bernoulli form", bos
    ))
    add(_rising_alternating("I24b", "Rising-factorial integral, alternating binomial sum", bos))
    add(replace(
        _rising_alternating(
            "I24c", "Second-kind Daehee numbers from the alternating binomial sum", bos
        ),
        note="the claimed scale factor 1/n! must be n!",
        literal_rhs=lambda n: _reduce(
            (((-1) ** m * comb(n - 1, n - m), m + 1) for m in range(n + 1)), factorial(n)
        ),
        counterexample=(2,),
    ))

    add(replace(
        _rising_lah(
            "I25", "Second-kind Daehee numbers as unsigned-Lah sums of first-kind ones", bos, 0
        ),
        note="the uncorrected sum runs over one index and evaluates the Lah factor "
        "at another; both must be the summation index",
        literal_rhs=lambda n: _dot((seq._lah_int(n, n), seq.daehee(m)) for m in range(n + 1)),
        counterexample=(2,),
    ))

    # --- fermionic counterparts --------------------------------------------

    add(IdentityRecord(
        id="I26a",
        title="Fermionic integral of the shifted falling factorial",
        grid=_grid((1, 15)),
        lhs=lambda n: _ferm(falling_poly(n).shift(1)),
        rhs=lambda n: F((-1) ** (n + 1) * factorial(n), 2**n),
    ))
    add(IdentityRecord(
        id="I26b",
        title="Fermionic integral of the shifted binomial coefficient",
        grid=_grid((1, 15)),
        lhs=lambda n: _ferm(binom_poly(n).shift(1)),
        rhs=lambda n: F((-1) ** (n + 1), 2**n),
    ))
    add(IdentityRecord(
        id="I26c",
        title="First-kind Changhee recurrence",
        grid=_grid((1, 15)),
        lhs=lambda n: _ferm(falling_poly(n + 1)) + n * _ferm(falling_poly(n)),
        rhs=lambda n: F((-1) ** n * factorial(n) * (n - 1), 2 ** (n + 1)),
    ))
    add(_falling_over_x_integral(
        "I26d", "Fermionic integral of the falling factorial without its linear factor", fer
    ))
    add(replace(
        _product_falling_tensor(
            "I26e", "Fermionic double integral of the product falling factorial, tensor form", fer
        ),
        note="the uncorrected form omits the factorials carried by the two "
        "falling-factorial integrals",
        literal_rhs=lambda k: _reduce(
            ((-1) ** (l + m) * int(seq.osgood_wu(k, l, m)), fer.den(l + m))
            for l in range(1, k + 1)
            for m in range(1, k + 1)
        ),
        counterexample=(2,),
    ))
    add(_product_falling_stirling(
        "I26f",
        "Fermionic double integral of the product falling factorial, Stirling form",
        fer,
        "same unbound squared index as the bosonic version",
    ))
    add(_degree_shifted_newton(
        "I26g", "Fermionic integral of the binomial shifted by its degree, alternating form", fer
    ))
    add(_degree_shifted_stirling(
        "I26h", "Fermionic integral of the binomial shifted by its degree, Euler form", fer
    ))
    add(_scaled_binomial("I26i", "Fermionic integral of a binomial with scaled argument", fer))
    add(_binomial_power(
        "I26j", "Fermionic integral of an integer power of the binomial coefficient", fer
    ))
    add(_shifted_binomial_times_x(
        "I26k", "Fermionic integral of x times a doubly shifted binomial", fer
    ))
    add(IdentityRecord(
        id="I26l",
        title="Fermionic integral of the reflected binomial",
        grid=_grid((0, 15)),
        lhs=lambda n: fer.binom(n, n, -1),
        rhs=lambda n: _reduce((1, 2**k) for k in range(n + 1)),
        note="the sum must start at k = 0 and the alternating prefactor must go",
        literal_rhs=lambda n: _reduce(((-1) ** n, 2**k) for k in range(1, n + 1)),
        counterexample=(1,),
    ))
    add(_gould_square(
        "I26m",
        "Fermionic integral of the square-weighted binomial expansion",
        fer,
        "same constant-binomial typo as the bosonic version",
    ))
    add(_half_integer_binomial(
        "I26n", "Fermionic integral of the half-integer shifted binomial", fer
    ))

    # --- second-kind Changhee numbers ---------------------------------------

    add(_rising_lah("I27a", "Fermionic rising-factorial integral, unsigned-Lah form", fer, 1))
    add(_rising_unsigned_stirling(
        "I27b", "Fermionic rising-factorial integral, unsigned-Stirling Euler sum", fer, 1
    ))
    add(_rising_alternating(
        "I27c", "Fermionic rising-factorial integral, alternating binomial sum", fer
    ))
    add(_rising_signed_stirling(
        "I27d", "Fermionic rising-factorial integral, signed Stirling-Euler form", fer
    ))
    add(_rising_lah_stirling(
        "I27e", "Fermionic rising-factorial integral, Lah-Stirling double sum", fer
    ))

    # --- Eulerian-number expansions -----------------------------------------

    add(_eulerian_expansion(
        "I28a",
        "Bernoulli numbers from the Eulerian expansion of the monomial",
        bos,
        "the inner binomial must pair the exponent split; the uncorrected form "
        "collapses it to 1",
    ))
    add(_eulerian_expansion(
        "I28b",
        "Euler numbers from the Eulerian expansion of the monomial",
        fer,
        "same binomial collapse as the Bernoulli version",
    ))

    add(_worpitzky(
        "I29a",
        "Bernoulli numbers through the shifted-binomial basis",
        bos,
        "the uncorrected closed form reuses a fixed-shift integral formula at "
        "every shift; the integrals must be taken at their own shifts",
    ))
    add(_worpitzky(
        "I29b",
        "Euler numbers through the shifted-binomial basis",
        fer,
        "same misapplied shift formula as the Bernoulli version",
    ))

    # --- functional-equation and generating-function consequences -----------

    add(IdentityRecord(
        id="I30",
        title="Composition of the Lah and exponential generating functions",
        grid=_grid((0, 15), range(1, 7)),
        lhs=lambda n, k: _reduce(
            (s * seq._lah_int(m, k), 1) for m, s in enumerate(seq._stirling2_row(n))
        ),
        rhs=_lah_fubini,
        note="the Lah factor must carry the summation index and the unsigned "
        "family (the substituted series has positive coefficients)",
        literal_lhs=lambda n, k: _dot((seq.lah(n, k), s) for s in seq._stirling2_row(n)),
        counterexample=(2, 1),
    ))

    add(IdentityRecord(
        id="I31",
        title="Telescoping of integral recurrences for falling factorials",
        grid=_grid((0, 15)),
        lhs=lambda n: _reduce(
            (perm(n, n - k) * factorial(k), (k + 1) * (k + 2)) for k in range(n + 1)
        ),
        rhs=lambda n: F(factorial(n + 1), n + 2),
        note="the claimed right side (n-1)!/(n+1) does not match the "
        "telescoped integrals; expansion gives (n+1)!/(n+2)",
        literal_rhs=lambda n: F(factorial(n - 1), n + 1) if n >= 1 else F(0),
        counterexample=(1,),
    ))

    add(_assoc_closed_form(
        "I32a", "Associated-Stirling expansion integrates to the Daehee closed form", bos
    ))
    add(IdentityRecord(
        id="I32b",
        title="Associated-Stirling expansion matches the plain Stirling sum",
        grid=_grid((0, 15)),
        lhs=lambda n: bos.dot(_assoc_weights(n)),
        rhs=lambda n: bos.dot(seq._stirling1_row(n)),
    ))
    add(_assoc_closed_form(
        "I32c", "Associated-Stirling expansion under the fermionic integral", fer
    ))
    add(IdentityRecord(
        id="I32d",
        title="Associated-Stirling expansion under the unit-interval integral",
        grid=_grid((0, 15)),
        lhs=lambda n: _reduce((w, i + 1) for i, w in enumerate(_assoc_weights(n))),
        rhs=seq.cauchy,
    ))

    add(IdentityRecord(
        id="I33a",
        title="Cauchy numbers as reciprocally weighted Stirling sums",
        grid=_grid((0, 20)),
        lhs=seq.cauchy,
        # seq.cauchy is this very sum through _reduce: only a Fraction sum checks it
        rhs=lambda n: sum(seq.stirling1(n, k) * F(1, k + 1) for k in range(n + 1)),
    ))
    add(_falling_by_stirling("I33b", "Stirling-Bernoulli sum, closed form", bos))
    add(_falling_by_stirling("I33c", "Stirling-Euler sum, closed form", fer))

    add(IdentityRecord(
        id="I34a",
        title="Bernoulli numbers from factorially weighted second-kind Stirling sums",
        grid=_grid((0, 20)),
        lhs=seq.bernoulli,
        rhs=lambda n: _reduce(
            ((-1) ** k * factorial(k) * s, k + 1) for k, s in enumerate(seq._stirling2_row(n))
        ),
        note="the truncated upper limit n-1 drops the k = n term",
        literal_rhs=lambda n: _reduce(
            ((-1) ** k * factorial(k) * s, k + 1) for k, s in enumerate(seq._stirling2_row(n)[:n])
        ),
        counterexample=(1,),
    ))
    add(IdentityRecord(
        id="I34b",
        title="Bernoulli numbers from Daehee-weighted second-kind Stirling sums",
        grid=_grid((0, 20)),
        lhs=seq.bernoulli,
        rhs=lambda n: _dot(zip(seq._stirling2_row(n), map(seq.daehee, range(n + 1)))),
        note="same truncated upper limit as the factorial form",
        literal_rhs=lambda n: _dot(zip(seq._stirling2_row(n), map(seq.daehee, range(n)))),
        counterexample=(1,),
    ))

    add(IdentityRecord(
        id="I35",
        title="Bernoulli self-consistency through both Stirling kinds",
        grid=_grid((0, 15)),
        lhs=seq.bernoulli,
        rhs=lambda n: bos.dot(_stirling_round_trip(n)),
    ))

    return records


# ---------------------------------------------------------------------------
# runner


def resolve_ids(ids: Sequence[str]) -> list[IdentityRecord]:
    """Resolve exact record ids or whole-group prefixes (e.g. 'I26'), each record once,
    in the order first requested."""
    found: dict[str, IdentityRecord] = {}
    for wanted in ids:
        matches = [
            r for r in catalog()
            if r.id == wanted or (r.id[:-1] == wanted and r.id[-1].isalpha())
        ]
        if not matches:
            raise KeyError(f"unknown identity id: {wanted}")
        found.update((r.id, r) for r in matches)
    return list(found.values())


# Largest grid cap `verify` accepts.  The two-index records grow steeply with it:
# a cold verify_all takes about 0.06, 0.26 and 1.6 s at caps 15, 30 and 60
# (CPython 3.11.7 on one core of a 2-vCPU Intel Xeon virtual machine, best of 3).
_N_MAX_LIMIT = 60


def verify(record: IdentityRecord | str, n_max: Optional[int] = None) -> RecordResult:
    """Evaluate both sides of one record on its grid; report mismatches.

    Corrected records additionally evaluate the literal form (each side the
    record does not restate is its own) at the stored counterexample and
    report whether it still fails there.
    """
    if n_max is not None and not 0 <= n_max <= _N_MAX_LIMIT:
        raise ValueError(f"n_max must be >= 0 and <= {_N_MAX_LIMIT}: got {n_max}")
    if isinstance(record, str):
        matches = resolve_ids([record])
        if len(matches) != 1:
            raise KeyError(f"{record} names {len(matches)} records; verify takes one")
        record = matches[0]
    ce = record.counterexample
    if (ce is None) != (record.literal_lhs is None and record.literal_rhs is None):
        raise ValueError(
            f"corrected record {record.id} needs both a literal side and a counterexample"
        )

    points = mismatch_count = 0
    first_mismatch: Optional[Mismatch] = None
    for params in record.grid(n_max):
        points += 1
        left = record.lhs(*params)
        right = record.rhs(*params)
        if left != right:
            mismatch_count += 1
            if first_mismatch is None:
                first_mismatch = Mismatch(params, left, right)

    literal_confirmed: Optional[bool] = None
    if ce is not None:
        lhs, rhs = record.literal_lhs or record.lhs, record.literal_rhs or record.rhs
        literal_confirmed = lhs(*ce) != rhs(*ce)

    return RecordResult(
        id=record.id,
        status=record.status,
        points=points,
        mismatch_count=mismatch_count,
        first_mismatch=first_mismatch,
        literal_confirmed=literal_confirmed,
        note=record.note,
    )


def verify_all(
    n_max: Optional[int] = None,
    ids: Optional[Sequence[str]] = None,
) -> IdentityReport:
    """Run the whole catalog (or a selection) in catalog order and assemble a deterministic report."""
    records = resolve_ids(ids) if ids else list(catalog())
    return IdentityReport(n_max=n_max, results=tuple(verify(r, n_max) for r in records))
