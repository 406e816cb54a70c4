"""Executable catalog of integral and combinatorial identities.

Each record carries two independently computed evaluators over a finite
parameter grid.  A record is ``verified`` when the statement checks out
in its commonly stated form, and ``corrected`` when brute-force
expansion pinned down an amended statement; corrected records keep a
literal evaluator plus a stored counterexample so the original mismatch
stays reproducible.  The runner adjudicates nothing on its own: it just
evaluates both sides exactly on every grid point.  A statement that holds
for both the bosonic and the fermionic measure is written once, from the
measure's exact integral, moments and falling-factorial integrals.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product
from math import comb, factorial, perm
from typing import Callable, Optional, Sequence

from .integrals import fermionic_exact as _ferm
from .integrals import volkenborn_exact as _volk
from .polynomials import (
    Polynomial,
    _dot,
    _factorial_poly,
    _shifted_integral,
    binom_int,
    binom_poly,
    falling_poly,
    rising_poly,
)
from . import sequences as seq

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
LiteralPair = Callable[..., tuple[Fraction, Fraction]]
Grid = Callable[[Optional[int]], tuple[tuple[int, ...], ...]]


@dataclass(frozen=True)
class IdentityRecord:
    """Two independently evaluable sides of one identity over a finite grid."""

    id: str
    title: str
    params: tuple[str, ...]
    grid: Grid
    lhs: Evaluator
    rhs: Evaluator
    status: str = VERIFIED
    note: str = ""
    # corrected records only: both sides of the uncorrected claim,
    # and one parameter point where they demonstrably disagree
    literal: Optional[LiteralPair] = None
    counterexample: Optional[tuple[int, ...]] = None


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
# polynomial builders and small numeric helpers


def _binom(n: int, a: Fraction | int = 0, b: int = 1) -> Polynomial:
    """C(a + b x, n) as a polynomial in x (a may be any rational, b any integer)."""
    return _factorial_poly(n, a, b, Fraction(1, factorial(n)))


# ---------------------------------------------------------------------------
# the two measures


@dataclass(frozen=True)
class _Integral:
    """What the bosonic or the fermionic integral contributes to a statement:
    ``exact`` integrates a polynomial, ``moment(n)`` is the integral of x^n
    (B_n or E_n), ``falling(n)`` that of the falling factorial (the Daehee
    or Changhee number), ``hat(n)`` the closed form of that of the rising
    factorial (the second-kind number), and ``weight(k)`` is |integral of
    C(x, k)| written in closed form (1/(k + 1) or 1/2^k)."""

    exact: Evaluator
    moment: Callable[[int], Fraction]
    falling: Callable[[int], Fraction]
    hat: Callable[[int], Fraction]
    weight: Callable[[int], Fraction]

    def rising(self, n: int) -> Fraction:
        """Integral of the rising factorial: a second-kind Daehee or Changhee number."""
        return self.exact(rising_poly(n))

    def falling_of_product(self, k: int) -> Fraction:
        """Double integral in x and y of (xy)_k = sum c_i (xy)^i: the integral in y
        leaves the diagonal sum c_i m_i x^i, which is then integrated in x."""
        return self.exact(Polynomial([c * self.moment(i) for i, c in enumerate(falling_poly(k))]))


def _integrals() -> tuple[_Integral, _Integral]:
    """The bosonic and the fermionic integral, from the names bound at the call."""
    return (
        _Integral(_volk, seq.bernoulli, seq.daehee, seq.daehee_hat, lambda k: Fraction(1, k + 1)),
        _Integral(_ferm, seq.euler, seq.changhee, seq.changhee_hat, lambda k: Fraction(1, 2**k)),
    )


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


def _reflected_falling(n: int) -> Fraction:
    """The bosonic integral of (-x)_n: the left side of I04a and I04b."""
    return _volk(_factorial_poly(n, 0, -1))


def _x_rising(n: int) -> Fraction:
    """The bosonic integral of x (x)^(n): the left side of I06a and I06b."""
    return _volk(Polynomial.x() * rising_poly(n))


def _x_falling(n: int) -> Fraction:
    """The bosonic integral of x (x)_n: the left side of I08a and I08b."""
    return _volk(Polynomial.x() * falling_poly(n))


def _daehee_step(n: int) -> Fraction:
    """The integral of (x)_(n+1) plus n times that of (x)_n: the left side of I11a and I11b."""
    return _volk(falling_poly(n + 1)) + n * _volk(falling_poly(n))


def _x_falling_closed(n: int) -> Fraction:
    """(-1)^(n+1) n!/((n+1)(n+2)): the right side of I08a and I11b."""
    return Fraction((-1) ** (n + 1) * factorial(n), n * n + 3 * n + 2)


def _x_falling_stirling(n: int) -> Fraction:
    """sum_k S1(n, k-1) B_k + B_(n+1): the right side of I08b and I11a."""
    terms = sum(seq.stirling1(n, k - 1) * seq.bernoulli(k) for k in range(1, n + 1))
    return terms + seq.bernoulli(n + 1)


def _binom_of_sum(n: int) -> Fraction:
    """The bosonic double integral of C(x + y, n): the left side of I12a and I12b."""
    return _volk(_shifted_integral(binom_poly(n), seq.bernoulli))


def _falling_pair(m: int, n: int) -> Fraction:
    """The bosonic integral of (x)_m (x)_n: the left side of I23a-I23d."""
    return _volk(falling_poly(m) * falling_poly(n))


def _sum_1f(m: int, n: int) -> Fraction:
    return _dot(
        (
            (-1) ** (m + n - k) * comb(m, k) * comb(n, k) * factorial(k) * factorial(m + n - k),
            Fraction(1, m + n - k + 1),
        )
        for k in range(m + 1)
    )


def _sum_1h(m: int, n: int) -> Fraction:
    b = [seq.bernoulli(i) for i in range(m + n + 1)]
    return _dot(
        (sn * sm, b[j + l])
        for j, sn in enumerate(seq._stirling1_row(n))
        for l, sm in enumerate(seq._stirling1_row(m))
    )


def _sum_1i(m: int, n: int) -> Fraction:
    b = [seq.bernoulli(i) for i in range(m + n + 1)]
    return _dot(
        (comb(m, k) * comb(n, k) * factorial(k) * s, b[l])
        for k in range(min(m, n) + 1)
        for l, s in enumerate(seq._stirling1_row(m + n - k))
    )


def _lah_fubini(n: int, k: int) -> Fraction:
    """The Lah numbers composed with e^t - 1, through the order-k Fubini numbers."""
    return _dot(
        (comb(n, m) * seq.stirling2(n - m, k), seq.fubini_order(m, k)) for m in range(n + 1)
    )


def _gould_square_poly(n: int) -> Polynomial:
    """x C(x-2, n-1) + x(x-1) C(x-3, n-2), the expansion of sum (-1)^k C(x,k) k^2."""
    p = Polynomial.x() * _binom(n - 1, -2)
    if n >= 2:
        p = p + Polynomial.x() * Polynomial([-1, 1]) * _binom(n - 2, -3)
    return p


def _newton(mu: _Integral, f: Callable[[int], int], top: int) -> Fraction:
    """The integral of f (degree <= top) through its Newton series: the sum over k of
    the integral of C(x, k), which is (-1)^k weight(k), times the k-th difference of f at 0."""
    fs = [f(i) for i in range(top + 1)]
    return _dot(
        ((-1) ** k * sum((-1) ** j * comb(k, j) * fs[k - j] for j in range(k + 1)), mu.weight(k))
        for k in range(top + 1)
    )


def _eulerian_moment(n: int, moment: Callable[[int], Fraction], paired: bool = True) -> Fraction:
    # paired=False is the uncorrected variant: the binomial C(j, l) degenerated to 1
    ms = [moment(l) for l in range(n + 1)]
    return _dot(
        (a * s1 * (comb(j, l) if paired else 1) * (n - k) ** (j - l), ms[l])
        for k, a in enumerate(seq._eulerian_row(n))
        if a
        for j, s1 in enumerate(seq._stirling1_row(n))
        if s1
        for l in range(j + 1)
    ) / factorial(n)


def _worpitzky_coeff(n: int, j: int) -> Fraction:
    """The Eulerian number as the alternating binomial sum sum_k (-1)^(j+k) C(n+1, j-k) k^n."""
    return Fraction(sum((-1) ** (j + k) * comb(n + 1, j - k) * k**n for k in range(j + 1)))


def _worpitzky_literal(n: int, denom: Callable[[int], Fraction]) -> Fraction:
    total = Fraction(0)
    for j in range(n + 1):
        for k in range(j + 1):
            for m in range(j + 1):
                total += (
                    (-1) ** (j + k + m)
                    * binom_poly(j - m)(j - 1)
                    * binom_int(n + 1, j - k)
                    * Fraction(factorial(j), factorial(n))
                    * k**n
                    * denom(m)
                )
    return total


def _assoc_weighted(n: int, moment: Callable[[int], Fraction]) -> Fraction:
    """The falling factorial through associated Stirling numbers, integrated by its moments."""
    return sum(
        binom_int(n, j) * seq.assoc_stirling1(n - j, k) * moment(k + j)
        for j in range(n + 1)
        for k in range((n - j) // 2 + 1)
    )


# ---------------------------------------------------------------------------
# statements that hold for both measures: one builder each, called once per
# measure at its record's place in the catalog; the first six record fields
# are passed in order (id, title, params, grid, lhs, rhs)


def _falling_by_stirling(rid: str, title: str, mu: _Integral) -> IdentityRecord:
    def lhs(n: int) -> Fraction:
        return sum(seq.stirling1(n, k) * mu.moment(k) for k in range(n + 1))

    return IdentityRecord(rid, title, ("n",), _grid((0, 20)), lhs, mu.falling)


def _rising_unsigned_stirling(rid: str, title: str, mu: _Integral, lo: int) -> IdentityRecord:
    def rhs(n: int) -> Fraction:
        return sum(seq.stirling1_unsigned(n, k) * mu.moment(k) for k in range(lo, n + 1))

    return IdentityRecord(rid, title, ("n",), _grid((lo, 15)), mu.rising, rhs)


def _rising_lah(rid: str, title: str, mu: _Integral, lo: int) -> IdentityRecord:
    def rhs(n: int) -> Fraction:
        return sum(seq.lah_unsigned(n, k) * mu.falling(k) for k in range(lo, n + 1))

    return IdentityRecord(rid, title, ("n",), _grid((lo, 15)), mu.rising, rhs)


def _rising_lah_stirling(rid: str, title: str, mu: _Integral) -> IdentityRecord:
    def rhs(n: int) -> Fraction:
        return sum(
            seq.lah_unsigned(n, k) * seq.stirling1(k, j) * mu.moment(j)
            for k in range(n + 1)
            for j in range(k + 1)
        )

    return IdentityRecord(rid, title, ("n",), _grid((0, 15)), mu.rising, rhs)


def _falling_over_x_integral(rid: str, title: str, mu: _Integral) -> IdentityRecord:
    def rhs(n: int) -> Fraction:
        return (-1) ** n * sum(
            perm(n, n - k) * factorial(k) * mu.weight(k) for k in range(n + 1)
        )

    return IdentityRecord(
        rid, title, ("n",), _grid((0, 15)), lambda n: mu.exact(_factorial_poly(n, -1)), rhs
    )


def _product_falling_tensor(rid: str, title: str, mu: _Integral) -> IdentityRecord:
    def rhs(k: int) -> Fraction:
        return _dot(
            (mu.falling(l), _dot((seq.osgood_wu(k, l, m), mu.falling(m)) for m in range(1, k + 1)))
            for l in range(1, k + 1)
        )

    return IdentityRecord(rid, title, ("k",), _grid((1, 8, 8)), mu.falling_of_product, rhs)


def _product_falling_stirling(rid: str, title: str, mu: _Integral, note: str) -> IdentityRecord:
    return IdentityRecord(
        id=rid,
        title=title,
        params=("k",),
        grid=_grid((1, 8, 8)),
        lhs=mu.falling_of_product,
        rhs=lambda k: sum(seq.stirling1(k, m) * mu.moment(m) ** 2 for m in range(k + 1)),
        status=CORRECTED,
        note=note,
        literal=lambda k: (
            mu.falling_of_product(k),
            sum(seq.stirling1(k, m) * mu.moment(k) ** 2 for m in range(k + 1)),
        ),
        counterexample=(2,),
    )


def _shifted_binomial_times_x(rid: str, title: str, mu: _Integral) -> IdentityRecord:
    def lhs(n: int) -> Fraction:
        return mu.exact(Polynomial.x() * _binom(n - 1, -2))

    def rhs(n: int) -> Fraction:
        return (-1) ** n * sum(k * mu.weight(k) for k in range(1, n + 1))

    return IdentityRecord(rid, title, ("n",), _grid((1, 15)), lhs, rhs)


def _scaled_binomial(rid: str, title: str, mu: _Integral) -> IdentityRecord:
    def lhs(m: int, n: int) -> Fraction:
        return mu.exact(_binom(n, 0, m))

    def rhs(m: int, n: int) -> Fraction:
        return _newton(mu, lambda i: comb(m * i, n), n)

    return IdentityRecord(rid, title, ("m", "n"), _grid(range(1, 6), (0, 15)), lhs, rhs)


def _binomial_power(rid: str, title: str, mu: _Integral) -> IdentityRecord:
    def lhs(r: int, n: int) -> Fraction:
        return mu.exact(falling_poly(n) ** r) / factorial(n) ** r

    def rhs(r: int, n: int) -> Fraction:
        return _newton(mu, lambda i: comb(i, n) ** r, n * r)

    return IdentityRecord(rid, title, ("r", "n"), _grid(range(1, 4), (0, 15)), lhs, rhs)


def _gould_square(rid: str, title: str, mu: _Integral, note: str) -> IdentityRecord:
    return IdentityRecord(
        id=rid,
        title=title,
        params=("n",),
        grid=_grid((2, 15)),
        lhs=lambda n: mu.exact(_gould_square_poly(n)),
        rhs=lambda n: (-1) ** n * sum(k * k * mu.weight(k) for k in range(n + 1)),
        status=CORRECTED,
        note=note,
        literal=lambda n: (
            mu.exact(
                Polynomial.x() * _binom(n - 1, -2)
                + Polynomial.x() * Polynomial([-1, 1]) * binom_poly(n - 2)(n - 3)
            ),
            (-1) ** n * sum(k * k * mu.weight(k) for k in range(n + 1)),
        ),
        counterexample=(3,),
    )


def _degree_shifted_newton(rid: str, title: str, mu: _Integral) -> IdentityRecord:
    def rhs(n: int) -> Fraction:
        return _newton(mu, lambda i: comb(i + n, n), n)

    return IdentityRecord(
        rid, title, ("n",), _grid((0, 15)), lambda n: mu.exact(_binom(n, n)), rhs
    )


def _degree_shifted_stirling(rid: str, title: str, mu: _Integral) -> IdentityRecord:
    def rhs(n: int) -> Fraction:
        return sum(
            mu.moment(k)
            * sum(binom_int(n, j) * seq.stirling1(j, k) / factorial(j) for j in range(n + 1))
            for k in range(n + 1)
        )

    return IdentityRecord(
        rid, title, ("n",), _grid((0, 15)), lambda n: mu.exact(_binom(n, n)), rhs
    )


def _half_integer_binomial(rid: str, title: str, mu: _Integral) -> IdentityRecord:
    def lhs(n: int) -> Fraction:
        return mu.exact(_binom(n, Fraction(2 * n + 1, 2)))

    def rhs(n: int) -> Fraction:
        return (2 * n + 1) * binom_int(2 * n, n) * sum(
            (-1) ** k
            * binom_int(n, k)
            * Fraction(4**k, 4**n * (2 * k + 1))
            * mu.weight(k)
            / binom_int(2 * k, k)
            for k in range(n + 1)
        )

    return IdentityRecord(rid, title, ("n",), _grid((0, 15)), lhs, rhs)


def _rising_signed_stirling(rid: str, title: str, mu: _Integral) -> IdentityRecord:
    def rhs(n: int) -> Fraction:
        return sum((-1) ** (m + n) * seq.stirling1(n, m) * mu.moment(m) for m in range(n + 2))

    return IdentityRecord(rid, title, ("n",), _grid((0, 15)), mu.rising, rhs)


def _rising_alternating(rid: str, title: str, mu: _Integral) -> IdentityRecord:
    return IdentityRecord(rid, title, ("n",), _grid((1, 15)), mu.rising, mu.hat)


def _eulerian_expansion(rid: str, title: str, mu: _Integral, note: str) -> IdentityRecord:
    return IdentityRecord(
        id=rid,
        title=title,
        params=("n",),
        grid=_grid((1, 15)),
        lhs=mu.moment,
        rhs=lambda n: _eulerian_moment(n, mu.moment),
        status=CORRECTED,
        note=note,
        literal=lambda n: (mu.moment(n), _eulerian_moment(n, mu.moment, paired=False)),
        counterexample=(2,),
    )


def _worpitzky(rid: str, title: str, mu: _Integral, note: str) -> IdentityRecord:
    return IdentityRecord(
        id=rid,
        title=title,
        params=("n",),
        grid=_grid((1, 15)),
        lhs=mu.moment,
        rhs=lambda n: sum(
            _worpitzky_coeff(n, j) * mu.exact(_binom(n, j - 1)) for j in range(n + 1)
        ),
        status=CORRECTED,
        note=note,
        literal=lambda n: (mu.moment(n), _worpitzky_literal(n, mu.weight)),
        counterexample=(2,),
    )


def _assoc_closed_form(rid: str, title: str, mu: _Integral) -> IdentityRecord:
    return IdentityRecord(
        rid, title, ("n",), _grid((0, 15)), lambda n: _assoc_weighted(n, mu.moment), mu.falling
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
    bos, fer = _integrals()
    records: list[IdentityRecord] = []
    add = records.append

    # --- falling-factorial integrals and the first Daehee family ----------

    add(_falling_by_stirling(
        "I01", "Stirling-weighted Bernoulli sum gives the Daehee closed form", bos
    ))

    add(IdentityRecord(
        id="I02",
        title="Bosonic integral of the shifted falling factorial",
        params=("n",),
        grid=_grid((1, 15)),
        lhs=lambda n: _volk(falling_poly(n).shift(1)),
        rhs=lambda n: F((-1) ** (n + 1) * factorial(n), n * n + n),
    ))

    add(IdentityRecord(
        id="I03",
        title="Bosonic integral of the forward difference of the falling factorial",
        params=("n",),
        grid=_grid((1, 15)),
        lhs=lambda n: _volk(falling_poly(n).shift(1) - falling_poly(n)),
        rhs=lambda n: F((-1) ** (n + 1) * factorial(n - 1)),
    ))

    add(IdentityRecord(
        id="I04a",
        title="Bosonic integral of the reflected falling factorial, Lah form",
        params=("n",),
        grid=_grid((1, 15)),
        lhs=_reflected_falling,
        rhs=lambda n: sum(
            (-1) ** (k + n) * binom_int(n - 1, k - 1) * F(factorial(n), k + 1)
            for k in range(1, n + 1)
        ),
    ))
    add(IdentityRecord(
        id="I04b",
        title="Bosonic integral of the reflected falling factorial, Stirling form",
        params=("n",),
        grid=_grid((1, 15)),
        lhs=_reflected_falling,
        rhs=lambda n: sum(
            (-1) ** m * seq.stirling1(n, m) * seq.bernoulli(m) for m in range(n + 2)
        ),
    ))

    # --- second-kind Daehee numbers: four expressions ---------------------

    add(_rising_unsigned_stirling(
        "I05a", "Rising-factorial integral equals the unsigned-Stirling Bernoulli sum", bos, 0
    ))
    add(IdentityRecord(
        id="I05b",
        title="Rising-factorial integral, alternating binomial form",
        params=("n",),
        grid=_grid((1, 15)),
        lhs=bos.rising,
        rhs=seq.daehee_hat,
    ))
    add(_rising_lah("I05c", "Rising-factorial integral, unsigned-Lah form", bos, 0))
    add(_rising_lah_stirling("I05d", "Rising-factorial integral, Lah-Stirling double sum", bos))

    # --- products with one extra factor of x -------------------------------

    add(IdentityRecord(
        id="I06a",
        title="Integral of x times the rising factorial, binomial form",
        params=("n",),
        grid=_grid((1, 15)),
        lhs=_x_rising,
        rhs=lambda n: sum(
            (-1) ** (k + 1) * binom_int(n - 1, k - 1) * F(factorial(n), k * k + 3 * k + 2)
            for k in range(1, n + 1)
        ),
    ))
    add(IdentityRecord(
        id="I06b",
        title="Integral of x times the rising factorial, Bernoulli form",
        params=("n",),
        grid=_grid((1, 15)),
        lhs=_x_rising,
        rhs=lambda n: sum(
            seq.stirling1_unsigned(n, k) * seq.bernoulli(k + 1) for k in range(1, n + 1)
        ),
    ))

    add(IdentityRecord(
        id="I07",
        title="Recurrence for the rising-factorial integrals with Lah weights",
        params=("n",),
        grid=_grid((1, 15)),
        lhs=lambda n: _volk(rising_poly(n + 1)) - n * _volk(rising_poly(n)),
        rhs=lambda n: sum(
            (-1) ** (k + 1) * seq.lah_unsigned(n, k) * F(factorial(k), k * k + 3 * k + 2)
            for k in range(1, n + 1)
        ),
    ))

    add(IdentityRecord(
        id="I08a",
        title="Integral of x times the falling factorial, closed form",
        params=("n",),
        grid=_grid((0, 15)),
        lhs=_x_falling,
        rhs=_x_falling_closed,
    ))
    add(IdentityRecord(
        id="I08b",
        title="Integral of x times the falling factorial, Stirling form",
        params=("n",),
        grid=_grid((0, 15)),
        lhs=_x_falling,
        rhs=_x_falling_stirling,
    ))

    add(_falling_over_x_integral(
        "I09", "Integral of the falling factorial with its linear factor removed", bos
    ))

    add(IdentityRecord(
        id="I10",
        title="Integral of the shifted falling factorial of one higher degree",
        params=("n",),
        grid=_grid((0, 15)),
        lhs=lambda n: _volk(falling_poly(n + 1).shift(1)),
        rhs=lambda n: F((-1) ** n * factorial(n), n + 2),
    ))

    add(IdentityRecord(
        id="I11a",
        title="First-kind Daehee recurrence, Stirling-Bernoulli form",
        params=("n",),
        grid=_grid((1, 15)),
        lhs=_daehee_step,
        rhs=_x_falling_stirling,
    ))
    add(IdentityRecord(
        id="I11b",
        title="First-kind Daehee recurrence, closed form",
        params=("n",),
        grid=_grid((1, 15)),
        lhs=_daehee_step,
        rhs=_x_falling_closed,
    ))

    # --- double integrals over two p-adic variables ------------------------

    add(IdentityRecord(
        id="I12a",
        title="Double integral of the binomial of a sum (Chu-Vandermonde route)",
        params=("n",),
        grid=_grid((0, 15)),
        lhs=_binom_of_sum,
        rhs=lambda n: (-1) ** n
        * sum(F(1, (k + 1) * (n - k + 1)) for k in range(n + 1)),
    ))
    add(IdentityRecord(
        id="I12b",
        title="Double integral of the binomial of a sum, Bernoulli-product form",
        params=("n",),
        grid=_grid((0, 15)),
        lhs=_binom_of_sum,
        rhs=lambda n: sum(
            binom_int(k, j) * seq.stirling1(n, k) * seq.bernoulli(j) * seq.bernoulli(k - j)
            for k in range(n + 1)
            for j in range(k + 1)
        )
        / factorial(n),
    ))
    add(IdentityRecord(
        id="I12c",
        title="Integral of the Daehee polynomial against its argument",
        params=("n",),
        grid=_grid((0, 15)),
        lhs=lambda n: _volk(seq.daehee_poly(n)),
        rhs=lambda n: (-1) ** n
        * sum(F(factorial(n), (k + 1) * (n - k + 1)) for k in range(n + 1)),
    ))

    add(IdentityRecord(
        id="I13a",
        title="Integral of the shifted binomial coefficient",
        params=("n",),
        grid=_grid((1, 15)),
        lhs=lambda n: _volk(binom_poly(n).shift(1)),
        rhs=lambda n: F((-1) ** (n + 1), n * n + n),
    ))
    add(IdentityRecord(
        id="I13b",
        title="Integral of the shifted binomial coefficient, next degree",
        params=("n",),
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
        params=("n",),
        grid=_grid((0, 15)),
        lhs=lambda n: _volk(_binom(n, n, -1)),
        rhs=lambda n: seq.harmonic(n),
        status=CORRECTED,
        note="holds under the bosonic measure and without the alternating sign; "
        "the fermionic statement with (-1)^n fails already at n = 1",
        literal=lambda n: (
            _ferm(_binom(n, n, -1)),
            (-1) ** n * seq.harmonic(n),
        ),
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
        params=("m", "n"),
        grid=_grid((0, 15), (0, 15)),
        lhs=lambda m, n: _volk(Polynomial.monomial(m) * falling_poly(n)),
        rhs=lambda m, n: sum(
            seq.stirling1(n, k) * seq.bernoulli(k + m) for k in range(n + 1)
        ),
    ))

    # --- products of two falling factorials ---------------------------------

    add(IdentityRecord(
        id="I23a",
        title="Integral of a product of falling factorials, connection form",
        params=("m", "n"),
        grid=_grid((0, 15), (0, 15)),
        lhs=_falling_pair,
        rhs=_sum_1f,
    ))
    add(IdentityRecord(
        id="I23b",
        title="Integral of a product of falling factorials, double-Stirling form",
        params=("m", "n"),
        grid=_grid((0, 15), (0, 15)),
        lhs=_falling_pair,
        rhs=_sum_1h,
    ))
    add(IdentityRecord(
        id="I23c",
        title="Integral of a product of falling factorials, mixed form",
        params=("m", "n"),
        grid=_grid((0, 15), (0, 15)),
        lhs=_falling_pair,
        rhs=_sum_1i,
    ))
    add(IdentityRecord(
        id="I23d",
        title="Integral of a product of falling factorials, Daehee-weighted form",
        params=("m", "n"),
        grid=_grid((0, 15), (0, 15)),
        lhs=_falling_pair,
        rhs=lambda m, n: sum(
            binom_int(m, k) * binom_int(n, k) * factorial(k) * seq.daehee(m + n - k)
            for k in range(m + 1)
        ),
        status=CORRECTED,
        note="the uncorrected form drops the k! connection factor and carries a spurious "
        "alternating sign on the already signed Daehee values",
        literal=lambda m, n: (
            _falling_pair(m, n),
            sum(
                (-1) ** (m + n - k)
                * binom_int(m, k)
                * binom_int(n, k)
                * seq.daehee(m + n - k)
                for k in range(m + 1)
            ),
        ),
        counterexample=(1, 1),
    ))
    add(IdentityRecord(
        id="I23e",
        title="Connection form equals double-Stirling form",
        params=("m", "n"),
        grid=_grid((0, 15), (0, 15)),
        lhs=_sum_1h,
        rhs=_sum_1f,
    ))
    add(IdentityRecord(
        id="I23f",
        title="Double-Stirling form equals mixed form",
        params=("m", "n"),
        grid=_grid((0, 15), (0, 15)),
        lhs=_sum_1h,
        rhs=_sum_1i,
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
        status=CORRECTED,
        note="the claimed scale factor 1/n! must be n!",
        literal=lambda n: (
            bos.rising(n),
            sum(F((-1) ** m, m + 1) * binom_int(n - 1, n - m) for m in range(n + 1))
            / factorial(n),
        ),
        counterexample=(2,),
    ))

    add(replace(
        _rising_lah(
            "I25", "Second-kind Daehee numbers as unsigned-Lah sums of first-kind ones", bos, 0
        ),
        status=CORRECTED,
        note="the uncorrected sum runs over one index and evaluates the Lah factor "
        "at another; both must be the summation index",
        literal=lambda n: (
            bos.rising(n),
            sum(seq.lah_unsigned(n, n) * seq.daehee(m) for m in range(n + 1)),
        ),
        counterexample=(2,),
    ))

    # --- fermionic counterparts --------------------------------------------

    add(IdentityRecord(
        id="I26a",
        title="Fermionic integral of the shifted falling factorial",
        params=("n",),
        grid=_grid((1, 15)),
        lhs=lambda n: _ferm(falling_poly(n).shift(1)),
        rhs=lambda n: F((-1) ** (n + 1) * factorial(n), 2**n),
    ))
    add(IdentityRecord(
        id="I26b",
        title="Fermionic integral of the shifted binomial coefficient",
        params=("n",),
        grid=_grid((1, 15)),
        lhs=lambda n: _ferm(binom_poly(n).shift(1)),
        rhs=lambda n: F((-1) ** (n + 1), 2**n),
    ))
    add(IdentityRecord(
        id="I26c",
        title="First-kind Changhee recurrence",
        params=("n",),
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
        status=CORRECTED,
        note="the uncorrected form omits the factorials carried by the two "
        "falling-factorial integrals",
        literal=lambda k: (
            fer.falling_of_product(k),
            sum(
                (-1) ** (l + m) * fer.weight(l + m) * seq.osgood_wu(k, l, m)
                for l in range(1, k + 1)
                for m in range(1, k + 1)
            ),
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
        params=("n",),
        grid=_grid((0, 15)),
        lhs=lambda n: _ferm(_binom(n, n, -1)),
        rhs=lambda n: sum(F(1, 2**k) for k in range(n + 1)),
        status=CORRECTED,
        note="the sum must start at k = 0 and the alternating prefactor must go",
        literal=lambda n: (
            _ferm(_binom(n, n, -1)),
            (-1) ** n * sum(F(1, 2**k) for k in range(1, n + 1)),
        ),
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
        params=("n", "k"),
        grid=_grid((0, 15), range(1, 7)),
        lhs=lambda n, k: _dot(
            (s, seq.lah_unsigned(m, k)) for m, s in enumerate(seq._stirling2_row(n))
        ),
        rhs=_lah_fubini,
        status=CORRECTED,
        note="the Lah factor must carry the summation index and the unsigned "
        "family (the substituted series has positive coefficients)",
        literal=lambda n, k: (
            seq.lah(n, k) * sum(seq.stirling2(n, m) for m in range(n + 1)),
            _lah_fubini(n, k),
        ),
        counterexample=(2, 1),
    ))

    add(IdentityRecord(
        id="I31",
        title="Telescoping of integral recurrences for falling factorials",
        params=("n",),
        grid=_grid((0, 15)),
        lhs=lambda n: sum(
            perm(n, n - k) * F(factorial(k), (k + 1) * (k + 2)) for k in range(n + 1)
        ),
        rhs=lambda n: F(factorial(n + 1), n + 2),
        status=CORRECTED,
        note="the claimed right side (n-1)!/(n+1) does not match the "
        "telescoped integrals; expansion gives (n+1)!/(n+2)",
        literal=lambda n: (
            sum(
                perm(n, n - k) * F(factorial(k), (k + 1) * (k + 2))
                for k in range(n + 1)
            ),
            F(factorial(n - 1), n + 1) if n >= 1 else F(0),
        ),
        counterexample=(1,),
    ))

    add(_assoc_closed_form(
        "I32a", "Associated-Stirling expansion integrates to the Daehee closed form", bos
    ))
    add(IdentityRecord(
        id="I32b",
        title="Associated-Stirling expansion matches the plain Stirling sum",
        params=("n",),
        grid=_grid((0, 15)),
        lhs=lambda n: _assoc_weighted(n, seq.bernoulli),
        rhs=lambda n: sum(seq.stirling1(n, l) * seq.bernoulli(l) for l in range(n + 1)),
    ))
    add(_assoc_closed_form(
        "I32c", "Associated-Stirling expansion under the fermionic integral", fer
    ))
    add(IdentityRecord(
        id="I32d",
        title="Associated-Stirling expansion under the unit-interval integral",
        params=("n",),
        grid=_grid((0, 15)),
        lhs=lambda n: _assoc_weighted(n, lambda i: F(1, i + 1)),
        rhs=seq.cauchy,
    ))

    add(IdentityRecord(
        id="I33a",
        title="Cauchy numbers as reciprocally weighted Stirling sums",
        params=("n",),
        grid=_grid((0, 20)),
        lhs=seq.cauchy,
        rhs=lambda n: sum(seq.stirling1(n, k) * F(1, k + 1) for k in range(n + 1)),
    ))
    add(_falling_by_stirling("I33b", "Stirling-Bernoulli sum, closed form", bos))
    add(_falling_by_stirling("I33c", "Stirling-Euler sum, closed form", fer))

    add(IdentityRecord(
        id="I34a",
        title="Bernoulli numbers from factorially weighted second-kind Stirling sums",
        params=("n",),
        grid=_grid((0, 20)),
        lhs=seq.bernoulli,
        rhs=lambda n: sum(
            (-1) ** k * F(factorial(k), k + 1) * seq.stirling2(n, k)
            for k in range(n + 1)
        ),
        status=CORRECTED,
        note="the truncated upper limit n-1 drops the k = n term",
        literal=lambda n: (
            seq.bernoulli(n),
            sum(
                (-1) ** k * F(factorial(k), k + 1) * seq.stirling2(n, k)
                for k in range(n)
            ),
        ),
        counterexample=(1,),
    ))
    add(IdentityRecord(
        id="I34b",
        title="Bernoulli numbers from Daehee-weighted second-kind Stirling sums",
        params=("n",),
        grid=_grid((0, 20)),
        lhs=seq.bernoulli,
        rhs=lambda n: sum(seq.daehee(k) * seq.stirling2(n, k) for k in range(n + 1)),
        status=CORRECTED,
        note="same truncated upper limit as the factorial form",
        literal=lambda n: (
            seq.bernoulli(n),
            sum(seq.daehee(k) * seq.stirling2(n, k) for k in range(n)),
        ),
        counterexample=(1,),
    ))

    add(IdentityRecord(
        id="I35",
        title="Bernoulli self-consistency through both Stirling kinds",
        params=("n",),
        grid=_grid((0, 15)),
        lhs=seq.bernoulli,
        rhs=lambda n: sum(
            seq.stirling2(n, k)
            * sum(seq.stirling1(k, j) * seq.bernoulli(j) for j in range(k))
            for k in range(n + 1)
        )
        + sum(seq.stirling2(n, k) * seq.bernoulli(k) for k in range(n + 1)),
    ))

    return records


# ---------------------------------------------------------------------------
# runner


def resolve_ids(ids: Sequence[str]) -> list[IdentityRecord]:
    """Resolve exact record ids or whole-group prefixes (e.g. 'I26')."""
    records = catalog()
    out: list[IdentityRecord] = []
    seen: set[str] = set()
    for wanted in ids:
        matches = [
            r
            for r in records
            if r.id == wanted
            or (
                r.id.startswith(wanted)
                and len(r.id) == len(wanted) + 1
                and r.id[-1].isalpha()
            )
        ]
        if not matches:
            raise KeyError(f"unknown identity id: {wanted}")
        for r in matches:
            if r.id not in seen:
                seen.add(r.id)
                out.append(r)
    return out


# Largest grid cap `verify` accepts.  The two-index sums grow steeply with it:
# a cold verify_all takes about 2, 6, 12 and 19 s at caps 15, 20, 25 and 30
# (CPython 3.11 on one core of a 2-vCPU virtual machine).
_N_MAX_LIMIT = 30


def verify(record: IdentityRecord | str, n_max: Optional[int] = None) -> RecordResult:
    """Evaluate both sides of one record on its grid; report mismatches.

    Corrected records additionally re-run the literal form at the stored
    counterexample and report whether it still fails there.
    """
    if n_max is not None and not 0 <= n_max <= _N_MAX_LIMIT:
        raise ValueError(f"n_max must be >= 0 and <= {_N_MAX_LIMIT}: got {n_max}")
    if isinstance(record, str):
        matches = resolve_ids([record])
        if len(matches) != 1:
            raise KeyError(f"{record} names {len(matches)} records; verify takes one")
        record = matches[0]
    if record.status == CORRECTED and (record.literal is None or record.counterexample is None):
        raise ValueError(
            f"corrected record {record.id} needs both a literal form and a counterexample"
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
    if record.status == CORRECTED:
        lv, rv = record.literal(*record.counterexample)
        literal_confirmed = lv != rv

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
