"""Executable catalog of integral and combinatorial identities.

Each record carries two independently computed evaluators over a finite
parameter grid.  A record is ``verified`` when the statement checks out
in its commonly stated form, and ``corrected`` when brute-force
expansion pinned down an amended statement; corrected records keep a
literal evaluator plus a stored counterexample so the original mismatch
stays reproducible.  The runner adjudicates nothing on its own: it just
evaluates both sides exactly on every grid point.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Callable, Optional, Sequence

from .integrals import fermionic_exact as _ferm
from .integrals import volkenborn_exact as _volk
from .polynomials import (
    Polynomial,
    _row_sum,
    binom_int,
    binom_poly,
    falling_poly,
    int_poly,
    linear_product,
    rising_poly,
    taylor_rows,
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


def _negate_var(f: Polynomial) -> Polynomial:
    """f(-x)."""
    return Polynomial([c if i % 2 == 0 else -c for i, c in enumerate(f)])


def _binom_shift_poly(n: int, a: Fraction | int) -> Polynomial:
    """C(x + a, n) as a polynomial in x (a may be any rational).

    With a = p/q each factor x + a - j is ((p - q j) + q x)/q, so the
    product is taken in ints and scaled once by 1/(q^n n!).
    """
    av = Fraction(a)
    p, q = av.numerator, av.denominator
    return int_poly(
        linear_product((p - q * j, q) for j in range(n)), Fraction(1, q**n * factorial(n))
    )


def _binom_reflected_poly(n: int) -> Polynomial:
    """C(n - x, n) as a polynomial in x."""
    return int_poly(linear_product((j, -1) for j in range(1, n + 1)), Fraction(1, factorial(n)))


def _binom_scaled_poly(m: int, n: int) -> Polynomial:
    """C(m x, n) as a polynomial in x."""
    return int_poly(linear_product((-j, m) for j in range(n)), Fraction(1, factorial(n)))


def _falling_over_x(n: int) -> Polynomial:
    """(x-1)(x-2)...(x-n): the degree-(n+1) falling factorial divided by x."""
    return int_poly(linear_product((-j, 1) for j in range(1, n + 1)))


def _gbinom(a: int, b: int) -> Fraction:
    """Generalized binomial C(a, b) for any integer a and b >= 0."""
    if b < 0:
        return Fraction(0)
    num = 1
    for i in range(b):
        num *= a - i
    return Fraction(num, factorial(b))


def _ff_int(n: int, j: int) -> Fraction:
    """Falling factorial n(n-1)...(n-j+1) of an integer."""
    out = 1
    for i in range(j):
        out *= n - i
    return Fraction(out)


# ---------------------------------------------------------------------------
# bivariate expansions: row i is the coefficient of y^i, a Polynomial in x


def _binom_of_sum_rows(n: int) -> list[Polynomial]:
    """C(x + y, n), the falling factorial at x + y over n!."""
    falling = linear_product((-j, 1) for j in range(n))
    return taylor_rows(falling, Fraction(1, factorial(n)))


def _product_falling_rows(k: int) -> list[Polynomial]:
    """(xy)(xy - 1)...(xy - k + 1)."""
    rows = [Polynomial.one()]
    xp = Polynomial.x()
    for j in range(k):
        # multiply by (x*y - j)
        new = []
        for i in range(len(rows) + 1):
            term = rows[i - 1] * xp if i >= 1 else Polynomial.zero()
            if i < len(rows):
                term = term + rows[i] * (-j)
            new.append(term)
        rows = new
    return rows


def _double_integral(
    rows: Sequence[Polynomial], weight_y: Callable[[int], Fraction], outer: Evaluator
) -> Fraction:
    """Integrate in y monomial-by-monomial, then apply the outer integral in x."""
    return outer(_row_sum(rows, weight_y))


# ---------------------------------------------------------------------------
# grids


def _grid_n(lo: int, hi: int) -> Grid:
    def g(cap: Optional[int]) -> tuple[tuple[int, ...], ...]:
        top = hi if cap is None else max(lo, cap)
        return tuple((n,) for n in range(lo, top + 1))

    return g


def _grid_nm(lo: int, hi: int) -> Grid:
    def g(cap: Optional[int]) -> tuple[tuple[int, ...], ...]:
        top = hi if cap is None else max(lo, cap)
        return tuple((n, m) for n in range(lo, top + 1) for m in range(lo, top + 1))

    return g


def _grid_tensor(hi: int = 8) -> Grid:
    def g(cap: Optional[int]) -> tuple[tuple[int, ...], ...]:
        top = hi if cap is None else max(1, min(cap, hi))
        return tuple((k,) for k in range(1, top + 1))

    return g


def _grid_pairs(m_hi: int = 5, n_hi: int = 15) -> Grid:
    def g(cap: Optional[int]) -> tuple[tuple[int, ...], ...]:
        top = n_hi if cap is None else max(0, cap)
        return tuple((m, n) for m in range(1, m_hi + 1) for n in range(0, top + 1))

    return g


def _grid_order(n_hi: int = 15, k_hi: int = 6) -> Grid:
    def g(cap: Optional[int]) -> tuple[tuple[int, ...], ...]:
        top = n_hi if cap is None else max(0, cap)
        return tuple((n, k) for n in range(0, top + 1) for k in range(1, k_hi + 1))

    return g


# ---------------------------------------------------------------------------
# shared right-hand sides


def _daehee_sum_stirling(n: int) -> Fraction:
    return sum(seq.stirling1(n, l) * seq.bernoulli(l) for l in range(n + 1))


def _changhee_sum_stirling(n: int) -> Fraction:
    return sum(seq.stirling1(n, k) * seq.euler(k) for k in range(n + 1))


def _rising_integral(n: int) -> Fraction:
    return _volk(rising_poly(n))


def _sum_1f(m: int, n: int) -> Fraction:
    return sum(
        (-1) ** (m + n - k)
        * binom_int(m, k)
        * binom_int(n, k)
        * Fraction(factorial(k) * factorial(m + n - k), m + n - k + 1)
        for k in range(m + 1)
    )


def _sum_1h(m: int, n: int) -> Fraction:
    return sum(
        seq.stirling1(n, j) * seq.stirling1(m, l) * seq.bernoulli(j + l)
        for j in range(n + 1)
        for l in range(m + 1)
    )


def _sum_1i(m: int, n: int) -> Fraction:
    total = Fraction(0)
    for k in range(m + 1):
        c = binom_int(m, k) * binom_int(n, k) * factorial(k)
        if not c:
            continue
        inner = sum(seq.stirling1(m + n - k, l) * seq.bernoulli(l) for l in range(m + n - k + 1))
        total += c * inner
    return total


def _gould_square_poly(n: int) -> Polynomial:
    """x C(x-2, n-1) + x(x-1) C(x-3, n-2), the expansion of sum (-1)^k C(x,k) k^2."""
    p = Polynomial.x() * _binom_shift_poly(n - 1, -2)
    if n >= 2:
        p = p + Polynomial.x() * Polynomial([-1, 1]) * _binom_shift_poly(n - 2, -3)
    return p


def _eulerian_moment(n: int, weight: Callable[[int], Fraction]) -> Fraction:
    total = Fraction(0)
    for k in range(n + 1):
        a = seq.eulerian(n, k)
        if not a:
            continue
        inner = Fraction(0)
        for j in range(n + 1):
            s1 = seq.stirling1(n, j)
            if not s1:
                continue
            inner += s1 * sum(
                binom_int(j, l) * (n - k) ** (j - l) * weight(l) for l in range(j + 1)
            )
        total += a * inner
    return total / factorial(n)


def _eulerian_moment_literal(n: int, weight: Callable[[int], Fraction]) -> Fraction:
    # uncorrected variant: binomial weight degenerated to 1
    total = Fraction(0)
    for k in range(n + 1):
        a = seq.eulerian(n, k)
        if not a:
            continue
        inner = Fraction(0)
        for j in range(n + 1):
            s1 = seq.stirling1(n, j)
            if not s1:
                continue
            inner += s1 * sum((n - k) ** (j - l) * weight(l) for l in range(j + 1))
        total += a * inner
    return total / factorial(n)


def _worpitzky_coeff(n: int, j: int) -> Fraction:
    """The Eulerian number as the alternating binomial sum sum_k (-1)^(j+k) C(n+1, j-k) k^n."""
    return Fraction(sum((-1) ** (j + k) * comb(n + 1, j - k) * k**n for k in range(j + 1)))


def _worpitzky_integral(n: int, exact: Evaluator) -> Fraction:
    return sum(
        _worpitzky_coeff(n, j) * exact(_binom_shift_poly(n, j - 1)) for j in range(n + 1)
    )


def _worpitzky_literal(n: int, denom: Callable[[int], Fraction]) -> Fraction:
    total = Fraction(0)
    for j in range(n + 1):
        for k in range(j + 1):
            for m in range(j + 1):
                total += (
                    (-1) ** (j + k + m)
                    * _gbinom(j - 1, j - m)
                    * binom_int(n + 1, j - k)
                    * Fraction(factorial(j), factorial(n))
                    * k**n
                    * denom(m)
                )
    return total


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
    records: list[IdentityRecord] = []
    add = records.append

    # --- falling-factorial integrals and the first Daehee family ----------

    add(IdentityRecord(
        id="I01",
        title="Stirling-weighted Bernoulli sum gives the Daehee closed form",
        params=("n",),
        grid=_grid_n(0, 20),
        lhs=_daehee_sum_stirling,
        rhs=lambda n: F((-1) ** n * factorial(n), n + 1),
    ))

    add(IdentityRecord(
        id="I02",
        title="Bosonic integral of the shifted falling factorial",
        params=("n",),
        grid=_grid_n(1, 15),
        lhs=lambda n: _volk(falling_poly(n).shift(1)),
        rhs=lambda n: F((-1) ** (n + 1) * factorial(n), n * n + n),
    ))

    add(IdentityRecord(
        id="I03",
        title="Bosonic integral of the forward difference of the falling factorial",
        params=("n",),
        grid=_grid_n(1, 15),
        lhs=lambda n: _volk(falling_poly(n).shift(1) - falling_poly(n)),
        rhs=lambda n: F((-1) ** (n + 1) * factorial(n - 1)),
    ))

    add(IdentityRecord(
        id="I04a",
        title="Bosonic integral of the reflected falling factorial, Lah form",
        params=("n",),
        grid=_grid_n(1, 15),
        lhs=lambda n: _volk(_negate_var(falling_poly(n))),
        rhs=lambda n: sum(
            (-1) ** (k + n) * binom_int(n - 1, k - 1) * F(factorial(n), k + 1)
            for k in range(1, n + 1)
        ),
    ))
    add(IdentityRecord(
        id="I04b",
        title="Bosonic integral of the reflected falling factorial, Stirling form",
        params=("n",),
        grid=_grid_n(1, 15),
        lhs=lambda n: _volk(_negate_var(falling_poly(n))),
        rhs=lambda n: sum(
            (-1) ** m * seq.stirling1(n, m) * seq.bernoulli(m) for m in range(n + 2)
        ),
    ))

    # --- second-kind Daehee numbers: four expressions ---------------------

    add(IdentityRecord(
        id="I05a",
        title="Rising-factorial integral equals the unsigned-Stirling Bernoulli sum",
        params=("n",),
        grid=_grid_n(0, 15),
        lhs=_rising_integral,
        rhs=lambda n: sum(
            seq.stirling1_unsigned(n, k) * seq.bernoulli(k) for k in range(n + 1)
        ),
    ))
    add(IdentityRecord(
        id="I05b",
        title="Rising-factorial integral, alternating binomial form",
        params=("n",),
        grid=_grid_n(1, 15),
        lhs=_rising_integral,
        rhs=lambda n: sum(
            (-1) ** k * F(factorial(n), k + 1) * binom_int(n - 1, k - 1)
            for k in range(1, n + 1)
        ),
    ))
    add(IdentityRecord(
        id="I05c",
        title="Rising-factorial integral, unsigned-Lah form",
        params=("n",),
        grid=_grid_n(0, 15),
        lhs=_rising_integral,
        rhs=lambda n: sum(
            (-1) ** k * seq.lah_unsigned(n, k) * F(factorial(k), k + 1)
            for k in range(n + 1)
        ),
    ))
    add(IdentityRecord(
        id="I05d",
        title="Rising-factorial integral, Lah-Stirling double sum",
        params=("n",),
        grid=_grid_n(0, 15),
        lhs=_rising_integral,
        rhs=lambda n: sum(
            seq.lah_unsigned(n, k) * seq.stirling1(k, j) * seq.bernoulli(j)
            for k in range(n + 1)
            for j in range(k + 1)
        ),
    ))

    # --- products with one extra factor of x -------------------------------

    add(IdentityRecord(
        id="I06a",
        title="Integral of x times the rising factorial, binomial form",
        params=("n",),
        grid=_grid_n(1, 15),
        lhs=lambda n: _volk(Polynomial.x() * rising_poly(n)),
        rhs=lambda n: sum(
            (-1) ** (k + 1) * binom_int(n - 1, k - 1) * F(factorial(n), k * k + 3 * k + 2)
            for k in range(1, n + 1)
        ),
    ))
    add(IdentityRecord(
        id="I06b",
        title="Integral of x times the rising factorial, Bernoulli form",
        params=("n",),
        grid=_grid_n(1, 15),
        lhs=lambda n: _volk(Polynomial.x() * rising_poly(n)),
        rhs=lambda n: sum(
            seq.stirling1_unsigned(n, k) * seq.bernoulli(k + 1) for k in range(1, n + 1)
        ),
    ))

    add(IdentityRecord(
        id="I07",
        title="Recurrence for the rising-factorial integrals with Lah weights",
        params=("n",),
        grid=_grid_n(1, 15),
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
        grid=_grid_n(0, 15),
        lhs=lambda n: _volk(Polynomial.x() * falling_poly(n)),
        rhs=lambda n: F((-1) ** (n + 1) * factorial(n), n * n + 3 * n + 2),
    ))
    add(IdentityRecord(
        id="I08b",
        title="Integral of x times the falling factorial, Stirling form",
        params=("n",),
        grid=_grid_n(0, 15),
        lhs=lambda n: _volk(Polynomial.x() * falling_poly(n)),
        rhs=lambda n: sum(seq.stirling1(n, k - 1) * seq.bernoulli(k) for k in range(1, n + 1))
        + seq.bernoulli(n + 1),
    ))

    add(IdentityRecord(
        id="I09",
        title="Integral of the falling factorial with its linear factor removed",
        params=("n",),
        grid=_grid_n(0, 15),
        lhs=lambda n: _volk(_falling_over_x(n)),
        rhs=lambda n: (-1) ** n
        * sum(_ff_int(n, n - k) * F(factorial(k), k + 1) for k in range(n + 1)),
    ))

    add(IdentityRecord(
        id="I10",
        title="Integral of the shifted falling factorial of one higher degree",
        params=("n",),
        grid=_grid_n(0, 15),
        lhs=lambda n: _volk(falling_poly(n + 1).shift(1)),
        rhs=lambda n: F((-1) ** n * factorial(n), n + 2),
    ))

    add(IdentityRecord(
        id="I11a",
        title="First-kind Daehee recurrence, Stirling-Bernoulli form",
        params=("n",),
        grid=_grid_n(1, 15),
        lhs=lambda n: _volk(falling_poly(n + 1)) + n * _volk(falling_poly(n)),
        rhs=lambda n: sum(seq.stirling1(n, k - 1) * seq.bernoulli(k) for k in range(1, n + 1))
        + seq.bernoulli(n + 1),
    ))
    add(IdentityRecord(
        id="I11b",
        title="First-kind Daehee recurrence, closed form",
        params=("n",),
        grid=_grid_n(1, 15),
        lhs=lambda n: _volk(falling_poly(n + 1)) + n * _volk(falling_poly(n)),
        rhs=lambda n: F((-1) ** (n + 1) * factorial(n), n * n + 3 * n + 2),
    ))

    # --- double integrals over two p-adic variables ------------------------

    add(IdentityRecord(
        id="I12a",
        title="Double integral of the binomial of a sum (Chu-Vandermonde route)",
        params=("n",),
        grid=_grid_n(0, 15),
        lhs=lambda n: _double_integral(_binom_of_sum_rows(n), seq.bernoulli, _volk),
        rhs=lambda n: (-1) ** n
        * sum(F(1, (k + 1) * (n - k + 1)) for k in range(n + 1)),
    ))
    add(IdentityRecord(
        id="I12b",
        title="Double integral of the binomial of a sum, Bernoulli-product form",
        params=("n",),
        grid=_grid_n(0, 15),
        lhs=lambda n: _double_integral(_binom_of_sum_rows(n), seq.bernoulli, _volk),
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
        grid=_grid_n(0, 15),
        lhs=lambda n: _volk(seq.daehee_poly(n)),
        rhs=lambda n: (-1) ** n
        * sum(F(factorial(n), (k + 1) * (n - k + 1)) for k in range(n + 1)),
    ))

    add(IdentityRecord(
        id="I13a",
        title="Integral of the shifted binomial coefficient",
        params=("n",),
        grid=_grid_n(1, 15),
        lhs=lambda n: _volk(binom_poly(n).shift(1)),
        rhs=lambda n: F((-1) ** (n + 1), n * n + n),
    ))
    add(IdentityRecord(
        id="I13b",
        title="Integral of the shifted binomial coefficient, next degree",
        params=("n",),
        grid=_grid_n(0, 15),
        lhs=lambda n: _volk(binom_poly(n + 1).shift(1)),
        rhs=lambda n: F((-1) ** n, n * n + 3 * n + 2),
    ))

    add(IdentityRecord(
        id="I14a",
        title="Double integral of the falling factorial of a product, tensor form",
        params=("k",),
        grid=_grid_tensor(8),
        lhs=lambda k: _double_integral(_product_falling_rows(k), seq.bernoulli, _volk),
        rhs=lambda k: sum(
            (-1) ** (l + m)
            * F(factorial(l) * factorial(m), (l + 1) * (m + 1))
            * seq.osgood_wu(k, l, m)
            for l in range(1, k + 1)
            for m in range(1, k + 1)
        ),
    ))
    add(IdentityRecord(
        id="I14b",
        title="Double integral of the falling factorial of a product, Stirling form",
        params=("k",),
        grid=_grid_tensor(8),
        lhs=lambda k: _double_integral(_product_falling_rows(k), seq.bernoulli, _volk),
        rhs=lambda k: sum(
            seq.stirling1(k, m) * seq.bernoulli(m) ** 2 for m in range(k + 1)
        ),
        status=CORRECTED,
        note="the uncorrected form squares a Bernoulli number with an unbound index; "
        "the summation index must also drive the squared factor",
        literal=lambda k: (
            _double_integral(_product_falling_rows(k), seq.bernoulli, _volk),
            sum(seq.stirling1(k, m) * seq.bernoulli(k) ** 2 for m in range(k + 1)),
        ),
        counterexample=(2,),
    ))

    # --- classical binomial-sum integrals ----------------------------------

    add(IdentityRecord(
        id="I15",
        title="Integral of x times a doubly shifted binomial coefficient",
        params=("n",),
        grid=_grid_n(1, 15),
        lhs=lambda n: _volk(Polynomial.x() * _binom_shift_poly(n - 1, -2)),
        rhs=lambda n: (-1) ** n * sum(F(k, k + 1) for k in range(1, n + 1)),
    ))

    add(IdentityRecord(
        id="I16",
        title="Integral of the reflected binomial gives harmonic partial sums",
        params=("n",),
        grid=_grid_n(0, 15),
        lhs=lambda n: _volk(_binom_reflected_poly(n)),
        rhs=lambda n: seq.harmonic(n),
        status=CORRECTED,
        note="holds under the bosonic measure and without the alternating sign; "
        "the fermionic statement with (-1)^n fails already at n = 1",
        literal=lambda n: (
            _ferm(_binom_reflected_poly(n)),
            (-1) ** n * seq.harmonic(n),
        ),
        counterexample=(1,),
    ))

    add(IdentityRecord(
        id="I17",
        title="Integral of a binomial with scaled argument",
        params=("m", "n"),
        grid=_grid_pairs(5, 15),
        lhs=lambda m, n: _volk(_binom_scaled_poly(m, n)),
        rhs=lambda m, n: sum(
            F((-1) ** k, k + 1)
            * sum(
                (-1) ** j * binom_int(k, j) * binom_int(m * (k - j), n)
                for j in range(k + 1)
            )
            for k in range(n + 1)
        ),
    ))

    add(IdentityRecord(
        id="I18",
        title="Integral of an integer power of the binomial coefficient",
        params=("r", "n"),
        grid=_grid_pairs(3, 15),
        lhs=lambda r, n: _volk(binom_poly(n) ** r),
        rhs=lambda r, n: sum(
            F((-1) ** k, k + 1)
            * sum(
                (-1) ** j * binom_int(k, j) * binom_int(k - j, n) ** r
                for j in range(k + 1)
            )
            for k in range(n * r + 1)
        ),
    ))

    add(IdentityRecord(
        id="I19",
        title="Integral of the square-weighted binomial expansion",
        params=("n",),
        grid=_grid_n(2, 15),
        lhs=lambda n: _volk(_gould_square_poly(n)),
        rhs=lambda n: (-1) ** n * sum(F(k * k, k + 1) for k in range(n + 1)),
        status=CORRECTED,
        note="the constant binomial in the uncorrected statement must be the "
        "polynomial C(x-3, n-2); with the constant the statement fails at n = 3",
        literal=lambda n: (
            _volk(
                Polynomial.x() * _binom_shift_poly(n - 1, -2)
                + Polynomial.x() * Polynomial([-1, 1]) * _gbinom(n - 3, n - 2)
            ),
            (-1) ** n * sum(F(k * k, k + 1) for k in range(n + 1)),
        ),
        counterexample=(3,),
    ))

    add(IdentityRecord(
        id="I20a",
        title="Integral of the binomial shifted by its own degree, alternating form",
        params=("n",),
        grid=_grid_n(0, 15),
        lhs=lambda n: _volk(_binom_shift_poly(n, n)),
        rhs=lambda n: sum(
            F((-1) ** k, k + 1)
            * sum(
                (-1) ** j * binom_int(k, j) * binom_int(k - j + n, n)
                for j in range(k + 1)
            )
            for k in range(n + 1)
        ),
    ))
    add(IdentityRecord(
        id="I20b",
        title="Integral of the binomial shifted by its own degree, Bernoulli form",
        params=("n",),
        grid=_grid_n(0, 15),
        lhs=lambda n: _volk(_binom_shift_poly(n, n)),
        rhs=lambda n: sum(
            seq.bernoulli(k)
            * sum(
                binom_int(n, j) * seq.stirling1(j, k) / factorial(j)
                for j in range(n + 1)
            )
            for k in range(n + 1)
        ),
    ))

    add(IdentityRecord(
        id="I21",
        title="Integral of the half-integer shifted binomial",
        params=("n",),
        grid=_grid_n(0, 15),
        lhs=lambda n: _volk(_binom_shift_poly(n, Fraction(2 * n + 1, 2))),
        rhs=lambda n: binom_int(2 * n, n)
        * sum(
            (-1) ** k
            * binom_int(n, k)
            * F(4**k * (2 * n + 1), 4**n * (k + 1) * (2 * k + 1))
            / binom_int(2 * k, k)
            for k in range(n + 1)
        ),
    ))

    add(IdentityRecord(
        id="I22",
        title="Integral of a monomial times the falling factorial",
        params=("m", "n"),
        grid=_grid_nm(0, 15),
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
        grid=_grid_nm(0, 15),
        lhs=lambda m, n: _volk(falling_poly(m) * falling_poly(n)),
        rhs=_sum_1f,
    ))
    add(IdentityRecord(
        id="I23b",
        title="Integral of a product of falling factorials, double-Stirling form",
        params=("m", "n"),
        grid=_grid_nm(0, 15),
        lhs=lambda m, n: _volk(falling_poly(m) * falling_poly(n)),
        rhs=_sum_1h,
    ))
    add(IdentityRecord(
        id="I23c",
        title="Integral of a product of falling factorials, mixed form",
        params=("m", "n"),
        grid=_grid_nm(0, 15),
        lhs=lambda m, n: _volk(falling_poly(m) * falling_poly(n)),
        rhs=_sum_1i,
    ))
    add(IdentityRecord(
        id="I23d",
        title="Integral of a product of falling factorials, Daehee-weighted form",
        params=("m", "n"),
        grid=_grid_nm(0, 15),
        lhs=lambda m, n: _volk(falling_poly(m) * falling_poly(n)),
        rhs=lambda m, n: sum(
            binom_int(m, k) * binom_int(n, k) * factorial(k) * seq.daehee(m + n - k)
            for k in range(m + 1)
        ),
        status=CORRECTED,
        note="the uncorrected form drops the k! connection factor and carries a spurious "
        "alternating sign on the already signed Daehee values",
        literal=lambda m, n: (
            _volk(falling_poly(m) * falling_poly(n)),
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
        grid=_grid_nm(0, 15),
        lhs=_sum_1h,
        rhs=_sum_1f,
    ))
    add(IdentityRecord(
        id="I23f",
        title="Double-Stirling form equals mixed form",
        params=("m", "n"),
        grid=_grid_nm(0, 15),
        lhs=_sum_1h,
        rhs=_sum_1i,
    ))

    # --- rising factorial as shifted falling factorial ---------------------

    add(IdentityRecord(
        id="I24a",
        title="Rising-factorial integral, signed Stirling-Bernoulli form",
        params=("n",),
        grid=_grid_n(0, 15),
        lhs=_rising_integral,
        rhs=lambda n: sum(
            (-1) ** (m + n) * seq.stirling1(n, m) * seq.bernoulli(m) for m in range(n + 2)
        ),
    ))
    add(IdentityRecord(
        id="I24b",
        title="Rising-factorial integral, alternating binomial sum",
        params=("n",),
        grid=_grid_n(1, 15),
        lhs=_rising_integral,
        rhs=lambda n: factorial(n)
        * sum(F((-1) ** m, m + 1) * binom_int(n - 1, n - m) for m in range(n + 1)),
    ))
    add(IdentityRecord(
        id="I24c",
        title="Second-kind Daehee numbers from the alternating binomial sum",
        params=("n",),
        grid=_grid_n(1, 15),
        lhs=_rising_integral,
        rhs=lambda n: factorial(n)
        * sum(F((-1) ** m, m + 1) * binom_int(n - 1, n - m) for m in range(n + 1)),
        status=CORRECTED,
        note="the claimed scale factor 1/n! must be n!",
        literal=lambda n: (
            _rising_integral(n),
            sum(F((-1) ** m, m + 1) * binom_int(n - 1, n - m) for m in range(n + 1))
            / factorial(n),
        ),
        counterexample=(2,),
    ))

    add(IdentityRecord(
        id="I25",
        title="Second-kind Daehee numbers as unsigned-Lah sums of first-kind ones",
        params=("n",),
        grid=_grid_n(0, 15),
        lhs=_rising_integral,
        rhs=lambda n: sum(seq.lah_unsigned(n, k) * seq.daehee(k) for k in range(n + 1)),
        status=CORRECTED,
        note="the uncorrected sum runs over one index and evaluates the Lah factor "
        "at another; both must be the summation index",
        literal=lambda n: (
            _rising_integral(n),
            sum(seq.lah_unsigned(n, n) * seq.daehee(m) for m in range(n + 1)),
        ),
        counterexample=(2,),
    ))

    # --- fermionic counterparts --------------------------------------------

    add(IdentityRecord(
        id="I26a",
        title="Fermionic integral of the shifted falling factorial",
        params=("n",),
        grid=_grid_n(1, 15),
        lhs=lambda n: _ferm(falling_poly(n).shift(1)),
        rhs=lambda n: F((-1) ** (n + 1) * factorial(n), 2**n),
    ))
    add(IdentityRecord(
        id="I26b",
        title="Fermionic integral of the shifted binomial coefficient",
        params=("n",),
        grid=_grid_n(1, 15),
        lhs=lambda n: _ferm(binom_poly(n).shift(1)),
        rhs=lambda n: F((-1) ** (n + 1), 2**n),
    ))
    add(IdentityRecord(
        id="I26c",
        title="First-kind Changhee recurrence",
        params=("n",),
        grid=_grid_n(1, 15),
        lhs=lambda n: _ferm(falling_poly(n + 1)) + n * _ferm(falling_poly(n)),
        rhs=lambda n: F((-1) ** n * factorial(n) * (n - 1), 2 ** (n + 1)),
    ))
    add(IdentityRecord(
        id="I26d",
        title="Fermionic integral of the falling factorial without its linear factor",
        params=("n",),
        grid=_grid_n(0, 15),
        lhs=lambda n: _ferm(_falling_over_x(n)),
        rhs=lambda n: (-1) ** n
        * sum(_ff_int(n, n - k) * F(factorial(k), 2**k) for k in range(n + 1)),
    ))
    add(IdentityRecord(
        id="I26e",
        title="Fermionic double integral of the product falling factorial, tensor form",
        params=("k",),
        grid=_grid_tensor(8),
        lhs=lambda k: _double_integral(_product_falling_rows(k), seq.euler, _ferm),
        rhs=lambda k: sum(
            (-1) ** (l + m)
            * F(factorial(l) * factorial(m), 2 ** (l + m))
            * seq.osgood_wu(k, l, m)
            for l in range(1, k + 1)
            for m in range(1, k + 1)
        ),
        status=CORRECTED,
        note="the uncorrected form omits the factorials carried by the two "
        "falling-factorial integrals",
        literal=lambda k: (
            _double_integral(_product_falling_rows(k), seq.euler, _ferm),
            sum(
                (-1) ** (l + m) * F(1, 2 ** (l + m)) * seq.osgood_wu(k, l, m)
                for l in range(1, k + 1)
                for m in range(1, k + 1)
            ),
        ),
        counterexample=(2,),
    ))
    add(IdentityRecord(
        id="I26f",
        title="Fermionic double integral of the product falling factorial, Stirling form",
        params=("k",),
        grid=_grid_tensor(8),
        lhs=lambda k: _double_integral(_product_falling_rows(k), seq.euler, _ferm),
        rhs=lambda k: sum(seq.stirling1(k, m) * seq.euler(m) ** 2 for m in range(k + 1)),
        status=CORRECTED,
        note="same unbound squared index as the bosonic version",
        literal=lambda k: (
            _double_integral(_product_falling_rows(k), seq.euler, _ferm),
            sum(seq.stirling1(k, m) * seq.euler(k) ** 2 for m in range(k + 1)),
        ),
        counterexample=(2,),
    ))
    add(IdentityRecord(
        id="I26g",
        title="Fermionic integral of the binomial shifted by its degree, alternating form",
        params=("n",),
        grid=_grid_n(0, 15),
        lhs=lambda n: _ferm(_binom_shift_poly(n, n)),
        rhs=lambda n: sum(
            F((-1) ** k, 2**k)
            * sum(
                (-1) ** j * binom_int(k, j) * binom_int(k - j + n, n)
                for j in range(k + 1)
            )
            for k in range(n + 1)
        ),
    ))
    add(IdentityRecord(
        id="I26h",
        title="Fermionic integral of the binomial shifted by its degree, Euler form",
        params=("n",),
        grid=_grid_n(0, 15),
        lhs=lambda n: _ferm(_binom_shift_poly(n, n)),
        rhs=lambda n: sum(
            seq.euler(k)
            * sum(
                binom_int(n, j) * seq.stirling1(j, k) / factorial(j)
                for j in range(n + 1)
            )
            for k in range(n + 1)
        ),
    ))
    add(IdentityRecord(
        id="I26i",
        title="Fermionic integral of a binomial with scaled argument",
        params=("m", "n"),
        grid=_grid_pairs(5, 15),
        lhs=lambda m, n: _ferm(_binom_scaled_poly(m, n)),
        rhs=lambda m, n: sum(
            F((-1) ** k, 2**k)
            * sum(
                (-1) ** j * binom_int(k, j) * binom_int(m * (k - j), n)
                for j in range(k + 1)
            )
            for k in range(n + 1)
        ),
    ))
    add(IdentityRecord(
        id="I26j",
        title="Fermionic integral of an integer power of the binomial coefficient",
        params=("r", "n"),
        grid=_grid_pairs(3, 15),
        lhs=lambda r, n: _ferm(binom_poly(n) ** r),
        rhs=lambda r, n: sum(
            F((-1) ** k, 2**k)
            * sum(
                (-1) ** j * binom_int(k, j) * binom_int(k - j, n) ** r
                for j in range(k + 1)
            )
            for k in range(n * r + 1)
        ),
    ))
    add(IdentityRecord(
        id="I26k",
        title="Fermionic integral of x times a doubly shifted binomial",
        params=("n",),
        grid=_grid_n(1, 15),
        lhs=lambda n: _ferm(Polynomial.x() * _binom_shift_poly(n - 1, -2)),
        rhs=lambda n: (-1) ** n * sum(F(k, 2**k) for k in range(1, n + 1)),
    ))
    add(IdentityRecord(
        id="I26l",
        title="Fermionic integral of the reflected binomial",
        params=("n",),
        grid=_grid_n(0, 15),
        lhs=lambda n: _ferm(_binom_reflected_poly(n)),
        rhs=lambda n: sum(F(1, 2**k) for k in range(n + 1)),
        status=CORRECTED,
        note="the sum must start at k = 0 and the alternating prefactor must go",
        literal=lambda n: (
            _ferm(_binom_reflected_poly(n)),
            (-1) ** n * sum(F(1, 2**k) for k in range(1, n + 1)),
        ),
        counterexample=(1,),
    ))
    add(IdentityRecord(
        id="I26m",
        title="Fermionic integral of the square-weighted binomial expansion",
        params=("n",),
        grid=_grid_n(2, 15),
        lhs=lambda n: _ferm(_gould_square_poly(n)),
        rhs=lambda n: (-1) ** n * sum(F(k * k, 2**k) for k in range(n + 1)),
        status=CORRECTED,
        note="same constant-binomial typo as the bosonic version",
        literal=lambda n: (
            _ferm(
                Polynomial.x() * _binom_shift_poly(n - 1, -2)
                + Polynomial.x() * Polynomial([-1, 1]) * _gbinom(n - 3, n - 2)
            ),
            (-1) ** n * sum(F(k * k, 2**k) for k in range(n + 1)),
        ),
        counterexample=(3,),
    ))
    add(IdentityRecord(
        id="I26n",
        title="Fermionic integral of the half-integer shifted binomial",
        params=("n",),
        grid=_grid_n(0, 15),
        lhs=lambda n: _ferm(_binom_shift_poly(n, Fraction(2 * n + 1, 2))),
        rhs=lambda n: (2 * n + 1)
        * binom_int(2 * n, n)
        * sum(
            (-1) ** k
            * binom_int(n, k)
            * F(2**k, 4**n * (2 * k + 1))
            / binom_int(2 * k, k)
            for k in range(n + 1)
        ),
    ))

    # --- second-kind Changhee numbers ---------------------------------------

    add(IdentityRecord(
        id="I27a",
        title="Fermionic rising-factorial integral, unsigned-Lah form",
        params=("n",),
        grid=_grid_n(1, 15),
        lhs=lambda n: _ferm(rising_poly(n)),
        rhs=lambda n: sum(
            (-1) ** k * seq.lah_unsigned(n, k) * F(factorial(k), 2**k)
            for k in range(1, n + 1)
        ),
    ))
    add(IdentityRecord(
        id="I27b",
        title="Fermionic rising-factorial integral, unsigned-Stirling Euler sum",
        params=("n",),
        grid=_grid_n(1, 15),
        lhs=lambda n: _ferm(rising_poly(n)),
        rhs=lambda n: sum(
            seq.stirling1_unsigned(n, k) * seq.euler(k) for k in range(1, n + 1)
        ),
    ))
    add(IdentityRecord(
        id="I27c",
        title="Fermionic rising-factorial integral, alternating binomial sum",
        params=("n",),
        grid=_grid_n(1, 15),
        lhs=lambda n: _ferm(rising_poly(n)),
        rhs=lambda n: factorial(n)
        * sum(F((-1) ** m, 2**m) * binom_int(n - 1, n - m) for m in range(n + 1)),
    ))
    add(IdentityRecord(
        id="I27d",
        title="Fermionic rising-factorial integral, signed Stirling-Euler form",
        params=("n",),
        grid=_grid_n(0, 15),
        lhs=lambda n: _ferm(rising_poly(n)),
        rhs=lambda n: sum(
            (-1) ** (m + n) * seq.stirling1(n, m) * seq.euler(m) for m in range(n + 2)
        ),
    ))
    add(IdentityRecord(
        id="I27e",
        title="Fermionic rising-factorial integral, Lah-Stirling double sum",
        params=("n",),
        grid=_grid_n(0, 15),
        lhs=lambda n: _ferm(rising_poly(n)),
        rhs=lambda n: sum(
            seq.lah_unsigned(n, k) * seq.stirling1(k, j) * seq.euler(j)
            for k in range(n + 1)
            for j in range(k + 1)
        ),
    ))

    # --- Eulerian-number expansions -----------------------------------------

    add(IdentityRecord(
        id="I28a",
        title="Bernoulli numbers from the Eulerian expansion of the monomial",
        params=("n",),
        grid=_grid_n(1, 15),
        lhs=seq.bernoulli,
        rhs=lambda n: _eulerian_moment(n, seq.bernoulli),
        status=CORRECTED,
        note="the inner binomial must pair the exponent split; the uncorrected form "
        "collapses it to 1",
        literal=lambda n: (
            seq.bernoulli(n),
            _eulerian_moment_literal(n, seq.bernoulli),
        ),
        counterexample=(2,),
    ))
    add(IdentityRecord(
        id="I28b",
        title="Euler numbers from the Eulerian expansion of the monomial",
        params=("n",),
        grid=_grid_n(1, 15),
        lhs=seq.euler,
        rhs=lambda n: _eulerian_moment(n, seq.euler),
        status=CORRECTED,
        note="same binomial collapse as the Bernoulli version",
        literal=lambda n: (
            seq.euler(n),
            _eulerian_moment_literal(n, seq.euler),
        ),
        counterexample=(2,),
    ))

    add(IdentityRecord(
        id="I29a",
        title="Bernoulli numbers through the shifted-binomial basis",
        params=("n",),
        grid=_grid_n(1, 15),
        lhs=seq.bernoulli,
        rhs=lambda n: _worpitzky_integral(n, _volk),
        status=CORRECTED,
        note="the uncorrected closed form reuses a fixed-shift integral formula at "
        "every shift; the integrals must be taken at their own shifts",
        literal=lambda n: (
            seq.bernoulli(n),
            _worpitzky_literal(n, lambda m: F(1, m + 1)),
        ),
        counterexample=(2,),
    ))
    add(IdentityRecord(
        id="I29b",
        title="Euler numbers through the shifted-binomial basis",
        params=("n",),
        grid=_grid_n(1, 15),
        lhs=seq.euler,
        rhs=lambda n: _worpitzky_integral(n, _ferm),
        status=CORRECTED,
        note="same misapplied shift formula as the Bernoulli version",
        literal=lambda n: (
            seq.euler(n),
            _worpitzky_literal(n, lambda m: F(1, 2**m)),
        ),
        counterexample=(2,),
    ))

    # --- functional-equation and generating-function consequences -----------

    add(IdentityRecord(
        id="I30",
        title="Composition of the Lah and exponential generating functions",
        params=("n", "k"),
        grid=_grid_order(15, 6),
        lhs=lambda n, k: sum(
            seq.stirling2(n, m) * seq.lah_unsigned(m, k) for m in range(n + 1)
        ),
        rhs=lambda n, k: sum(
            binom_int(n, m) * seq.stirling2(n - m, k) * seq.fubini_order(m, k)
            for m in range(n + 1)
        ),
        status=CORRECTED,
        note="the Lah factor must carry the summation index and the unsigned "
        "family (the substituted series has positive coefficients)",
        literal=lambda n, k: (
            seq.lah(n, k) * sum(seq.stirling2(n, m) for m in range(n + 1)),
            sum(
                binom_int(n, m) * seq.stirling2(n - m, k) * seq.fubini_order(m, k)
                for m in range(n + 1)
            ),
        ),
        counterexample=(2, 1),
    ))

    add(IdentityRecord(
        id="I31",
        title="Telescoping of integral recurrences for falling factorials",
        params=("n",),
        grid=_grid_n(0, 15),
        lhs=lambda n: sum(
            _ff_int(n, n - k) * F(factorial(k), (k + 1) * (k + 2)) for k in range(n + 1)
        ),
        rhs=lambda n: F(factorial(n + 1), n + 2),
        status=CORRECTED,
        note="the claimed right side (n-1)!/(n+1) does not match the "
        "telescoped integrals; expansion gives (n+1)!/(n+2)",
        literal=lambda n: (
            sum(
                _ff_int(n, n - k) * F(factorial(k), (k + 1) * (k + 2))
                for k in range(n + 1)
            ),
            F(factorial(n - 1), n + 1) if n >= 1 else F(0),
        ),
        counterexample=(1,),
    ))

    def _assoc_weighted(n: int, weight: Callable[[int], Fraction]) -> Fraction:
        return sum(
            binom_int(n, j) * seq.assoc_stirling1(n - j, k) * weight(k + j)
            for j in range(n + 1)
            for k in range((n - j) // 2 + 1)
        )

    add(IdentityRecord(
        id="I32a",
        title="Associated-Stirling expansion integrates to the Daehee closed form",
        params=("n",),
        grid=_grid_n(0, 15),
        lhs=lambda n: _assoc_weighted(n, seq.bernoulli),
        rhs=lambda n: F((-1) ** n * factorial(n), n + 1),
    ))
    add(IdentityRecord(
        id="I32b",
        title="Associated-Stirling expansion matches the plain Stirling sum",
        params=("n",),
        grid=_grid_n(0, 15),
        lhs=lambda n: _assoc_weighted(n, seq.bernoulli),
        rhs=_daehee_sum_stirling,
    ))
    add(IdentityRecord(
        id="I32c",
        title="Associated-Stirling expansion under the fermionic integral",
        params=("n",),
        grid=_grid_n(0, 15),
        lhs=lambda n: _assoc_weighted(n, seq.euler),
        rhs=lambda n: F((-1) ** n * factorial(n), 2**n),
    ))
    add(IdentityRecord(
        id="I32d",
        title="Associated-Stirling expansion under the unit-interval integral",
        params=("n",),
        grid=_grid_n(0, 15),
        lhs=lambda n: _assoc_weighted(n, lambda i: F(1, i + 1)),
        rhs=seq.cauchy,
    ))

    add(IdentityRecord(
        id="I33a",
        title="Cauchy numbers as reciprocally weighted Stirling sums",
        params=("n",),
        grid=_grid_n(0, 20),
        lhs=seq.cauchy,
        rhs=lambda n: sum(seq.stirling1(n, k) * F(1, k + 1) for k in range(n + 1)),
    ))
    add(IdentityRecord(
        id="I33b",
        title="Stirling-Bernoulli sum, closed form",
        params=("n",),
        grid=_grid_n(0, 20),
        lhs=_daehee_sum_stirling,
        rhs=lambda n: F((-1) ** n * factorial(n), n + 1),
    ))
    add(IdentityRecord(
        id="I33c",
        title="Stirling-Euler sum, closed form",
        params=("n",),
        grid=_grid_n(0, 20),
        lhs=_changhee_sum_stirling,
        rhs=lambda n: F((-1) ** n * factorial(n), 2**n),
    ))

    add(IdentityRecord(
        id="I34a",
        title="Bernoulli numbers from factorially weighted second-kind Stirling sums",
        params=("n",),
        grid=_grid_n(0, 20),
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
        grid=_grid_n(0, 20),
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
        grid=_grid_n(0, 15),
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


def verify(record: IdentityRecord | str, n_max: Optional[int] = None) -> RecordResult:
    """Evaluate both sides of one record on its grid; report mismatches.

    Corrected records additionally re-run the literal form at the stored
    counterexample and report whether it still fails there.
    """
    if isinstance(record, str):
        matches = resolve_ids([record])
        if len(matches) != 1:
            raise KeyError(f"{record} names {len(matches)} records; verify takes one")
        record = matches[0]
    if record.status == CORRECTED and (record.literal is None or record.counterexample is None):
        raise ValueError(
            f"corrected record {record.id} needs both a literal form and a counterexample"
        )

    points = 0
    mismatches: list[Mismatch] = []
    for params in record.grid(n_max):
        points += 1
        left = record.lhs(*params)
        right = record.rhs(*params)
        if left != right:
            mismatches.append(Mismatch(params, left, right))

    literal_confirmed: Optional[bool] = None
    if record.status == CORRECTED:
        lv, rv = record.literal(*record.counterexample)
        literal_confirmed = lv != rv

    return RecordResult(
        id=record.id,
        status=record.status,
        points=points,
        mismatch_count=len(mismatches),
        first_mismatch=mismatches[0] if mismatches else None,
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
