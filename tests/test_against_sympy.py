"""Differential tests of the number families against sympy.

sympy computes each family by code of its own, so agreement here is an
oracle that shares nothing with the library's recurrences.  The installed
sympy gives B_1 = +1/2 (second-kind sign convention); the library uses
B_1 = -1/2, so that one value is compared with its sign flipped.
"""
from fractions import Fraction

import pytest

from volkenborn import sequences as seq

sympy = pytest.importorskip("sympy")
stirling = sympy.functions.combinatorial.numbers.stirling
X = sympy.Symbol("x")


def frac(r) -> Fraction:
    r = sympy.Rational(r)
    return Fraction(int(r.p), int(r.q))


def coeffs(expr) -> list[Fraction]:
    """Coefficients of a polynomial in X, constant term first."""
    return [frac(c) for c in reversed(sympy.Poly(expr, X).all_coeffs())]


def test_bernoulli_numbers():
    for n in range(101):
        want = frac(sympy.bernoulli(n))
        assert seq.bernoulli(n) == (-want if n == 1 else want), n


def test_euler_numbers_are_euler_polynomials_at_zero():
    for n in range(61):
        assert seq.euler(n) == frac(sympy.euler(n, 0)), n


def test_bernoulli_and_euler_polynomials():
    for n in range(26):
        assert list(seq.bernoulli_poly(n)) == coeffs(sympy.bernoulli(n, X)), n
        assert list(seq.euler_poly(n)) == coeffs(sympy.euler(n, X)), n


def test_stirling_numbers_both_kinds():
    for n in range(31):
        for k in range(n + 1):
            signed1 = frac(stirling(n, k, kind=1, signed=True))
            assert seq.stirling1(n, k) == signed1, (n, k)
            assert seq.stirling1_unsigned(n, k) == frac(stirling(n, k, kind=1)), (n, k)
            assert seq.stirling2(n, k) == frac(stirling(n, k)), (n, k)


def test_fubini_numbers_from_sympy_stirling():
    for n in range(31):
        want = sum(sympy.factorial(k) * stirling(n, k) for k in range(n + 1))
        assert seq.fubini(n) == frac(want), n


def test_unsigned_lah_numbers_from_sympy_stirling():
    # sympy has no Lah function: L(n, k) = sum_j |s(n, j)| S(j, k)
    s1 = [[int(stirling(n, j, kind=1)) for j in range(n + 1)] for n in range(41)]
    s2 = [[int(stirling(n, k)) for k in range(n + 1)] for n in range(41)]
    for n in range(41):
        for k in range(n + 1):
            want = sum(s1[n][j] * s2[j][k] for j in range(k, n + 1))
            assert seq.lah_unsigned(n, k) == want, (n, k)


def test_bell_numbers_as_second_kind_stirling_sums():
    for n in range(41):
        assert sum(seq.stirling2(n, k) for k in range(n + 1)) == frac(sympy.bell(n)), n


# ---------------------------------------------------------------------------
# the generating-function families, against sympy's series expansions of
# their EGFs: n! [t^n] F(t) for n <= 10, at one parameter each

T = sympy.Symbol("t")
EGF_TOP = 10
LAM, U, K = Fraction(2, 3), 3, 3


def egf_coeffs(expr) -> list[Fraction]:
    """n! times the coefficient of t^n in sympy's expansion of expr, for n <= EGF_TOP."""
    poly = sympy.series(expr, T, 0, EGF_TOP + 1).removeO()
    return [frac(sympy.expand(poly).coeff(T, n) * sympy.factorial(n)) for n in range(EGF_TOP + 1)]


_lam, _u, _e = sympy.Rational(LAM.numerator, LAM.denominator), sympy.Integer(U), sympy.exp(T)
EGF_FAMILIES = {
    "apostol_bernoulli": (T / (_lam * _e - 1), lambda n: seq.apostol_bernoulli(n, LAM)),
    "apostol_euler": (2 / (_lam * _e + 1), lambda n: seq.apostol_euler(n, LAM)),
    "frobenius_euler": ((1 - _u) / (_e - _u), lambda n: seq.frobenius_euler(n, U)),
    "cauchy": (T / sympy.log(1 + T), seq.cauchy),
    "assoc_stirling1": (
        (sympy.log(1 + T) - T) ** K / sympy.factorial(K),
        lambda n: seq.assoc_stirling1(n, K),
    ),
    "assoc_stirling2": (
        (_e - 1 - T) ** K / sympy.factorial(K),
        lambda n: seq.assoc_stirling2(n, K),
    ),
    "stirling2_lambda": (
        (_lam * _e - 1) ** K / sympy.factorial(K),
        lambda n: seq.stirling2_lambda(n, K, LAM),
    ),
    "fubini_order": (1 / (2 - _e) ** K, lambda n: seq.fubini_order(n, K)),
}


@pytest.mark.parametrize("name", sorted(EGF_FAMILIES))
def test_egf_families_against_sympy_series(name):
    expr, family = EGF_FAMILIES[name]
    assert [family(n) for n in range(EGF_TOP + 1)] == egf_coeffs(expr)
