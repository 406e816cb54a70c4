from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volkenborn.polynomials import Polynomial, binom_int
from volkenborn.sequences import binom_poly, falling_poly, rising_poly, stirling1


def test_binom_int_small_values():
    assert binom_int(4, 2) == 6
    assert binom_int(5, 0) == 1
    assert binom_int(3, 5) == 0
    assert binom_int(6, -1) == 0


def test_binom_int_rejects_negative_n():
    with pytest.raises(ValueError):
        binom_int(-1, 0)


def test_falling_poly_base_cases():
    assert falling_poly(0) == Polynomial.one()
    assert falling_poly(2) == Polynomial([0, -1, 1])  # x^2 - x


def test_falling_poly_degree_four_coefficients():
    assert falling_poly(4).coeffs == (
        Fraction(0),
        Fraction(-6),
        Fraction(11),
        Fraction(-6),
        Fraction(1),
    )


def test_rising_poly_base_cases():
    assert rising_poly(0) == Polynomial.one()
    assert rising_poly(2) == Polynomial([0, 1, 1])  # x^2 + x
    assert rising_poly(4).coeffs == (
        Fraction(0),
        Fraction(6),
        Fraction(11),
        Fraction(6),
        Fraction(1),
    )


@pytest.mark.parametrize("n", range(31))
def test_falling_coefficients_are_first_kind_stirling_rows(n):
    f = falling_poly(n)
    for k in range(n + 1):
        assert f.coeff(k) == stirling1(n, k)


@pytest.mark.parametrize("n", range(31))
def test_rising_is_reflected_falling(n):
    f = falling_poly(n)
    reflected = Polynomial([c if i % 2 == 0 else -c for i, c in enumerate(f)])
    assert rising_poly(n) == reflected * (-1) ** n


def test_shift_examples():
    x2 = Polynomial([0, 0, 1])
    assert x2.shift(1) == Polynomial([1, 2, 1])
    assert Polynomial([0, 0, 0, 1]).derivative() == Polynomial([0, 0, 3])
    assert Polynomial([0, -1, 1])(3) == 6


rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=50)


@settings(max_examples=60, deadline=None)
@given(st.lists(rationals, min_size=0, max_size=13))
def test_shift_roundtrip(coeffs):
    f = Polynomial(coeffs)
    assert f.shift(1).shift(-1) == f
    assert f.shift(Fraction(3, 2)).shift(Fraction(-3, 2)) == f


@settings(max_examples=40, deadline=None)
@given(st.lists(rationals, min_size=0, max_size=8), st.lists(rationals, min_size=0, max_size=8))
def test_mul_evaluates_pointwise(a, b):
    f, g = Polynomial(a), Polynomial(b)
    h = f * g
    for x in (0, 1, -2, Fraction(1, 3)):
        assert h(x) == f(x) * g(x)


def test_antiderivative_inverts_derivative():
    f = Polynomial([Fraction(1, 2), -3, 0, Fraction(7, 5)])
    assert f.antiderivative().derivative() == f


def test_binom_poly_values_match_integer_binomials():
    for n in range(8):
        p = binom_poly(n)
        for x in range(12):
            assert p(x) == binom_int(x, n)


def test_pow_matches_repeated_multiplication():
    f = Polynomial([1, 2, 1])
    assert f**0 == Polynomial.one()
    assert f**3 == f * f * f


def test_coeff_strings_roundtrip():
    f = Polynomial([Fraction(-1, 2), 0, Fraction(7, 3)])
    assert f.to_coeff_strings() == ["-1/2", "0", "7/3"]
    assert Polynomial.from_coeff_strings(f.to_coeff_strings()) == f


def test_zero_polynomial_normalization():
    assert Polynomial([0, 0, 0]).is_zero()
    assert Polynomial([0, 0, 0]).degree == -1
    assert Polynomial([1, 0, 0]).degree == 0
