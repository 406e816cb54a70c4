"""Integer products of linear factors against the Fraction loops they replaced.

Every falling-factorial-type polynomial is built by one builder,
``polynomials._factorial_poly``, in ints through ``linear_product`` and
scaled once; the bivariate expansions are Taylor rows of such a
polynomial.  The references below are the earlier factor-by-factor and
t-by-t loops, multiplying by the Fraction convolution, so they share no
code with the integer path of ``Polynomial.__mul__``.
"""
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from volkenborn import identities
from volkenborn.polynomials import (
    Polynomial,
    _factorial_poly,
    binom_poly,
    falling_poly,
    int_poly,
    linear_product,
    rising_poly,
    taylor_rows,
)

small_ints = st.integers(min_value=-30, max_value=30)
rationals = st.fractions(min_value=-40, max_value=40, max_denominator=12)
int_coeffs = st.lists(st.integers(min_value=-10**6, max_value=10**6), max_size=10)


def fraction_mul(f: Polynomial, g: Polynomial) -> Polynomial:
    """f * g by convolving Fraction coefficients."""
    if f.is_zero() or g.is_zero():
        return Polynomial()
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return Polynomial(out)


def product(factors, scale=1) -> Polynomial:
    """The product of (a + b x) over (a, b) in factors, one factor at a time, times scale."""
    out = Polynomial.one()
    for a, b in factors:
        out = fraction_mul(out, Polynomial([a, b]))
    return out * Fraction(scale)


def shifted_rows(n: int, const) -> list[Polynomial]:
    """Rows in t of (t + x + const(0))...(t + x + const(n-1)), grown one factor at a time."""
    rows = [Polynomial.one()]
    for j in range(n):
        lin = Polynomial([const(j), 1])
        new = []
        for i in range(len(rows) + 1):
            term = rows[i - 1] if i >= 1 else Polynomial.zero()
            if i < len(rows):
                term = term + fraction_mul(rows[i], lin)
            new.append(term)
        rows = new
    return rows


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(small_ints, small_ints), max_size=12), rationals)
def test_linear_product_matches_factor_by_factor_product(factors, scale):
    assert int_poly(linear_product(factors), scale) == product(factors, scale)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=30))
def test_falling_rising_and_binom_match_factor_loops(n):
    falling = product((-j, 1) for j in range(n))
    assert falling_poly(n) == falling
    assert rising_poly(n) == product((j, 1) for j in range(n))
    assert binom_poly(n) == falling * Fraction(1, factorial(n))


@pytest.mark.parametrize("build", [falling_poly, rising_poly, binom_poly])
def test_builders_reject_a_negative_degree(build):
    with pytest.raises(ValueError, match="n must be >= 0"):
        build(-1)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=0, max_value=20),
    rationals,
    st.integers(min_value=-8, max_value=8),
    rationals,
)
# the catalog's shifts: -2, -3, n and n + 1/2, the reflected C(n - x, n),
# the scaled C(m x, n), the falling factorial at -x, and (x - 1)...(x - n), the
# falling factorial over x
@example(9, -2, 1, Fraction(1, factorial(9)))
@example(8, -3, 1, Fraction(1, factorial(8)))
@example(10, 10, 1, Fraction(1, factorial(10)))
@example(7, Fraction(15, 2), 1, Fraction(1, factorial(7)))
@example(12, 12, -1, Fraction(1, factorial(12)))
@example(11, 0, 5, Fraction(1, factorial(11)))
@example(9, 0, -1, 1)
@example(6, 0, -8, 1)
@example(15, -1, 1, 1)
@example(5, Fraction(3, 7), 0, 2)
def test_factorial_poly_matches_factor_by_factor_product(n, a, b, scale):
    expected = product(((a - j, b) for j in range(n)), scale)
    assert _factorial_poly(n, a, b, scale) == expected


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=20), st.booleans())
def test_shifted_factorial_rows_match_t_by_t_loop(n, rising):
    expected = shifted_rows(n, (lambda j: j) if rising else (lambda j: -j))
    assert taylor_rows(rising_poly(n) if rising else falling_poly(n)) == expected


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=20))
def test_binom_of_sum_rows_match_t_by_t_loop(n):
    scale = Fraction(1, factorial(n))
    expected = [row * scale for row in shifted_rows(n, lambda j: -j)]
    assert identities._binom_of_sum_rows(n) == expected


@settings(max_examples=60, deadline=None)
@given(st.lists(rationals, max_size=10), rationals, rationals)
def test_taylor_rows_expand_the_shifted_polynomial(coeffs, x, t):
    f = Polynomial(coeffs)
    rows = taylor_rows(f)
    shifted = sum((row(x) * t**i for i, row in enumerate(rows)), Fraction(0))
    assert shifted == f(x + t)
    assert len(rows) == len(f)


def product_falling_rows(k: int) -> list[Polynomial]:
    """Rows in y of (xy)(xy - 1)...(xy - k + 1), multiplied out one factor at a time."""
    rows = [Polynomial.one()]
    xp = Polynomial.x()
    for j in range(k):
        # multiply by (x*y - j)
        new = []
        for i in range(len(rows) + 1):
            term = fraction_mul(rows[i - 1], xp) if i >= 1 else Polynomial.zero()
            if i < len(rows):
                term = term + rows[i] * (-j)
            new.append(term)
        rows = new
    return rows


@pytest.mark.parametrize("k", range(13))
def test_product_falling_rows_match_the_multiply_loop(k):
    assert identities._product_falling_rows(k) == product_falling_rows(k)


@settings(max_examples=60, deadline=None)
@given(int_coeffs, small_ints, int_coeffs)
def test_integer_mul_matches_rational_path(a, top, b):
    # an odd leading coefficient makes f/2 non-integral, so the right side
    # below takes the rational path
    f, g = Polynomial(a + [2 * top + 1]), Polynomial(b)
    h = f * g
    rational = (f * Fraction(1, 2)) * (g * 2)
    assert h == rational
    assert h == fraction_mul(f, g)
    assert all(type(c) is Fraction for c in h.coeffs)
    assert repr(h) == repr(rational)
    assert hash(h) == hash(rational)
    assert h.to_coeff_strings() == rational.to_coeff_strings()
