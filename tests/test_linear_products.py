"""Integer products of linear factors against the Fraction loops they replaced.

Falling, rising and binomial-type polynomials are built in ints by
``linear_product`` and scaled once; the bivariate expansions are Taylor
rows of that integer product.  The references below are the earlier
factor-by-factor loops, multiplying by the Fraction convolution, so they
share no code with the integer path of ``Polynomial.__mul__``.
"""
from fractions import Fraction
from math import factorial

from hypothesis import example, given, settings
from hypothesis import strategies as st

from volkenborn import identities, sequences
from volkenborn.polynomials import (
    Polynomial,
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


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=20), rationals)
# the shifts the catalog uses: -2, -3, n and n + 1/2
@example(9, -2)
@example(8, -3)
@example(10, 10)
@example(7, Fraction(15, 2))
def test_binom_shift_matches_factor_loop(n, a):
    expected = product(((a - j, 1) for j in range(n)), Fraction(1, factorial(n)))
    assert identities._binom_shift_poly(n, a) == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=-8, max_value=8), st.integers(min_value=0, max_value=20))
def test_binom_scaled_matches_factor_loop(m, n):
    expected = product(((-j, m) for j in range(n)), Fraction(1, factorial(n)))
    assert identities._binom_scaled_poly(m, n) == expected


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=30))
def test_reflected_binom_and_falling_over_x_match_factor_loops(n):
    reflected = product(((j, -1) for j in range(1, n + 1)), Fraction(1, factorial(n)))
    assert identities._binom_reflected_poly(n) == reflected
    assert identities._falling_over_x(n) == product((-j, 1) for j in range(1, n + 1))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=20), st.booleans())
def test_shifted_factorial_rows_match_t_by_t_loop(n, rising):
    expected = shifted_rows(n, (lambda j: j) if rising else (lambda j: -j))
    assert sequences._shifted_factorial_in_t(n, rising) == expected


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=20))
def test_binom_of_sum_rows_match_t_by_t_loop(n):
    scale = Fraction(1, factorial(n))
    expected = [row * scale for row in shifted_rows(n, lambda j: -j)]
    assert identities._binom_of_sum_rows(n) == expected


@settings(max_examples=60, deadline=None)
@given(int_coeffs, rationals, rationals, rationals)
def test_taylor_rows_expand_the_shifted_polynomial(ints, scale, x, t):
    rows = taylor_rows(ints, scale)
    shifted = sum((row(x) * t**i for i, row in enumerate(rows)), Fraction(0))
    assert shifted == int_poly(ints, scale)(x + t)


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
