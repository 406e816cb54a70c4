from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volkenborn.polynomials import Polynomial
from volkenborn.sequences import binom_poly, falling_poly, rising_poly, stirling1


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
            assert p(x) == comb(x, n)


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


# ---------------------------------------------------------------------------
# storage: an integral coefficient is kept as an int and any other as a
# Fraction, while every public view gives Fractions; the reference below
# keeps all-Fraction coefficient tuples, as the polynomials once did

integers = st.integers(min_value=-10**6, max_value=10**6)
exact_lists = st.lists(st.one_of(integers, rationals), max_size=9)


def ref(cs):
    out = [Fraction(c) for c in cs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def ref_add(a, b):
    n = max(len(a), len(b))
    return ref((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n))


def ref_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return ref(out)


def ref_pow(a, n):
    out = (Fraction(1),)
    for _ in range(n):
        out = ref_mul(out, a)
    return out


def ref_eval(a, x):
    return sum((c * Fraction(x) ** i for i, c in enumerate(a)), Fraction(0))


def ref_shift(a, t):
    return ref(sum(a[j] * comb(j, k) * Fraction(t) ** (j - k) for j in range(k, len(a)))
               for k in range(len(a)))


def assert_stored_and_viewed(p):
    assert all(type(c) is int or (type(c) is Fraction and c.denominator != 1) for c in p._coeffs)
    assert all(type(c) is Fraction for c in p.coeffs)
    assert all(type(c) is Fraction for c in p)
    assert all(type(p.coeff(i)) is Fraction for i in range(len(p) + 2))


@settings(max_examples=100, deadline=None)
@given(exact_lists)
def test_int_and_fraction_coefficients_build_one_polynomial(cs):
    p, q = Polynomial(cs), Polynomial([Fraction(c) for c in cs])
    assert p == q and hash(p) == hash(q) == hash(ref(cs))
    assert p.coeffs == q.coeffs == ref(cs)
    assert repr(p) == repr(q) and p.to_coeff_strings() == q.to_coeff_strings()
    assert p._coeffs == q._coeffs and [type(c) for c in p._coeffs] == [type(c) for c in q._coeffs]
    assert_stored_and_viewed(p)


@settings(max_examples=80, deadline=None)
@given(exact_lists, exact_lists, st.one_of(integers, rationals), st.integers(0, 3))
def test_operations_match_an_all_fraction_reference(a, b, s, n):
    f, g, ra, rb = Polynomial(a), Polynomial(b), ref(a), ref(b)
    results = {
        "add": (f + g, ref_add(ra, rb)),
        "sub": (f - g, ref_add(ra, tuple(-c for c in rb))),
        "mul": (f * g, ref_mul(ra, rb)),
        "scale": (f * s, ref_mul(ra, ref([s]))),
        "rscale": (s * f, ref_mul(ra, ref([s]))),
        "pow": (f**n, ref_pow(ra, n)),
        "shift": (f.shift(s), ref_shift(ra, s)),
        "derivative": (f.derivative(), ref(i * c for i, c in enumerate(ra))[1:]),
        "antiderivative": (f.antiderivative(), ref([0, *(c / (i + 1) for i, c in enumerate(ra))])),
    }
    for name, (got, want) in results.items():
        assert got.coeffs == want, name
        assert_stored_and_viewed(got)
    for x in (0, 3, -2, Fraction(1, 3), s):
        got = f(x)
        assert type(got) is Fraction and got == ref_eval(ra, x)


@pytest.mark.parametrize("bad", [1.5, 2.0, "1/2", "3", None])
def test_float_and_string_coefficients_are_refused(bad):
    with pytest.raises(TypeError):
        Polynomial([1, bad])
    with pytest.raises(TypeError):
        Polynomial.monomial(2, bad)
    with pytest.raises(TypeError):
        Polynomial([1, 2]) * bad
    with pytest.raises(TypeError):
        Polynomial([1, 2])(bad)
