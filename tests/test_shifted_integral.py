"""The shifted-integral kernel against the loops it replaced.

``polynomials._shifted_integral(f, moment)`` is the integral in t of
f(x + t) against a measure given by its moments.  It builds the shift, the
Bernoulli, Euler and array polynomials and the Daehee, Changhee and
second-kind Bernoulli polynomials.  The references below are the earlier
forms, kept here: the Taylor rows of f(x + t) integrated row by row with
one ``Fraction`` product per term, the binomial-theorem loop of
``Polynomial.shift`` and the accumulation loop of ``array_poly``.  The
Appell sum and the Cauchy-number loop of ``bernoulli_second_poly`` are
kept as references in ``tests/test_family_rules.py``, and the t-by-t
products of linear factors in ``tests/test_linear_products.py``.
"""
from fractions import Fraction
from math import comb

from hypothesis import example, given, settings
from hypothesis import strategies as st

from volkenborn import sequences as seq
from volkenborn.polynomials import Polynomial, _shifted_integral, binom_int

DEGREE_MAX = 12
rationals = st.fractions(min_value=-50, max_value=50, max_denominator=30)
coefficients = st.lists(
    st.one_of(st.integers(min_value=-10**6, max_value=10**6), rationals), max_size=DEGREE_MAX + 1
)
lambdas = st.sampled_from([Fraction(2), Fraction(-1, 2), Fraction(1), Fraction(0), Fraction(7, 3)])


@st.composite
def moments(draw):
    """(name, moment) for the measures the library integrates against."""
    kind = draw(st.sampled_from(["bernoulli", "euler", "unit", "point", "stirling"]))
    if kind == "bernoulli":
        return kind, seq.bernoulli
    if kind == "euler":
        return kind, seq.euler
    if kind == "unit":
        return kind, lambda i: Fraction(1, i + 1)
    if kind == "point":
        a = draw(rationals)
        return f"point {a}", lambda i: a**i
    v, lam = draw(st.integers(0, 4)), draw(lambdas)
    return f"stirling {v} {lam}", lambda i: seq.stirling2_lambda(i, v, lam)


def taylor_rows(f: Polynomial) -> list[Polynomial]:
    """Row i is the coefficient of t^i in f(x + t): its x^k coefficient is C(k + i, i) f_(k+i)."""
    cs = f.coeffs
    return [
        Polynomial([comb(k + i, i) * cs[k + i] for k in range(len(cs) - i)])
        for i in range(len(cs))
    ]


def row_sum(rows: list[Polynomial], moment) -> Polynomial:
    """sum_i moment(i) * rows[i], term by term."""
    out = Polynomial.zero()
    for i, row in enumerate(rows):
        w = moment(i)
        if w and not row.is_zero():
            out = out + row * w
    return out


def old_shift(f: Polynomial, a: Fraction) -> Polynomial:
    if a == 0 or f.is_zero():
        return f
    out = [Fraction(0)] * len(f)
    for i, c in enumerate(f):
        if c == 0:
            continue
        pw = Fraction(1)
        for j in range(i, -1, -1):
            out[j] += c * comb(i, j) * pw
            pw *= a
    return Polynomial(out)


def old_array_poly(n: int, v: int, lam: Fraction) -> Polynomial:
    out = Polynomial.zero()
    for j in range(n + 1):
        c = binom_int(n, j) * seq.stirling2_lambda(j, v, lam)
        if c:
            out = out + Polynomial.monomial(n - j, c)
    return out


def assert_same(got: Polynomial, want: Polynomial) -> None:
    assert got == want
    assert repr(got) == repr(want)
    assert all(type(c) is Fraction for c in got.coeffs)


@settings(max_examples=150, deadline=None)
@given(coefficients, moments())
@example([], ("bernoulli", seq.bernoulli))
@example([5], ("euler", seq.euler))
@example([Fraction(-3, 4)], ("unit", lambda i: Fraction(1, i + 1)))
@example([0, 0, 1], ("point 0", lambda i: Fraction(0) ** i))
@example([0] * 12 + [1], ("bernoulli", seq.bernoulli))
def test_kernel_matches_taylor_rows_summed_term_by_term(coeffs, named_moment):
    _, moment = named_moment
    f = Polynomial(coeffs)
    assert_same(_shifted_integral(f, moment), row_sum(taylor_rows(f), moment))


@settings(max_examples=150, deadline=None)
@given(coefficients, rationals)
@example([], Fraction(3, 2))
@example([7], Fraction(-7, 5))
@example([1, 2, 3], Fraction(0))
@example([Fraction(1, 3), 0, Fraction(-2, 9)], Fraction(-3))
def test_shift_matches_the_binomial_theorem_loop(coeffs, a):
    f = Polynomial(coeffs)
    assert_same(f.shift(a), old_shift(f, a))
    if a.denominator == 1:
        assert_same(f.shift(int(a)), old_shift(f, a))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 25), st.integers(0, 4), lambdas)
@example(0, 0, Fraction(0))
@example(5, 3, Fraction(1))
def test_array_poly_matches_the_accumulation_loop(n, v, lam):
    assert_same(seq.array_poly(n, v, lam), old_array_poly(n, v, lam))
