"""Integer-bucketed exact sums against the Fraction sums they replaced.

``polynomials._dot`` adds numerator products per denominator and reduces
once; the catalog's hot right-hand sides, the exact integrals and a few
number families sum through it with integer weights read off whole
integer triangle rows.  The references below are the earlier forms, one
``Fraction`` product per term over the public (per-entry) functions, so
they share no code with the integer path.
"""
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from volkenborn import identities, sequences as seq
from volkenborn.integrals import fermionic_exact, volkenborn_exact
from volkenborn.polynomials import Polynomial, _dot, binom_int, falling_poly

rationals = st.one_of(
    st.integers(min_value=-10**30, max_value=10**30),
    st.fractions(max_denominator=10**6),
)
pairs = st.lists(st.tuples(rationals, rationals), max_size=20)

BOS, FER = identities._integrals()
MEASURES = pytest.mark.parametrize("mu", [BOS, FER], ids=["bosonic", "fermionic"])
GRID_NM = identities._grid((0, 15), (0, 15))(None)


def fraction_dot(items) -> Fraction:
    return sum((w * v for w, v in items), Fraction(0))


# ---------------------------------------------------------------------------
# the kernel


@settings(max_examples=100, deadline=None)
@given(pairs)
@example([])
@example([(0, Fraction(1, 3)), (Fraction(5, 7), 0)])
@example([(-3, Fraction(-1, 2)), (Fraction(-2, 9), 4), (-1, -1)])
# large coprime denominators: two Mersenne primes and 10^9 + 7
@example([(Fraction(1, 2**61 - 1), Fraction(1, 2**31 - 1)), (Fraction(-1, 10**9 + 7), 3)])
def test_dot_matches_fraction_sum(items):
    got = _dot(items)
    assert type(got) is Fraction
    assert got == fraction_dot(items)


@pytest.mark.parametrize("pair", [(1.5, 1), (1, 0.5), (Fraction(1, 2), 2.0)])
def test_dot_rejects_floats(pair):
    with pytest.raises(TypeError):
        _dot([(1, 1), pair])


# ---------------------------------------------------------------------------
# exact integrals


def old_exact(f: Polynomial, moment) -> Fraction:
    return sum((c * moment(i) for i, c in enumerate(f) if c), Fraction(0))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=30), max_size=30))
def test_exact_integrals_match_fraction_sums(coeffs):
    f = Polynomial(coeffs)
    assert volkenborn_exact(f) == old_exact(f, seq.bernoulli)
    assert fermionic_exact(f) == old_exact(f, seq.euler)


def test_exact_integrals_over_the_falling_product_grid():
    for m, n in GRID_NM:
        f = falling_poly(m) * falling_poly(n)
        assert volkenborn_exact(f) == old_exact(f, seq.bernoulli)
        assert fermionic_exact(f) == old_exact(f, seq.euler)


@pytest.mark.parametrize("exact", [volkenborn_exact, fermionic_exact])
@pytest.mark.parametrize("f", [Polynomial(), Polynomial([3, -1, 4])], ids=["zero", "integer"])
def test_exact_integrals_return_fractions(exact, f):
    assert type(exact(f)) is Fraction


# ---------------------------------------------------------------------------
# the catalog's right-hand sides


def old_sum_1f(m, n):
    return sum(
        (-1) ** (m + n - k)
        * binom_int(m, k)
        * binom_int(n, k)
        * Fraction(factorial(k) * factorial(m + n - k), m + n - k + 1)
        for k in range(m + 1)
    )


def old_sum_1h(m, n):
    return sum(
        seq.stirling1(n, j) * seq.stirling1(m, l) * seq.bernoulli(j + l)
        for j in range(n + 1)
        for l in range(m + 1)
    )


def old_sum_1i(m, n):
    total = Fraction(0)
    for k in range(m + 1):
        c = binom_int(m, k) * binom_int(n, k) * factorial(k)
        inner = sum(seq.stirling1(m + n - k, l) * seq.bernoulli(l) for l in range(m + n - k + 1))
        total += c * inner
    return total


@pytest.mark.parametrize(
    "new, old",
    [
        (identities._sum_1f, old_sum_1f),
        (identities._sum_1h, old_sum_1h),
        (identities._sum_1i, old_sum_1i),
    ],
    ids=["1f", "1h", "1i"],
)
def test_falling_product_sums_match_fraction_forms(new, old):
    for m, n in GRID_NM:
        assert new(m, n) == old(m, n), (m, n)


def old_newton(mu, f, top):
    return sum(
        (-1) ** k
        * sum((-1) ** j * binom_int(k, j) * f(k - j) for j in range(k + 1))
        * mu.weight(k)
        for k in range(top + 1)
    )


@MEASURES
def test_newton_series_match_fraction_form(mu):
    # the grids and summands of the three Newton-series records (scaled, power, shifted)
    for m, n in identities._grid(range(1, 6), (0, 15))(None):
        new = identities._newton(mu, lambda i: comb(m * i, n), n)
        assert new == old_newton(mu, lambda i: binom_int(m * i, n), n), (m, n)
    for r, n in identities._grid(range(1, 4), (0, 15))(None):
        new = identities._newton(mu, lambda i: comb(i, n) ** r, n * r)
        assert new == old_newton(mu, lambda i: binom_int(i, n) ** r, n * r), (r, n)
    for (n,) in identities._grid((0, 15))(None):
        new = identities._newton(mu, lambda i: comb(i + n, n), n)
        assert new == old_newton(mu, lambda i: binom_int(i + n, n), n), n


def old_eulerian_moment(n, moment, paired):
    total = Fraction(0)
    for k in range(n + 1):
        inner = Fraction(0)
        for j in range(n + 1):
            inner += seq.stirling1(n, j) * sum(
                (binom_int(j, l) if paired else 1) * (n - k) ** (j - l) * moment(l)
                for l in range(j + 1)
            )
        total += seq.eulerian(n, k) * inner
    return total / factorial(n)


@MEASURES
@pytest.mark.parametrize("paired", [True, False])
def test_eulerian_moment_matches_fraction_form(mu, paired):
    for (n,) in identities._grid((1, 15))(None):
        got = identities._eulerian_moment(n, mu.moment, paired)
        assert got == old_eulerian_moment(n, mu.moment, paired), n


def old_osgood_wu(k, l, m):
    return sum(
        seq.stirling1(k, j) * seq.stirling2(j, l) * seq.stirling2(j, m) for j in range(1, k + 1)
    )


@pytest.mark.parametrize("rid, mu", [("I14a", BOS), ("I26e", FER)])
def test_tensor_rhs_matches_fraction_form(rid, mu):
    record = next(r for r in identities.catalog() if r.id == rid)
    for (k,) in record.grid(None):
        old = sum(
            mu.falling(l) * mu.falling(m) * old_osgood_wu(k, l, m)
            for l in range(1, k + 1)
            for m in range(1, k + 1)
        )
        assert record.rhs(k) == old, k
        for l in range(1, k + 1):
            for m in range(1, k + 1):
                assert seq.osgood_wu(k, l, m) == old_osgood_wu(k, l, m)


def test_lah_fubini_sums_match_fraction_forms():
    record = next(r for r in identities.catalog() if r.id == "I30")
    for n, k in record.grid(None):
        lhs = sum(seq.stirling2(n, m) * seq.lah_unsigned(m, k) for m in range(n + 1))
        rhs = sum(
            binom_int(n, m) * seq.stirling2(n - m, k) * seq.fubini_order(m, k)
            for m in range(n + 1)
        )
        assert record.lhs(n, k) == lhs, (n, k)
        assert record.rhs(n, k) == rhs, (n, k)
        order = sum(
            binom_int(k + j - 1, j) * factorial(j) * seq.stirling2(n, j) for j in range(n + 1)
        )
        assert seq.fubini_order(n, k) == order


# ---------------------------------------------------------------------------
# number families


def test_cauchy_matches_falling_polynomial_integral():
    for n in range(81):
        old = sum((c / (i + 1) for i, c in enumerate(falling_poly(n))), Fraction(0))
        got = seq.cauchy(n)
        assert type(got) is Fraction
        assert got == old, n


@pytest.mark.parametrize(
    "fn, args, text",
    [
        (seq.stirling1, (5, 2), "-50"),
        (seq.stirling1, (2, 5), "0"),
        (seq.stirling1_unsigned, (5, 2), "50"),
        (seq.stirling2, (5, 2), "15"),
        (seq.stirling2, (0, 0), "1"),
        (seq.eulerian, (5, 2), "26"),
        (seq.lah, (3, 2), "-6"),
        (seq.fubini, (4,), "75"),
    ],
)
def test_triangle_entries_stay_fractions(fn, args, text):
    seq.clear_caches()
    value = fn(*args)
    assert type(value) is Fraction
    assert str(value) == text
