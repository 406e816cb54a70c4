"""Integer-bucketed exact sums against the Fraction sums they replaced.

``polynomials._reduce`` adds int numerators per denominator and reduces
once, and ``_dot`` feeds it numerator products; every catalog side but
I33a's right one, the exact integrals and a few number families sum
through it with integer weights read off whole integer triangle rows, or
add int products of the Bernoulli and Euler numerators over their one
denominator.  The references below are the earlier forms, one
``Fraction`` product per term over the public (per-entry) functions, so
they share no code with the integer path.
"""
import random
import tracemalloc
from fractions import Fraction
from functools import cache
from itertools import product
from math import comb, factorial, perm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from volkenborn import identities, sequences as seq
from volkenborn.integrals import Measure, fermionic_exact, volkenborn_exact
from volkenborn.polynomials import Polynomial, _dot, _factorial_ints, _moment_integral, _reduce
from volkenborn.sequences import binom_poly, falling_poly

rationals = st.one_of(
    st.integers(min_value=-10**30, max_value=10**30),
    st.fractions(max_denominator=10**6),
)
pairs = st.lists(st.tuples(rationals, rationals), max_size=20)

BOS, FER = Measure.bosonic(), Measure.fermionic()
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


numerators = st.integers(min_value=-10**30, max_value=10**30)
int_terms = st.lists(st.tuples(numerators, st.integers(min_value=1, max_value=10**12)), max_size=20)


@settings(max_examples=100, deadline=None)
@given(int_terms, st.integers(min_value=1, max_value=10**6))
@example([], 1)
@example([(3, 7), (-5, 7), (1, 7)], 1)  # one shared denominator
@example([(0, 3), (0, 5), (2, 5), (0, 1)], 4)  # zero numerators
# large coprime denominators: two Mersenne primes and 10^9 + 7
@example([(1, 2**61 - 1), (-1, 2**31 - 1), (-1, 10**9 + 7), (3, 1)], 1)
def test_reduce_matches_fraction_sum(items, scale):
    got = _reduce(items, scale)
    assert type(got) is Fraction
    assert got == sum((Fraction(n, d) for n, d in items), Fraction(0)) / scale
    assert _reduce(iter(items)) == _reduce(items, 1) == got * scale


def test_cold_catalog_pass_stays_small_in_live_memory():
    """Per-denominator buckets keep every exact sum's integers small: a cold
    catalog pass peaked at about 0.1 MiB of traced allocations, and the
    common-denominator variants at 0.4 MiB."""
    identities.catalog()
    seq.clear_caches()
    tracemalloc.start()
    try:
        identities.verify_all()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.2 * 2**20, f"{peak / 2**20:.3f} MiB"


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


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.one_of(st.integers(-10**20, 10**20), st.fractions(max_denominator=30)), max_size=25),
    st.booleans(),
    st.integers(0, 3),
    st.integers(1, 60),
)
def test_moment_integral_matches_the_fraction_sum(weights, ints_only, shift, scale):
    """Int weights take the one-int-sum path and mixed ones the ``_reduce`` path."""
    if ints_only:
        weights = [int(w) for w in weights]
    for ints, moment in ((seq._bernoulli_ints, seq.bernoulli), (seq._euler_ints, seq.euler)):
        got = _moment_integral(weights, ints, shift, scale)
        expected = fraction_dot((w, moment(i + shift)) for i, w in enumerate(weights)) / scale
        assert type(got) is Fraction and got == expected


@pytest.mark.parametrize("exact", [volkenborn_exact, fermionic_exact])
@pytest.mark.parametrize("f", [Polynomial(), Polynomial([3, -1, 4])], ids=["zero", "integer"])
def test_exact_integrals_return_fractions(exact, f):
    assert type(exact(f)) is Fraction


# ---------------------------------------------------------------------------
# the catalog's right-hand sides


def old_sum_1f(m, n):
    return sum(
        (-1) ** (m + n - k)
        * comb(m, k)
        * comb(n, k)
        * Fraction(factorial(k) * factorial(m + n - k), m + n - k + 1)
        for k in range(m + 1)
    )


@cache
def fraction_stirling_bernoulli(m, j):
    """sum_l S1(m, l) B_(l+j) as a Fraction sum over the public per-entry functions."""
    return sum((seq.stirling1(m, l) * seq.bernoulli(j + l) for l in range(m + 1)), Fraction(0))


def old_sum_1h(m, n):
    # the double sum sum_j sum_l S1(n, j) S1(m, l) B_(j+l), its inner sum kept per (m, j)
    return sum(seq.stirling1(n, j) * fraction_stirling_bernoulli(m, j) for j in range(n + 1))


def old_sum_1i(m, n):
    total = Fraction(0)
    for k in range(m + 1):
        c = comb(m, k) * comb(n, k) * factorial(k)
        total += c * fraction_stirling_bernoulli(m + n - k, 0)
    return total


GRID_40 = list(product(range(41), repeat=2))


@pytest.mark.parametrize(
    "new, old",
    [
        (identities._SUM_1F, old_sum_1f),
        (identities._sum_1h, old_sum_1h),
        (identities._SUM_1I, old_sum_1i),
    ],
    ids=["1f", "1h", "1i"],
)
def test_falling_product_sums_match_fraction_forms(new, old):
    seq.clear_caches()
    for m, n in GRID_40:
        assert new(m, n) == old(m, n), (m, n)


def test_tabled_falling_product_sums_match_the_plain_sums():
    """From cold tables and in random order: the pair tables against the sums they hold,
    and the row-kernel double-Stirling sum against the integral of the polynomial product."""
    pairs = random.Random(31).sample(GRID_40, len(GRID_40))
    for tabled, plain in (
        (identities._SUM_1F, identities._sum_1f),
        (identities._SUM_1I, identities._sum_1i),
        (identities._sum_1h, lambda m, n: volkenborn_exact(falling_poly(m) * falling_poly(n))),
    ):
        seq.clear_caches()
        for m, n in pairs:
            assert tabled(m, n) == plain(m, n), (m, n)


def old_newton(mu, f, top):
    return sum(
        (-1) ** k
        * sum((-1) ** j * comb(k, j) * f(k - j) for j in range(k + 1))
        * Fraction(1, mu.den(k))
        for k in range(top + 1)
    )


@MEASURES
def test_newton_series_match_fraction_form(mu):
    # the grids and summands of the three Newton-series records (scaled, power, shifted)
    for m, n in identities._grid(range(1, 6), (0, 15))(None):
        new = identities._newton(mu, lambda i: comb(m * i, n), n)
        assert new == old_newton(mu, lambda i: comb(m * i, n), n), (m, n)
    for r, n in identities._grid(range(1, 4), (0, 15))(None):
        new = identities._newton(mu, lambda i: comb(i, n) ** r, n * r)
        assert new == old_newton(mu, lambda i: comb(i, n) ** r, n * r), (r, n)
    for (n,) in identities._grid((0, 15))(None):
        new = identities._newton(mu, lambda i: comb(i + n, n), n)
        assert new == old_newton(mu, lambda i: comb(i + n, n), n), n


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=-10**12, max_value=10**12), min_size=1, max_size=25))
@example([1])
@example([0, 0, 0, 5])
def test_newton_difference_table_matches_the_binomial_sum(values):
    # the k-th difference at 0 from a table of subtractions, against sum_j (-1)^j C(k, j) f(k-j)
    for mu in (BOS, FER):
        got = identities._newton(mu, values.__getitem__, len(values) - 1)
        assert type(got) is Fraction
        assert got == old_newton(mu, values.__getitem__, len(values) - 1), values


BINOM_SHIFTS = (0, 1, 2, -3, -7, Fraction(1, 2), Fraction(-5, 2), Fraction(7, 2), Fraction(-2, 3))


@MEASURES
def test_binomial_integral_matches_the_polynomial_integral(mu):
    # x^s C(a + b x, n) for a integral, half-integral and negative, and one third-integral a
    for n in range(16):
        for a in BINOM_SHIFTS:
            for b in (-1, 1, 2, 5):
                c = identities._binom(n, a, b)
                for s in range(3):
                    got = mu.binom(n, a, b, s)
                    assert type(got) is Fraction
                    assert got == mu.exact(Polynomial.monomial(s) * c), (n, a, b, s)


def old_eulerian_moment(n, moment, paired):
    total = Fraction(0)
    for k in range(n + 1):
        inner = Fraction(0)
        for j in range(n + 1):
            inner += seq.stirling1(n, j) * sum(
                (comb(j, l) if paired else 1) * (n - k) ** (j - l) * moment(l)
                for l in range(j + 1)
            )
        total += seq.eulerian(n, k) * inner
    return total / factorial(n)


@MEASURES
@pytest.mark.parametrize("paired", [True, False])
def test_eulerian_moment_matches_fraction_form(mu, paired):
    for (n,) in identities._grid((1, 15))(None):
        got = identities._eulerian_moment(n, mu, paired)
        assert got == old_eulerian_moment(n, mu.moment, paired), n


def cubic_eulerian_weights(n, paired):
    """I28's weights term by term: A(n, k) S1(n, j) C(j, l) (n - k)^(j - l) added into l."""
    weights = [0] * (n + 1)
    for (k, a), (j, s1) in product(enumerate(seq._eulerian_row(n)), enumerate(seq._stirling1_row(n))):
        for l in range(j + 1):
            weights[l] += a * s1 * (comb(j, l) if paired else 1) * (n - k) ** (j - l)
    return weights


@pytest.mark.parametrize("paired", [True, False])
def test_eulerian_weights_match_the_cubic_loop(paired):
    for n in range(41):
        assert identities._eulerian_weights(n, paired) == cubic_eulerian_weights(n, paired), n


def shifted_product_worpitzky_weights(n):
    """I29's weights as W(n, j) times the int coefficients of each shift's own product
    (x + j - 1)(x + j - 2)...(x + j - n)."""
    rows = (_factorial_ints(n, j - 1)[0] for j in range(n + 1))
    ws = [identities._worpitzky_coeff(n, j) for j in range(n + 1)]
    return [sum(w * c for w, c in zip(ws, column)) for column in zip(*rows)]


def test_worpitzky_weights_match_the_shifted_products():
    for n in range(41):
        assert identities._worpitzky_weights(n) == shifted_product_worpitzky_weights(n), n


def per_measure_eulerian(n, mu):
    """I28's right side the earlier way: the triple loop over each measure's own moments."""
    return old_eulerian_moment(n, mu.moment, True)


def per_shift_worpitzky(n, mu):
    """I29's right side the earlier way: W(n, j) times each shift's own binomial integral."""
    return _dot((identities._worpitzky_coeff(n, j), mu.binom(n, j - 1)) for j in range(n + 1))


@pytest.mark.parametrize(
    "rid, mu, reference",
    [
        ("I28a", BOS, per_measure_eulerian),
        ("I28b", FER, per_measure_eulerian),
        ("I29a", BOS, per_shift_worpitzky),
        ("I29b", FER, per_shift_worpitzky),
    ],
)
def test_shared_weight_sides_match_the_per_measure_sums(rid, mu, reference):
    record = next(r for r in identities.catalog() if r.id == rid)
    seq.clear_caches()
    for n in range(21):  # past the grid's cap of 15
        got = record.rhs(n)
        assert type(got) is Fraction
        assert got == reference(n, mu), n


B, E = seq.bernoulli, seq.euler


def old_assoc(n, moment):
    return sum(
        comb(n, j) * seq.assoc_stirling1(n - j, k) * moment(k + j)
        for j in range(n + 1)
        for k in range((n - j) // 2 + 1)
    )


def old_falling_by_stirling(mu):
    return lambda n: sum(seq.stirling1(n, k) * mu.moment(k) for k in range(n + 1))


def old_rising_unsigned(mu, lo):
    return lambda n: sum(seq.stirling1_unsigned(n, k) * mu.moment(k) for k in range(lo, n + 1))


def old_rising_signed(mu):
    return lambda n: sum(
        (-1) ** (m + n) * seq.stirling1(n, m) * mu.moment(m) for m in range(n + 2)
    )


def old_lah_stirling(mu):
    return lambda n: sum(
        seq.lah_unsigned(n, k) * seq.stirling1(k, j) * mu.moment(j)
        for k in range(n + 1)
        for j in range(k + 1)
    )


def old_degree_shifted(mu):
    return lambda n: sum(
        mu.moment(k)
        * sum(comb(n, j) * seq.stirling1(j, k) / factorial(j) for j in range(n + 1))
        for k in range(n + 1)
    )


def old_x_falling_stirling(n):
    return sum(seq.stirling1(n, k - 1) * B(k) for k in range(1, n + 1)) + B(n + 1)


def old_rising_lah(mu, lo):
    return lambda n: sum(seq.lah_unsigned(n, k) * mu.falling(k) for k in range(lo, n + 1))


def old_product_falling_stirling(mu, literal=False):
    return lambda k: sum(
        seq.stirling1(k, m) * mu.moment(k if literal else m) ** 2 for m in range(k + 1)
    )


def old_worpitzky(mu):
    return lambda n: sum(
        sum((-1) ** (j + k) * comb(n + 1, j - k) * k**n for k in range(j + 1))
        * old_exact(identities._binom(n, j - 1), mu.moment)
        for j in range(n + 1)
    )


def old_worpitzky_literal(mu):
    def literal(n):
        total = Fraction(0)
        for j in range(n + 1):
            for k in range(j + 1):
                for m in range(j + 1):
                    total += (
                        (-1) ** (j + k + m)
                        * binom_poly(j - m)(j - 1)
                        * comb(n + 1, j - k)
                        * Fraction(factorial(j), factorial(n))
                        * k**n
                        / mu.den(m)
                    )
        return total

    return literal


def old_factorial_stirling2(literal=False):
    return lambda n: sum(
        (-1) ** k * Fraction(factorial(k), k + 1) * seq.stirling2(n, k)
        for k in range(n if literal else n + 1)
    )


def old_daehee_stirling2(literal=False):
    return lambda n: sum(
        seq.daehee(k) * seq.stirling2(n, k) for k in range(n if literal else n + 1)
    )


# (record, side) -> the Fraction form that side had before it summed in ints
OLD_SIDES = {
    ("I01", "lhs"): old_falling_by_stirling(BOS),
    ("I33b", "lhs"): old_falling_by_stirling(BOS),
    ("I33c", "lhs"): old_falling_by_stirling(FER),
    ("I04b", "rhs"): lambda n: sum((-1) ** m * seq.stirling1(n, m) * B(m) for m in range(n + 2)),
    ("I05a", "rhs"): old_rising_unsigned(BOS, 0),
    ("I27b", "rhs"): old_rising_unsigned(FER, 1),
    ("I05d", "rhs"): old_lah_stirling(BOS),
    ("I27e", "rhs"): old_lah_stirling(FER),
    ("I06b", "rhs"): lambda n: sum(seq.stirling1_unsigned(n, k) * B(k + 1) for k in range(1, n + 1)),
    ("I08b", "rhs"): old_x_falling_stirling,
    ("I11a", "rhs"): old_x_falling_stirling,
    ("I20b", "rhs"): old_degree_shifted(BOS),
    ("I26h", "rhs"): old_degree_shifted(FER),
    ("I22", "rhs"): lambda m, n: sum(seq.stirling1(n, k) * B(k + m) for k in range(n + 1)),
    ("I23d", "rhs"): lambda m, n: sum(
        comb(m, k) * comb(n, k) * factorial(k) * seq.daehee(m + n - k)
        for k in range(m + 1)
    ),
    ("I24a", "rhs"): old_rising_signed(BOS),
    ("I27d", "rhs"): old_rising_signed(FER),
    ("I32a", "lhs"): lambda n: old_assoc(n, B),
    ("I32b", "lhs"): lambda n: old_assoc(n, B),
    ("I32b", "rhs"): lambda n: sum(seq.stirling1(n, l) * B(l) for l in range(n + 1)),
    ("I32c", "lhs"): lambda n: old_assoc(n, E),
    ("I32d", "lhs"): lambda n: old_assoc(n, lambda i: Fraction(1, i + 1)),
    ("I04a", "rhs"): lambda n: sum(
        (-1) ** (k + n) * comb(n - 1, k - 1) * Fraction(factorial(n), k + 1)
        for k in range(1, n + 1)
    ),
    ("I06a", "rhs"): lambda n: sum(
        (-1) ** (k + 1) * comb(n - 1, k - 1) * Fraction(factorial(n), k * k + 3 * k + 2)
        for k in range(1, n + 1)
    ),
    ("I07", "rhs"): lambda n: sum(
        (-1) ** (k + 1) * seq.lah_unsigned(n, k) * Fraction(factorial(k), k * k + 3 * k + 2)
        for k in range(1, n + 1)
    ),
    ("I12a", "rhs"): lambda n: (-1) ** n
    * sum(Fraction(1, (k + 1) * (n - k + 1)) for k in range(n + 1)),
    ("I12b", "rhs"): lambda n: sum(
        comb(k, j) * seq.stirling1(n, k) * B(j) * B(k - j)
        for k in range(n + 1)
        for j in range(k + 1)
    )
    / factorial(n),
    ("I12c", "rhs"): lambda n: (-1) ** n
    * sum(Fraction(factorial(n), (k + 1) * (n - k + 1)) for k in range(n + 1)),
    ("I05c", "rhs"): old_rising_lah(BOS, 0),
    ("I25", "rhs"): old_rising_lah(BOS, 0),
    ("I27a", "rhs"): old_rising_lah(FER, 1),
    ("I25", "literal_rhs"): lambda n: sum(
        seq.lah_unsigned(n, n) * seq.daehee(m) for m in range(n + 1)
    ),
    ("I14b", "rhs"): old_product_falling_stirling(BOS),
    ("I14b", "literal_rhs"): old_product_falling_stirling(BOS, literal=True),
    ("I26f", "rhs"): old_product_falling_stirling(FER),
    ("I26f", "literal_rhs"): old_product_falling_stirling(FER, literal=True),
    ("I23d", "literal_rhs"): lambda m, n: sum(
        (-1) ** (m + n - k) * comb(m, k) * comb(n, k) * seq.daehee(m + n - k)
        for k in range(m + 1)
    ),
    ("I24c", "literal_rhs"): lambda n: sum(
        Fraction((-1) ** m, m + 1) * comb(n - 1, n - m) for m in range(n + 1)
    )
    / factorial(n),
    ("I26e", "literal_rhs"): lambda k: sum(
        (-1) ** (l + m) * old_osgood_wu(k, l, m) / 2 ** (l + m)
        for l in range(1, k + 1)
        for m in range(1, k + 1)
    ),
    ("I26l", "rhs"): lambda n: sum(Fraction(1, 2**k) for k in range(n + 1)),
    ("I26l", "literal_rhs"): lambda n: (-1) ** n
    * sum(Fraction(1, 2**k) for k in range(1, n + 1)),
    ("I29a", "rhs"): old_worpitzky(BOS),
    ("I29a", "literal_rhs"): old_worpitzky_literal(BOS),
    ("I29b", "rhs"): old_worpitzky(FER),
    ("I29b", "literal_rhs"): old_worpitzky_literal(FER),
    ("I30", "literal_lhs"): lambda n, k: seq.lah(n, k)
    * sum(seq.stirling2(n, m) for m in range(n + 1)),
    ("I31", "lhs"): lambda n: sum(
        perm(n, n - k) * Fraction(factorial(k), (k + 1) * (k + 2)) for k in range(n + 1)
    ),
    ("I34a", "rhs"): old_factorial_stirling2(),
    ("I34a", "literal_rhs"): old_factorial_stirling2(literal=True),
    ("I34b", "rhs"): old_daehee_stirling2(),
    ("I34b", "literal_rhs"): old_daehee_stirling2(literal=True),
    ("I35", "rhs"): lambda n: sum(
        seq.stirling2(n, k) * sum(seq.stirling1(k, j) * B(j) for j in range(k))
        for k in range(n + 1)
    )
    + sum(seq.stirling2(n, k) * B(k) for k in range(n + 1)),
}


@pytest.mark.parametrize("rid, side", sorted(OLD_SIDES))
def test_integer_moment_sides_match_fraction_forms(rid, side):
    record = next(r for r in identities.catalog() if r.id == rid)
    old = OLD_SIDES[rid, side]
    for params in record.grid(None):
        assert getattr(record, side)(*params) == old(*params), params


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
    for n, k in product(range(21), range(1, 9)):  # the grid, n past its cap, and k > n
        lhs = sum(seq.stirling2(n, m) * seq.lah_unsigned(m, k) for m in range(n + 1))
        rhs = sum(
            comb(n, m) * seq.stirling2(n - m, k) * seq.fubini_order(m, k)
            for m in range(n + 1)
        )
        assert record.lhs(n, k) == lhs, (n, k)
        assert type(record.rhs(n, k)) is Fraction and record.rhs(n, k) == rhs, (n, k)
        order = sum(
            comb(k + j - 1, j) * factorial(j) * seq.stirling2(n, j) for j in range(n + 1)
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
