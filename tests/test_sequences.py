import itertools
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volkenborn import sequences as seq
from volkenborn.polynomials import Polynomial
from volkenborn.sequences import falling_poly, rising_poly
from volkenborn.series import PowerSeries


# ---------------------------------------------------------------------------
# brute-force oracles; these deliberately avoid the library's formulas


def _set_partitions(items):
    """Yield all partitions of a list into nonempty blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def _count_partitions_into(n, k):
    return sum(1 for p in _set_partitions(list(range(n))) if len(p) == k)


def _count_ordered_partitions(n):
    """Ordered set partitions, counted by expanding the definition over subsets."""
    cache = {}

    def count(remaining):
        if not remaining:
            return 1
        if remaining in cache:
            return cache[remaining]
        items = sorted(remaining)
        total = 0
        # first block: every nonempty subset of what is left
        for r in range(1, len(items) + 1):
            for block in itertools.combinations(items, r):
                total += count(remaining - frozenset(block))
        cache[remaining] = total
        return total

    return count(frozenset(range(n)))


def _count_laguerre(n, k):
    """Distributions of n labelled balls into k unlabelled, internally ordered,
    nonempty boxes, by direct enumeration."""
    if n == 0 or k == 0:
        return 1 if n == k else 0
    total = 0
    for perm in itertools.permutations(range(n)):
        # cut the permutation into k ordered segments; unordered boxes, so
        # normalize by demanding the segment heads appear in increasing order
        for cuts in itertools.combinations(range(1, n), k - 1):
            bounds = (0,) + cuts + (n,)
            heads = [perm[bounds[i]] for i in range(k)]
            if heads == sorted(heads):
                total += 1
    return total


def _descent_runs(perm):
    if not perm:
        return 0
    runs = 1
    for a, b in zip(perm, perm[1:]):
        if a > b:
            runs += 1
    return runs


def _count_permutations_with_runs(n, k):
    return sum(1 for p in itertools.permutations(range(1, n + 1)) if _descent_runs(p) == k)


# ---------------------------------------------------------------------------
# Bernoulli / Euler


def test_bernoulli_first_values():
    assert seq.bernoulli(0) == 1
    assert seq.bernoulli(1) == Fraction(-1, 2)
    assert seq.bernoulli(2) == Fraction(1, 6)
    assert seq.bernoulli(12) == Fraction(-691, 2730)


def test_odd_bernoulli_vanish():
    for n in range(3, 31, 2):
        assert seq.bernoulli(n) == 0


def test_bernoulli_rejects_negative():
    with pytest.raises(ValueError):
        seq.bernoulli(-1)


def test_euler_first_values():
    assert seq.euler(0) == 1
    assert seq.euler(1) == Fraction(-1, 2)
    assert seq.euler(2) == 0
    assert seq.euler(3) == Fraction(1, 4)


def test_euler_polynomial_defining_relation():
    # E_n(x+1) + E_n(x) = 2 x^n
    for n in range(12):
        e = seq.euler_poly(n)
        lhs = e.shift(1) + e
        assert lhs == Polynomial.monomial(n, 2)


def test_bernoulli_polynomial_difference_relation():
    # B_n(x+1) - B_n(x) = n x^(n-1)
    for n in range(1, 12):
        b = seq.bernoulli_poly(n)
        assert b.shift(1) - b == Polynomial.monomial(n - 1, n)


def test_second_kind_euler_numbers_are_integers():
    values = [seq.euler_second(n) for n in range(7)]
    assert values == [1, 0, -1, 0, 5, 0, -61]


# ---------------------------------------------------------------------------
# Apostol / Frobenius families


def test_apostol_euler_reduces_to_euler_at_one():
    assert seq.apostol_euler(0, 1) == 1
    for n in range(11):
        assert seq.apostol_euler(n, 1) == seq.euler(n)


def test_frobenius_euler_reduces_to_euler_at_minus_one():
    assert seq.frobenius_euler(0, -1) == 1
    for n in range(11):
        assert seq.frobenius_euler(n, -1) == seq.euler(n)


def test_apostol_bernoulli_at_two():
    assert seq.apostol_bernoulli(0, 2) == 0
    assert seq.apostol_bernoulli(1, 2) == 1


@pytest.mark.parametrize("lam", [Fraction(2), Fraction(1, 2), Fraction(-3, 5)])
def test_apostol_bernoulli_matches_series_division(lam):
    T = 13
    denominator = PowerSeries.exp(T) * lam - PowerSeries.one(T)
    series = PowerSeries.identity(T) * denominator.inverse()
    for n in range(T):
        assert seq.apostol_bernoulli(n, lam) == series.egf_coeff(n)


@pytest.mark.parametrize("lam", [Fraction(2), Fraction(-1, 3)])
def test_apostol_euler_matches_series_division(lam):
    T = 13
    denominator = PowerSeries.exp(T) * lam + PowerSeries.one(T)
    series = denominator.inverse() * 2
    for n in range(T):
        assert seq.apostol_euler(n, lam) == series.egf_coeff(n)


@pytest.mark.parametrize("u", [Fraction(2), Fraction(-1, 2), Fraction(5, 3)])
def test_frobenius_euler_matches_series_division(u):
    T = 13
    denominator = PowerSeries.exp(T) - PowerSeries.one(T) * u
    series = denominator.inverse() * (1 - u)
    for n in range(T):
        assert seq.frobenius_euler(n, u) == series.egf_coeff(n)


def test_parametric_exclusions():
    with pytest.raises(ValueError):
        seq.apostol_bernoulli(3, 1)
    with pytest.raises(ValueError):
        seq.apostol_euler(3, -1)
    with pytest.raises(ValueError):
        seq.frobenius_euler(3, 1)


# ---------------------------------------------------------------------------
# Stirling numbers


def test_stirling1_values():
    assert seq.stirling1(0, 0) == 1
    assert seq.stirling1(3, 1) == 2
    assert seq.stirling1(4, 2) == 11
    assert seq.stirling1(5, 7) == 0
    assert seq.stirling1_unsigned(4, 1) == 6


def test_stirling1_boundary_conditions():
    for n in range(1, 12):
        assert seq.stirling1(n, 0) == 0
        assert seq.stirling1(0, n) == 0


def test_stirling2_against_partition_counting():
    for n in range(8):
        for k in range(n + 2):
            assert seq.stirling2(n, k) == _count_partitions_into(n, k)


def test_stirling2_diagonal():
    for n in range(16):
        assert seq.stirling2(n, n) == 1


def test_monomial_reconstruction_from_falling_factorials():
    # x^n = sum_k S2(n, k) x_(k)
    for n in range(11):
        total = Polynomial.zero()
        for k in range(n + 1):
            total = total + falling_poly(k) * seq.stirling2(n, k)
        assert total == Polynomial.monomial(n)


def test_stirling_duality():
    for n in range(16):
        for m in range(16):
            s = sum(seq.stirling2(n, k) * seq.stirling1(k, m) for k in range(n + 1))
            assert s == (1 if n == m else 0)


def test_schlomilch_formula_reproduces_first_kind():
    for n in range(1, 13):
        for k in range(n + 1):
            s = sum(
                (-1) ** j
                * (comb(n + j - 1, k - 1) if k else 0)
                * comb(2 * n - k, n - k - j)
                * seq.stirling2(n - k + j, j)
                for j in range(n - k + 1)
            )
            assert s == seq.stirling1(n, k), (n, k)


def test_stirling2_lambda_reduces_at_one():
    for n in range(11):
        for k in range(n + 2):
            assert seq.stirling2_lambda(n, k, 1) == seq.stirling2(n, k)


def test_array_poly_specializations():
    lam = Fraction(3, 2)
    for n in range(8):
        for v in range(5):
            assert seq.array_poly(n, v, lam)(0) == seq.stirling2_lambda(n, v, lam)
        assert seq.array_poly(n, 0, 1) == Polynomial.monomial(n)


# ---------------------------------------------------------------------------
# associated Stirling numbers


def test_assoc_stirling2_small_values():
    assert seq.assoc_stirling2(2, 1) == 1
    assert seq.assoc_stirling2(0, 0) == 1
    assert seq.assoc_stirling1(3, 1) == 2
    assert seq.assoc_stirling1(2, 1) == -1


def test_assoc_vanishing_beyond_half():
    for n in range(13):
        for k in range(n // 2 + 1, n + 3):
            if n == 0 and k == 0:
                continue
            assert seq.assoc_stirling2(n, k) == 0
            assert seq.assoc_stirling1(n, k) == 0


def test_assoc_stirling2_counts_partitions_without_singletons():
    for n in range(9):
        for k in range(n // 2 + 1):
            count = sum(
                1
                for p in _set_partitions(list(range(n)))
                if len(p) == k and all(len(block) >= 2 for block in p)
            )
            assert seq.assoc_stirling2(n, k) == count


def test_assoc_recovers_plain_stirling_by_binomial_convolution():
    # separating the singleton blocks of a partition / the fixed points of
    # a permutation gives the classical two-index recovery sums
    for n in range(13):
        for k in range(n + 1):
            s2 = sum(
                comb(n, j) * seq.assoc_stirling2(n - j, k - j)
                for j in range(min(n, k) + 1)
            )
            assert s2 == seq.stirling2(n, k)
            s1 = sum(
                comb(n, j) * seq.assoc_stirling1(n - j, k - j)
                for j in range(min(n, k) + 1)
            )
            assert s1 == seq.stirling1(n, k)


# ---------------------------------------------------------------------------
# Lah numbers


def test_lah_values_and_signs():
    assert seq.lah_unsigned(3, 1) == 6
    assert seq.lah(2, 1) == 2
    for n in range(11):
        assert seq.lah(n, n) == (-1) ** n


def test_lah_against_laguerre_enumeration():
    for n in range(7):
        for k in range(n + 1):
            assert seq.lah_unsigned(n, k) == _count_laguerre(n, k), (n, k)


def test_lah_recurrence_matches_closed_form():
    # L(n+1, k) = -(n+k) L(n, k) - L(n, k-1)
    for n in range(15):
        for k in range(1, n + 2):
            lhs = seq.lah(n + 1, k)
            rhs = -(n + k) * seq.lah(n, k) - seq.lah(n, k - 1)
            assert lhs == rhs, (n, k)


def test_rising_factorial_expands_in_unsigned_lah():
    for n in range(16):
        total = Polynomial.zero()
        for k in range(n + 1):
            total = total + falling_poly(k) * seq.lah_unsigned(n, k)
        assert total == rising_poly(n)


def test_reflected_falling_factorial_expands_in_signed_lah():
    # adjudicated index convention: (-x)_(n) = sum_k L(n, k) x_(k)
    for n in range(16):
        reflected = Polynomial(
            [c if i % 2 == 0 else -c for i, c in enumerate(falling_poly(n))]
        )
        total = Polynomial.zero()
        for k in range(n + 1):
            total = total + falling_poly(k) * seq.lah(n, k)
        assert total == reflected


def test_lah_from_stirling_product():
    # L(n, k) = sum_j (-1)^j S1(n, j) S2(j, k)
    for n in range(13):
        for k in range(n + 1):
            s = sum(
                (-1) ** j * seq.stirling1(n, j) * seq.stirling2(j, k)
                for j in range(n + 1)
            )
            assert s == seq.lah(n, k)


# ---------------------------------------------------------------------------
# Daehee / Changhee


def test_daehee_values():
    assert seq.daehee(0) == 1
    assert seq.daehee(4) == Fraction(24, 5)
    assert seq.daehee_hat(4) == Fraction(-6, 5)
    assert [seq.daehee_hat(n) for n in range(5)] == [
        Fraction(1),
        Fraction(-1, 2),
        Fraction(-1, 3),
        Fraction(-1, 2),
        Fraction(-6, 5),
    ]


def test_changhee_values():
    assert seq.changhee(0) == 1
    assert seq.changhee(3) == Fraction(-3, 4)
    assert seq.changhee_hat(4) == Fraction(-3, 2)
    assert [seq.changhee_hat(n) for n in range(5)] == [
        Fraction(1),
        Fraction(-1, 2),
        Fraction(-1, 2),
        Fraction(-3, 4),
        Fraction(-3, 2),
    ]


def test_daehee_from_stirling_bernoulli_sum():
    for n in range(21):
        s = sum(seq.stirling1(n, l) * seq.bernoulli(l) for l in range(n + 1))
        assert s == seq.daehee(n)


def test_changhee_from_stirling_euler_sum():
    for n in range(21):
        s = sum(seq.stirling1(n, k) * seq.euler(k) for k in range(n + 1))
        assert s == seq.changhee(n)


def test_daehee_polynomials():
    for n in range(11):
        p = seq.daehee_poly(n)
        assert p(0) == seq.daehee(n)
        # independent route through the monomial basis
        alt = Polynomial.zero()
        for k in range(n + 1):
            alt = alt + seq.bernoulli_poly(k) * seq.stirling1(n, k)
        assert p == alt


def test_daehee_hat_polynomials():
    for n in range(11):
        p = seq.daehee_hat_poly(n)
        assert p(0) == seq.daehee_hat(n)
        alt = Polynomial.zero()
        for k in range(n + 1):
            alt = alt + seq.bernoulli_poly(k) * seq.stirling1_unsigned(n, k)
        assert p == alt


def test_changhee_polynomials():
    for n in range(11):
        p = seq.changhee_poly(n)
        assert p(0) == seq.changhee(n)
        alt = Polynomial.zero()
        for k in range(n + 1):
            alt = alt + seq.euler_poly(k) * seq.stirling1(n, k)
        assert p == alt


# ---------------------------------------------------------------------------
# Fubini / Cauchy / harmonic


def test_fubini_counts_ordered_partitions():
    for n in range(9):
        assert seq.fubini(n) == _count_ordered_partitions(n), n


def test_fubini_order_one_is_plain_fubini():
    for n in range(13):
        assert seq.fubini_order(n, 1) == seq.fubini(n)


def test_fubini_order_two_is_self_convolution():
    for n in range(11):
        expected = sum(
            comb(n, j) * seq.fubini(j) * seq.fubini(n - j) for j in range(n + 1)
        )
        assert seq.fubini_order(n, 2) == expected


def test_fubini_order_rejects_nonpositive():
    with pytest.raises(ValueError):
        seq.fubini_order(3, 0)


def test_cauchy_values():
    assert seq.cauchy(0) == 1
    assert seq.cauchy(1) == Fraction(1, 2)
    assert seq.cauchy(2) == Fraction(-1, 6)


def test_cauchy_from_stirling_sum():
    for n in range(21):
        s = sum(seq.stirling1(n, k) * Fraction(1, k + 1) for k in range(n + 1))
        assert s == seq.cauchy(n)


def test_second_kind_bernoulli_polynomial_is_running_integral():
    # b_n(x) = integral of the falling factorial over [x, x+1]
    for n in range(13):
        antider = falling_poly(n).antiderivative()
        assert seq.bernoulli_second_poly(n) == antider.shift(1) - antider


def test_second_kind_bernoulli_constant_terms_are_cauchy_numbers():
    for n in range(16):
        assert seq.bernoulli_second_poly(n)(0) == seq.cauchy(n)


def test_harmonic_values():
    assert seq.harmonic(0) == 1
    assert seq.harmonic(1) == Fraction(3, 2)
    assert seq.harmonic(3) == Fraction(25, 12)


# ---------------------------------------------------------------------------
# Eulerian numbers


def test_eulerian_values():
    assert seq.eulerian(0, 0) == 1
    for n in range(1, 11):
        assert seq.eulerian(n, 1) == 1
        assert seq.eulerian(n, n) == 1


def test_eulerian_against_run_counting():
    for n in range(8):
        for k in range(n + 2):
            assert seq.eulerian(n, k) == _count_permutations_with_runs(n, k)


def test_eulerian_recurrence_matches_explicit_formula():
    # the table grows by the cancellation-free recurrence; the alternating
    # sum is its reference, up to the largest row the CLI benchmark builds
    for n in range(61):
        for k in range(n + 1):
            explicit = sum(
                (-1) ** j * comb(n + 1, j) * (k - j) ** n for j in range(k + 1)
            )
            assert seq.eulerian(n, k) == explicit


def test_eulerian_reconstruction_of_monomials():
    # x^n = sum_k A(n, k) C(x + n - k, n)
    for n in range(11):
        total = Polynomial.zero()
        for k in range(n + 1):
            a = seq.eulerian(n, k)
            if not a:
                continue
            shifted = Polynomial.one()
            for j in range(n):
                shifted = shifted * Polynomial([n - k - j, 1])
            total = total + shifted * Fraction(a, factorial(n))
        assert total == Polynomial.monomial(n)


# ---------------------------------------------------------------------------
# Osgood-Wu coefficients


def test_osgood_wu_known_values():
    assert seq.osgood_wu(1, 1, 1) == 1
    assert seq.osgood_wu(2, 1, 1) == 0
    assert seq.osgood_wu(3, 1, 2) == 0
    assert seq.osgood_wu(3, 2, 1) == 0


def test_osgood_wu_symmetry():
    for k in range(1, 7):
        for l in range(1, k + 1):
            for m in range(1, k + 1):
                assert seq.osgood_wu(k, l, m) == seq.osgood_wu(k, m, l)


def test_osgood_wu_defining_expansion():
    # (xy)_(k) = sum_{l,m} C^(k)_{l,m} x_(l) y_(m), checked on an integer grid
    for k in range(1, 7):
        for x in range(k + 1):
            for y in range(k + 1):
                direct = Fraction(1)
                for j in range(k):
                    direct *= x * y - j
                expanded = sum(
                    seq.osgood_wu(k, l, m) * falling_poly(l)(x) * falling_poly(m)(y)
                    for l in range(1, k + 1)
                    for m in range(1, k + 1)
                )
                assert direct == expanded, (k, x, y)


def test_osgood_wu_rejects_out_of_range():
    with pytest.raises(ValueError):
        seq.osgood_wu(0, 1, 1)
    with pytest.raises(ValueError):
        seq.osgood_wu(3, 0, 1)
    with pytest.raises(ValueError):
        seq.osgood_wu(3, 1, 4)


# ---------------------------------------------------------------------------
# caches and concurrency


def test_clear_caches_is_deterministic():
    before = [seq.bernoulli(n) for n in range(25)]
    table = [seq.stirling1(12, k) for k in range(13)]
    seq.clear_caches()
    assert [seq.bernoulli(n) for n in range(25)] == before
    assert [seq.stirling1(12, k) for k in range(13)] == table


def test_concurrent_table_growth_is_consistent():
    seq.clear_caches()

    # the associated rows grow the Stirling rows while holding the lock
    def worker(start):
        return [
            (seq.stirling2(n, n // 2), seq.assoc_stirling1(n, n // 3), seq.assoc_stirling2(n, n // 3))
            for n in range(start, start + 40)
        ]

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(worker, [0] * 8))
    assert all(r == results[0] for r in results)

    seq.clear_caches()
    expected = worker(0)
    assert results[0] == expected


def _fill_every_table():
    seq.bernoulli(6)
    seq.euler(6)
    seq.fubini(6)
    seq.apostol_bernoulli(4, 2)
    seq.apostol_euler(4, 2)
    seq.frobenius_euler(4, 3)
    seq.stirling1(5, 2)
    seq.stirling2(5, 2)
    seq.eulerian(5, 2)
    seq.stirling2_lambda(5, 2, 3)
    seq.assoc_stirling1(6, 2)
    seq.assoc_stirling2(6, 2)
    seq.fubini_order(5, 2)
    seq.bernoulli_second_poly(4)
    seq.osgood_wu(3, 2, 2)


def test_clear_caches_empties_every_registered_table():
    from volkenborn import identities, integrals  # the catalog's eight tables, and two for level sums

    _fill_every_table()
    # the falling-pair, double-Stirling, Stirling-Bernoulli, Daehee and I23 pair tables,
    # and the I28 and I29 weights
    identities.verify_all(ids=["I23", "I28a", "I29a"])
    # the Bernoulli and Euler polynomial rows of the level sums
    integrals.power_sum(3, 10)
    integrals.alternating_power_sum(3, 10)
    assert len(seq._TABLES) == 17
    assert all(table._values for table in seq._TABLES)
    seq.clear_caches()
    assert not any(table._values for table in seq._TABLES)


_EGF_FAMILIES = {
    # the parameters (2 key - 7)/4 avoid the excluded values 1 and -1
    "apostol_bernoulli": lambda n, key: seq.apostol_bernoulli(n, Fraction(2 * key - 7, 4)),
    "apostol_euler": lambda n, key: seq.apostol_euler(n, Fraction(2 * key - 7, 4)),
    "frobenius_euler": lambda n, key: seq.frobenius_euler(n, Fraction(2 * key - 7, 4)),
    "fubini": lambda n, key: seq.fubini(n),
    "assoc_stirling1": lambda n, key: seq.assoc_stirling1(n, key % 5),
    "assoc_stirling2": lambda n, key: seq.assoc_stirling2(n, key % 5),
    "stirling2_lambda": lambda n, key: seq.stirling2_lambda(n, key % 4, Fraction(key - 3, 2)),
    "fubini_order": lambda n, key: seq.fubini_order(n, 1 + key % 3),
    "bernoulli_second_poly": lambda n, key: seq.bernoulli_second_poly(n),
}


@settings(max_examples=25, deadline=None)
@given(
    family=st.sampled_from(sorted(_EGF_FAMILIES)),
    key=st.integers(0, 7),
    ns=st.lists(st.integers(0, 22), min_size=1, max_size=8),
    clear_at=st.integers(0, 8),
)
def test_egf_values_do_not_depend_on_request_order(family, key, ns, clear_at):
    fn = _EGF_FAMILIES[family]
    seq.clear_caches()
    got = []
    for i, n in enumerate(ns):
        if i == clear_at:
            seq.clear_caches()
        got.append(fn(n, key))
    seq.clear_caches()
    fn(max(ns), key)  # one build at the final order; the reads below hit it
    assert got == [fn(n, key) for n in ns]
