import copy
import dataclasses
import math
import pickle
import random
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from volkenborn import sequences as seq
from volkenborn.integrals import (
    Measure,
    alternating_power_sum,
    convergence_report,
    exact_integral,
    fermionic_exact,
    level_integral,
    power_sum,
    volkenborn_exact,
)
from volkenborn.polynomials import Polynomial
from volkenborn.sequences import binom_poly, changhee, daehee, falling_poly


def test_volkenborn_exact_examples():
    assert volkenborn_exact(binom_poly(3)) == Fraction(-1, 4)
    assert volkenborn_exact(Polynomial.one()) == 1
    assert volkenborn_exact(falling_poly(4)) == Fraction(24, 5)


def test_fermionic_exact_examples():
    assert fermionic_exact(binom_poly(2)) == Fraction(1, 4)
    assert fermionic_exact(Polynomial.one()) == 1
    assert fermionic_exact(falling_poly(3)) == Fraction(-3, 4)


@pytest.mark.parametrize("n", range(31))
def test_binomial_integral_closed_forms(n):
    assert volkenborn_exact(binom_poly(n)) == Fraction((-1) ** n, n + 1)
    assert fermionic_exact(binom_poly(n)) == Fraction((-1) ** n, 2**n)


@pytest.mark.parametrize("n", range(21))
def test_shifted_rising_factorial_integrals(n):
    # integrals of (x+n-1)(x+n-2)...(x) against both measures
    poly = falling_poly(n).shift(n - 1) if n else Polynomial.one()
    bos = volkenborn_exact(poly)
    fer = fermionic_exact(poly)
    expected_b = math.factorial(n) * sum(
        Fraction((-1) ** m, m + 1) * math.comb(n - 1, n - m) for m in range(n + 1)
    ) if n else Fraction(1)
    expected_f = math.factorial(n) * sum(
        Fraction((-1) ** m, 2**m) * math.comb(n - 1, n - m) for m in range(n + 1)
    ) if n else Fraction(1)
    assert bos == expected_b
    assert fer == expected_f


def test_falling_factorial_integrals_are_the_number_families():
    for n in range(15):
        assert volkenborn_exact(falling_poly(n)) == daehee(n)
        assert fermionic_exact(falling_poly(n)) == changhee(n)


coeffs = st.lists(
    st.fractions(min_value=-50, max_value=50, max_denominator=12), min_size=0, max_size=11
)


@settings(max_examples=40, deadline=None)
@given(coeffs, coeffs)
def test_exact_integrals_are_linear(a, b):
    f, g = Polynomial(a), Polynomial(b)
    assert volkenborn_exact(f + g) == volkenborn_exact(f) + volkenborn_exact(g)
    assert fermionic_exact(f + g) == fermionic_exact(f) + fermionic_exact(g)
    assert volkenborn_exact(f * 3) == 3 * volkenborn_exact(f)


# ---------------------------------------------------------------------------
# power sums


def test_power_sum_examples():
    assert power_sum(1, 9) == 36
    assert power_sum(2, 4) == 14
    assert power_sum(3, 100) == 24502500
    assert power_sum(0, 7) == 7  # 0^0 counts as 1
    assert power_sum(5, 0) == 0


def test_alternating_power_sum_examples():
    assert alternating_power_sum(0, 3) == 1
    assert alternating_power_sum(1, 4) == -2
    assert alternating_power_sum(2, 5) == 10
    assert alternating_power_sum(4, 0) == 0


def test_power_sums_match_direct_loops():
    for n in range(41):
        direct = 0
        alt = 0
        for m in range(501):
            assert power_sum(n, m) == direct
            assert alternating_power_sum(n, m) == alt
            term = m**n if (m or n == 0) else 0
            direct += term
            alt += term if m % 2 == 0 else -term


def akiyama_tanigawa(n_max):
    """B_0..B_n_max (B_1 = -1/2) by the Akiyama-Tanigawa transform, not the library's tables."""
    out, row = [], []
    for m in range(n_max + 1):
        row.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    out[1] = -out[1]  # the transform gives B_1 = +1/2
    return out


FAULHABER_B = akiyama_tanigawa(41)


def faulhaber(n, m):
    """Sum of x^n for x < m: (1/(n+1)) sum_j C(n+1, j) B_j m^(n+1-j)."""
    return sum(math.comb(n + 1, j) * FAULHABER_B[j] * m ** (n + 1 - j) for j in range(n + 1)) / (n + 1)


def faulhaber_alternating(n, m):
    """Sum of (-1)^x x^n for x < m: twice the sum over even x, less the whole sum."""
    return 2 * 2**n * faulhaber(n, (m + 1) // 2) - faulhaber(n, m)


def test_faulhaber_reference_matches_the_loops():
    for n in (0, 1, 2, 7, 40):
        for m in range(25):
            assert faulhaber(n, m) == sum(Fraction(x) ** n for x in range(m))
            assert faulhaber_alternating(n, m) == sum((-1) ** x * Fraction(x) ** n for x in range(m))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 40), st.integers(0, 10**18))
@example(0, 0)
@example(40, 10**18)
@example(1, 1)
def test_power_sums_match_faulhaber(n, m):
    got = power_sum(n, m)
    assert type(got) is Fraction and got == faulhaber(n, m)
    got = alternating_power_sum(n, m)
    assert type(got) is Fraction and got == faulhaber_alternating(n, m)


# row k of each table: the int coefficients of den B_k(x) or den E_k(x), and den;
# bernoulli_poly and euler_poly read these rows
ROW_TABLES = {"bosonic": (seq._BERNOULLI_ROWS, seq.bernoulli),
              "fermionic": (seq._EULER_ROWS, seq.euler)}


@pytest.mark.parametrize("kind", sorted(ROW_TABLES))
def test_row_tables_are_den_times_the_shifted_integral_polynomials(kind):
    table, moment = ROW_TABLES[kind]
    seq.clear_caches()
    for k in range(41):
        row, den = table.get(k)
        # the Fraction Appell sum sum_d C(k, d) P_(k-d) x^d, P_i = B_i or E_i
        expected = [den * math.comb(k, d) * moment(k - d) for d in range(k + 1)]
        assert len(row) == k + 1 and all(type(c) is int for c in row)
        assert list(row) == expected, (kind, k)


def test_concurrent_power_sums_build_each_row_once(monkeypatch):
    steps = {kind: Counter() for kind in ROW_TABLES}
    for kind, (table, _) in ROW_TABLES.items():
        def counted(values, step=table._step, built=steps[kind]):
            built[len(values)] += 1  # the table steps under the sequences lock
            return step(values)

        monkeypatch.setattr(table, "_step", counted)
    sums = [(n, m) for n in range(41) for m in (0, 1, 2, 7, 3**11, 10**18)]
    expected = {(n, m): (faulhaber(n, m), faulhaber_alternating(n, m)) for n, m in sums}

    def worker(seed):
        order = random.Random(seed).sample(sums, len(sums))
        return {(n, m): (power_sum(n, m), alternating_power_sum(n, m)) for n, m in order}

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        seq.clear_caches()
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(worker, seed) for seed in range(16)]
            assert all(fut.result(timeout=60) == expected for fut in futures)
    finally:
        sys.setswitchinterval(old)
    assert steps["bosonic"] == Counter(range(42)) and steps["fermionic"] == Counter(range(41))
    seq.clear_caches()
    assert all(table._values == [] for table, _ in ROW_TABLES.values())


def test_power_sum_handles_huge_arguments():
    # closed form, so p^N-sized arguments cost nothing
    value = power_sum(2, 5**12)
    m = 5**12
    assert value == m * (m - 1) * (2 * m - 1) // 6


# ---------------------------------------------------------------------------
# level sums


def test_level_integral_examples():
    x = Polynomial.x()
    assert level_integral(x, Measure.bosonic(), 3, 2) == 4
    assert level_integral(Polynomial.one(), Measure.fermionic(), 3, 1) == 1
    assert level_integral(Polynomial.one(), Measure.bosonic(), 5, 3) == 1


def direct_level_sum(f, kind, m):
    if kind == "bosonic":
        return sum((f(x) for x in range(m)), Fraction(0)) / m
    return sum(((-1) ** x * f(x) for x in range(m)), Fraction(0))


LEVELS = [(2, 1), (2, 3), (2, 7), (3, 1), (3, 2), (3, 4), (5, 1), (5, 3), (7, 1), (7, 2), (11, 2), (13, 1)]


def test_level_integral_matches_direct_summation():
    polys = [
        Polynomial([Fraction(1, 2), -2, 0, 1]),
        Polynomial([Fraction((-1) ** i * (i + 1), 2 * i + 3) for i in range(31)]),
        Polynomial.monomial(30, Fraction(7, 11)),
        Polynomial.zero(),
    ]
    for f in polys:
        for p, N in LEVELS:
            for kind in ("bosonic", "fermionic"):
                if kind == "fermionic" and p == 2:
                    continue
                got = level_integral(f, Measure(kind), p, N)
                assert type(got) is Fraction
                assert got == direct_level_sum(f, kind, p**N), (f, kind, p, N)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.fractions(min_value=-100, max_value=100, max_denominator=30), max_size=31),
    st.sampled_from(LEVELS),
    st.sampled_from(["bosonic", "fermionic"]),
)
def test_level_integral_of_random_polynomials_matches_the_term_loop(coeffs, level, kind):
    p, N = level
    if kind == "fermionic" and p == 2:
        p = 3
    f = Polynomial(coeffs)
    assert level_integral(f, Measure(kind), p, N) == direct_level_sum(f, kind, p**N)


PRIMES = (2, 3, 5, 7, 11, 13, 101, 997)


@st.composite
def deep_levels(draw):
    """(p, N) with p^N up to 10^18."""
    p = draw(st.sampled_from(PRIMES))
    return p, draw(st.integers(1, int(18 / math.log10(p))))


int_or_fraction_coeffs = st.one_of(
    st.lists(st.integers(-10**6, 10**6), max_size=31),
    st.lists(st.fractions(min_value=-100, max_value=100, max_denominator=30), max_size=31),
)


@settings(max_examples=80, deadline=None)
@given(int_or_fraction_coeffs, deep_levels(), st.sampled_from(["bosonic", "fermionic"]))
@example([1] * 31, (2, 59), "bosonic")
@example([-1] * 31, (997, 6), "fermionic")
def test_level_integral_matches_faulhaber_at_deep_levels(coeffs, level, kind):
    p, N = level
    if kind == "fermionic" and p == 2:
        p, N = 3, min(N, 37)
    m = p**N
    if kind == "bosonic":
        expected = sum((Fraction(c) * faulhaber(n, m) for n, c in enumerate(coeffs)), Fraction(0)) / m
    else:
        expected = sum((Fraction(c) * faulhaber_alternating(n, m) for n, c in enumerate(coeffs)), Fraction(0))
    got = level_integral(Polynomial(coeffs), Measure(kind), p, N)
    assert type(got) is Fraction and got == expected


def test_level_integral_preconditions():
    one = Polynomial.one()
    with pytest.raises(ValueError):
        level_integral(one, Measure.fermionic(), 2, 3)
    with pytest.raises(ValueError):
        level_integral(one, Measure.bosonic(), 4, 1)
    with pytest.raises(ValueError):
        level_integral(one, Measure.bosonic(), 3, 0)
    # v_p(1 - q) must be >= 1
    with pytest.raises(ValueError):
        level_integral(one, Measure.q_weighted(Fraction(1, 2)), 3, 1)
    # guard on the term-by-term q loop
    with pytest.raises(ValueError):
        level_integral(one, Measure.q_weighted(4), 3, 13)


def test_q_level_matches_direct_weighted_sum():
    f = Polynomial([0, 1])
    q = Fraction(4)
    for N in (1, 2, 3):
        m = 3**N
        direct = sum(Fraction(x) * q**x for x in range(m))
        bracket = (1 - q**m) / (1 - q)
        assert level_integral(f, Measure.q_weighted(q), 3, N) == direct / bracket


def test_q_measure_delegates_to_bosonic_at_one():
    f = Polynomial([1, 2, 3])
    assert level_integral(f, Measure.q_weighted(1), 3, 2) == level_integral(
        f, Measure.bosonic(), 3, 2
    )


def test_measure_validation():
    with pytest.raises(ValueError):
        Measure("nonsense")
    with pytest.raises(ValueError):
        Measure("q")
    with pytest.raises(ValueError):
        Measure("bosonic", Fraction(2))
    # the benchmark and the CLI make and read a measure by (kind, q) alone
    assert Measure("bosonic") == Measure.bosonic() != Measure.fermionic()
    assert hash(Measure("bosonic")) == hash(Measure.bosonic())
    assert repr(Measure.q_weighted(4)) == "Measure(kind='q', q=Fraction(4, 1))"
    measures = (Measure.bosonic(), Measure.fermionic(), Measure.q_weighted(4))
    assert [(m.kind, m.q) for m in measures] == [("bosonic", None), ("fermionic", None), ("q", 4)]
    assert type(measures[2].q) is Fraction
    assert [f.name for f in dataclasses.fields(Measure)] == ["kind", "q"]
    assert exact_integral(Polynomial.x(), Measure.q_weighted(4)) is None
    # a copy is made again from (kind, q), with the measure's integrals
    for m in measures:
        for twin in (copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
            assert twin == m and twin.exact(Polynomial.x()) == m.exact(Polynomial.x())
            assert twin.ints == m.ints  # the same memo table's view, not a copy of it


# ---------------------------------------------------------------------------
# convergence reports


def test_convergence_witness_row():
    report = convergence_report(Polynomial.x(), Measure.bosonic(), 3, 2)
    assert report.exact == Fraction(-1, 2)
    row = report.rows[1]
    assert row.N == 2
    assert row.value == 4
    assert row.value - report.exact == Fraction(9, 2)
    assert row.err_valuation == 2


def test_convergence_constant_fermionic_is_exact_at_every_level():
    report = convergence_report(Polynomial.one(), Measure.fermionic(), 3, 4)
    assert all(r.value == 1 for r in report.rows)
    assert all(r.err_valuation == math.inf for r in report.rows)


def test_convergence_valuations_nondecreasing_small_sweep():
    for p in (3, 5, 7):
        for n in range(9):
            report = convergence_report(Polynomial.monomial(n), Measure.bosonic(), p, 4)
            vals = [r.err_valuation for r in report.rows]
            assert all(a <= b for a, b in zip(vals, vals[1:]))
            # from the second level on the error always carries a power of p
            assert all(v >= 1 for v in vals[1:])


def test_convergence_q_rows_have_no_reference():
    report = convergence_report(Polynomial.x(), Measure.q_weighted(4), 3, 3)
    assert report.exact is None
    assert all(r.err_valuation is None for r in report.rows)


def test_convergence_report_serialization():
    report = convergence_report(Polynomial.x(), Measure.bosonic(), 3, 2)
    obj = report.to_json_obj()
    assert obj["rows"][1] == {"N": 2, "value": "4", "err_valuation": 2}


# ---------------------------------------------------------------------------
# shift equations


def check_shift_equation(f: Polynomial, m: int) -> bool:
    """Exact check of the bosonic shift law:

    integral of f(x+m) equals integral of f plus sum_{x=0}^{m-1} f'(x).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    lhs = volkenborn_exact(f.shift(m))
    fprime = f.derivative()
    rhs = volkenborn_exact(f) + sum((fprime(x) for x in range(m)), Fraction(0))
    return lhs == rhs


def check_fermionic_shift(f: Polynomial, n: int) -> bool:
    """Exact check of the fermionic shift law:

    integral of f(x+n) plus (-1)^(n+1) integral of f equals
    2 sum_{j=0}^{n-1} (-1)^(n-1-j) f(j).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    lhs = fermionic_exact(f.shift(n)) + (-1) ** (n + 1) * fermionic_exact(f)
    rhs = 2 * sum(((-1) ** (n - 1 - j) * f(j) for j in range(n)), Fraction(0))
    return lhs == rhs


def test_shift_equation_simple_cases():
    assert check_shift_equation(Polynomial.monomial(2), 1)
    assert check_shift_equation(Polynomial([3, 0, Fraction(1, 2), 1]), 4)


@pytest.mark.parametrize("n", range(1, 13))
def test_shift_equation_on_binomials_reproduces_shifted_integral(n):
    # shifting C(x, n) by one lands on the (-1)^(n+1)/(n^2+n) closed form
    assert check_shift_equation(binom_poly(n), 1)
    assert volkenborn_exact(binom_poly(n).shift(1)) == Fraction((-1) ** (n + 1), n * n + n)


@settings(max_examples=40, deadline=None)
@given(coeffs, st.integers(min_value=1, max_value=4))
def test_shift_equation_random(c, m):
    assert check_shift_equation(Polynomial(c), m)


def test_fermionic_shift_simple_cases():
    assert check_fermionic_shift(Polynomial.x(), 1)
    assert check_fermionic_shift(Polynomial.monomial(3), 2)


@settings(max_examples=40, deadline=None)
@given(coeffs, st.integers(min_value=1, max_value=4))
def test_fermionic_shift_random(c, n):
    assert check_fermionic_shift(Polynomial(c), n)


def test_exact_integral_dispatch():
    f = Polynomial.x()
    assert exact_integral(f, Measure.bosonic()) == Fraction(-1, 2)
    assert exact_integral(f, Measure.fermionic()) == Fraction(-1, 2)
    assert exact_integral(f, Measure.q_weighted(4)) is None
