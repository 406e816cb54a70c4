"""The Bernoulli and Euler numbers as integer numerators over one denominator.

``sequences`` keeps, beside each of the two tables, a view of entries
0..n as ``(numerators, den)`` with den the lcm of their denominators.  The
exact integrals and the catalog's moment sums add plain ints over it and
divide once.  The references here are the ``Fraction`` tables and the
``_dot`` sums over them that the integer path replaced.
"""
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from volkenborn import sequences as seq
from volkenborn.integrals import fermionic_exact, volkenborn_exact
from volkenborn.polynomials import Polynomial, _dot
from volkenborn.sequences import falling_poly

VIEWS = pytest.mark.parametrize(
    "view, table", [(seq._bernoulli_ints, seq.bernoulli), (seq._euler_ints, seq.euler)],
    ids=["bernoulli", "euler"],
)


def dot_exact(f: Polynomial, moment) -> Fraction:
    return _dot((c, moment(i)) for i, c in enumerate(f))


def check_view(view, table, n):
    nums, den = view(n)
    assert len(nums) > n
    assert all(type(c) is int for c in nums) and type(den) is int
    assert den == lcm(*(table(i).denominator for i in range(len(nums))))
    assert [Fraction(c, den) for c in nums] == [table(i) for i in range(len(nums))]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4), max_size=48))
@example([])
@example([0, 0, 0])
@example([Fraction(1, 3)] * 47)
def test_exact_integrals_match_dot_over_the_fraction_tables(coeffs):
    seq.clear_caches()
    f = Polynomial(coeffs)
    for exact, table in ((volkenborn_exact, seq.bernoulli), (fermionic_exact, seq.euler)):
        got = exact(f)
        assert type(got) is Fraction
        assert got == dot_exact(f, table)


def memo_of(table):
    return seq._BERNOULLI if table is seq.bernoulli else seq._EULER


def grown_length(table, n):
    """The table's length once table(n) alone has grown it from empty (Bernoulli grows in batches)."""
    seq.clear_caches()
    table(n)
    return len(memo_of(table)._values)


@VIEWS
@settings(max_examples=40, deadline=None)
@given(ns=st.lists(st.integers(0, 240), min_size=1, max_size=10), clear_at=st.integers(0, 10))
def test_view_equals_the_table_in_any_request_order(view, table, ns, clear_at):
    # each request past the view's end grows it, rescaling the old numerators
    # where den changes (B_n gains a prime p at n = p - 1)
    seq.clear_caches()
    for i, n in enumerate(ns):
        if i == clear_at:
            seq.clear_caches()
        check_view(view, table, n)
    seq.clear_caches()
    check_view(view, table, max(ns))


@VIEWS
def test_view_doubles_within_the_table_and_is_one_object_between_growths(view, table):
    memo = memo_of(table)
    want = grown_length(table, 6)
    seq.clear_caches()
    first = view(5)
    assert len(first[0]) == 6
    assert view(3) is first and view(5) is first
    # the view never grows the table past what table(6) alone grows it to
    second = view(6)
    assert len(memo._values) == want
    assert len(second[0]) == max(7, min(12, want))
    table(40)
    n = len(second[0])
    assert len(view(n)[0]) == 2 * n
    assert len(view(40)[0]) == max(41, min(4 * n, len(memo._values)))
    check_view(view, table, 40)


@VIEWS
def test_clear_caches_drops_the_view(view, table):
    view(30)
    seq.clear_caches()
    assert seq._BERNOULLI._ints == seq._EULER._ints == ((), 1)
    assert not seq._BERNOULLI._values and not seq._EULER._values


@VIEWS
def test_concurrent_view_growth_is_consistent(view, table):
    want = grown_length(table, 150)

    def worker(start):
        views = [(n, view(n)) for n in range(start, 151, 7)]
        return [Fraction(nums[n], den) for n, (nums, den) in views]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            seq.clear_caches()
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(worker, k % 7) for k in range(16)]
                results = [f.result(timeout=60) for f in futures]
            for k, got in enumerate(results):
                assert got == [table(n) for n in range(k % 7, 151, 7)]
            check_view(view, table, 150)
            # no thread's growth reached past what table(150) alone grows
            assert len(memo_of(table)._values) == want
    finally:
        sys.setswitchinterval(old)


def times_factor(coeffs: list, j: int) -> list:
    """The coefficients of (x - j) times the polynomial with coefficients ``coeffs``."""
    return [lo - j * hi for lo, hi in zip([0, *coeffs], [*coeffs, 0])]


@pytest.mark.parametrize("m", range(21))
def test_falling_product_is_the_product_of_the_two_falling_factorials(m):
    # the reference multiplies out the m + n linear factors one at a time, in
    # plain lists, sharing no code with the Stirling rows or Polynomial.__mul__
    want = [1]
    for j in range(m):
        want = times_factor(want, j)
    for n in range(21):
        got, expected = falling_poly(m) * falling_poly(n), Polynomial(want)
        assert got == expected, (m, n)
        assert repr(got) == repr(expected)
        assert all(type(c) is Fraction for c in got.coeffs)
        want = times_factor(want, n)
