"""Number families built by one rule each, against the code they replaced.

Euler numbers are read off Bernoulli numbers by
E_n(0) = -2 (2^(n+1) - 1) B_(n+1) / (n + 1); the Stirling (both kinds) and
Eulerian triangles share one two-term row rule; Bernoulli and Euler
polynomials share one Appell constructor.  The references below are the
earlier separate recurrences, row functions and polynomial loops, kept
here so the rewritten rules are checked against code they do not share.
"""
from fractions import Fraction
from functools import lru_cache

from hypothesis import example, given, settings
from hypothesis import strategies as st

from volkenborn import sequences as seq
from volkenborn.polynomials import Polynomial, binom_int

EULER_MAX = 150
TRIANGLE_MAX = 60
APPELL_MAX = 40


@lru_cache(maxsize=None)
def reference_euler() -> tuple[Fraction, ...]:
    """E_n(0) for n <= EULER_MAX from 2 E_n = -sum_{k<n} C(n, k) E_k."""
    vals = [Fraction(1)]
    for n in range(1, EULER_MAX + 1):
        s = sum(binom_int(n, k) * vals[k] for k in range(n))
        vals.append(-s / 2)
    return tuple(vals)


def stirling1_row(rows):
    n = len(rows)
    if n == 0:
        return [Fraction(1)]
    prev = rows[-1]
    # S1(n+1, k) = -n S1(n, k) + S1(n, k-1)
    m = n - 1
    return [
        -m * (prev[k] if k <= m else Fraction(0)) + (prev[k - 1] if 1 <= k <= m + 1 else Fraction(0))
        for k in range(n + 1)
    ]


def stirling2_row(rows):
    n = len(rows)
    if n == 0:
        return [Fraction(1)]
    prev = rows[-1]
    # S2(n+1, k) = k S2(n, k) + S2(n, k-1)
    m = n - 1
    return [
        k * (prev[k] if k <= m else Fraction(0)) + (prev[k - 1] if 1 <= k <= m + 1 else Fraction(0))
        for k in range(n + 1)
    ]


def eulerian_row(rows):
    n = len(rows)
    if n == 0:
        return [Fraction(1)]
    prev = rows[-1]
    m = n - 1
    row = []
    for k in range(n + 1):
        a = prev[k - 1] if 1 <= k <= m + 1 else Fraction(0)
        b = prev[k] if k <= m else Fraction(0)
        row.append((n - k + 1) * a + k * b)
    return row


_TRIANGLES = {
    "stirling1": (seq.stirling1, stirling1_row),
    "stirling2": (seq.stirling2, stirling2_row),
    "eulerian": (seq.eulerian, eulerian_row),
}


@lru_cache(maxsize=None)
def reference_rows(family: str) -> tuple[tuple[Fraction, ...], ...]:
    step = _TRIANGLES[family][1]
    rows: list[list[Fraction]] = []
    while len(rows) <= TRIANGLE_MAX:
        rows.append(step(rows))
    return tuple(tuple(r) for r in rows)


def reference_bernoulli_poly(n: int) -> Polynomial:
    out = [Fraction(0)] * (n + 1)
    for k in range(n + 1):
        out[n - k] = binom_int(n, k) * seq.bernoulli(k)
    return Polynomial(out)


def reference_euler_poly(n: int) -> Polynomial:
    out = [Fraction(0)] * (n + 1)
    for k in range(n + 1):
        out[n - k] = binom_int(n, k) * reference_euler()[k]
    return Polynomial(out)


def test_euler_numbers_match_the_recurrence():
    seq.clear_caches()
    got = [seq.euler(n) for n in range(EULER_MAX + 1)]
    assert got == list(reference_euler())
    assert all(type(v) is Fraction for v in got)


@settings(max_examples=20, deadline=None)
@given(
    ns=st.lists(st.integers(0, EULER_MAX), min_size=1, max_size=8),
    clear_at=st.integers(0, 8),
)
@example(ns=[EULER_MAX, 0, 1, EULER_MAX - 1], clear_at=2)
def test_euler_values_do_not_depend_on_request_order(ns, clear_at):
    seq.clear_caches()
    for i, n in enumerate(ns):
        if i == clear_at:
            seq.clear_caches()
        assert seq.euler(n) == reference_euler()[n], n


def test_triangles_match_the_old_rows():
    seq.clear_caches()
    for family, (fn, _) in _TRIANGLES.items():
        for n, row in enumerate(reference_rows(family)):
            got = [fn(n, k) for k in range(n + 1)]
            assert got == list(row), (family, n)
            assert all(type(v) is Fraction for v in got)
            assert fn(n, n + 1) == 0


@settings(max_examples=30, deadline=None)
@given(
    family=st.sampled_from(sorted(_TRIANGLES)),
    cells=st.lists(
        st.tuples(st.integers(0, TRIANGLE_MAX), st.integers(0, TRIANGLE_MAX + 1)), min_size=1, max_size=10
    ),
    clear_at=st.integers(0, 10),
)
def test_triangle_entries_do_not_depend_on_request_order(family, cells, clear_at):
    fn = _TRIANGLES[family][0]
    rows = reference_rows(family)
    seq.clear_caches()
    for i, (n, k) in enumerate(cells):
        if i == clear_at:
            seq.clear_caches()
        assert fn(n, k) == (rows[n][k] if k <= n else 0), (n, k)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(0, APPELL_MAX), clear=st.booleans())
@example(n=0, clear=True)
@example(n=1, clear=False)
def test_appell_polynomials_match_the_old_loops(n, clear):
    if clear:
        seq.clear_caches()
    for got, want in [
        (seq.bernoulli_poly(n), reference_bernoulli_poly(n)),
        (seq.euler_poly(n), reference_euler_poly(n)),
    ]:
        assert got == want
        assert repr(got) == repr(want)
