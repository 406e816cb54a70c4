"""Number families built by one rule each, against the code they replaced.

Euler numbers are read off Bernoulli numbers by
E_n(0) = -2 (2^(n+1) - 1) B_(n+1) / (n + 1); the Stirling (both kinds) and
Eulerian triangles share one two-term row rule; Bernoulli and Euler
polynomials share one Appell constructor; the Apostol, Frobenius and
Fubini numbers share one recurrence for the coefficients of
r t^j / (c e^t + d); the associated and lambda-Stirling numbers, the
order-k Fubini numbers and the Cauchy numbers behind the second-kind
Bernoulli polynomials are finite sums over the Stirling triangles.  The
references below are the earlier separate recurrences, row functions,
polynomial loops and truncated power series, kept here so the rewritten
rules are checked against code they do not share.
"""
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from volkenborn import sequences as seq
from volkenborn.polynomials import Polynomial
from volkenborn.series import PowerSeries

EULER_MAX = 150
TRIANGLE_MAX = 60
APPELL_MAX = 40
QUOTIENT_MAX = 59
EGF_MAX = 44


@lru_cache(maxsize=None)
def reference_euler() -> tuple[Fraction, ...]:
    """E_n(0) for n <= EULER_MAX from 2 E_n = -sum_{k<n} C(n, k) E_k."""
    vals = [Fraction(1)]
    for n in range(1, EULER_MAX + 1):
        s = sum(comb(n, k) * vals[k] for k in range(n))
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
        out[n - k] = comb(n, k) * seq.bernoulli(k)
    return Polynomial(out)


def reference_euler_poly(n: int) -> Polynomial:
    out = [Fraction(0)] * (n + 1)
    for k in range(n + 1):
        out[n - k] = comb(n, k) * reference_euler()[k]
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


# ---------------------------------------------------------------------------
# r t^j / (c e^t + d): the separate recurrences the shared one replaced


def next_apostol_bernoulli(vals, lam):
    m = len(vals)
    rhs = Fraction(1 if m == 1 else 0)
    s = sum(comb(m, k) * vals[k] for k in range(m))
    return (rhs - lam * s) / (lam - 1)


def next_apostol_euler(vals, lam):
    m = len(vals)
    rhs = Fraction(2 if m == 0 else 0)
    s = sum(comb(m, k) * vals[k] for k in range(m))
    return (rhs - lam * s) / (lam + 1)


def next_frobenius_euler(vals, u):
    m = len(vals)
    if m == 0:
        return Fraction(1)
    s = sum(comb(m, k) * vals[k] for k in range(m))
    return s / (u - 1)


def next_fubini(vals, _key):
    n = len(vals)
    if n == 0:
        return Fraction(1)
    return sum(comb(n, j) * vals[n - j] for j in range(1, n + 1))


# name -> (family under test, reference step, excluded parameter)
_QUOTIENTS = {
    "apostol_bernoulli": (seq.apostol_bernoulli, next_apostol_bernoulli, 1),
    "apostol_euler": (seq.apostol_euler, next_apostol_euler, -1),
    "frobenius_euler": (seq.frobenius_euler, next_frobenius_euler, 1),
    "fubini": (lambda n, _param: seq.fubini(n), next_fubini, None),
}


def reference_quotient(family: str, param: Fraction, n: int) -> list[Fraction]:
    step = _QUOTIENTS[family][1]
    vals: list[Fraction] = []
    while len(vals) <= n:
        vals.append(step(vals, param))
    return vals


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(sorted(_QUOTIENTS)),
    param=st.fractions(min_value=-6, max_value=6, max_denominator=7),
    n=st.integers(0, QUOTIENT_MAX),
    clear=st.booleans(),
)
@example(family="apostol_bernoulli", param=Fraction(2), n=QUOTIENT_MAX, clear=True)
@example(family="apostol_euler", param=Fraction(-1, 3), n=QUOTIENT_MAX, clear=True)
@example(family="frobenius_euler", param=Fraction(5, 3), n=QUOTIENT_MAX, clear=True)
@example(family="fubini", param=Fraction(0), n=QUOTIENT_MAX, clear=True)
@example(family="apostol_euler", param=Fraction(0), n=5, clear=False)
def test_egf_quotients_match_the_old_recurrences(family, param, n, clear):
    fn, _, excluded = _QUOTIENTS[family]
    assume(param != excluded)
    if clear:
        seq.clear_caches()
    got = [fn(m, param) for m in range(n + 1)]
    assert got == reference_quotient(family, param, n)
    assert all(type(v) is Fraction for v in got)


# ---------------------------------------------------------------------------
# closed forms over the Stirling tables: the power series they replaced


def divided_power(base: PowerSeries, k: int) -> PowerSeries:
    return (base**k) * Fraction(1, factorial(k))


def lambda_stirling_series(order: int, key) -> PowerSeries:
    lam, k = key
    return divided_power(PowerSeries.exp(order) * lam - PowerSeries.one(order), k)


def assoc1_series(order: int, k: int) -> PowerSeries:
    return divided_power(PowerSeries.log1p(order) - PowerSeries.identity(order), k)


def assoc2_series(order: int, k: int) -> PowerSeries:
    return divided_power(PowerSeries.exp(order) - PowerSeries.one(order) - PowerSeries.identity(order), k)


def fubini_order_series(order: int, k: int) -> PowerSeries:
    two = PowerSeries.one(order) * 2
    return (two - PowerSeries.exp(order)).inverse() ** k


def cauchy_series(order: int, _key) -> PowerSeries:
    # t/log(1+t) read as an exponential generating function
    log_over_t = PowerSeries(PowerSeries.log1p(order + 1).coeffs[1:], order)
    return log_over_t.inverse()


# name -> (family under test taking (n, key), reference series builder)
_CLOSED_FORMS = {
    "assoc_stirling1": (seq.assoc_stirling1, assoc1_series),
    "assoc_stirling2": (seq.assoc_stirling2, assoc2_series),
    "stirling2_lambda": (lambda n, key: seq.stirling2_lambda(n, key[1], key[0]), lambda_stirling_series),
    "fubini_order": (seq.fubini_order, fubini_order_series),
    "cauchy": (lambda n, _key: seq.cauchy(n), cauchy_series),
}


@lru_cache(maxsize=None)
def reference_egf(family: str, key, order: int = EGF_MAX + 1) -> tuple[Fraction, ...]:
    series = _CLOSED_FORMS[family][1](order, key)
    return tuple(series.egf_coeff(m) for m in range(order))


def reference_bernoulli_second_poly(n: int) -> Polynomial:
    out = Polynomial.zero()
    for k in range(n + 1):
        c = comb(n, k) * reference_egf("cauchy", None)[n - k]
        if c:
            out = out + seq.falling_poly(k) * c
    return out


_LAMBDAS = (Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 3), Fraction(-5, 2))
_KEYS = {
    "assoc_stirling1": range(7),
    "assoc_stirling2": range(7),
    "stirling2_lambda": [(lam, k) for lam in _LAMBDAS for k in range(6)],
    "fubini_order": range(1, 6),
    "cauchy": [None],
}


def test_closed_forms_match_the_old_series():
    seq.clear_caches()
    for family, (fn, _) in _CLOSED_FORMS.items():
        for key in _KEYS[family]:
            got = [fn(n, key) for n in range(EGF_MAX + 1)]
            assert got == list(reference_egf(family, key)), (family, key)
            assert all(type(v) is Fraction for v in got), (family, key)


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(sorted(_CLOSED_FORMS)),
    lam=st.fractions(min_value=-4, max_value=4, max_denominator=5),
    k=st.integers(0, 5),
    n=st.integers(0, 24),
)
@example(family="assoc_stirling1", lam=Fraction(0), k=0, n=0)
@example(family="stirling2_lambda", lam=Fraction(0), k=0, n=0)
def test_closed_forms_match_the_old_series_at_random_keys(family, lam, k, n):
    key = {"stirling2_lambda": (lam, k), "fubini_order": k + 1, "cauchy": None}.get(family, k)
    got = _CLOSED_FORMS[family][0](n, key)
    assert got == reference_egf(family, key, n + 1)[n]
    assert type(got) is Fraction


@settings(max_examples=20, deadline=None)
@given(n=st.integers(0, 30))
def test_second_kind_bernoulli_poly_matches_the_old_series(n):
    got = seq.bernoulli_second_poly(n)
    want = reference_bernoulli_second_poly(n)
    assert got == want
    assert repr(got) == repr(want)
