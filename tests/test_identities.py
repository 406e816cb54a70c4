import dataclasses
import inspect
import random
import sys
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import product
from math import comb, factorial, perm

import pytest
from volkenborn import identities, sequences as seq
from volkenborn.identities import catalog, resolve_ids, verify, verify_all
from volkenborn.integrals import Measure, fermionic_exact, volkenborn_exact
from volkenborn.polynomials import Polynomial
from volkenborn.sequences import binom_poly, falling_poly


GROUP_IDS = [f"I{i:02d}" for i in range(1, 36)]


def test_catalog_is_large_enough_and_covers_every_group():
    records = catalog()
    assert len(records) >= 35
    ids = {r.id for r in records}
    for gid in GROUP_IDS:
        assert gid in ids or any(i.startswith(gid) and len(i) == len(gid) + 1 for i in ids), gid


def test_catalog_ids_are_unique_and_grids_nonempty():
    records = catalog()
    ids = [r.id for r in records]
    assert len(ids) == len(set(ids))
    for r in records:
        assert len(r.grid(None)) > 0, r.id
        # every evaluator takes exactly as many arguments as a grid point has
        arity = len(r.grid(None)[0])
        for side in (r.lhs, r.rhs, r.literal_lhs, r.literal_rhs):
            if side is not None:
                assert len(inspect.signature(side).parameters) == arity, r.id


def test_corrected_records_carry_their_evidence():
    for r in catalog():
        if r.status == identities.CORRECTED:
            assert r.literal_lhs is not None or r.literal_rhs is not None, r.id
            assert r.note, r.id
            ce = r.counterexample
            lv, rv = (r.literal_lhs or r.lhs)(*ce), (r.literal_rhs or r.rhs)(*ce)
            assert lv != rv, f"{r.id}: stored counterexample no longer breaks the literal form"
            # a literal side is stated only where it differs from the record's own
            for literal, own in ((r.literal_lhs, r.lhs), (r.literal_rhs, r.rhs)):
                if literal is not None:
                    assert any(literal(*p) != own(*p) for p in (ce, *r.grid(4))), r.id
        else:
            assert r.status == identities.VERIFIED, r.id
            assert r.literal_lhs is None and r.literal_rhs is None, r.id


# the uncorrected claims as first frozen: id, counterexample, then the literal
# left and right sides there (a side a record does not restate is its own)
LITERAL_VALUES = """\
I14b (2,) -2/9 0
I16 (1,) 3/2 -3/2
I19 (3,) -23/12 -49/12
I23d (1, 1) 1/6 7/6
I24c (2,) -1/3 -1/12
I25 (2,) -1/3 7/6
I26e (2,) -1/4 -3/16
I26f (2,) -1/4 0
I26l (1,) 3/2 -1/2
I26m (3,) -11/8 -21/8
I28a (2,) 1/6 5/12
I28b (2,) 0 1/4
I29a (2,) 1/6 -5/12
I29b (2,) 0 -1/2
I30 (2, 1) 4 3
I31 (1,) 2/3 1/2
I34a (1,) -1/2 0
I34b (1,) -1/2 0
"""


def test_literal_sides_at_the_counterexamples_are_frozen():
    lines = []
    for r in catalog():
        if r.counterexample is not None:
            ce = r.counterexample
            lv, rv = (r.literal_lhs or r.lhs)(*ce), (r.literal_rhs or r.rhs)(*ce)
            lines.append(f"{r.id} {ce} {lv} {rv}")
    assert lines == LITERAL_VALUES.splitlines()


def test_verify_fills_an_unset_literal_side_with_the_records_own():
    # the record's own sides differ, so a side filled from the wrong one shows
    one, two = (lambda n: Fraction(1)), (lambda n: Fraction(2))
    base = identities.IdentityRecord("X", "probe", lambda cap: ((0,),), one, two)
    for literal, broken in [
        ({"literal_lhs": two}, False),
        ({"literal_rhs": one}, False),
        ({"literal_lhs": two, "literal_rhs": one}, True),
        ({"literal_lhs": one, "literal_rhs": one}, False),
    ]:
        record = dataclasses.replace(base, counterexample=(0,), **literal)
        assert verify(record).literal_confirmed is broken, literal


def test_verify_single_records():
    result = verify("I01", n_max=20)
    assert result.points == 21
    assert result.mismatch_count == 0

    # the shifted binomial at n = 3 gives 1/12 on both sides
    (rec,) = resolve_ids(["I13a"])
    assert rec.lhs(3) == Fraction(1, 12)
    assert rec.rhs(3) == Fraction(1, 12)


def test_negative_n_max_is_rejected():
    with pytest.raises(ValueError, match="n_max must be >= 0"):
        verify("I01", n_max=-1)
    with pytest.raises(ValueError, match="n_max must be >= 0"):
        verify_all(n_max=-7, ids=["I01"])
    assert verify("I01", n_max=0).points == 1


def test_n_max_above_the_limit_is_rejected():
    with pytest.raises(ValueError, match="<= 60: got 61"):
        verify("I01", n_max=61)
    with pytest.raises(ValueError, match="<= 60: got 61"):
        verify_all(n_max=61)
    assert verify("I01", n_max=60).points == 61


@pytest.mark.parametrize(
    "mu, exact",
    [(Measure.bosonic(), volkenborn_exact), (Measure.fermionic(), fermionic_exact)],
    ids=["bosonic", "fermionic"],
)
def test_measure_table_behind_the_twin_statements(mu, exact):
    # each twin statement is written once over these values: they must be
    # the measure's integrals of x^n, of (x)_n and, up to sign, of C(x, n)
    for n in range(21):
        assert mu.exact(Polynomial.monomial(n)) == exact(Polynomial.monomial(n)) == mu.moment(n)
        assert mu.exact(falling_poly(n)) == mu.falling(n), n
        assert mu.exact(binom_poly(n)) == (-1) ** n * Fraction(1, mu.den(n)), n


# bosonic record, fermionic record: the same statement under the two measures
TWINS = [
    ("I05a", "I27b"), ("I05b", "I27c"), ("I05c", "I27a"), ("I05d", "I27e"), ("I09", "I26d"),
    ("I14a", "I26e"), ("I14b", "I26f"), ("I15", "I26k"), ("I17", "I26i"), ("I18", "I26j"),
    ("I19", "I26m"), ("I20a", "I26g"), ("I20b", "I26h"), ("I21", "I26n"), ("I24a", "I27d"),
    ("I24b", "I27c"), ("I28a", "I28b"), ("I29a", "I29b"), ("I32a", "I32c"), ("I33b", "I33c"),
]


@pytest.mark.parametrize("bosonic, fermionic", TWINS)
def test_twin_records_use_their_own_measure(bosonic, fermionic):
    b, f = resolve_ids([bosonic, fermionic])
    assert len(b.grid(None)[0]) == len(f.grid(None)[0])
    points = sorted(set(b.grid(4)) & set(f.grid(4)))
    # a twin built on the other measure would agree with its sibling everywhere
    assert any(b.lhs(*p) != f.lhs(*p) for p in points)
    assert any(b.rhs(*p) != f.rhs(*p) for p in points)


def test_verify_unknown_id():
    with pytest.raises(KeyError):
        verify("BOGUS")
    with pytest.raises(KeyError):
        resolve_ids(["I2"])  # bare prefixes must name a whole group


MISSING = {
    "literal": {"literal_lhs": None, "literal_rhs": None},
    "counterexample": {"counterexample": None},
}


@pytest.mark.parametrize("missing", MISSING)
def test_corrected_record_without_its_evidence_is_rejected(missing):
    # the status is read off the counterexample, so neither half of the
    # evidence can go without the other being noticed
    corrected = next(r for r in catalog() if r.status == identities.CORRECTED)
    broken = dataclasses.replace(corrected, **MISSING[missing])
    with pytest.raises(ValueError, match=f"corrected record {corrected.id} "):
        verify(broken)
    plain = dataclasses.replace(corrected, literal_lhs=None, literal_rhs=None, counterexample=None)
    assert plain.status == identities.VERIFIED
    assert verify(plain).literal_confirmed is None
    with pytest.raises(TypeError):
        dataclasses.replace(corrected, status="corected")


def test_group_prefix_resolution():
    group = resolve_ids(["I26"])
    assert {r.id for r in group} == {
        "I26a", "I26b", "I26c", "I26d", "I26e", "I26f", "I26g",
        "I26h", "I26i", "I26j", "I26k", "I26l", "I26m", "I26n",
    }


def test_overlapping_requests_resolve_each_record_once_in_first_request_order():
    records = resolve_ids(["I26b", "I26", "I01", "I26b"])
    assert [r.id for r in records] == ["I26b", "I26a", *(f"I26{c}" for c in "cdefghijklmn"), "I01"]


def test_full_suite_passes():
    report = verify_all()
    assert report.ok
    assert report.unadjudicated_failures == 0
    assert all(r.points > 0 for r in report.results)


def test_verify_all_with_cap_shrinks_grids():
    report = verify_all(n_max=6)
    assert report.ok
    small = {r.id: r.points for r in report.results}
    assert small["I01"] == 7


# the five grid factories the catalog used before its one ``_grid``, kept as the reference
def old_grid_n(lo, hi):
    def g(cap):
        top = hi if cap is None else max(lo, cap)
        return tuple((n,) for n in range(lo, top + 1))

    return g


def old_grid_nm(lo, hi):
    def g(cap):
        top = hi if cap is None else max(lo, cap)
        return tuple((n, m) for n in range(lo, top + 1) for m in range(lo, top + 1))

    return g


def old_grid_tensor(hi=8):
    def g(cap):
        top = hi if cap is None else max(1, min(cap, hi))
        return tuple((k,) for k in range(1, top + 1))

    return g


def old_grid_pairs(m_hi=5, n_hi=15):
    def g(cap):
        top = n_hi if cap is None else max(0, cap)
        return tuple((m, n) for m in range(1, m_hi + 1) for n in range(0, top + 1))

    return g


def old_grid_order(n_hi=15, k_hi=6):
    def g(cap):
        top = n_hi if cap is None else max(0, cap)
        return tuple((n, k) for n in range(0, top + 1) for k in range(1, k_hi + 1))

    return g


OLD_GRIDS = [
    (old_grid_n(0, 20), "I01 I33a I33b I33c I34a I34b"),
    (
        old_grid_n(1, 15),
        "I02 I03 I04a I04b I05b I06a I06b I07 I11a I11b I13a I15 I24b I24c I26a I26b I26c "
        "I26k I27a I27b I27c I28a I28b I29a I29b",
    ),
    (
        old_grid_n(0, 15),
        "I05a I05c I05d I08a I08b I09 I10 I12a I12b I12c I13b I16 I20a I20b I21 I24a I25 "
        "I26d I26g I26h I26l I26n I27d I27e I31 I32a I32b I32c I32d I35",
    ),
    (old_grid_n(2, 15), "I19 I26m"),
    (old_grid_tensor(8), "I14a I14b I26e I26f"),
    (old_grid_pairs(5, 15), "I17 I26i"),
    (old_grid_pairs(3, 15), "I18 I26j"),
    (old_grid_nm(0, 15), "I22 I23a I23b I23c I23d I23e I23f"),
    (old_grid_order(15, 6), "I30"),
]


@pytest.mark.parametrize("cap", [None, 0, 1, 4, 8, 15, 30])
def test_record_grids_match_the_old_factories(cap):
    old = {rid: grid for grid, ids in OLD_GRIDS for rid in ids.split()}
    assert sorted(old) == sorted(r.id for r in catalog())
    for r in catalog():
        assert r.grid(cap) == old[r.id](cap), r.id


def test_mutation_is_detected():
    # breaking exactly one side of one record must fail exactly that record
    (orig,) = resolve_ids(["I01"])
    broken = dataclasses.replace(orig, rhs=lambda n: orig.rhs(n) + 1)
    result = verify(broken)
    assert result.mismatch_count == result.points
    assert result.first_mismatch is not None
    assert result.first_mismatch.params == (0,)
    assert not result.ok
    # and the untouched catalog still passes
    assert verify("I01").ok


def test_verdicts_survive_cache_clearing():
    before = [verify(i) for i in ("I05a", "I14b", "I23d", "I34a")]
    seq.clear_caches()
    after = [verify(i) for i in ("I05a", "I14b", "I23d", "I34a")]
    assert before == after


def falling_pair_integrals(top):
    """The bosonic integral of (x)_m (x)_n for 0 <= m, n <= top, one product each."""
    return {
        (m, n): volkenborn_exact(falling_poly(m) * falling_poly(n))
        for m in range(top + 1) for n in range(top + 1)
    }


def test_falling_pair_table_matches_the_product_integral_in_both_orders():
    expected = falling_pair_integrals(40)
    # the table grown one row at a time, then all at the first read
    for order in (sorted(expected, key=max), sorted(expected, key=max, reverse=True)):
        seq.clear_caches()
        for m, n in order:
            assert identities._falling_pair(m, n) == expected[m, n], (m, n)


def test_concurrent_falling_pair_reads_are_consistent():
    expected = falling_pair_integrals(20)
    pairs = list(expected)

    def worker(seed):
        return {p: identities._falling_pair(*p) for p in random.Random(seed).sample(pairs, len(pairs))}

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        seq.clear_caches()
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(worker, seed) for seed in range(16)]
            assert all(f.result(timeout=60) == expected for f in futures)
    finally:
        sys.setswitchinterval(old)
    # each row was built once: no thread appended a row another had added
    assert len(identities._FALLING_PAIRS._values) == 21


@pytest.fixture
def asymmetric_pairs():
    """A pair table over f(m, n) = m - 2n, which differs from f(n, m) off the diagonal,
    with a count of f's calls; the table is unregistered afterwards."""
    calls = Counter()

    def f(m, n):
        calls[m, n] += 1  # the table calls f under the sequences lock
        return Fraction(m - 2 * n)

    lookup = identities._pairs(f)
    table = seq._TABLES[-1]
    try:
        yield lookup, table, calls
    finally:
        seq._TABLES.remove(table)


EVERY_PAIR_ONCE = Counter(product(range(31), repeat=2))


def test_pair_table_reads_f_at_m_n_not_at_n_m(asymmetric_pairs):
    lookup, table, calls = asymmetric_pairs
    for order in (sorted(EVERY_PAIR_ONCE, key=max), sorted(EVERY_PAIR_ONCE, key=min, reverse=True)):
        seq.clear_caches()
        assert not table._values
        calls.clear()
        for m, n in order:
            assert lookup(m, n) == m - 2 * n, (m, n)
        assert len(table._values) == 31 and calls == EVERY_PAIR_ONCE


def test_concurrent_pair_table_reads_build_each_row_once(asymmetric_pairs):
    lookup, table, calls = asymmetric_pairs
    pairs = list(EVERY_PAIR_ONCE)
    expected = {(m, n): m - 2 * n for m, n in pairs}

    def worker(seed):
        return {p: lookup(*p) for p in random.Random(seed).sample(pairs, len(pairs))}

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        seq.clear_caches()
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(worker, seed) for seed in range(16)]
            assert all(fut.result(timeout=60) == expected for fut in futures)
    finally:
        sys.setswitchinterval(old)
    assert len(table._values) == 31 and calls == EVERY_PAIR_ONCE
    seq.clear_caches()
    assert not table._values


PAIR_IDS = ["I23a", "I23b", "I23c", "I23d", "I23e", "I23f"]


@pytest.mark.parametrize("n_max", [5, 30])
def test_falling_pair_records_do_not_depend_on_table_state_or_order(n_max):
    seq.clear_caches()
    in_order = {r.id: r for r in verify_all(n_max=n_max, ids=PAIR_IDS).results}
    assert list(in_order) == PAIR_IDS and all(r.ok for r in in_order.values())
    shuffled = random.Random(n_max).sample(PAIR_IDS, len(PAIR_IDS))
    for rid in shuffled:  # each record from cold tables
        seq.clear_caches()
        assert verify(rid, n_max=n_max) == in_order[rid]
    seq.clear_caches()
    verify("I23a", n_max=35 - n_max)  # tables grown past the cap, or short of it
    assert [verify(rid, n_max=n_max) for rid in shuffled] == [in_order[rid] for rid in shuffled]


def test_pair_and_weight_records_pass_at_the_largest_cap():
    seq.clear_caches()
    start = time.perf_counter()
    report = verify_all(n_max=60, ids=["I23", "I28", "I29"])
    elapsed = time.perf_counter() - start
    assert [r.id for r in report.results] == [*PAIR_IDS, "I28a", "I28b", "I29a", "I29b"]
    assert report.ok and [r.points for r in report.results] == [61 * 61] * 6 + [60] * 4
    assert elapsed < 1.5, f"{elapsed:.2f} s"


def test_report_serialization_shapes():
    report = verify_all(ids=["I01", "I16"], n_max=5)
    obj = report.to_json_obj()
    assert obj["totals"]["records"] == 2
    assert obj["records"][0]["id"] == "I01"
    assert obj["records"][1]["status"] == "corrected"
    assert obj["records"][1]["literal_confirmed"] is True
    text = report.to_text_table()
    assert "I01" in text and "I16" in text


# ---------------------------------------------------------------------------
# brute-force adjudications of the corrected statements


def test_adjudication_square_weighted_binomial_expansion():
    # sum_k (-1)^k C(x,k) k^2  ==  (-1)^n [x C(x-2,n-1) + x(x-1) C(x-3,n-2)]
    for n in range(2, 11):
        alternating = Polynomial.zero()
        for k in range(n + 1):
            alternating = alternating + binom_poly(k) * ((-1) ** k * k * k)
        amended = identities._gould_square_poly(n) * (-1) ** n
        assert alternating == amended, n
        # with a constant in place of that binomial the polynomials differ from n = 3 on
        if n >= 3:
            literal = Polynomial.x() * identities._binom(n - 1, -2) * (-1) ** n
            assert alternating != literal, n


def test_adjudication_reflected_binomial_is_plain_alternating_sum():
    # sum_{k=0}^n (-1)^k C(x,k) == C(n-x, n): no (-1)^n prefactor survives
    for n in range(11):
        total = Polynomial.zero()
        for k in range(n + 1):
            total = total + binom_poly(k) * (-1) ** k
        assert total == identities._binom(n, n, -1), n


def test_adjudication_falling_factorial_split():
    # x_(n+1ishes)  ==  sum_k (-1)^(n-k) n_(n-k) x x_(k), the expansion behind
    # the telescoped-recurrence identity
    for n in range(13):
        expected = falling_poly(n + 1)
        total = Polynomial.zero()
        for k in range(n + 1):
            c = perm(n, n - k) * (-1) ** (n - k)
            total = total + Polynomial.x() * falling_poly(k) * c
        assert total == expected, n


def test_adjudication_worpitzky_basis_expansion():
    # x^n == sum_j A(n,j) C(x+j-1, n) with the Eulerian coefficients as
    # alternating sums; this is the valid core behind the corrected records
    for n in range(1, 11):
        total = Polynomial.zero()
        for j in range(n + 1):
            c = identities._worpitzky_coeff(n, j)
            assert c == seq.eulerian(n, j)
            if c:
                total = total + identities._binom(n, j - 1) * c
        assert total == Polynomial.monomial(n), n


def test_adjudication_lah_fubini_functional_equation():
    # substituting e^t - 1 into the unsigned-Lah generating function splits it
    # into the second-kind Stirling series times the order-k Fubini series
    from volkenborn.series import PowerSeries

    T = 12
    for k in range(1, 5):
        lah_gf = (PowerSeries.geometric(T) ** k) * Fraction(1, factorial(k))
        composed = lah_gf.compose(PowerSeries.exp(T) - PowerSeries.one(T))
        stirling_gf = (PowerSeries.exp(T) - PowerSeries.one(T)) ** k * Fraction(
            1, factorial(k)
        )
        fubini_gf = (PowerSeries.one(T) * 2 - PowerSeries.exp(T)).inverse() ** k
        product = stirling_gf * fubini_gf
        assert composed.coeffs == product.coeffs, k


def test_adjudication_harmonic_measure():
    # the harmonic statement holds under the bosonic measure; under the
    # fermionic measure the same polynomial integrates to a geometric sum
    from volkenborn.integrals import fermionic_exact, volkenborn_exact

    for n in range(11):
        poly = identities._binom(n, n, -1)
        assert volkenborn_exact(poly) == seq.harmonic(n)
        assert fermionic_exact(poly) == sum(Fraction(1, 2**k) for k in range(n + 1))
