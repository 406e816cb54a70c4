"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""
import math
import time
from fractions import Fraction

from volkenborn import identities, sequences as seq
from volkenborn.integrals import (
    Measure,
    alternating_power_sum,
    convergence_report,
    fermionic_exact,
    power_sum,
    volkenborn_exact,
)
from volkenborn.polynomials import Polynomial
from volkenborn.sequences import binom_poly


def _report(name: str, ok: bool, elapsed: float, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] {name} ({elapsed:.2f}s)"
    if detail:
        line += f" :: {detail}"
    print(line)


def test_criterion_1_number_tables():
    t0 = time.time()
    expected = {
        "daehee": [Fraction(1), Fraction(-1, 2), Fraction(2, 3), Fraction(-3, 2), Fraction(24, 5)],
        "daehee_hat": [Fraction(1), Fraction(-1, 2), Fraction(-1, 3), Fraction(-1, 2), Fraction(-6, 5)],
        "changhee": [Fraction(1), Fraction(-1, 2), Fraction(1, 2), Fraction(-3, 4), Fraction(3, 2)],
        "changhee_hat": [Fraction(1), Fraction(-1, 2), Fraction(-1, 2), Fraction(-3, 4), Fraction(-3, 2)],
    }
    got = {
        "daehee": [seq.daehee(n) for n in range(5)],
        "daehee_hat": [seq.daehee_hat(n) for n in range(5)],
        "changhee": [seq.changhee(n) for n in range(5)],
        "changhee_hat": [seq.changhee_hat(n) for n in range(5)],
    }
    elapsed = time.time() - t0
    ok = got == expected and elapsed < 1.0
    _report("criterion 1: first/second kind number tables, exact", ok, elapsed)
    assert got == expected
    assert elapsed < 1.0


def test_criterion_2_binomial_integral_laws():
    t0 = time.time()
    bad = []
    for n in range(31):
        if volkenborn_exact(binom_poly(n)) != Fraction((-1) ** n, n + 1):
            bad.append(("bosonic", n))
        if fermionic_exact(binom_poly(n)) != Fraction((-1) ** n, 2**n):
            bad.append(("fermionic", n))
    elapsed = time.time() - t0
    ok = not bad and elapsed < 1.0
    _report("criterion 2: closed-form binomial integral laws, n <= 30", ok, elapsed)
    assert not bad, bad
    assert elapsed < 1.0


def test_criterion_3_identity_suite():
    t0 = time.time()
    report = identities.verify_all()
    elapsed = time.time() - t0
    problems = []
    for result in report.results:
        if result.status == identities.VERIFIED:
            if result.mismatch_count:
                problems.append(f"{result.id}: {result.mismatch_count} mismatches")
        elif result.status == identities.CORRECTED:
            if result.mismatch_count:
                problems.append(f"{result.id}: amended form fails")
            if result.literal_confirmed is not True:
                problems.append(f"{result.id}: stored counterexample no longer refutes the literal form")
        else:
            problems.append(f"{result.id}: unexpected status {result.status}")
    ok = not problems and report.unadjudicated_failures == 0 and elapsed < 60.0
    detail = f"{len(report.results)} records"
    _report("criterion 3: identity suite exhaustive on default domains", ok, elapsed, detail)
    assert not problems, problems
    assert report.unadjudicated_failures == 0
    assert elapsed < 60.0


def test_criterion_4_padic_convergence():
    t0 = time.time()
    not_monotone = []
    below_one = []
    for p in (3, 5, 7):
        for n in range(9):
            report = convergence_report(Polynomial.monomial(n), Measure.bosonic(), p, 6)
            vals = [row.err_valuation for row in report.rows]
            if not all(a <= b for a, b in zip(vals, vals[1:])):
                not_monotone.append((p, n, vals))
            for row in report.rows:
                if not row.err_valuation >= 1:
                    below_one.append((p, n, row.N, row.err_valuation))
    # witness row: p=3, f=x, N=2
    witness = convergence_report(Polynomial.x(), Measure.bosonic(), 3, 2).rows[1]
    witness_ok = (
        witness.value == 4
        and witness.value - Fraction(-1, 2) == Fraction(9, 2)
        and witness.err_valuation == 2
    )
    elapsed = time.time() - t0
    ok = not not_monotone and not below_one and witness_ok and elapsed < 10.0
    detail = ""
    if below_one:
        detail = f"valuation < 1 at (p, n, N): {[(p, n, N) for p, n, N, _ in below_one]}"
    _report("criterion 4: bosonic level-sum error valuations", ok, elapsed, detail)
    assert witness_ok
    assert not not_monotone, not_monotone
    assert elapsed < 10.0
    # Known defect in the stated criterion: the valuation bound fails at N = 1
    # for p = 3, n in {5, 7, 8} (e.g. the level value of x^5 at N = 1 is 11 and
    # B_5 = 0, so the error 11 has 3-adic valuation 0).  Asserted as stated.
    assert not below_one, below_one


def test_criterion_5_oracle_equivalence():
    t0 = time.time()
    problems = []

    for n in range(11):
        direct = 0
        alt = 0
        for m in range(10001):
            if power_sum(n, m) != direct:
                problems.append(("power_sum", n, m))
                break
            if alternating_power_sum(n, m) != alt:
                problems.append(("alternating_power_sum", n, m))
                break
            term = m**n if (m or n == 0) else 0
            direct += term
            alt += term if m % 2 == 0 else -term

    import itertools
    from math import comb

    for n in range(13):
        for k in range(n + 1):
            explicit = sum((-1) ** j * comb(n + 1, j) * (k - j) ** n for j in range(k + 1))
            if seq.eulerian(n, k) != explicit:
                problems.append(("eulerian-explicit", n, k))

    def runs(perm):
        if not perm:
            return 0
        return 1 + sum(1 for a, b in zip(perm, perm[1:]) if a > b)

    for n in range(8):
        counts = {}
        for perm in itertools.permutations(range(n)):
            counts[runs(perm)] = counts.get(runs(perm), 0) + 1
        for k in range(n + 1):
            if seq.eulerian(n, k) != counts.get(k, 0):
                problems.append(("eulerian-descents", n, k))

    cache = {}

    def ordered_partitions(remaining):
        if not remaining:
            return 1
        if remaining in cache:
            return cache[remaining]
        items = sorted(remaining)
        total = 0
        for r in range(1, len(items) + 1):
            for block in itertools.combinations(items, r):
                total += ordered_partitions(remaining - frozenset(block))
        cache[remaining] = total
        return total

    for n in range(9):
        if seq.fubini(n) != ordered_partitions(frozenset(range(n))):
            problems.append(("fubini", n))

    elapsed = time.time() - t0
    ok = not problems and elapsed < 30.0
    _report("criterion 5: closed forms against direct-enumeration oracles", ok, elapsed)
    assert not problems, problems
    assert elapsed < 30.0


def test_criterion_6_cross_family_consistency():
    t0 = time.time()
    problems = []
    for n in range(21):
        if sum(seq.stirling1(n, k) * seq.bernoulli(k) for k in range(n + 1)) != seq.daehee(n):
            problems.append(("daehee", n))
        if sum(seq.stirling1(n, k) * seq.euler(k) for k in range(n + 1)) != seq.changhee(n):
            problems.append(("changhee", n))
        if sum(seq.stirling1(n, k) * Fraction(1, k + 1) for k in range(n + 1)) != seq.cauchy(n):
            problems.append(("cauchy", n))
        weighted = sum(
            (-1) ** k * Fraction(math.factorial(k), k + 1) * seq.stirling2(n, k)
            for k in range(n + 1)
        )
        if weighted != seq.bernoulli(n):
            problems.append(("bernoulli-from-stirling2", n))
    elapsed = time.time() - t0
    ok = not problems and elapsed < 5.0
    _report("criterion 6: cross-family consistency sums, n <= 20", ok, elapsed)
    assert not problems, problems
    assert elapsed < 5.0
