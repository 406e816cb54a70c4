"""Oracles for the Bernoulli table that share no code with either way of building it.

The table is built from tangent numbers; the congruences and integrality
facts below (von Staudt-Clausen, Kummer, Genocchi) hold for the true B_n
whatever the construction, and the O(n^2) recurrence
sum_{k<=n} C(n+1, k) B_k = 0 that the table replaced is kept here as a
second, independent build.
"""
from fractions import Fraction
from math import comb

import pytest

from volkenborn import sequences as seq

N_MAX = 1000


def primes_upto(n):
    sieve = [True] * (n + 1)
    sieve[0:2] = [False, False]
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = [False] * len(sieve[i * i :: i])
    return [i for i, is_prime in enumerate(sieve) if is_prime]


PRIMES = primes_upto(N_MAX + 1)


def next_bernoulli(vals):
    """B_n from B_0..B_(n-1), n = len(vals): sum_{k=0}^{n} C(n+1, k) B_k = 0 (B_1 = -1/2)."""
    n = len(vals)
    if n == 0:
        return Fraction(1)
    return -sum(comb(n + 1, k) * vals[k] for k in range(n)) / (n + 1)


@pytest.fixture(scope="module")
def table():
    seq.clear_caches()
    return [seq.bernoulli(n) for n in range(N_MAX + 1)]


def test_table_equals_the_recurrence(table):
    vals = []
    for n in range(301):
        vals.append(next_bernoulli(vals))
    assert table[:301] == vals
    assert all(type(b) is Fraction for b in table)


def test_odd_values_vanish_past_one(table):
    assert table[0] == 1 and table[1] == Fraction(-1, 2)
    assert all(table[n] == 0 for n in range(3, N_MAX + 1, 2))
    # B_2k alternates in sign, starting positive
    assert all((table[2 * k] > 0) == (k % 2 == 1) for k in range(1, N_MAX // 2 + 1))


def test_von_staudt_clausen(table):
    # B_2k + sum over primes p with (p - 1) | 2k of 1/p is an integer
    for n in range(2, N_MAX + 1, 2):
        total = table[n] + sum(Fraction(1, p) for p in PRIMES if n % (p - 1) == 0)
        assert total.denominator == 1, n


def test_genocchi_numbers_are_integers(table):
    for n in range(N_MAX + 1):
        assert (2 * (1 - 2**n) * table[n]).denominator == 1, n


def mod(x: Fraction, modulus: int) -> int:
    return x.numerator * pow(x.denominator, -1, modulus) % modulus


@pytest.mark.parametrize("p", [p for p in PRIMES if p <= 61])
def test_kummer_congruences(table, p):
    # for even n, m with (p - 1) not dividing them:
    # B_n/n = B_m/m (mod p) when n = m (mod p - 1), and
    # (1 - p^(n-1)) B_n/n = (1 - p^(m-1)) B_m/m (mod p^2) when n = m (mod p(p - 1))
    for modulus, period in ((p, p - 1), (p * p, p * (p - 1))):
        first: dict[int, int] = {}
        for n in range(2, N_MAX + 1, 2):
            if n % (p - 1) == 0:
                continue
            residue = (1 - p ** (n - 1)) * mod(table[n] / n, modulus) % modulus
            assert first.setdefault(n % period, residue) == residue, (p, n)
