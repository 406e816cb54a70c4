import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volkenborn import padic
from volkenborn.padic import padic_distance, valuation


def test_valuation_examples():
    assert valuation(Fraction(9, 2), 3) == 2
    assert valuation(Fraction(1, 3), 3) == -1
    assert valuation(0, 5) == math.inf
    assert valuation(Fraction(-50), 5) == 2


def test_valuation_rejects_nonprime():
    with pytest.raises(ValueError):
        valuation(Fraction(1), 4)
    with pytest.raises(ValueError):
        valuation(Fraction(1), 1)


def test_is_prime_small():
    primes = [p for p in range(60) if padic.is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_is_prime_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    assert [p for p in range(10**4 + 1) if padic.is_prime(p)] == list(sympy.primerange(10**4 + 1))
    rng = random.Random(64)
    samples = [rng.getrandbits(64) for _ in range(2000)]
    samples += [sympy.prevprime(2**64), 2**61 - 1, 1000000000000000003]
    # strong pseudoprimes to the first 4, 9 and 12 prime bases
    samples += [3215031751, 3825123056546413051, 318665857834031151167461]
    for n in samples:
        assert padic.is_prime(n) == sympy.isprime(n), n


def test_is_prime_rejects_sizes_it_cannot_decide():
    assert not padic.is_prime(2**100)  # a small factor still decides it
    with pytest.raises(ValueError):
        padic.is_prime(2**89 - 1)
    with pytest.raises(ValueError):
        valuation(Fraction(1), 2**89 - 1)


def test_distance_examples():
    assert padic_distance(4, Fraction(-1, 2), 3) == Fraction(1, 9)
    assert padic_distance(Fraction(5, 7), Fraction(5, 7), 11) == 0
    assert padic_distance(1, 0, 7) == 1
    assert padic_distance(Fraction(1, 5), 0, 5) == 5


@pytest.mark.parametrize("x, y, p", [(5, 5, 1), (1, 1, 4), (1, 2, 4), (0, 0, 0), (3, 3, -7)])
def test_distance_rejects_a_non_prime_even_for_equal_points(x, y, p):
    with pytest.raises(ValueError, match="is not prime"):
        padic_distance(x, y, p)


def _random_fractions(rng, count):
    out = []
    while len(out) < count:
        num = rng.randint(-10**6, 10**6)
        den = rng.randint(1, 10**4)
        out.append(Fraction(num, den))
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_ultrametric_inequality(p):
    rng = random.Random(20240 + p)
    xs = _random_fractions(rng, 500)
    ys = _random_fractions(rng, 500)
    for x, y in zip(xs, ys):
        vx, vy, vxy = valuation(x, p), valuation(y, p), valuation(x + y, p)
        assert vxy >= min(vx, vy)
        if vx != vy:
            assert vxy == min(vx, vy)


@settings(max_examples=200, deadline=None)
@given(
    st.fractions(min_value=Fraction(-10**6), max_value=Fraction(10**6), max_denominator=10**4),
    st.fractions(min_value=Fraction(-10**6), max_value=Fraction(10**6), max_denominator=10**4),
    st.sampled_from([2, 3, 5, 7]),
)
def test_valuation_is_multiplicative(x, y, p):
    assert valuation(x * y, p) == valuation(x, p) + valuation(y, p)
