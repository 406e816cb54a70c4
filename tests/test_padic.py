import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volkenborn import padic
from volkenborn.padic import PAdicContext, PAdicValue, padic_distance, reduce, valuation


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


def test_reduce_examples():
    v = reduce(Fraction(1, 2), PAdicContext(3, 2))
    assert (v.valuation, v.unit_residue, v.is_zero) == (0, 5, False)
    assert (2 * 5) % 9 == 1  # the defining congruence of the residue

    v = reduce(9, PAdicContext(3, 3))
    assert (v.valuation, v.unit_residue) == (2, 1)

    v = reduce(0, PAdicContext(5, 4))
    assert v.is_zero
    assert v.residue() == 0


def test_reduce_negative_valuation_is_first_class():
    v = reduce(Fraction(7, 9), PAdicContext(3, 2))
    assert v.valuation == -2
    assert v.unit_residue == 7
    with pytest.raises(ValueError):
        v.residue()


def test_distance_examples():
    assert padic_distance(4, Fraction(-1, 2), 3) == Fraction(1, 9)
    assert padic_distance(Fraction(5, 7), Fraction(5, 7), 11) == 0
    assert padic_distance(1, 0, 7) == 1
    assert padic_distance(Fraction(1, 5), 0, 5) == 5


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


def test_reduce_respects_addition_on_nonnegative_valuations():
    ctx = PAdicContext(3, 4)
    rng = random.Random(99)
    pairs = 0
    while pairs < 200:
        x = Fraction(rng.randint(-10**5, 10**5), rng.choice([1, 2, 5, 7, 11, 13]))
        y = Fraction(rng.randint(-10**5, 10**5), rng.choice([1, 2, 4, 7, 8, 11]))
        if valuation(x, 3) < 0 or valuation(y, 3) < 0:
            continue
        pairs += 1
        direct = reduce(x + y, ctx)
        summed = reduce(x, ctx) + reduce(y, ctx)
        assert direct.residue() == summed.residue()
        assert direct.residue() == (reduce(x, ctx).residue() + reduce(y, ctx).residue()) % ctx.modulus


def test_padic_value_multiplication_is_exact():
    ctx = PAdicContext(5, 3)
    rng = random.Random(7)
    for _ in range(200):
        x = Fraction(rng.randint(-10**4, 10**4), rng.randint(1, 100))
        y = Fraction(rng.randint(-10**4, 10**4), rng.randint(1, 100))
        if x == 0 or y == 0:
            continue
        prod = reduce(x, ctx) * reduce(y, ctx)
        expected = reduce(x * y, ctx)
        assert prod.valuation == expected.valuation
        assert prod.unit_residue == expected.unit_residue


def test_addition_that_cancels_beyond_precision_flags_zero():
    ctx = PAdicContext(3, 2)
    a = reduce(1, ctx)
    b = reduce(26, ctx)  # 1 + 26 = 27 = 3^3, invisible mod 3^2
    assert (a + b).is_zero


def test_text_and_json_forms():
    ctx = PAdicContext(3, 2)
    v = reduce(Fraction(1, 2), ctx)
    assert str(v) == "3^0 * 5 (mod 3^2)"
    assert v.to_json_obj() == {"prime": 3, "precision": 2, "valuation": 0, "residue": 5}
    z = reduce(0, ctx)
    assert str(z) == "0 (mod 3^2)"
    assert json.dumps(z.to_json_obj(), sort_keys=True) == (
        '{"precision": 2, "prime": 3, "residue": null, "valuation": null}'
    )


def test_context_validation():
    with pytest.raises(ValueError):
        PAdicContext(6, 2)
    with pytest.raises(ValueError):
        PAdicContext(5, 0)
