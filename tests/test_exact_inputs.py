"""Rational inputs are ints or Fractions: a float is refused, not computed with.

A prime is an int: a float, a ``Fraction`` or a string is refused with
``ValueError`` before any work.  So are a power sum's exponent and bound,
with ``TypeError``: a float bound such as 1e17 has lost digits already.
"""
from fractions import Fraction

import pytest

from volkenborn import padic, sequences as seq
from volkenborn.integrals import (
    Measure, alternating_power_sum, convergence_report, level_integral, power_sum
)
from volkenborn.polynomials import Polynomial


def _q_level(q):
    return level_integral(Polynomial([1, 2, 3]), Measure("q", q), 3, 3)


# name -> (entry point of one rational argument, that argument exactly, the value there)
_ENTRY_POINTS = {
    "Measure": (_q_level, 4, Fraction(451471962645042315, 222399981598543)),
    "Measure.q_weighted": (lambda q: Measure.q_weighted(q).q, 4, Fraction(4)),
    "convergence_report": (
        lambda q: convergence_report(Polynomial([1, 2, 3]), Measure("q", q), 3, 1).rows[0].value,
        4,
        Fraction(99, 7),
    ),
    "valuation": (lambda x: padic.valuation(x, 5), Fraction(1, 10), -1),
    "padic_distance/x": (lambda x: padic.padic_distance(x, 3, 5), Fraction(1, 2), Fraction(1, 5)),
    "padic_distance/y": (lambda y: padic.padic_distance(4, y, 3), Fraction(-1, 2), Fraction(1, 9)),
    "apostol_bernoulli": (lambda lam: seq.apostol_bernoulli(2, lam), Fraction(1, 10), Fraction(-20, 81)),
    "apostol_euler": (lambda lam: seq.apostol_euler(2, lam), Fraction(1, 10), Fraction(-180, 1331)),
    "frobenius_euler": (lambda u: seq.frobenius_euler(2, u), Fraction(1, 10), Fraction(110, 81)),
    "stirling2_lambda": (lambda lam: seq.stirling2_lambda(3, 2, lam), 2, Fraction(14)),
    "array_poly": (lambda lam: seq.array_poly(2, 1, lam).coeffs, 2, (2, 4, 1)),
}


@pytest.mark.parametrize("name", sorted(_ENTRY_POINTS))
def test_float_inputs_raise_and_exact_ones_give_exact_values(name):
    fn, x, value = _ENTRY_POINTS[name]
    with pytest.raises(TypeError):
        fn(float(x))
    assert fn(x) == value
    assert fn(Fraction(x)) == value
    assert type(fn(x)) is type(value)


# name -> (entry point of one prime argument, its value at p = 3)
_PRIME_ENTRY_POINTS = {
    "is_prime": (padic.is_prime, True),
    "valuation": (lambda p: padic.valuation(Fraction(9, 2), p), 2),
    "padic_distance": (lambda p: padic.padic_distance(1, 10, p), Fraction(1, 9)),
    "level_integral": (
        lambda p: level_integral(Polynomial([0, 1]), Measure.bosonic(), p, 2), Fraction(4)
    ),
    "convergence_report": (
        lambda p: convergence_report(Polynomial([0, 1]), Measure.fermionic(), p, 1).rows[0].value,
        Fraction(1),
    ),
}


@pytest.mark.parametrize("name", sorted(_PRIME_ENTRY_POINTS))
@pytest.mark.parametrize(
    "prime", [3.0, Fraction(3), 7.0, "3"], ids=["3.0", "Fraction(3)", "7.0", "str"]
)
def test_a_prime_that_is_not_an_int_is_refused(name, prime):
    fn, value = _PRIME_ENTRY_POINTS[name]
    with pytest.raises(ValueError, match="must be an int"):
        fn(prime)
    assert fn(3) == value


@pytest.mark.parametrize("fn, value", [(power_sum, 9), (alternating_power_sum, 7)])
@pytest.mark.parametrize(
    "x", [2.5, 1e17, Fraction(7, 2), Fraction(3)], ids=["2.5", "1e17", "Fraction(7, 2)", "Fraction(3)"]
)
def test_a_power_sum_argument_that_is_not_an_int_is_refused(fn, value, x):
    with pytest.raises(TypeError, match="must be ints"):
        fn(3, x)
    with pytest.raises(TypeError, match="must be ints"):
        fn(x, 3)
    assert fn(3, 3) == value  # 0 + 1 + 8, and 0 - 1 + 8
