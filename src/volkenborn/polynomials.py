"""Dense univariate polynomials over exact rationals.

A polynomial is stored as a tuple of ``Fraction`` coefficients, index i
holding the coefficient of x**i, with no trailing zeros (the zero
polynomial is the empty tuple).  Every operation is exact; nothing here
ever touches floating point.

Every falling-factorial-type polynomial, scale * (a + b x)(a + b x - 1)
...(a + b x - n + 1) with rational a and integer b, comes from one
builder, ``_factorial_poly``: the falling and rising factorials, C(x, n)
and the shifted, reflected and scaled binomials of the identity catalog.
It multiplies the linear factors in plain ints (``linear_product``) and
turns them into Fractions once, with a single rational scale
(``int_poly``); no other module touches that integer format.
Every integral in t of a shifted polynomial, f(x + t) against a measure
given by its moments, comes from one kernel, ``_shifted_integral``: the
shift f(x + a) (a point mass at a), the Bernoulli, Euler and array
polynomials (f = x^n) and the Daehee, Changhee and second-kind Bernoulli
polynomials (f a falling or rising factorial).
``_dot`` sums products of rationals exactly without building a Fraction
per term, for the hot sums of the integrals and the identity catalog;
both kernels reduce their integer sums through ``_reduce``.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm
from typing import Callable, Iterable, Sequence, Union

__all__ = [
    "Polynomial",
    "binom_int",
    "binom_poly",
    "falling_poly",
    "int_poly",
    "linear_product",
    "rising_poly",
]

Scalar = Union[Fraction, int]


def binom_int(n: int, k: int) -> Fraction:
    """Binomial coefficient C(n, k) for n >= 0, as an exact rational.

    Returns 0 when k < 0 or k > n; negative n is rejected.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if k < 0 or k > n:
        return Fraction(0)
    return Fraction(comb(n, k))


def _as_fraction(x: Scalar) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


class Polynomial:
    """Immutable dense polynomial with Fraction coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()) -> None:
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def one(cls) -> "Polynomial":
        return cls((Fraction(1),))

    @classmethod
    def x(cls) -> "Polynomial":
        return cls((Fraction(0), Fraction(1)))

    @classmethod
    def monomial(cls, power: int, coeff: Scalar = 1) -> "Polynomial":
        if power < 0:
            raise ValueError("power must be >= 0")
        return cls([Fraction(0)] * power + [_as_fraction(coeff)])

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    def coeff(self, i: int) -> Fraction:
        if 0 <= i < len(self._coeffs):
            return self._coeffs[i]
        return Fraction(0)

    def is_zero(self) -> bool:
        return not self._coeffs

    def __iter__(self):
        return iter(self._coeffs)

    def __len__(self) -> int:
        return len(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        if not self._coeffs:
            return "Polynomial([0])"
        return f"Polynomial([{', '.join(str(c) for c in self._coeffs)}])"

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self._coeffs])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: Union["Polynomial", Scalar]) -> "Polynomial":
        if isinstance(other, Polynomial):
            if not self._coeffs or not other._coeffs:
                return Polynomial()
            if all(c.denominator == 1 for c in self._coeffs) and all(
                c.denominator == 1 for c in other._coeffs
            ):
                # integer operands: convolve the numerators as plain ints
                bs = [c.numerator for c in other._coeffs]
                out = [0] * (len(self._coeffs) + len(bs) - 1)
                for i, c in enumerate(self._coeffs):
                    a = c.numerator
                    if a:
                        for j, b in enumerate(bs, i):
                            out[j] += a * b
                return Polynomial(out)
            out = [Fraction(0)] * (len(self._coeffs) + len(other._coeffs) - 1)
            for i, a in enumerate(self._coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other._coeffs):
                    out[i + j] += a * b
            return Polynomial(out)
        if isinstance(other, (Fraction, int)):
            s = _as_fraction(other)
            return Polynomial([c * s for c in self._coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("exponent must be >= 0")
        result = Polynomial.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __call__(self, x: Scalar) -> Fraction:
        """Exact evaluation by Horner's rule."""
        xv = _as_fraction(x)
        acc = Fraction(0)
        for c in reversed(self._coeffs):
            acc = acc * xv + c
        return acc

    def shift(self, a: Scalar) -> "Polynomial":
        """Return f(x + a): the integral of f(x + t) against a point mass at a."""
        av = _as_fraction(a)
        if av == 0 or not self._coeffs:
            return self
        return _shifted_integral(self, lambda i: av**i)

    def derivative(self) -> "Polynomial":
        return Polynomial([i * c for i, c in enumerate(self._coeffs)][1:])

    def antiderivative(self) -> "Polynomial":
        """Term-wise antiderivative with zero constant term (exact power rule)."""
        return Polynomial([Fraction(0)] + [c / (i + 1) for i, c in enumerate(self._coeffs)])

    def to_coeff_strings(self) -> list[str]:
        """Coefficients as canonical rational strings, index = power."""
        return [str(c) for c in self._coeffs]

    @classmethod
    def from_coeff_strings(cls, items: Sequence[str]) -> "Polynomial":
        return cls(Fraction(s) for s in items)


def linear_product(factors: Iterable[tuple[int, int]]) -> list[int]:
    """Integer coefficients, index = power, of the product of (a + b x) over (a, b) in factors.

    The empty product is [1].  Only ints are made; callers apply any
    rational scale once, through ``int_poly``.
    """
    out = [1]
    for a, b in factors:
        out = [a * out[0]] + [a * c + b * d for c, d in zip(out[1:], out)] + [b * out[-1]]
    return out


def int_poly(ints: Iterable[int], scale: Scalar = 1) -> Polynomial:
    """The polynomial with coefficients c * scale for c in ints (index = power)."""
    if scale == 1:
        return Polynomial(ints)
    s = _as_fraction(scale)
    num, den = s.numerator, s.denominator
    return Polynomial([Fraction(c * num, den) for c in ints])


def _reduce(buckets: dict[int, int]) -> Fraction:
    """The sum of num/den over the items den -> num, reduced once (0 for no items).

    One denominator needs no lcm.
    """
    if len(buckets) > 1:
        den = lcm(*buckets)
        return Fraction(sum(num * (den // d) for d, num in buckets.items()), den)
    for den, num in buckets.items():
        return Fraction(num, den)
    return Fraction(0)


def _dot(pairs: Iterable[tuple[Scalar, Scalar]]) -> Fraction:
    """The exact sum of w * v over pairs of ints or Fractions.

    Numerator products are added into one bucket per product denominator and
    reduced once, so no term builds a Fraction.
    """
    buckets: dict[int, int] = {}
    for w, v in pairs:
        if not (isinstance(w, (int, Fraction)) and isinstance(v, (int, Fraction))):
            raise TypeError(f"expected exact rationals, got {type(w).__name__}, {type(v).__name__}")
        d = w.denominator * v.denominator
        buckets[d] = buckets.get(d, 0) + w.numerator * v.numerator
    return _reduce(buckets)


def _shifted_integral(f: Polynomial, moment: Callable[[int], Scalar]) -> Polynomial:
    """The integral in t of f(x + t) against the measure whose i-th moment is moment(i).

    By the binomial theorem its x^k coefficient is sum_j C(j, k) f_j m_(j-k).
    Each coefficient adds its integer numerator products per denominator, as
    ``_dot`` does, and is reduced once.
    """
    ms = [(m.numerator, m.denominator) for m in map(moment, range(len(f)))]
    buckets: list[dict[int, int]] = [{} for _ in ms]
    for j, c in enumerate(f.coeffs):
        num, den = c.numerator, c.denominator
        if not num:
            continue
        for k, bucket in enumerate(buckets[: j + 1]):
            m_num, m_den = ms[j - k]
            if m_num:
                d = den * m_den
                bucket[d] = bucket.get(d, 0) + comb(j, k) * num * m_num
    return Polynomial([_reduce(b) for b in buckets])


def _factorial_poly(n: int, a: Scalar = 0, b: int = 1, scale: Scalar = 1) -> Polynomial:
    """scale * (a + b x)(a + b x - 1)...(a + b x - n + 1) for rational a and integer b.

    With a = p/q each factor is ((p - q j) + q b x)/q, so the product is
    taken in ints and scaled once by scale/q^n.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    p, q = a.numerator, a.denominator
    if q != 1:
        scale = Fraction(scale, q**n)
    return int_poly(linear_product((p - q * j, q * b) for j in range(n)), scale)


def falling_poly(n: int) -> Polynomial:
    """The degree-n falling factorial x(x-1)...(x-n+1); 1 for n = 0."""
    return _factorial_poly(n)


def rising_poly(n: int) -> Polynomial:
    """The degree-n rising factorial x(x+1)...(x+n-1); 1 for n = 0."""
    return _factorial_poly(n, n - 1)


def binom_poly(n: int) -> Polynomial:
    """The polynomial C(x, n) = x(x-1)...(x-n+1)/n!."""
    # max: a negative n must reach the builder's own check
    return _factorial_poly(n, scale=Fraction(1, factorial(max(n, 0))))
