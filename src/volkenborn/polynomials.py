"""Dense univariate polynomials over exact rationals.

A polynomial is stored as a tuple of ``Fraction`` coefficients, index i
holding the coefficient of x**i, with no trailing zeros (the zero
polynomial is the empty tuple).  Every operation is exact; nothing here
ever touches floating point.

Every product of linear factors, scale * (a + b x)(a + b x - 1)...
(a + b x - n + 1) with rational a and integer b, comes from one builder,
``_factorial_poly``: the rising factorial and the shifted, reflected and
scaled binomials of the identity catalog.  It multiplies the factors in
plain ints and turns them into Fractions once, with a single rational
scale.  The plain falling factorial and C(x, n) are not built here:
``sequences`` reads them off its stored Stirling-1 rows.
Every integral in t of a shifted polynomial, f(x + t) against a measure
given by its moments, comes from one kernel, ``_shifted_integral``: the
shift f(x + a) (a point mass at a), the Bernoulli, Euler and array
polynomials (f = x^n) and the Daehee, Changhee and second-kind Bernoulli
polynomials (f a falling or rising factorial).
Every exact sum of the integrals, of that kernel and of every catalog side
(but I33a's check) goes through ``_reduce``, which adds int numerators in one
bucket per denominator and reduces once; ``_dot`` feeds it products of rationals.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb, lcm
from typing import Callable, Iterable, Sequence, Union

__all__ = ["Polynomial", "binom_int"]

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
    if isinstance(x, int):  # first: most inputs are ints, and Fraction is an ABC check
        return Fraction(x)
    if isinstance(x, Fraction):
        return x
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
                # integer operands: convolve the numerators as plain ints; one
                # common-denominator path for all operands read +7.4 % catalog peak RSS
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
        if av.denominator == 1:
            av = av.numerator  # int moments: Fraction powers took 28 % of shift(1) on (x)_12
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


def _reduce(terms: Iterable[tuple[int, int]], scale: int = 1) -> Fraction:
    """The exact sum of num/den over int terms (num, den), den > 0, divided by scale > 0:
    numerators added in one bucket per denominator and reduced once (one needs no lcm)."""
    buckets: dict[int, int] = {}
    for num, den in terms:
        buckets[den] = buckets.get(den, 0) + num
    if len(buckets) > 1:
        den = lcm(*buckets)
        return Fraction(sum(num * (den // d) for d, num in buckets.items()), den * scale)
    for den, num in buckets.items():
        return Fraction(num, den * scale)
    return Fraction(0)


def _dot(pairs: Iterable[tuple[Scalar, Scalar]]) -> Fraction:
    """The exact sum of w * v over pairs of ints or Fractions, through ``_reduce``."""

    def terms():
        for w, v in pairs:
            if not (isinstance(w, (int, Fraction)) and isinstance(v, (int, Fraction))):
                raise TypeError(f"expected exact rationals, got {type(w).__name__}, {type(v).__name__}")
            yield w.numerator * v.numerator, w.denominator * v.denominator

    return _reduce(terms())


def _shifted_integral(f: Polynomial, moment: Callable[[int], Scalar]) -> Polynomial:
    """The integral in t of f(x + t) against the measure whose i-th moment is moment(i).

    By the binomial theorem its x^k coefficient is sum_(j>=k) C(j, k) f_j m_(j-k),
    summed through ``_reduce``."""
    ms = [(m.numerator, m.denominator) for m in map(moment, range(len(f)))]
    terms: list[list[tuple[int, int]]] = [[] for _ in ms]
    for j, c in enumerate(f.coeffs):
        num, den = c.numerator, c.denominator
        if num:
            for k, (m_num, m_den) in enumerate(reversed(ms[: j + 1])):
                if m_num:
                    terms[k].append((comb(j, k) * num * m_num, den * m_den))
    return Polynomial([_reduce(t) for t in terms])


def _factorial_poly(n: int, a: Scalar = 0, b: int = 1, scale: Scalar = 1) -> Polynomial:
    """scale * (a + b x)(a + b x - 1)...(a + b x - n + 1) for rational a and integer b.

    With a = p/q each factor is ((p - q j) + q b x)/q, so the product is
    taken in ints and scaled once by scale/q^n.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    p, q = a.numerator, a.denominator
    out = [1]
    for j in range(n):
        c, d = p - q * j, q * b
        out = [c * out[0]] + [c * u + d * v for u, v in zip(out[1:], out)] + [d * out[-1]]
    num, den = scale.numerator, scale.denominator * q**n
    if num == den:
        return Polynomial(out)
    return Polynomial([Fraction(c * num, den) for c in out])
