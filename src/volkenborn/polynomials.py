"""Dense univariate polynomials over exact rationals.

A polynomial is stored as a tuple of coefficients, index i holding the
coefficient of x**i, with no trailing zeros (the zero polynomial is the
empty tuple).  An integral coefficient is stored as an ``int`` and any
other as a ``Fraction`` in lowest terms, so the form is canonical; the
public views (``coeffs``, ``coeff``, iteration, evaluation) give
``Fraction``s, and the package's kernels read the stored tuple.  Every
operation is exact; nothing here ever touches floating point.

Every product of linear factors is built by one int step, ``_times_linear``
(times x + c): the scaled binomials scale * (a + b x)(a + b x - 1)...
(a + b x - n + 1), rational a and integer b (``_factorial_poly``), and the
catalog's falling pairs and Worpitzky weights.  The falling factorial and
C(x, n) are rows of the Stirling-1 table in ``sequences``.
A measure is one view of its moments, moments(n) = (int numerators of
m_0..m_n, one int den), weighted by one kernel, ``_moment_integral``: the
exact integrals, ``Measure.dot`` and ``binom``, the level sums and each
coefficient of ``_shifted_integral``, the integral in t of f(x + t) (the
shift; the array, Daehee, Changhee and second-kind Bernoulli polynomials;
the catalog's C(x + y, n)).  Other exact sums go through ``_reduce``.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import lcm
from operator import mul
from typing import Callable, Iterable, Sequence, Union

__all__ = ["Polynomial"]

Scalar = Union[Fraction, int]
# a view of a measure's moments: n -> (int numerators of m_0..m_n or more, their int den)
Moments = Callable[[int], tuple[Sequence[int], int]]


def _as_fraction(x: Scalar) -> Fraction:
    if isinstance(x, int):  # first: most inputs are ints, and Fraction is an ABC check
        return Fraction(x)
    if isinstance(x, Fraction):
        return x
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def _exact(x: Scalar) -> Scalar:
    """x in stored form: an int, or a Fraction whose denominator is not 1."""
    if type(x) is not int:
        x = _as_fraction(x)
        if x.denominator == 1:
            return x.numerator
    return x


class Polynomial:
    """Immutable dense polynomial with exact rational coefficients, each stored as an int
    when integral and as a Fraction otherwise; the public views give Fractions."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()) -> None:
        cs = [c if type(c) is int else _exact(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def one(cls) -> "Polynomial":
        return cls((1,))

    @classmethod
    def x(cls) -> "Polynomial":
        return cls((0, 1))

    @classmethod
    def monomial(cls, power: int, coeff: Scalar = 1) -> "Polynomial":
        if power < 0:
            raise ValueError("power must be >= 0")
        return cls([0] * power + [coeff])

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(map(_as_fraction, self._coeffs))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    def coeff(self, i: int) -> Fraction:
        if 0 <= i < len(self._coeffs):
            return _as_fraction(self._coeffs[i])
        return Fraction(0)

    def is_zero(self) -> bool:
        return not self._coeffs

    def __iter__(self):
        return map(_as_fraction, self._coeffs)

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
            a, b = self._coeffs, other._coeffs
            if not a or not b:
                return Polynomial()
            # int coefficients convolve as plain ints; a common-denominator
            # form for every operand read +7.4 % catalog peak RSS
            out = [0] * (len(a) + len(b) - 1)
            for i, c in enumerate(a):
                if c:
                    for j, d in enumerate(b, i):
                        out[j] += c * d
            return Polynomial(out)
        if isinstance(other, (Fraction, int)):
            return Polynomial([c * other for c in self._coeffs])
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
        return _shifted_integral(self, _point_ints(av)) if av and self._coeffs else self

    def derivative(self) -> "Polynomial":
        return Polynomial([i * c for i, c in enumerate(self._coeffs)][1:])

    def antiderivative(self) -> "Polynomial":
        """Term-wise antiderivative with zero constant term (exact power rule)."""
        return Polynomial([0] + [Fraction(c, i + 1) for i, c in enumerate(self._coeffs)])

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


def _moment_integral(coeffs: Iterable[Scalar], moments: Moments, shift: int = 0,
                     scale: int = 1) -> Fraction:
    """sum_i c_i m_(i+shift) / scale for moments(n) = (numerators of m_0..m_n, den): one int
    sum for int weights, else ``_reduce`` over int terms; either divided once by den * scale."""
    cs = list(coeffs)
    nums, den = moments(len(cs) + shift - 1)
    if {*map(type, cs)} <= {int}:
        return Fraction(sum(map(mul, cs, nums[shift:])), den * scale)
    return _reduce([(c.numerator * m, c.denominator) for c, m in zip(cs, nums[shift:]) if m],
                   den * scale)


def _point_ints(a: Fraction) -> Moments:
    """The moments a^i of the point mass at a = u/v as a view: u^i v^(n-i) over v^n."""
    u, v = a.numerator, a.denominator
    return lambda n: ([u**i * v ** (n - i) for i in range(n + 1)], v**n)


def _shifted_integral(f: Polynomial, moments: Moments) -> Polynomial:
    """The integral in t of f(x + t) against the measure with the view moments: its x^k
    coefficient sum_(j>=k) C(j, k) f_j m_(j-k), with C(j, k) = j!/(k! (j-k)!), is one int
    ``_moment_integral`` of f's tail (over one den) times j! against m_i/i!, over k!."""
    cs, n = f._coeffs, len(f) - 1
    (nums, den), common = moments(n), lcm(*[c.denominator for c in cs])
    facts = list(accumulate(range(1, n + 1), mul, initial=1))
    ints = [c.numerator * (common // c.denominator) * fact for c, fact in zip(cs, facts)]
    view = [m * (facts[n] // fact) for m, fact in zip(nums, facts)], den * facts[n] * common
    return Polynomial([_moment_integral(ints[k:], lambda _: view, 0, fact)
                       for k, fact in enumerate(facts)])


def _times_linear(coeffs: Sequence[int], c: int) -> list[int]:
    """The int coefficients of (x + c) times those of a polynomial, index = power."""
    return [c * coeffs[0], *[c * u + v for u, v in zip(coeffs[1:], coeffs)], coeffs[-1]]


def _factorial_ints(n: int, a: Scalar = 0, b: int = 1) -> tuple[list[int], int]:
    """q^n (a + b x)(a + b x - 1)...(a + b x - n + 1) for a = p/q and integer b, as int
    coefficients, and q^n: the product of the factors y + p - q j at y = q b x."""
    if n < 0:
        raise ValueError("n must be >= 0")
    p, q = a.numerator, a.denominator
    out, d = [1], q * b
    for c in range(p, p - q * n, -q):
        out = _times_linear(out, c)
    return (out if d == 1 else [c * d**i for i, c in enumerate(out)]), q**n


def _factorial_poly(n: int, a: Scalar = 0, b: int = 1, scale: Scalar = 1) -> Polynomial:
    """scale * (a + b x)(a + b x - 1)...(a + b x - n + 1) for rational a and integer b:
    the int product of ``_factorial_ints`` scaled once by scale/q^n."""
    out, qn = _factorial_ints(n, a, b)
    num, den = scale.numerator, scale.denominator * qn
    if num == den:
        return Polynomial(out)
    return Polynomial([Fraction(c * num, den) for c in out])
