"""Exact arithmetic kernel.

Big rationals (backed by :class:`fractions.Fraction`), the one dense
univariate polynomial type and truncated one-variable power series, all over
the rationals.  Everything here is immutable and pure, so values can be
shared freely between tasks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Iterable, Sequence

from .errors import TruncationError

Rational = Fraction

__all__ = [
    "Rational",
    "format_rational",
    "XiPolynomial",
    "PowerSeries",
    "s_series",
    "series_scale_arg",
]


def format_rational(q: Fraction) -> str:
    """Serialize as ``p/q``, or ``p`` when the denominator is 1."""
    return str(q)


_ZERO = Fraction(0)


def _strip(coeffs: Iterable[Fraction | int]) -> tuple[Fraction, ...]:
    out = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


@dataclass(frozen=True)
class XiPolynomial:
    """Dense univariate polynomial with rational coefficients.

    The local models use it for polynomials in z; on the class side it is
    only the read form of one tree's coefficient, a monomial in the formal
    symbol xi (``ClassExpr.coefficient``).  ``coeffs[k]`` is the coefficient of the k-th power;
    trailing zeros are stripped, so the zero polynomial is the empty tuple
    and its degree is None.
    """

    coeffs: tuple[Fraction, ...]

    @staticmethod
    def from_coeffs(coeffs: Iterable[Fraction]) -> "XiPolynomial":
        return XiPolynomial(_strip(coeffs))

    @staticmethod
    def zero() -> "XiPolynomial":
        return XiPolynomial(())

    @staticmethod
    def one() -> "XiPolynomial":
        return XiPolynomial((Fraction(1),))

    @staticmethod
    def constant(c: Fraction | int) -> "XiPolynomial":
        return XiPolynomial.from_coeffs((Fraction(c),))

    @staticmethod
    def xi_power(k: int, coeff: Fraction | int = 1) -> "XiPolynomial":
        if k < 0:
            raise ValueError("xi exponent must be nonnegative")
        return XiPolynomial.from_coeffs([Fraction(0)] * k + [Fraction(coeff)])

    @staticmethod
    def linear_root(root: Fraction | int) -> "XiPolynomial":
        """z - root."""
        return XiPolynomial((Fraction(-root), Fraction(1)))

    @staticmethod
    def from_roots(pairs: Iterable[tuple[Fraction | int, int]]) -> "XiPolynomial":
        """prod (z - root)^mult over the (root, mult) pairs."""
        out = XiPolynomial.one()
        for root, mult in pairs:
            out = out * XiPolynomial.linear_root(root).pow(mult)
        return out

    @property
    def degree(self) -> int | None:
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return _ZERO

    def monomials(self) -> list[tuple[int, Fraction]]:
        """Nonzero (exponent, coefficient) pairs, ascending in the exponent."""
        return [(k, c) for k, c in enumerate(self.coeffs) if c]

    # Sparse operands such as c*xi^q are stored densely, so the arithmetic
    # below skips zero coefficients instead of adding them.

    def __add__(self, other: "XiPolynomial") -> "XiPolynomial":
        out = list(self.coeffs)
        out += [_ZERO] * (len(other.coeffs) - len(out))
        for k, c in enumerate(other.coeffs):
            if c:
                out[k] = out[k] + c if out[k] else c
        return XiPolynomial.from_coeffs(out)

    def __sub__(self, other: "XiPolynomial") -> "XiPolynomial":
        out = list(self.coeffs)
        out += [_ZERO] * (len(other.coeffs) - len(out))
        for k, c in enumerate(other.coeffs):
            if c:
                out[k] = out[k] - c if out[k] else -c
        return XiPolynomial.from_coeffs(out)

    def __neg__(self) -> "XiPolynomial":
        return XiPolynomial(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "XiPolynomial") -> "XiPolynomial":
        if not self.coeffs or not other.coeffs:
            return XiPolynomial.zero()
        out = [_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        right = [(j, b) for j, b in enumerate(other.coeffs) if b]
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in right:
                    k = i + j
                    out[k] = out[k] + a * b if out[k] else a * b
        return XiPolynomial.from_coeffs(out)

    def scale(self, c: Fraction | int) -> "XiPolynomial":
        c = Fraction(c)
        if c == 0:
            return XiPolynomial.zero()
        return XiPolynomial(tuple(a * c if a else a for a in self.coeffs))

    def shift(self, k: int) -> "XiPolynomial":
        """Multiply by xi^k."""
        if not self.coeffs:
            return self
        return XiPolynomial((_ZERO,) * k + self.coeffs)

    def pow(self, exponent: int) -> "XiPolynomial":
        return _power(self, exponent, XiPolynomial.one())

    def divmod(self, other: "XiPolynomial") -> tuple["XiPolynomial", "XiPolynomial"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dlead = other.leading()
        ddeg = other.degree
        quot = [Fraction(0)] * max(len(self.coeffs) - len(other.coeffs) + 1, 0)
        while len(rem) - 1 >= ddeg and any(c != 0 for c in rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < ddeg:
                break
            shift = len(rem) - 1 - ddeg
            factor = rem[-1] / dlead
            quot[shift] = factor
            for i, c in enumerate(other.coeffs):
                rem[shift + i] -= factor * c
            rem.pop()
        return XiPolynomial.from_coeffs(quot), XiPolynomial.from_coeffs(rem)

    def monic(self) -> "XiPolynomial":
        if self.is_zero():
            return self
        return self.scale(1 / self.leading())

    def gcd(self, other: "XiPolynomial") -> "XiPolynomial":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        return a.monic() if not a.is_zero() else a

    def derivative(self) -> "XiPolynomial":
        return XiPolynomial.from_coeffs(
            k * c for k, c in enumerate(self.coeffs) if k >= 1
        )

    def __call__(self, x: Fraction | int) -> Fraction:
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def taylor(self, at: Fraction | int, order: int) -> "PowerSeries":
        """Coefficients of p(at + t) as a series in t, truncated at t^order."""
        a = Fraction(at)
        out = [Fraction(0)] * (order + 1)
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            for j in range(0, min(i, order) + 1):
                out[j] += c * comb(i, j) * a ** (i - j)
        return PowerSeries(tuple(out), order)


def _power(base, exponent: int, one):
    """base**exponent by binary exponentiation, starting from ``one``."""
    if exponent < 0:
        raise ValueError("exponent must be nonnegative")
    result = one
    e = exponent
    while e:
        if e & 1:
            result = result * base
        e >>= 1
        if e:
            base = base * base
    return result


@dataclass(frozen=True)
class PowerSeries:
    """Truncated power series in one variable z over the rationals.

    The truncation order is explicit state: coefficients of z^n are known
    exactly for n <= truncation_order and reading beyond that is an error,
    never a silent zero.  Arithmetic results carry the minimum truncation
    order of the operands.  Only what truncation changes lives here; exact
    polynomials are :class:`XiPolynomial`.
    """

    coeffs: tuple[Fraction, ...]
    truncation_order: int

    @staticmethod
    def from_coeffs(coeffs: Sequence[Fraction | int], order: int) -> "PowerSeries":
        if order < 0:
            raise ValueError("truncation order must be nonnegative")
        dense = [c if type(c) is Fraction else Fraction(c) for c in coeffs[: order + 1]]
        dense += [Fraction(0)] * (order + 1 - len(dense))
        return PowerSeries(tuple(dense), order)

    @staticmethod
    def one(order: int) -> "PowerSeries":
        return PowerSeries.from_coeffs([Fraction(1)], order)

    def coefficient(self, n: int) -> Fraction:
        if n < 0:
            raise ValueError("negative exponent")
        if n > self.truncation_order:
            raise TruncationError(
                f"coefficient of z^{n} requested but series is truncated at z^{self.truncation_order}"
            )
        return self.coeffs[n]

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        order = min(self.truncation_order, other.truncation_order)
        return PowerSeries.from_coeffs(
            [self.coeffs[n] + other.coeffs[n] for n in range(order + 1)], order
        )

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        order = min(self.truncation_order, other.truncation_order)
        out = [Fraction(0)] * (order + 1)
        for i, a in enumerate(self.coeffs[: order + 1]):
            if a == 0:
                continue
            for j in range(order + 1 - i):
                b = other.coeffs[j]
                if b != 0:
                    out[i + j] += a * b
        return PowerSeries(tuple(out), order)

    def pow(self, exponent: int) -> "PowerSeries":
        return _power(self, exponent, PowerSeries.one(self.truncation_order))

    def inverse(self) -> "PowerSeries":
        """Multiplicative inverse; requires a nonzero constant term."""
        if self.coeffs[0] == 0:
            raise ValueError("series with zero constant term has no inverse")
        order = self.truncation_order
        inv = [Fraction(0)] * (order + 1)
        inv[0] = 1 / self.coeffs[0]
        for n in range(1, order + 1):
            acc = Fraction(0)
            for k in range(1, n + 1):
                acc += self.coeffs[k] * inv[n - k]
            inv[n] = -acc / self.coeffs[0]
        return PowerSeries(tuple(inv), order)


def s_series(order: int) -> PowerSeries:
    """The series sinh(z/2)/(z/2) = sum_{n>=0} (z/2)^{2n}/(2n+1)!, truncated at z^order."""
    if order < 1:
        raise ValueError("order must be >= 1")
    coeffs = [Fraction(0)] * (order + 1)
    for n in range(0, order // 2 + 1):
        coeffs[2 * n] = Fraction(1, 4**n * factorial(2 * n + 1))
    return PowerSeries(tuple(coeffs), order)


def series_scale_arg(s: PowerSeries, k: int) -> PowerSeries:
    """Substitute z -> k z: the z^n coefficient is scaled by k^n."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return PowerSeries(
        tuple(c * k**n for n, c in enumerate(s.coeffs)), s.truncation_order
    )
