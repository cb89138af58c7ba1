"""Truncated power series in one variable over the rationals.

Coefficients are :class:`fractions.Fraction`.  No engine module uses these
values: ``rho`` of the cycle side is an integer recursion on the coefficients
of log S(z), and the local models read Laurent coefficients from integer
Taylor rows.  The series S(z) (:func:`s_series`), whose products once defined
``rho``, stays public and is the tests' reference for it.  Everything here is
immutable and pure, so values can be shared freely between tasks.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from math import factorial

from .errors import ConstraintError, Record, TruncationError, _count, _fractions, _operand

__all__ = [
    "PowerSeries",
    "s_series",
    "series_scale_arg",
]


class PowerSeries(Record):
    """Truncated power series in one variable z over the rationals.

    The truncation order is explicit state: coefficients of z^n are known
    exactly for n <= truncation_order and reading beyond that is an error,
    never a silent zero.  Arithmetic results carry the minimum truncation
    order of the operands.  Only what truncation changes lives here; exact
    polynomials in z are ``local_models.Polynomial``.  The constructor takes
    int or Fraction coefficients and pads them with zeros, or cuts them, to
    ``truncation_order + 1`` Fractions.
    """

    __slots__ = _fields = ("coeffs", "truncation_order")

    def __init__(self, coeffs: Iterable[Fraction | int], truncation_order: int):
        _count(truncation_order, "a truncation order")
        dense = _fractions(coeffs, "series coefficients")[: truncation_order + 1]
        dense += [Fraction(0)] * (truncation_order + 1 - len(dense))
        object.__setattr__(self, "coeffs", tuple(dense))
        object.__setattr__(self, "truncation_order", truncation_order)

    @staticmethod
    def one(order: int) -> "PowerSeries":
        return PowerSeries((1,), order)

    def coefficient(self, n: int) -> Fraction:
        if _count(n, "an exponent") > self.truncation_order:
            raise TruncationError(
                f"coefficient of z^{n} requested but series is truncated at z^{self.truncation_order}"
            )
        return self.coeffs[n]

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        order = min(self.truncation_order, _operand(other, PowerSeries, "+").truncation_order)
        return PowerSeries._make(
            tuple(self.coeffs[n] + other.coeffs[n] for n in range(order + 1)), order
        )

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        order = min(self.truncation_order, _operand(other, PowerSeries, "*").truncation_order)
        out = [Fraction(0)] * (order + 1)
        for i, a in enumerate(self.coeffs[: order + 1]):
            if a == 0:
                continue
            for j in range(order + 1 - i):
                b = other.coeffs[j]
                if b != 0:
                    out[i + j] += a * b
        return PowerSeries._make(tuple(out), order)

    def pow(self, exponent: int) -> "PowerSeries":
        """self**exponent by binary exponentiation."""
        _count(exponent, "an exponent")
        result, base = PowerSeries.one(self.truncation_order), self
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result

    def inverse(self) -> "PowerSeries":
        """Multiplicative inverse; requires a nonzero constant term."""
        if self.coeffs[0] == 0:
            raise ConstraintError("series with zero constant term has no inverse")
        order = self.truncation_order
        inv = [Fraction(0)] * (order + 1)
        inv[0] = 1 / self.coeffs[0]
        for n in range(1, order + 1):
            acc = Fraction(0)
            for k in range(1, n + 1):
                acc += self.coeffs[k] * inv[n - k]
            inv[n] = -acc / self.coeffs[0]
        return PowerSeries._make(tuple(inv), order)


def s_series(order: int) -> PowerSeries:
    """The series sinh(z/2)/(z/2) = sum_{n>=0} (z/2)^{2n}/(2n+1)!, truncated at z^order."""
    coeffs = [Fraction(0)] * (_count(order, "order", 1) + 1)
    for n in range(0, order // 2 + 1):
        coeffs[2 * n] = Fraction(1, 4**n * factorial(2 * n + 1))
    return PowerSeries._make(tuple(coeffs), order)


def series_scale_arg(s: PowerSeries, k: int) -> PowerSeries:
    """Substitute z -> k z: the z^n coefficient is scaled by k^n."""
    _operand(s, PowerSeries, "series_scale_arg")
    _count(k, "k", 1)
    return PowerSeries._make(
        tuple(c * k**n for n, c in enumerate(s.coeffs)), s.truncation_order
    )
