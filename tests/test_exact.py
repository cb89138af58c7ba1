"""Exact kernel: rationals, xi-polynomials, truncated series."""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial

import pytest

from singclass.errors import ParseError, TruncationError
from singclass.exact import (
    PowerSeries,
    XiPolynomial,
    format_rational,
    parse_rational,
    s_series,
    series_scale_arg,
)


def rnd_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-30, 30), rng.randint(1, 12))


class TestRational:
    def test_serialization(self):
        assert format_rational(Fraction(11, 48)) == "11/48"
        assert format_rational(Fraction(-3, 2)) == "-3/2"
        assert format_rational(Fraction(7)) == "7"
        assert parse_rational("11/48") == Fraction(11, 48)
        assert parse_rational("-5") == Fraction(-5)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ParseError):
            parse_rational("1.5")
        with pytest.raises(ParseError):
            parse_rational("1/0")

    def test_field_laws_on_random_triples(self):
        rng = random.Random(20240308)
        for _ in range(200):
            a, b, c = (rnd_fraction(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a + b == b + a
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c

    def test_normalization_is_idempotent(self):
        q = Fraction(6, -8)
        assert q.denominator > 0
        assert Fraction(q.numerator, q.denominator) == q
        assert Fraction(0, 5) == Fraction(0, 1)

    def test_division_by_zero_is_an_error(self):
        with pytest.raises(ZeroDivisionError):
            Fraction(1) / Fraction(0)


class TestXiPolynomial:
    def test_trailing_zeros_stripped(self):
        p = XiPolynomial.from_coeffs([Fraction(1), Fraction(0), Fraction(0)])
        assert p.coeffs == (Fraction(1),)
        assert p.degree == 0
        assert XiPolynomial.zero().degree is None

    def test_arithmetic(self):
        p = XiPolynomial.from_coeffs([1, 2])  # 1 + 2 xi
        q = XiPolynomial.from_coeffs([0, 1])  # xi
        assert (p * q).coeffs == (Fraction(0), Fraction(1), Fraction(2))
        assert (p + q).coeffs == (Fraction(1), Fraction(3))
        assert (p - p).is_zero()
        assert p.shift(2).coeffs == (Fraction(0), Fraction(0), Fraction(1), Fraction(2))
        assert p.scale(Fraction(1, 2)).coefficient(1) == 1

    def test_monomials(self):
        p = XiPolynomial.from_coeffs([Fraction(1, 2), 0, Fraction(-3)])
        assert p.monomials() == [(0, Fraction(1, 2)), (2, Fraction(-3))]


class TestSSeries:
    def test_constant_term(self):
        assert s_series(4).coefficient(0) == 1

    def test_quadratic_coefficient(self):
        # Taylor expansion of sinh(z/2)/(z/2) has z^2 coefficient 1/24
        assert s_series(4).coefficient(2) == Fraction(1, 24)

    def test_quartic_coefficient(self):
        assert s_series(6).coefficient(4) == Fraction(1, 1920)

    def test_odd_coefficients_vanish(self):
        s = s_series(9)
        assert all(s.coefficient(n) == 0 for n in range(1, 10, 2))

    def test_even_coefficient_closed_form(self):
        s = s_series(12)
        for n in range(0, 13, 2):
            assert s.coefficient(n) == Fraction(1, 2**n) / factorial(n + 1)

    def test_order_must_be_positive(self):
        with pytest.raises(ValueError):
            s_series(0)


class TestScaleArg:
    def test_identity(self):
        s = s_series(8)
        assert series_scale_arg(s, 1) == s

    def test_scale_three(self):
        assert series_scale_arg(s_series(4), 3).coefficient(2) == Fraction(3, 8)

    def test_constant_untouched(self):
        assert series_scale_arg(s_series(4), 2).coefficient(0) == 1


class TestPowerSeries:
    def test_read_beyond_truncation_is_an_error(self):
        s = s_series(4)
        with pytest.raises(TruncationError):
            s.coefficient(5)

    def test_truncation_is_min_of_operands(self):
        a = s_series(6)
        b = s_series(3)
        assert (a * b).truncation_order == 3
        assert (a + b).truncation_order == 3

    def test_multiplication_matches_naive_convolution(self):
        rng = random.Random(99)
        for _ in range(25):
            order = rng.randint(0, 7)
            a = PowerSeries.from_coeffs([rnd_fraction(rng) for _ in range(order + 1)], order)
            b = PowerSeries.from_coeffs([rnd_fraction(rng) for _ in range(order + 1)], order)
            product = a * b
            for n in range(order + 1):
                naive = sum(
                    (a.coeffs[i] * b.coeffs[n - i] for i in range(n + 1)),
                    Fraction(0),
                )
                assert product.coefficient(n) == naive

    def test_inverse(self):
        s = s_series(8)
        product = s * s.inverse()
        assert product.coefficient(0) == 1
        assert all(product.coefficient(n) == 0 for n in range(1, 9))

    def test_pow(self):
        s = s_series(6)
        assert s.pow(3) == s * s * s
        assert s.pow(0) == PowerSeries.one(6)
