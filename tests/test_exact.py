"""Exact kernel: rationals and truncated series; the coefficients of series
and of the local models' polynomials in z stay Fractions."""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singclass.errors import ConstraintError, TruncationError
from singclass.exact import PowerSeries, s_series, series_scale_arg
from singclass.local_models import Polynomial


def rnd_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-30, 30), rng.randint(1, 12))


class TestRational:
    def test_serialization(self):
        assert str(Fraction(11, 48)) == "11/48"
        assert str(Fraction(-3, 2)) == "-3/2"
        assert str(Fraction(7)) == "7"

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


# Coefficient lists with zeros inside and general ones; ints are mixed in,
# since the constructors must convert them.
_COEFF = st.one_of(
    st.just(0),
    st.integers(-5, 5),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)
_COEFFS = st.lists(_COEFF, max_size=5)
# (root, multiplicity) pairs, repeated roots allowed
_ROOTS = st.lists(st.tuples(_COEFF, st.integers(0, 3)), min_size=1, max_size=4)


def _reference_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _values(coeffs):
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _all_fractions(coeffs) -> bool:
    return all(type(c) is Fraction for c in coeffs)


class TestCoefficientsStayFractions:
    @settings(deadline=None, max_examples=40)
    @given(_COEFFS, _COEFFS, _COEFF)
    def test_xi_polynomial_operations(self, a, b, c):
        p, q = Polynomial(a), Polynomial(b)
        pa, qa = list(_values(a)), list(_values(b))
        n = max(len(pa), len(qa))

        def pad(v):
            return v + [Fraction(0)] * (n - len(v))

        results = {
            "+": (p + q, [x + y for x, y in zip(pad(pa), pad(qa))]),
            "-": (p - q, [x - y for x, y in zip(pad(pa), pad(qa))]),
            "*": (p * q, _reference_mul(pa, qa)),
            "scale": (p.scale(c), [x * c for x in pa]),
            "derivative": (p.derivative(), [i * x for i, x in enumerate(pa)][1:]),
        }
        if q.coeffs:
            quot, rem = p.divmod(q)
            results["divmod"] = (quot * q + rem, pa)
            assert not rem.coeffs or rem.degree < q.degree
            assert _all_fractions(quot.coeffs) and _all_fractions(rem.coeffs)
        for name, (got, want) in results.items():
            assert got.coeffs == _values(want), name
            assert _all_fractions(got.coeffs), name

    @settings(deadline=None, max_examples=25)
    @given(_ROOTS, st.data())
    def test_from_roots_splits_off_one_pole(self, pairs, data):
        i = data.draw(st.integers(0, len(pairs) - 1))
        whole = Polynomial.from_roots(pairs)
        others = Polynomial.from_roots(pairs[:i] + pairs[i + 1:])
        assert whole == Polynomial.from_roots([pairs[i]]) * others
        assert _all_fractions(whole.coeffs)
        reference = [Fraction(1)]
        for root, mult in pairs:
            for _ in range(mult):
                reference = _reference_mul(reference, [-Fraction(root), Fraction(1)])
        assert whole.coeffs == _values(reference)

    @settings(deadline=None, max_examples=40)
    @given(_COEFFS, _COEFFS, st.integers(0, 4))
    def test_power_series_operations(self, a, b, order):
        s, t = PowerSeries(a, order), PowerSeries(b, order)

        def dense(v):
            v = [Fraction(x) for x in v[: order + 1]]
            return v + [Fraction(0)] * (order + 1 - len(v))

        assert _all_fractions(s.coeffs) and list(s.coeffs) == dense(a)
        total = s + t
        assert _all_fractions(total.coeffs)
        assert list(total.coeffs) == [x + y for x, y in zip(dense(a), dense(b))]
        product = s * t
        assert _all_fractions(product.coeffs)
        assert list(product.coeffs) == _reference_mul(dense(a), dense(b))[: order + 1]
        if s.coeffs[0] != 0:
            assert _all_fractions(s.inverse().coeffs)


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
        with pytest.raises(ConstraintError):
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
            a = PowerSeries([rnd_fraction(rng) for _ in range(order + 1)], order)
            b = PowerSeries([rnd_fraction(rng) for _ in range(order + 1)], order)
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
