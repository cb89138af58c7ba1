"""Local models: profile constants, the canonical pole function, and the
partial-fraction (Hurwitz) coordinates."""

from __future__ import annotations

import copy
import pickle
import random
from fractions import Fraction
from math import gcd, prod

import hurwitz_reference
import pytest
from hurwitz_reference import add, derivative, function_derivative, mul, sub
from hypothesis import given, settings
from hypothesis import strategies as st

from singclass.combinatorics import profiles_with_sum
from singclass import local_models
from singclass.errors import ConstraintError, SingclassError
from singclass.local_models import (
    BranchCoordinates,
    HurwitzCoordinates,
    Polynomial,
    RationalFunction,
    canonical_function,
    hurwitz_coordinates,
    profile_constants,
    reassemble,
)
from singclass.notation import format_function, format_polynomial


class TestProfileConstants:
    @pytest.mark.parametrize(
        "profile,K,r,d",
        [
            ((1, 1), 1, (1, 1), 1),
            ((2, 2), 2, (1, 1), 2),
            ((2, 3), 6, (3, 2), 1),
            ((4,), 4, (1,), 1),
        ],
    )
    def test_examples(self, profile, K, r, d):
        constants = profile_constants(profile)
        assert (constants.lcm, constants.exponents, constants.components) == (K, r, d)

    def test_component_count_times_lcm_is_the_product(self):
        for total in range(1, 9):
            for p in profiles_with_sum(total):
                constants = profile_constants(p)
                assert constants.components * constants.lcm == prod(p)

    def test_component_count_matches_orbit_enumeration(self):
        for total in range(1, 9):
            for p in profiles_with_sum(total):
                assert profile_constants(p).components == hurwitz_reference.orbit_count(p)


class TestPolynomial:
    def test_trailing_zeros_stripped(self):
        p = Polynomial([Fraction(1), Fraction(0), Fraction(0)])
        assert p.coeffs == (Fraction(1),)
        assert p.degree == 0
        assert Polynomial.zero().degree is None

    def test_arithmetic(self):
        p = Polynomial([1, 2])  # 1 + 2 z
        q = Polynomial([0, 1])  # z
        assert mul(p, q).coeffs == (Fraction(0), Fraction(1), Fraction(2))
        assert add(p, q).coeffs == (Fraction(1), Fraction(3))
        assert sub(p, p) == Polynomial.zero()
        assert p.scale(Fraction(1, 2)).coefficient(1) == 1

    def test_monomials(self):
        p = Polynomial([Fraction(1, 2), 0, Fraction(-3)])
        assert p.monomials() == [(0, Fraction(1, 2)), (2, Fraction(-3))]

    def test_divmod(self):
        p = Polynomial.from_roots([(1, 2), (2, 1)])
        q, r = p.divmod(Polynomial.from_roots([(1, 1)]))
        assert r == Polynomial.zero()
        assert q == Polynomial.from_roots([(1, 1), (2, 1)])

    def test_gcd(self):
        # the gcd is determined up to a rational factor; RationalFunction
        # normalises by the denominator, so gcd returns it unscaled
        a = Polynomial.from_roots([(1, 2), (3, 1)])
        b = Polynomial.from_roots([(1, 1), (2, 1)])
        g = a.gcd(b)
        assert g.scale(1 / g.leading()) == Polynomial.from_roots([(1, 1)])

    def test_taylor_shift(self):
        p = Polynomial([1, 0, 1])  # 1 + z^2
        # 1 + (2+t)^2 = 5 + 4t + t^2, over 1
        assert local_models._taylor_row(p, Fraction(2), 2) == ([5, 4, 1], 1)
        # (1 + z^2) at 1/2 to order 1: 5/4 + t, which is (5 + 4t) / 4
        assert local_models._taylor_row(p, Fraction(1, 2), 1) == ([5, 4], 4)

    def test_format(self):
        p = Polynomial([Fraction(-1), 0, 1])
        assert format_polynomial(p) == "-1 + z^2"
        assert format_polynomial(Polynomial.zero()) == "0"
        assert format_polynomial(Polynomial([0, Fraction(3, 2)])) == "3/2*z"


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
            "+": (add(p, q), [x + y for x, y in zip(pad(pa), pad(qa))]),
            "-": (sub(p, q), [x - y for x, y in zip(pad(pa), pad(qa))]),
            "*": (mul(p, q), _reference_mul(pa, qa)),
            "scale": (p.scale(c), [x * c for x in pa]),
            "derivative": (derivative(p), [i * x for i, x in enumerate(pa)][1:]),
        }
        if q.coeffs:
            quot, rem = p.divmod(q)
            results["divmod"] = (add(mul(quot, q), rem), pa)
            assert not rem.coeffs or rem.degree < q.degree
            assert _all_fractions(quot.coeffs) and _all_fractions(rem.coeffs)
            # the integer rows divide as the Fraction algebra did
            assert (quot, rem) == hurwitz_reference.divide(p, q)
        if p.coeffs or q.coeffs:
            # the same gcd up to a rational factor: the same monic polynomial
            got, want = p.gcd(q), hurwitz_reference.gcd(p, q)
            assert got.scale(1 / got.leading()) == want.scale(1 / want.leading())
        for name, (got, want) in results.items():
            assert got.coeffs == _values(want), name
            assert _all_fractions(got.coeffs), name

    @settings(deadline=None, max_examples=25)
    @given(_ROOTS, st.data())
    def test_from_roots_splits_off_one_pole(self, pairs, data):
        i = data.draw(st.integers(0, len(pairs) - 1))
        whole = Polynomial.from_roots(pairs)
        others = Polynomial.from_roots(pairs[:i] + pairs[i + 1:])
        assert whole == mul(Polynomial.from_roots([pairs[i]]), others)
        assert _all_fractions(whole.coeffs)
        reference = [Fraction(1)]
        for root, mult in pairs:
            for _ in range(mult):
                reference = _reference_mul(reference, [-Fraction(root), Fraction(1)])
        assert whole.coeffs == _values(reference)


_RATIONAL = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def _coordinates(draw) -> HurwitzCoordinates:
    """Hurwitz coordinates with exact fields; u may be 0 and poles may repeat,
    so that reassemble also reduces through RationalFunction's constructor."""
    orders = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    branches = tuple(
        BranchCoordinates(draw(_RATIONAL), k, draw(_RATIONAL), tuple(draw(_RATIONAL) for _ in range(k - 1)))
        for k in orders
    )
    return HurwitzCoordinates(branches, draw(_RATIONAL))


def _check_integer_form(p: Polynomial) -> None:
    """p stores the canonical integer form, and equals, hashes, shows,
    copies and pickles as the Polynomial built from its coeffs."""
    den, nums = p._form
    assert type(den) is int and den >= 1
    assert type(nums) is tuple and {int}.issuperset(map(type, nums))
    assert not nums or nums[-1] != 0
    assert gcd(den, *nums) == 1
    twin = Polynomial(p.coeffs)
    assert twin == p and hash(twin) == hash(p) and twin._form == p._form
    assert repr(p) == f"Polynomial(coeffs={p.coeffs!r})"
    for other in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert type(other) is Polynomial and other._form == p._form
        assert other == p and hash(other) == hash(p)


class TestIntegerForm:
    """Polynomial stores one integer row over one denominator; every builder
    leaves that form canonical, so equality can compare it."""

    @settings(deadline=None, max_examples=60)
    @given(_COEFFS, _COEFFS, _ROOTS, _COEFF, _coordinates())
    def test_every_builder_keeps_the_canonical_form(self, a, b, pairs, c, coords):
        p, q = Polynomial(a), Polynomial(b)
        built = [p, q, Polynomial.from_roots(pairs), p.scale(c), Polynomial.zero(), Polynomial.one()]
        if q.coeffs:
            built += p.divmod(q)
        f = reassemble(coords)
        built += [f.numerator, f.denominator]
        for poly in built:
            _check_integer_form(poly)

    def test_a_polynomial_equals_no_other_type(self):
        assert Polynomial([1, 2]) != ((1, (1, 2)),)
        assert Polynomial([1, 2]) != (Fraction(1), Fraction(2))
        assert Polynomial([Fraction(1, 2), 1]) == Polynomial([Fraction(2, 4), Fraction(3, 3)])

    @settings(deadline=None, max_examples=60)
    @given(_COEFFS, _COEFF, st.integers(0, 6))
    def test_the_integer_rows_are_the_reference_series(self, a, at, order):
        p, at = Polynomial(a), Fraction(at)
        row, scale = local_models._taylor_row(p, at, order)
        assert [Fraction(v, scale) for v in row] == hurwitz_reference.taylor(p, at, order)
        assert p(at) == sum((c * at**k for k, c in enumerate(p.coeffs)), Fraction(0))

    @pytest.mark.parametrize("orders", [(64,), (62, 2), (16, 16, 16, 16), (1,) * 64], ids=["64", "62 2", "16^4", "1^64"])
    def test_round_trip_at_the_budget(self, orders):
        assert sum(orders) == local_models.ORDER_SUM_BUDGET
        rng = random.Random(20261023)

        def value() -> Fraction:
            return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))

        poles = [Fraction(v, 7) for v in rng.sample(range(-200, 200), len(orders))]
        branches = tuple(
            BranchCoordinates(z, k, abs(value()) if k % 2 == 0 else value(), tuple(value() for _ in range(k - 1)))
            for z, k in zip(poles, orders)
        )
        coords = HurwitzCoordinates(branches, value())
        assert hurwitz_coordinates(reassemble(coords), orders, poles) == coords


class TestCanonicalFunction:
    def test_single_simple_pole(self):
        f = canonical_function((1,), 0, (1,))
        assert f.numerator == Polynomial([0, 1])
        assert f.denominator == Polynomial([-1, 1])

    def test_two_simple_poles(self):
        f = canonical_function((1, 1), 0, (1, -1))
        assert f.numerator == Polynomial([0, 0, 1])
        assert f.denominator == Polynomial([-1, 0, 1])
        assert format_function(f) == "(z^2) / (-1 + z^2)"

    def test_derivative_vanishing_orders(self):
        # first m-1 derivatives vanish at x, the m-th does not, for the
        # symbolic quotient-rule derivative
        for profile, x, poles in [
            ((1, 1), 0, (1, -1)),
            ((2,), 0, (1,)),
            ((1, 2), Fraction(1, 2), (1, -2)),
        ]:
            m = sum(profile)
            f = canonical_function(profile, x, poles)
            for _ in range(m - 1):
                f = function_derivative(f)
                assert f(x) == 0
            assert function_derivative(f)(x) != 0

    def test_coincident_points_rejected(self):
        with pytest.raises(ConstraintError):
            canonical_function((1, 1), 0, (1, 1))
        with pytest.raises(ConstraintError):
            canonical_function((1,), 1, (1,))

    def test_is_built_reduced(self):
        for profile, x, poles in [((1, 1), 0, (1, -1)), ((2, 3), Fraction(1, 3), (2, Fraction(-5, 7)))]:
            f = canonical_function(profile, x, poles)
            assert RationalFunction(f.numerator, f.denominator) == f


class TestOrderSumBudget:
    def test_over_the_budget_is_refused(self):
        over = (local_models.ORDER_SUM_BUDGET // 2 + 1, local_models.ORDER_SUM_BUDGET // 2)
        with pytest.raises(ConstraintError, match="budget"):
            canonical_function(over, 0, (1, 2))
        f = canonical_function((1, 1), 0, (1, 2))
        with pytest.raises(ConstraintError, match="budget"):
            hurwitz_coordinates(f, over, (1, 2))

    def test_order_sixty_runs(self):
        f = canonical_function((60,), 0, (1,))
        coords = hurwitz_coordinates(f, (60,), (1,))
        assert (coords.branches[0].order, coords.branches[0].u) == (60, 1)


class TestHurwitzCoordinates:
    def test_two_simple_poles(self):
        f = canonical_function((1, 1), 0, (1, -1))
        coords = hurwitz_coordinates(f, (1, 1), (1, -1))
        assert coords.constant == 1
        assert [(b.pole, b.u, b.tail) for b in coords.branches] == [
            (Fraction(1), Fraction(1, 2), ()),
            (Fraction(-1), Fraction(-1, 2), ()),
        ]

    def test_double_pole(self):
        f = canonical_function((2,), 0, (1,))
        coords = hurwitz_coordinates(f, (2,), (1,))
        branch = coords.branches[0]
        assert (branch.u, branch.tail, coords.constant) == (
            Fraction(1),
            (Fraction(2),),
            Fraction(1),
        )

    def test_reassembly_is_the_identity(self):
        # poles chosen so the order-2 leading coefficient 4^3/(4-3) = 64 has
        # a rational square root
        f = canonical_function((1, 2), 0, (3, 4))
        coords = hurwitz_coordinates(f, (1, 2), (3, 4))
        assert coords.branches[1].u == 8
        assert reassemble(coords) == f

    def test_reassembly_reduces_a_branch_with_zero_u(self):
        # u = 0 cancels the whole principal part, so the pole divisor must be
        # divided out again
        branch = BranchCoordinates(Fraction(1), 2, Fraction(0), (Fraction(5),))
        coords = HurwitzCoordinates((branch,), Fraction(3))
        assert reassemble(coords) == RationalFunction(
            Polynomial([3]), Polynomial.one()
        )

    def test_irrational_canonical_coordinates_are_reported(self):
        f = canonical_function((1, 2), 0, (1, 3))
        with pytest.raises(ConstraintError):
            hurwitz_coordinates(f, (1, 2), (1, 3))

    def test_pole_order_mismatch(self):
        f = canonical_function((1, 1), 0, (1, -1))
        with pytest.raises(ConstraintError):
            hurwitz_coordinates(f, (2,), (1,))

    def test_pole_of_lower_order_than_stated_is_refused(self):
        # the constructor reduces (z-1)/(z-1)^2 to 1/(z-1), a simple pole
        f = RationalFunction(Polynomial.from_roots([(1, 1)]), Polynomial.from_roots([(1, 2)]))
        assert f == RationalFunction(Polynomial.one(), Polynomial.from_roots([(1, 1)]))
        with pytest.raises(ConstraintError, match="pole-order mismatch"):
            hurwitz_coordinates(f, (2,), (1,))

    def test_irrational_root_is_reported(self):
        f = RationalFunction(
            Polynomial([2]), Polynomial.from_roots([(1, 2)])
        )
        with pytest.raises(ConstraintError):
            hurwitz_coordinates(f, (2,), (1,))

    @pytest.mark.parametrize("k,u", [(3, 3**70), (4, 10**100), (3, Fraction(-(7**40), 2**90))])
    def test_huge_leading_coefficients_have_exact_roots(self, k, u):
        # u^k is far beyond float precision (or float range): the k-th root
        # of the leading Laurent coefficient must still be found exactly
        branch = BranchCoordinates(Fraction(1), k, Fraction(u), (Fraction(0),) * (k - 1))
        coords = HurwitzCoordinates((branch,), Fraction(0))
        assert hurwitz_coordinates(reassemble(coords), (k,), (1,)) == coords

    def test_reassembly_failure_is_a_singclass_error(self, monkeypatch):
        f = canonical_function((1, 1), 0, (1, -1))
        # the self-check reassembles through _reassemble, over the divisor it already built
        monkeypatch.setattr(local_models, "_reassemble", lambda coords, scale, product: function_derivative(f))
        with pytest.raises(SingclassError):
            hurwitz_coordinates(f, (1, 1), (1, -1))

    def test_even_order_sign_normalization(self):
        # build from u = -3/2 at an order-2 pole; the decomposition returns
        # the positive root with the tail adjusted, and the same function
        branch = BranchCoordinates(Fraction(0), 2, Fraction(-3, 2), (Fraction(5),))
        coords = HurwitzCoordinates((branch,), Fraction(2))
        f = reassemble(coords)
        recovered = hurwitz_coordinates(f, (2,), (0,))
        out = recovered.branches[0]
        assert out.u == Fraction(3, 2)
        assert out.tail == (Fraction(-5),)
        assert reassemble(recovered) == f


def _random_coordinates(rng: random.Random) -> HurwitzCoordinates:
    length = rng.randint(1, 4)
    orders = [rng.randint(1, 4) for _ in range(length)]
    poles = rng.sample([Fraction(v) for v in range(-6, 7)], length)
    branches = []
    for pole, k in zip(poles, orders):
        u = Fraction(0)
        while u == 0:
            u = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        if k % 2 == 0:
            u = abs(u)
        tail = tuple(
            Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(k - 1)
        )
        branches.append(BranchCoordinates(pole, k, u, tail))
    constant = Fraction(rng.randint(-4, 4))
    return HurwitzCoordinates(tuple(branches), constant)


class TestRandomizedReassembly:
    def test_decomposition_inverts_reassembly(self):
        rng = random.Random(20240517)
        for _ in range(60):
            coords = _random_coordinates(rng)
            f = reassemble(coords)
            profile = tuple(b.order for b in coords.branches)
            poles = tuple(b.pole for b in coords.branches)
            recovered = hurwitz_coordinates(f, profile, poles)
            assert recovered == coords
            assert reassemble(recovered) == f


def _rational_pairs(rng: random.Random) -> list[tuple[Fraction, int]]:
    values = sorted({Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(20)})
    return [(z, rng.randint(1, 4)) for z in rng.sample(values, rng.randint(2, 5))]


class TestRationalPoles:
    def test_rational_poles_round_trip(self):
        rng = random.Random(20261021)
        for _ in range(20):
            pairs = _rational_pairs(rng)
            branches = tuple(
                BranchCoordinates(
                    z, k, Fraction(rng.randint(1, 6), rng.randint(1, 4)),
                    tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(k - 1)),
                )
                for z, k in pairs
            )
            coords = HurwitzCoordinates(branches, Fraction(rng.randint(-4, 4)))
            f = reassemble(coords)
            poles, orders = zip(*pairs)
            assert hurwitz_coordinates(f, orders, poles) == coords


def _outcome(function, f, p, poles):
    """function(f, p, poles), or the type and message of its SingclassError."""
    try:
        return function(f, p, poles)
    except SingclassError as error:
        return type(error), str(error)


def _random_models(rng: random.Random, count: int):
    """(f, orders, poles) triples: canonical functions, whose leading Laurent
    coefficients mostly have no rational root, reassembled coordinates, which
    decompose, and now and then a call that names the orders in reverse."""
    for n in range(count):
        if n % 2:
            coords = _random_coordinates(rng)
            f = reassemble(coords)
            orders = [b.order for b in coords.branches]
            poles = [b.pole for b in coords.branches]
        else:
            orders = [rng.randint(1, 5) for _ in range(rng.randint(1, 4))]
            values = {Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(12)}
            x, *poles = rng.sample(sorted(values), len(orders) + 1)
            f = canonical_function(orders, x, poles)
        if n % 10 == 4:
            orders = orders[::-1]
        yield f, orders, poles


class TestAgainstTheSeriesRoute:
    """hurwitz_coordinates reads the Laurent coefficients from two integer
    Taylor rows; the series route it replaced (Taylor shift, cofactor series,
    series inverse) stays in hurwitz_reference, and both must return the same
    coordinates or refuse with the same message."""

    def test_seeded_models(self):
        outcomes = []
        for f, orders, poles in _random_models(random.Random(20261019), 640):
            got = _outcome(hurwitz_coordinates, f, orders, poles)
            assert got == _outcome(hurwitz_reference.hurwitz_coordinates, f, orders, poles)
            outcomes.append(type(got) is HurwitzCoordinates)
        # both kinds of outcome are well represented
        assert 200 < sum(outcomes) < 600

    def test_models_at_the_budget(self):
        budget = local_models.ORDER_SUM_BUDGET
        rng = random.Random(20261022)
        poles = [Fraction(v, 7) for v in rng.sample(range(1, 400), budget)]
        branches = tuple(
            BranchCoordinates(z, 1, Fraction(rng.randint(1, 9), rng.randint(1, 9)), ())
            for z in poles
        )
        tail = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(budget - 3))
        two_poles = (
            BranchCoordinates(Fraction(1, 2), budget - 2, Fraction(-2, 3), tail),
            BranchCoordinates(Fraction(-3), 2, Fraction(5), (Fraction(7, 4),)),
        )
        models = [
            (reassemble(HurwitzCoordinates(two_poles, Fraction(1))), (budget - 2, 2), (Fraction(1, 2), -3)),
            (canonical_function((budget,), 0, (1,)), (budget,), (1,)),
            (canonical_function((budget,), Fraction(1, 3), (-2,)), (budget,), (-2,)),
            (canonical_function((1,) * budget, 0, poles), (1,) * budget, poles),
            (reassemble(HurwitzCoordinates(branches, Fraction(2))), (1,) * budget, poles),
            (canonical_function((2, budget - 2), 0, (1, 2)), (2, budget - 2), (1, 2)),
        ]
        for f, orders, poles in models:
            got = _outcome(hurwitz_coordinates, f, orders, poles)
            assert got == _outcome(hurwitz_reference.hurwitz_coordinates, f, orders, poles)


class TestSympyOracle:
    """sympy (test-only) as a second oracle for the local models."""

    def test_reassemble_matches_apart_and_the_reduced_quotient(self):
        sympy = pytest.importorskip("sympy")
        z = sympy.Symbol("z")

        def q(x: Fraction):
            return sympy.Rational(x.numerator, x.denominator)

        def coeffs(p: Polynomial):
            return [q(c) for c in reversed(p.coeffs)]

        rng = random.Random(20261018)
        for _ in range(12):
            coords = _random_coordinates(rng)
            f = reassemble(coords)
            principal = sympy.Add(q(coords.constant), *(
                q(a * b.u ** (b.order - j)) / (z - q(b.pole)) ** (b.order - j)
                for b in coords.branches
                for j, a in enumerate([Fraction(1), *b.tail])
            ))
            # partial fractions of the reassembled quotient are the coordinates' terms
            quotient = sympy.Poly(coeffs(f.numerator), z).as_expr() / sympy.Poly(coeffs(f.denominator), z).as_expr()
            apart = sympy.apart(quotient, z)
            assert set(sympy.Add.make_args(apart)) == set(sympy.Add.make_args(principal))
            # sympy's reduced form of the terms' sum is the stored numerator over
            # the monic denominator
            num, den = (sympy.Poly(e, z) for e in sympy.fraction(sympy.together(principal)))
            scale, num, den = num.cancel(den)
            lead = den.LC()
            assert [scale * c / lead for c in num.all_coeffs()] == coeffs(f.numerator)
            assert [c / lead for c in den.all_coeffs()] == coeffs(f.denominator)

    def test_polynomial_operations_match_sympy(self):
        sympy = pytest.importorskip("sympy")
        z = sympy.Symbol("z")

        def q(x: Fraction):
            return sympy.Rational(x.numerator, x.denominator)

        def poly(p: Polynomial):
            return sympy.Poly([q(c) for c in reversed(p.coeffs)] or [0], z, domain="QQ")

        rng = random.Random(20261019)

        def value() -> Fraction:
            return Fraction(rng.randint(-6, 6), rng.randint(1, 4))

        def roots():
            return [(value(), rng.randint(0, 3)) for _ in range(rng.randint(1, 4))]

        for _ in range(15):
            pairs = roots()
            expected = sympy.prod([(z - q(r)) ** k for r, k in pairs])
            assert poly(Polynomial.from_roots(pairs)) == sympy.Poly(expected, z, domain="QQ")
            a = Polynomial([value() for _ in range(rng.randint(0, 7))])
            b = Polynomial([value() for _ in range(rng.randint(0, 3))] + [value() or 1])
            quot, rem = a.divmod(b)
            assert (poly(quot), poly(rem)) == sympy.div(poly(a), poly(b))
            assert poly(derivative(a)) == poly(a).diff(z)
            # a shared factor b makes the gcd nontrivial; sympy's gcd over QQ is monic
            left, right = mul(Polynomial.from_roots(roots()), b), mul(Polynomial.from_roots(roots()), b)
            g = left.gcd(right)
            assert poly(g.scale(1 / g.leading())) == sympy.gcd(poly(left), poly(right))
