"""Local models of pole profiles: the canonical rational
function with prescribed poles, its partial-fraction (Hurwitz) coordinates,
and the numeric constants attached to a ramification profile (LCM, the
per-branch exponents, and the stratum component count).

Polynomials in z are dense :class:`Polynomial` values over the rationals,
each stored in integer form: one row of integer numerators over one positive
denominator, the layout of FLINT's fmpq_poly.  ``from_roots``, evaluation,
``divmod``, the Taylor rows of ``hurwitz_coordinates`` and ``reassemble``
read and write these rows, so a Fraction is built only where one is handed
out: the coefficients read through ``coeffs``, ``leading``, ``coefficient``
and ``monomials``, a value of a call, and the Laurent coefficients, roots,
tails and constant behind the HurwitzCoordinates returned."""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import gcd, lcm, prod

from .errors import (
    _EXACT,
    ConstraintError,
    Record,
    SingclassError,
    _exact,
    _fractions,
    _integer,
    _ints,
    _operand,
    _pairs,
)

__all__ = [
    "Polynomial",
    "RationalFunction",
    "BranchCoordinates",
    "HurwitzCoordinates",
    "ProfileConstants",
    "profile_constants",
    "canonical_function",
    "hurwitz_coordinates",
    "reassemble",
]


_ZERO = Fraction(0)


class Polynomial(Record):
    """Dense polynomial in z with rational coefficients.

    ``coeffs[k]`` is the coefficient of z^k.  The constructor takes int or
    Fraction coefficients and strips trailing zeros, so the zero polynomial
    is the empty tuple and its degree is None.  Each method checks the type
    of each argument (a Polynomial, an int exponent, an int or Fraction
    value) and refuses any other with ConstraintError.

    The stored value is the canonical integer form ``(den, (n_0, ...,
    n_d))``, the polynomial sum n_k z^k / den: den >= 1 with ``gcd(den,
    *n) == 1`` and no trailing zero.  ``coeffs`` is its Fraction view, built
    each time it is read; equality compares the form, and the hash, repr,
    copies and pickles are those of the field ``coeffs``.
    """

    __slots__ = _stored = ("_form",)
    _fields = ("coeffs",)

    def __init__(self, coeffs: Iterable[Fraction | int]):
        values = _fractions(coeffs, "polynomial coefficients")
        den = lcm(*(c.denominator for c in values))
        nums = [c.numerator * (den // c.denominator) for c in values]
        object.__setattr__(self, "_form", _reduced_form(den, nums))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den, nums = self._form
        return tuple(Fraction(n, den) for n in nums)

    def __eq__(self, other):
        if other.__class__ is not Polynomial:
            return NotImplemented
        return self._form == other._form

    __hash__ = Record.__hash__

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial._make((1, ()))

    @staticmethod
    def one() -> "Polynomial":
        return Polynomial._make((1, (1,)))

    @staticmethod
    def from_roots(pairs: Iterable[tuple[Fraction | int, int]]) -> "Polynomial":
        """prod (z - root)^mult over the (root, mult) pairs, each an int or
        Fraction root and an int mult >= 0; the result is monic."""
        pairs = _pairs(pairs, "from_roots takes (root, multiplicity) pairs")
        if not all(type(r) in _EXACT and type(m) is int and m >= 0 for r, m in pairs):
            raise ConstraintError("from_roots takes (int or Fraction, int >= 0) pairs")
        return Polynomial._make(_linear_product(pairs))

    @property
    def degree(self) -> int | None:
        return len(self._form[1]) - 1 if self._form[1] else None

    def leading(self) -> Fraction:
        den, nums = self._form
        if not nums:
            raise ConstraintError("zero polynomial has no leading coefficient")
        return Fraction(nums[-1], den)

    def coefficient(self, k: int) -> Fraction:
        den, nums = self._form
        if 0 <= _integer(k, "an exponent") < len(nums):
            return Fraction(nums[k], den)
        return _ZERO

    def monomials(self) -> list[tuple[int, Fraction]]:
        """Nonzero (exponent, coefficient) pairs, ascending in the exponent."""
        den, nums = self._form
        return [(k, Fraction(n, den)) for k, n in enumerate(nums) if n]

    def scale(self, c: Fraction | int) -> "Polynomial":
        _exact((c,), "a scale factor")
        den, nums = self._form
        return Polynomial._make(_reduced_form(den * c.denominator, [n * c.numerator for n in nums]))

    def divmod(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        (a, top), (b, bottom) = self._form, _operand(other, Polynomial, "divmod")._form
        if not bottom:
            raise ConstraintError("polynomial division by zero")
        # top/a = (quot b / (d a)) (bottom/b) + rem / (d a)
        quot, rem, d = _divide_rows(top, bottom)
        return (
            Polynomial._make(_reduced_form(d * a, [v * b for v in quot])),
            Polynomial._make(_reduced_form(d * a, rem)),
        )

    def gcd(self, other: "Polynomial") -> "Polynomial":
        """A greatest common divisor, up to a rational factor: the last
        nonzero remainder of Euclid's algorithm."""
        a, b = self, _operand(other, Polynomial, "gcd")
        while b._form[1]:
            a, b = b, a.divmod(b)[1]
        return a

    def __call__(self, x: Fraction | int) -> Fraction:
        _exact((x,), "the point z")
        row, scale = _taylor_row(self, x, 0)  # p(x + t) at t^0
        return Fraction(row[0], scale)


def _reduced_form(den: int, nums: list[int]) -> tuple[int, tuple[int, ...]]:
    """The canonical integer form of the polynomial sum nums[k] z^k / den,
    for an int den >= 1: trailing zeros stripped, den and the numerators
    divided by their gcd."""
    while nums and not nums[-1]:
        nums.pop()
    if not nums:
        return 1, ()
    common = gcd(den, *nums)
    if common == 1:
        return den, tuple(nums)
    return den // common, tuple(n // common for n in nums)


def _divide_rows(top: tuple[int, ...], bottom: tuple[int, ...]) -> tuple[list[int], list[int], int]:
    """Integer rows quot and rem and an int d >= 1 with d top = quot bottom +
    rem, rem shorter than bottom: long division from the top, where each
    step first scales rem (and quot) by the least d_step that makes the
    quotient coefficient an integer, lead / gcd(rem's top, lead)."""
    rem, db, lead = list(top), len(bottom) - 1, bottom[-1]
    quot, d = [0] * max(len(rem) - db, 0), 1
    for shift in reversed(range(len(quot))):  # clear rem[shift + db]
        head = rem[shift + db]
        if not head:
            continue
        common = gcd(head, lead) if lead > 0 else -gcd(head, lead)
        step, factor = lead // common, head // common
        if step != 1:
            rem = [step * v for v in rem]
            quot = [step * v for v in quot]
            d *= step
        quot[shift] = factor
        for i, c in enumerate(bottom):
            rem[shift + i] -= factor * c
    return quot, rem[:db], d


def _linear_product(pairs: Iterable[tuple[Fraction | int, int]]) -> tuple[int, tuple[int, ...]]:
    """The canonical integer form of prod (z - root)^mult.

    With root = p/q the factor is (q z - p) / q, so the product is the
    integer polynomial prod (q z - p)^mult over prod q^mult, its leading
    coefficient.  Each q z - p is primitive, so their product is too
    (Gauss's lemma): the form needs no gcd."""
    coeffs, scale = [1], 1
    for root, mult in pairs:
        p, q = root.numerator, root.denominator
        for _ in range(mult):
            # times (q z - p): c_k becomes q c_{k-1} - p c_k
            coeffs = [q * a - p * b for a, b in zip([0, *coeffs], [*coeffs, 0])]
        scale *= q**mult
    return scale, tuple(coeffs)


def _divide_linear(coeffs: Sequence[int], p: int, q: int) -> list[int]:
    """The integer polynomial coeffs / (q z - p), which must divide exactly:
    from the top, r_{k-1} = (c_k + p r_k) / q."""
    out, carry = [0] * (len(coeffs) - 1), 0
    for k in range(len(coeffs) - 1, 0, -1):
        carry = out[k - 1] = (coeffs[k] + p * carry) // q
    return out


class RationalFunction(Record):
    """Quotient of two polynomials, stored reduced with a monic denominator.

    The constructor takes two Polynomials, divides out their gcd and makes
    the denominator monic; a zero denominator raises ConstraintError."""

    __slots__ = _fields = ("numerator", "denominator")

    def __init__(self, numerator: Polynomial, denominator: Polynomial):
        if type(numerator) is not Polynomial or type(denominator) is not Polynomial:
            raise ConstraintError("a rational function is a quotient of two Polynomials")
        if denominator.degree is None:
            raise ConstraintError("zero denominator")
        # both divided by their gcd, scaled to leave a monic denominator
        common = numerator.gcd(denominator)
        common = common.scale(denominator.leading() / common.leading())
        object.__setattr__(self, "numerator", numerator.divmod(common)[0])
        object.__setattr__(self, "denominator", denominator.divmod(common)[0])

    def __call__(self, x: Fraction | int) -> Fraction:
        d = self.denominator(x)
        if d == 0:
            raise ConstraintError(f"pole at {x}")
        return self.numerator(x) / d


class BranchCoordinates(Record):
    """Per-branch data: the pole, its order k, the chosen k-th root u of the
    leading Laurent coefficient, and the tail a_1 .. a_{k-1} (a_0 is 1)."""

    __slots__ = _fields = ("pole", "order", "u", "tail")

    def __init__(self, pole: Fraction, order: int, u: Fraction, tail: tuple[Fraction, ...]):
        object.__setattr__(self, "pole", pole)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "tail", tail)


class HurwitzCoordinates(Record):
    __slots__ = _fields = ("branches", "constant")

    def __init__(self, branches: tuple[BranchCoordinates, ...], constant: Fraction):
        object.__setattr__(self, "branches", branches)
        object.__setattr__(self, "constant", constant)


class ProfileConstants(Record):
    __slots__ = _fields = ("lcm", "exponents", "components")

    def __init__(self, lcm: int, exponents: tuple[int, ...], components: int):
        object.__setattr__(self, "lcm", lcm)
        object.__setattr__(self, "exponents", exponents)
        object.__setattr__(self, "components", components)


def _orders(p: Sequence[int]) -> list[int]:
    """The orders as a nonempty list of positive ints; else ConstraintError."""
    orders = _ints(p, "an order")
    if not orders:
        raise ConstraintError("profile must be nonempty")
    if any(k < 1 for k in orders):
        raise ConstraintError("orders must be positive")
    return orders


def profile_constants(p: Profile) -> ProfileConstants:
    """K = lcm of the orders, r_i = K/k_i, and d = prod k_i / K components."""
    p = _orders(p)
    big = lcm(*p)
    d, rem = divmod(prod(p), big)
    if rem:
        raise ConstraintError("product of orders is not divisible by their lcm")
    return ProfileConstants(big, tuple(big // k for k in p), d)


# Largest order sum (the degree of the pole divisor) that canonical_function
# and hurwitz_coordinates accept.  The work grows faster than the square of
# the order sum.  At the budget the two calls together take about 0.02 s on
# CPython 3.11 (2 vCPUs) for 64 simple poles (0.01 s for {64}); 200 simple
# poles take about 0.3 s.
ORDER_SUM_BUDGET = 64


def _budgeted_orders(p: Sequence[int]) -> list[int]:
    """_orders(p), refusing an order sum over ORDER_SUM_BUDGET."""
    orders = _orders(p)
    if sum(orders) > ORDER_SUM_BUDGET:
        raise ConstraintError(
            f"order sum {sum(orders)} is over the budget of {ORDER_SUM_BUDGET}"
        )
    return orders


def canonical_function(
    p: Sequence[int], x: Fraction | int, poles: Sequence[Fraction | int]
) -> RationalFunction:
    """(z-x)^m / prod (z-z_i)^{k_i} with m = sum k_i: the unique function (up
    to cf+b) with the prescribed poles whose first m-1 derivatives vanish at x.
    An order sum over ORDER_SUM_BUDGET raises ConstraintError."""
    orders = _budgeted_orders(p)
    points = _fractions(poles, "poles")
    if len(points) != len(orders):
        raise ConstraintError("need exactly one pole per branch")
    (x,) = _fractions((x,), "the point x")
    if len(set(points)) != len(points) or x in points:
        raise ConstraintError("poles must be pairwise distinct and different from x")
    m = sum(orders)
    numerator = Polynomial.from_roots([(x, m)])
    denominator = Polynomial.from_roots(zip(points, orders))
    # already reduced: x is no pole, and a product of monic factors is monic
    return RationalFunction._make(numerator, denominator)


def _integer_kth_root(value: int, k: int) -> int | None:
    if value < 0:
        if k % 2 == 0:
            return None
        flipped = _integer_kth_root(-value, k)
        return -flipped if flipped is not None else None
    if value < 2 or k == 1:
        return value
    # integer Newton iteration from 2^ceil(bits/k), which is above the root;
    # it decreases to floor(value^(1/k)) and stops there
    root = 1 << -(-value.bit_length() // k)
    while True:
        step = ((k - 1) * root + value // root ** (k - 1)) // k
        if step >= root:
            break
        root = step
    return root if root**k == value else None


def _rational_kth_root(value: Fraction, k: int) -> Fraction | None:
    num = _integer_kth_root(value.numerator, k)
    den = _integer_kth_root(value.denominator, k)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def _taylor_row(poly: Polynomial, at: Fraction | int, order: int) -> tuple[list[int], int]:
    """The coefficients of poly(at + t) up to t^order, as integers over one
    positive integer scale.

    With at = r/s and poly = sum n_i z^i / L in its integer form,
    L s^deg p(at + t) = sum n_i s^(deg-i) (r + s t)^i is an integer
    polynomial in t, summed by Horner's rule."""
    r, s = at.numerator, at.denominator
    common, nums = poly._form
    out, s_power = [0] * (order + 1), 1
    for n in reversed(nums):
        # out(t) becomes out(t) (r + s t) + n_i s^(deg-i), truncated at t^order
        for j in range(order, 0, -1):
            out[j] = out[j] * r + out[j - 1] * s
        out[0] = out[0] * r + n * s_power
        s_power *= s
    return out, common * s ** max(len(nums) - 1, 0)


def hurwitz_coordinates(
    f: RationalFunction, p: Sequence[int], poles: Sequence[Fraction | int]
) -> HurwitzCoordinates:
    """Exact partial-fraction decomposition regrouped into powers of u_i/(z-z_i).

    The i-th branch must be a pole of order exactly k_i; u_i is the rational
    k_i-th root of the leading Laurent coefficient (for even k_i the positive
    root is chosen, with the tail adjusted accordingly) and the a_{ij} are
    fixed by the lower Laurent coefficients.  Reassembling the output
    reproduces the input exactly.  An order sum over ORDER_SUM_BUDGET raises
    ConstraintError.
    """
    _operand(f, RationalFunction, "hurwitz_coordinates")
    orders = _budgeted_orders(p)
    points = _fractions(poles, "poles")
    if len(points) != len(orders) or len(set(points)) != len(points):
        raise ConstraintError("need pairwise distinct poles, one per branch")
    pairs = list(zip(points, orders))
    divisor = _linear_product(pairs)
    if f.denominator._form != divisor:
        raise ConstraintError(
            "pole-order mismatch: denominator is not the prescribed pole divisor"
        )
    num_deg = f.numerator.degree if f.numerator.degree is not None else -1
    den_deg = f.denominator.degree
    if num_deg > den_deg:
        raise ConstraintError("function has a pole at infinity beyond a constant")
    constant = f.numerator.coefficient(den_deg)

    branches = []
    for z_i, k in pairs:
        # at z = z_i + t, f is n(t) / (t^k c(t)) with integer rows over their
        # scales; the denominator is the pole divisor, so its first k entries
        # are 0 and the next k are c's
        n, n_scale = _taylor_row(f.numerator, z_i, k - 1)
        d, d_scale = _taylor_row(f.denominator, z_i, 2 * k - 1)
        c, lift = d[k:], d[k] ** k
        # q[j] / c_0^k is [t^j] of n / c: truncated long division, exact in
        # integers, since [t^j] has a denominator dividing c_0^(j+1)
        q: list[int] = []
        for j in range(k):
            q.append((n[j] * lift - sum(c[i] * q[j - i] for i in range(1, j + 1))) // c[0])
        # laurent[s-1] is the coefficient of (z - z_i)^{-s}, [t^(k-s)] of
        # n / c; f is reduced, so its numerator, and with it lead, is nonzero
        # at the pole
        laurent = [Fraction(q[k - s] * d_scale, lift * n_scale) for s in range(1, k + 1)]
        lead = laurent[k - 1]
        root = _rational_kth_root(lead, k)
        if root is None:
            raise ConstraintError(
                f"leading Laurent coefficient {lead} at pole {z_i} has no rational "
                f"{k}-th root"
            )
        if k % 2 == 0:
            root = abs(root)
        tail = tuple(laurent[k - 1 - j] / root ** (k - j) for j in range(1, k))
        branches.append(BranchCoordinates(z_i, k, root, tail))

    coords = HurwitzCoordinates(tuple(branches), constant)
    # the branches list the pairs in order, so their divisor is the one checked above
    if _reassemble(coords, *divisor) != f:
        raise SingclassError("reassembly identity failed; decomposition is broken")
    return coords


def _is_branch(b) -> bool:
    """Whether b is a BranchCoordinates of exact pole and u, an int order
    k >= 1 and a tuple of k - 1 exact tail values."""
    return (
        type(b) is BranchCoordinates
        and type(b.order) is int
        and b.order >= 1
        and type(b.tail) is tuple
        and len(b.tail) == b.order - 1
        and _EXACT.issuperset(map(type, (b.pole, b.u, *b.tail)))
    )


def reassemble(coords: HurwitzCoordinates) -> RationalFunction:
    """Rebuild the rational function from its Hurwitz coordinates.

    Over D = prod (q_i z - p_i)^{k_i}, the poles z_i = p_i/q_i as integer
    linear factors, (z - z_i)^{-m} is q_i^m E_{i,m} / D with E_{i,m} =
    D / (q_i z - p_i)^m, an exact integer division, and each coefficient
    a_{k-m} (q_i u_i)^m is one integer numerator over one integer
    denominator.  So the numerator is one integer polynomial over one common
    denominator, the integer form of a Polynomial, and no Fraction is made
    unless a branch cancels and RationalFunction must reduce the quotient.
    Coordinates whose fields are not of these types raise ConstraintError."""
    branches = _operand(coords, HurwitzCoordinates, "reassemble").branches
    if type(branches) is not tuple or not all(map(_is_branch, branches)):
        raise ConstraintError("branches must be a tuple of BranchCoordinates with exact fields")
    if type(coords.constant) not in _EXACT:
        raise ConstraintError("the constant must be int or Fraction")
    return _reassemble(coords, *_linear_product((b.pole, b.order) for b in branches))


def _reassemble(coords: HurwitzCoordinates, scale: int, product: tuple[int, ...]) -> RationalFunction:
    """reassemble(coords) for coords past its gates, given the integer form
    (scale, product) of their pole divisor prod (z - z_i)^{k_i}."""
    # (numerator, denominator, integer polynomial) triples whose sum is the
    # numerator times scale
    parts = [(coords.constant.numerator, coords.constant.denominator, product)]
    for b in coords.branches:
        p, q = b.pole.numerator, b.pole.denominator
        factors = [(1, 1), *((a.numerator, a.denominator) for a in b.tail)]  # a_0 .. a_{k-1}
        cofactor, power_num, power_den = product, 1, 1
        for m in range(1, b.order + 1):
            # a_{k-m} (u/(z-z_i))^m is a_{k-m} (q u)^m E_{i,m} / D
            cofactor = _divide_linear(cofactor, p, q)
            power_num, power_den = power_num * q * b.u.numerator, power_den * b.u.denominator
            num, den = factors[b.order - m]
            parts.append((num * power_num, den * power_den, cofactor))
    common = lcm(*(den for _, den, _ in parts))
    total = [0] * len(product)
    for num, den, poly in parts:
        if num:
            times = num * (common // den)
            for k, v in enumerate(poly):
                total[k] += times * v
    numerator = Polynomial._make(_reduced_form(scale * common, total))
    denominator = Polynomial._make((scale, product))
    poles = {b.pole for b in coords.branches}
    if len(poles) == len(coords.branches) and all(b.u for b in coords.branches):
        # the numerator is u^k * others != 0 at each pole, so nothing cancels
        return RationalFunction._make(numerator, denominator)
    return RationalFunction(numerator, denominator)
