"""The Hurwitz coordinates as they were read before the integer Taylor rows:
a test-only reference.  ``tests/test_local_models.py`` checks that
``singclass.local_models.hurwitz_coordinates`` returns the same coordinates,
and refuses the same models with the same message.

At each pole z_i of order k, this route shifts the numerator to z_i + t as a
truncated series, builds the other poles' factors there as a second series,
inverts that one and multiplies: the Laurent coefficient of t^-s is the
t^(k-s) coefficient of the product.  Every series is a plain list of
Fractions, and the code follows the route step for step.  ``product``, the
truncated series product, also builds the series reference of ``rho`` in
``tests/test_cycles.py``.

``orbit_count`` is the brute-force count that ``profile_constants(p).components``
is checked against: it was a public name of ``local_models`` that no engine
code called, and it enumerates all prod(p) points.

``add``, ``sub``, ``mul`` and ``derivative`` of Polynomials, and
``function_derivative`` of a RationalFunction by the quotient rule, are the
polynomial algebra that ``local_models.Polynomial`` and ``RationalFunction``
once carried as methods (``+``, ``-``, ``*`` and ``derivative``) and no
engine code called; the tests build and differentiate functions with them.
``divide`` and ``gcd`` are ``Polynomial.divmod`` and ``Polynomial.gcd`` as
they were on Fraction coefficients, before ``Polynomial`` stored an integer
row over one denominator: long division and Euclid's algorithm, one Fraction
operation at a time.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from fractions import Fraction
from math import lcm

from singclass import local_models
from singclass.errors import ConstraintError, SingclassError, _fractions
from singclass.local_models import (
    BranchCoordinates,
    HurwitzCoordinates,
    Polynomial,
    RationalFunction,
)


def orbit_count(p: Sequence[int]) -> int:
    """Orbits of the cyclic group of order lcm(p) acting on the product of
    cyclic groups of orders k_i, the generator adding (lcm/k_i) in slot i."""
    constants = local_models.profile_constants(p)
    seen: set[tuple[int, ...]] = set()
    count = 0
    for point in itertools.product(*(range(k) for k in p)):
        if point in seen:
            continue
        count += 1
        for t in range(constants.lcm):
            seen.add(
                tuple(
                    (x + t * r) % k
                    for x, r, k in zip(point, constants.exponents, p)
                )
            )
    return count


def add(p: Polynomial, q: Polynomial) -> Polynomial:
    pairs = itertools.zip_longest(p.coeffs, q.coeffs, fillvalue=Fraction(0))
    return Polynomial(a + b for a, b in pairs)


def sub(p: Polynomial, q: Polynomial) -> Polynomial:
    pairs = itertools.zip_longest(p.coeffs, q.coeffs, fillvalue=Fraction(0))
    return Polynomial(a - b for a, b in pairs)


def mul(p: Polynomial, q: Polynomial) -> Polynomial:
    out = [Fraction(0)] * max(len(p.coeffs) + len(q.coeffs) - 1, 0)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return Polynomial(out)


def derivative(p: Polynomial) -> Polynomial:
    return Polynomial(k * c for k, c in enumerate(p.coeffs) if k >= 1)


def function_derivative(f: RationalFunction) -> RationalFunction:
    """(n/d)' = (n' d - n d') / d^2."""
    n, d = f.numerator, f.denominator
    return RationalFunction(sub(mul(derivative(n), d), mul(n, derivative(d))), mul(d, d))


def divide(p: Polynomial, q: Polynomial) -> tuple[Polynomial, Polynomial]:
    rem, ddeg = list(p.coeffs), q.degree
    quot = [Fraction(0)] * max(len(rem) - ddeg, 0)
    for shift in reversed(range(len(quot))):  # clear rem[shift + ddeg]
        factor = quot[shift] = rem[shift + ddeg] / q.coeffs[-1]
        for i, c in enumerate(q.coeffs):
            rem[shift + i] -= factor * c
    return Polynomial(quot), Polynomial(rem[:ddeg])


def gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """The last nonzero remainder of Euclid's algorithm."""
    while q.coeffs:
        p, q = q, divide(p, q)[1]
    return p


def taylor(poly: Polynomial, at: Fraction, order: int) -> list[Fraction]:
    """Coefficients of p(at + t) as a series in t, truncated at t^order.

    With at = r/s and c_i = n_i / L over the common denominator L,
    L s^deg p(at + t) = sum n_i s^(deg-i) (r + s t)^i is an integer
    polynomial in t, summed by Horner's rule and divided out once."""
    r, s = at.numerator, at.denominator
    common = lcm(*(c.denominator for c in poly.coeffs))
    out, s_power = [0] * (order + 1), 1
    for c in reversed(poly.coeffs):
        for j in range(order, 0, -1):
            out[j] = out[j] * r + out[j - 1] * s
        out[0] = out[0] * r + c.numerator * (common // c.denominator) * s_power
        s_power *= s
    scale = common * s ** max(len(poly.coeffs) - 1, 0)
    return [Fraction(v, scale) for v in out]


def cofactor_series(pairs: list[tuple[Fraction, int]], i: int, order: int) -> list[Fraction]:
    """prod_{j != i} (z_i - z_j + t)^{k_j}, the other poles' factors at
    z = z_i + t, as a series in t truncated at t^order."""
    z_i = pairs[i][0]
    coeffs, scale = [1] + [0] * order, 1
    for j, (z_j, k_j) in enumerate(pairs):
        if j == i:
            continue
        diff = z_i - z_j
        p, q = diff.numerator, diff.denominator
        for _ in range(k_j):
            coeffs = [p * c + q * b for c, b in zip(coeffs, [0, *coeffs])]
        scale *= q**k_j
    return [Fraction(c, scale) for c in coeffs]


def inverse(series: list[Fraction]) -> list[Fraction]:
    """The multiplicative inverse of a series with a nonzero constant term."""
    inv = [Fraction(0)] * len(series)
    inv[0] = 1 / series[0]
    for n in range(1, len(series)):
        acc = Fraction(0)
        for k in range(1, n + 1):
            acc += series[k] * inv[n - k]
        inv[n] = -acc / series[0]
    return inv


def product(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """a * b, truncated at the order of a (a and b have the same length)."""
    out = [Fraction(0)] * len(a)
    for i, x in enumerate(a):
        if x:
            for j in range(len(a) - i):
                if b[j]:
                    out[i + j] += x * b[j]
    return out


def hurwitz_coordinates(
    f: RationalFunction, p: Sequence[int], poles: Sequence[Fraction | int]
) -> HurwitzCoordinates:
    if not isinstance(f, RationalFunction):
        raise ConstraintError(f"hurwitz_coordinates needs a RationalFunction, not {f!r}")
    orders = local_models._budgeted_orders(p)
    points = _fractions(poles, "poles")
    if len(points) != len(orders) or len(set(points)) != len(points):
        raise ConstraintError("need pairwise distinct poles, one per branch")
    pairs = list(zip(points, orders))
    expected_den = Polynomial.from_roots(pairs)
    if f.denominator != expected_den:
        raise ConstraintError(
            "pole-order mismatch: denominator is not the prescribed pole divisor"
        )
    num_deg = f.numerator.degree if f.numerator.degree is not None else -1
    den_deg = expected_den.degree
    if num_deg > den_deg:
        raise ConstraintError("function has a pole at infinity beyond a constant")
    constant = f.numerator.coefficient(den_deg)

    branches = []
    for i, (z_i, k) in enumerate(pairs):
        others = cofactor_series(pairs, i, k - 1)
        series = product(taylor(f.numerator, z_i, k - 1), inverse(others))
        laurent = [series[k - s] for s in range(1, k + 1)]
        lead = laurent[k - 1]
        root = local_models._rational_kth_root(lead, k)
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
    if local_models.reassemble(coords) != f:
        raise SingclassError("reassembly identity failed; decomposition is broken")
    return coords
