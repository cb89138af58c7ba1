"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every comparison is exact rational equality; the stated runtime ceilings are
asserted on a monotonic clock.  Run with ``pytest -s tests/test_acceptance.py``
to see the per-criterion lines.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from math import prod

import hurwitz_reference

from singclass import classes, cycles, grammar, local_models, trees, verification
from singclass.classes import (
    BASIC,
    basic_to_sing,
    point_class_tree,
    sing_to_basic,
)
from singclass.combinatorics import partitions_of, profiles_with_sum, shifted_power_sum
from singclass.cycles import point_coefficient_delta


class _Criterion:
    def __init__(self, number: int, description: str, limit_seconds: float):
        self.number = number
        self.description = description
        self.limit = limit_seconds
        self.start = None
        self.elapsed = None

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(
            f"ACCEPTANCE {self.number}: {status} {self.description}"
            f" ({self.elapsed:.2f}s, limit {self.limit:g}s)"
        )
        if exc_type is None:
            assert self.elapsed < self.limit, (
                f"criterion {self.number} exceeded its runtime ceiling:"
                f" {self.elapsed:.2f}s >= {self.limit:g}s"
            )
        return False


def _assert_all(results):
    failed = [r for r in results if not r.passed]
    assert not failed, "\n".join(r.line() for r in failed)


def test_criterion_1_product_expansions():
    with _Criterion(1, "product expansions m=1..5 match the golden table", 1.0):
        results = verification.check_product_expansions()
        assert len(results) == 5
        _assert_all(results)


def test_criterion_2_psi_power_expansions():
    with _Criterion(2, "psi-power expansions m=1..5 match the golden table", 1.0):
        results = verification.check_psi_powers()
        assert len(results) == 5
        _assert_all(results)
        # the mixed terms called out explicitly
        psi4 = classes.psi_power_sing(4)
        assert psi4.coefficient_at(trees.star(1, [0, 0, 0]), 0) == Fraction(1, 36)
        psi5 = classes.psi_power_sing(5)
        assert psi5.coefficient_at(trees.star(0, [0, 0, 0, 0]), 1) == Fraction(25, 6912)


def test_criterion_3_basic_to_sing_rows():
    with _Criterion(
        3,
        "basic classes of codim <= 5 expand to the listed singularity rows",
        5.0,
    ):
        results = verification.check_basic_to_sing()
        assert len(results) == 17
        _assert_all(results)


def test_criterion_4_sing_to_basic_rows():
    with _Criterion(4, "singularity classes of codim <= 4 invert exactly", 5.0):
        results = verification.check_sing_to_basic()
        assert len(results) == 12
        _assert_all(results)
        # the big inversion row has its 13 terms
        a4 = sing_to_basic(grammar.parse_class("a_4"))
        assert len(a4.monomials()) == 13


def test_criterion_5_round_trip():
    with _Criterion(
        5, "both basis changes compose to the identity up to codim 8", 30.0
    ):
        _assert_all(verification.check_roundtrip(8))


def test_criterion_6_completed_cycles():
    with _Criterion(6, "completed cycles m=0..4 match the golden table", 1.0):
        results = verification.check_completed_cycles()
        assert len(results) == 5
        _assert_all(results)
        total_terms = sum(len(cycles.completed_cycle(m).terms) for m in (2, 3, 4))
        assert total_terms == 13
        c5 = cycles.completed_cycle(4)
        assert c5.coefficient((3,)) == Fraction(11, 48)
        assert c5.coefficient((1, 1)) == Fraction(1, 32)
        assert c5.coefficient((1,)) == Fraction(1, 1920)


def test_criterion_7_shifted_power_sums():
    with _Criterion(
        7,
        "completed-cycle evaluation equals shifted power sums, m<=5, |lambda|<=8",
        60.0,
    ):
        assert len(partitions_of(8)) == 22
        for m in range(0, 6):
            element = cycles.completed_cycle(m)
            for size in range(0, 9):
                for lam in partitions_of(size):
                    assert cycles.evaluate(element, lam) == shifted_power_sum(lam, m)


def test_criterion_8_class_algebra_product():
    with _Criterion(
        8, "C_2 * C_2 identity, verified brute-force in S_4 and S_5", 30.0
    ):
        product = cycles.multiply_central((2,), (2,))
        assert product == grammar.parse_cycles("C[2,2] + 3*C[3] + 1/2*C[1,1]")
        assert cycles.verify_in_group_algebra((2,), (2,), product, 4)
        assert cycles.verify_in_group_algebra((2,), (2,), product, 5)


def test_criterion_9_genus0_equality():
    with _Criterion(
        9, "genus-0 cycle coefficients equal psi-power point coefficients, m<=6", 5.0
    ):
        for m in range(1, 7):
            assert verification.genus0_equality_check(m)


def test_criterion_10_delta_point_coefficients():
    with _Criterion(
        10,
        "delta point coefficients match extraction from the basic-to-sing rows",
        5.0,
    ):
        checked = 0
        for row in verification.load_fixture_rows("basic_to_sing.txt"):
            lhs = grammar.parse_class(row[0], default_basis=BASIC)
            (lhs_tree, poly), = lhs.terms
            ms = sorted(c.marking for c in lhs_tree.children)
            if lhs_tree.marking != len(ms) - 2:
                continue  # not a point class over its node locus
            expansion = basic_to_sing(lhs)
            target = 2 * len(ms) + sum(ms)
            for length in range(1, target + 1):
                total = target - length
                if total < length:
                    break
                for p in profiles_with_sum(total):
                    if len(p) != length:
                        continue
                    extracted = expansion.coefficient_at(point_class_tree(p), 0)
                    assert extracted == point_coefficient_delta(ms, p)
                    checked += 1
        assert checked >= 20
        # the two headline values
        assert point_coefficient_delta([0, 2], (1, 3)) == Fraction(1, 2)
        assert point_coefficient_delta([0, 2], (1, 1, 1)) == Fraction(1, 4)


def test_criterion_11_local_models():
    with _Criterion(
        11,
        "component counts match orbit enumeration; 100 reassembly round trips",
        10.0,
    ):
        for total in range(1, 9):
            for p in profiles_with_sum(total):
                constants = local_models.profile_constants(p)
                assert constants.components * constants.lcm == prod(p)
                assert constants.components == hurwitz_reference.orbit_count(p)
        rng = random.Random(8128)
        for _ in range(100):
            length = rng.randint(1, 4)
            orders = [rng.randint(1, 4) for _ in range(length)]
            poles = rng.sample([Fraction(v) for v in range(-8, 9)], length)
            branches = []
            for pole, k in zip(poles, orders):
                u = Fraction(0)
                while u == 0:
                    u = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                if k % 2 == 0:
                    u = abs(u)
                tail = tuple(
                    Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                    for _ in range(k - 1)
                )
                branches.append(local_models.BranchCoordinates(pole, k, u, tail))
            coords = local_models.HurwitzCoordinates(
                tuple(branches), Fraction(rng.randint(-4, 4))
            )
            f = local_models.reassemble(coords)
            recovered = local_models.hurwitz_coordinates(
                f, tuple(orders), tuple(poles)
            )
            assert recovered == coords
            assert local_models.reassemble(recovered) == f
