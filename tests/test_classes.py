"""Class-expansion engine: the product recursion, psi powers, basis changes,
and the point-class coefficient extractors."""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
from fractions import Fraction
from math import factorial, prod
from pathlib import Path

import pytest

from singclass import classes, grammar, notation
from singclass.classes import (
    BASIC,
    SINGULARITY,
    ClassExpr,
    basic_to_sing,
    point_class_tree,
    point_coefficient_psi,
    psi_power_sing,
    sing_to_basic,
    product_expansion,
    substitute,
    _basic_ints,
)
from singclass.combinatorics import aut_count, profiles_with_sum
from singclass.cycles import point_coefficient_delta
from singclass.errors import ConstraintError
from singclass.grammar import class_to_json, parse_class, render_class, render_class_latex
from singclass.trees import enumerate_trees, star, stick

from class_kernel_reference import mul_psi_top, psi_decomposition


SRC = Path(__file__).resolve().parent.parent / "src"


def run_fresh(script: str) -> list[str]:
    """The stdout lines of script run in a fresh ``python -S`` on ``src``."""
    result = subprocess.run(
        [sys.executable, "-S", "-c", script],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


def sing(text: str) -> ClassExpr:
    return parse_class(text, default_basis=SINGULARITY)


def basic(text: str) -> ClassExpr:
    return parse_class(text, default_basis=BASIC)


class TestProductExpansion:
    def test_first_step(self):
        assert product_expansion(1) == sing("a_1")

    def test_second_step(self):
        assert product_expansion(2) == sing("a_2 + 1/2*i[1,1]")

    def test_degree_four(self):
        assert product_expansion(4) == sing(
            "a_4 + 3*i[1,3] + 2*i[2,2] + i[1,1,2] + 1/24*i[1,1,1,1]"
            " + 2/3*psi*i[1,1,1] - 2*xi*i[1,2] - 1/6*xi*i[1,1,1] + 1/2*xi^2*i[1,1]"
        )

    def test_rejects_nonpositive(self):
        with pytest.raises(ConstraintError):
            product_expansion(0)

    def test_recursion_closure(self):
        # the expansion re-derived from an independently built new-profile
        # layer and the previous step, term for term
        for m in range(2, 7):
            layer: dict = {}
            for length in range(2, m + 1):
                for combo in itertools.combinations_with_replacement(
                    range(1, m + 1), length
                ):
                    if sum(combo) != m:
                        continue
                    t = star(0, [k - 1 for k in combo])
                    layer[t] = Fraction(prod(combo), aut_count(combo))
            a_m = ClassExpr.single(SINGULARITY, stick(m))
            a_prev = ClassExpr.single(SINGULARITY, stick(m - 1))
            correction = product_expansion(m - 1) - a_prev
            rebuilt = (
                a_m
                + ClassExpr(SINGULARITY, m, layer.items())
                + mul_psi_top(correction).scale(m)
                - correction.mul_xi(1)
            )
            assert product_expansion(m) == rebuilt

    def test_homogeneity(self):
        for m in range(1, 7):
            assert product_expansion(m).degree == m


class TestPsiDecomposition:
    """The triangular solve of the test reference, which psi_power_sing
    no longer uses."""

    def test_degree_one(self):
        assert psi_decomposition(1) == (Fraction(1), Fraction(1))

    def test_degree_two(self):
        assert psi_decomposition(2) == (Fraction(1), Fraction(3, 2), Fraction(1, 2))

    def test_degree_three(self):
        assert psi_decomposition(3) == (
            Fraction(1),
            Fraction(7, 4),
            Fraction(11, 12),
            Fraction(1, 6),
        )

    def test_boundary_coefficients(self):
        for m in range(0, 9):
            coeffs = psi_decomposition(m)
            assert coeffs[0] == 1
            assert coeffs[m] == Fraction(1, factorial(m))


class TestPsiPowers:
    def test_zeroth_power_is_the_unit(self):
        assert psi_power_sing(0) == ClassExpr.unit(SINGULARITY)

    def test_square(self):
        assert psi_power_sing(2) == sing(
            "1/2*a_2 + 1/4*i[1,1] + 3/2*xi*a_1 + xi^2"
        )

    def test_cube(self):
        assert psi_power_sing(3) == sing(
            "1/6*a_3 + 1/3*i[1,2] + 1/36*i[1,1,1] + 11/12*xi*a_2"
            " + 3/8*xi*i[1,1] + 7/4*xi^2*a_1 + xi^3"
        )

    def test_homogeneity(self):
        for m in range(0, 8):
            assert psi_power_sing(m).degree == m


class TestExpansionBudget:
    @pytest.mark.parametrize("name", ["product_expansion", "psi_power_sing"])
    def test_one_step_over_is_refused_at_once_and_the_budget_is_answered(self, name):
        """From empty memos: m = budget + 1 is refused in under 0.1 s with
        every memo untouched, and m = budget returns within 100 MB."""
        lines = run_fresh(f"""
import resource, time
from singclass import classes
from singclass.errors import ConstraintError
memos = (classes._psi_stick, classes._product_ints, classes._psi_ints)
expand, budget = classes.{name}, classes.EXPANSION_DEGREE_BUDGET
start = time.perf_counter()
try:
    expand(budget + 1)
except ConstraintError as exc:
    print(time.perf_counter() - start, exc)
print(sum(memo.cache_info().currsize for memo in memos))
e = expand(budget)
print(e.degree == budget and len(e.terms) > 1)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024)
""")
        refused, memo_entries, answered, peak_mb = lines
        seconds, message = refused.split(" ", 1)
        budget = classes.EXPANSION_DEGREE_BUDGET
        assert float(seconds) < 0.1
        assert message == f"m = {budget + 1} is over the budget of {budget}"
        assert memo_entries == "0"
        assert answered == "True"
        assert int(peak_mb) < 100


class TestBasisChangeBudget:
    @pytest.mark.parametrize("name,basis,budget_name,dearest", [
        ("basic_to_sing", "BASIC", "BASIC_TO_SING_BUDGET", "star(0, [6, 7, 7])"),
        ("sing_to_basic", "SINGULARITY", "SING_TO_BASIC_BUDGET", "stick(budget)"),
    ], ids=["basic_to_sing", "sing_to_basic"])
    def test_one_step_over_is_refused_at_once_and_the_budget_is_answered(
        self, name, basis, budget_name, dearest
    ):
        """From empty memos: a stick one degree over the budget is refused in
        under 0.1 s with every class memo untouched, and the dearest tree
        timed at the budget is answered within 100 MB."""
        lines = run_fresh(f"""
import resource, time
from singclass import classes
from singclass.classes import ClassExpr
from singclass.errors import ConstraintError
from singclass.trees import star, stick
memos = (classes._psi_stick, classes._product_ints, classes._psi_ints,
         classes._basic_ints, classes._sing_ints)
convert, basis, budget = classes.{name}, classes.{basis}, classes.{budget_name}
over = ClassExpr.single(basis, stick(budget + 1))
start = time.perf_counter()
try:
    convert(over)
except ConstraintError as exc:
    print(time.perf_counter() - start, exc)
print(sum(memo.cache_info().currsize for memo in memos))
e = ClassExpr.single(basis, {dearest})
print(e.degree == budget and len(convert(e).terms) > 1)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024)
""")
        refused, memo_entries, answered, peak_mb = lines
        seconds, message = refused.split(" ", 1)
        budget = getattr(classes, budget_name)
        assert float(seconds) < 0.1
        assert message == f"degree = {budget + 1} is over the budget of {budget}"
        assert memo_entries == "0"
        assert answered == "True"
        assert int(peak_mb) < 100


class TestCancellationHasNoDegree:
    """The builders whose terms can cancel give an empty sum degree None."""

    A = "a_2 - 1/3*xi*a_1 + 1/3*i[1,1]"

    @pytest.mark.parametrize("build", [
        lambda a: a + a.scale(-1),
        lambda a: a - a,
        lambda a: a.scale(0),
        lambda a: substitute(star(1, [0, 0]), [a, sing("a_1")]),
        lambda a: parse_class("a_1 - a_1"),
    ], ids=["a + (-a)", "a - a", "a.scale(0)", "substitute into a vanishing tree", "parse a_1 - a_1"])
    def test_an_empty_sum_has_degree_none(self, build):
        e = build(sing(self.A))
        assert e.is_zero() and e.degree is None
        assert e == ClassExpr.zero(SINGULARITY)


class TestNoWastedRaise:
    def test_the_expansions_leave_no_vanishing_node(self):
        """_psi raises only the trees that stay alive, so the expansions to
        m = 12 intern no vanishing tree."""
        lines = run_fresh("""
from singclass import classes, trees
for m in range(1, 13):
    classes.product_expansion(m)
    classes.psi_power_sing(m)
nodes = set(trees._NODES.values())
print(len(nodes), sum(t.vanishing for t in nodes))
""")
        nodes, dead = map(int, lines[0].split())
        assert nodes > 500 and dead == 0


class TestBasicToSing:
    def test_codim_two(self):
        assert basic_to_sing(basic("d[0,0]")) == sing("i[1,1]")

    def test_codim_three(self):
        assert basic_to_sing(basic("d[0,1]")) == sing("i[1,2] + xi*i[1,1]")

    def test_codim_five(self):
        assert basic_to_sing(basic("d[1,2]")) == sing(
            "1/2*i[2,3] + 1/4*psi*i[1,1,2] + 1/2*xi*i[1,3] + 3/2*xi*i[2,2]"
            " + 1/4*xi*psi*i[1,1,1] + 5/2*xi^2*i[1,2] + xi^3*i[1,1]"
        )

    def test_sticks_become_psi_powers(self):
        assert basic_to_sing(ClassExpr.single(BASIC, stick(2))) == psi_power_sing(2)

    def test_all_zero_leaf_trees_are_fixed(self):
        e = basic("T{(1;0,0,(0;0,0))}@basic")
        out = basic_to_sing(e)
        assert out.terms == e.terms
        assert out.basis == SINGULARITY

    def test_requires_basic_input(self):
        with pytest.raises(ConstraintError):
            basic_to_sing(sing("i[1,1]"))


class TestSingToBasic:
    def test_codim_two(self):
        assert sing_to_basic(sing("i[1,1]")) == basic("d[0,0]")

    def test_a2(self):
        assert sing_to_basic(sing("a_2")) == basic(
            "2*psi^2 - 1/2*d[0,0] - 3*xi*psi + xi^2"
        )

    def test_i13(self):
        assert sing_to_basic(sing("i[1,3]")) == basic(
            "2*d[0,2] - 1/2*psi*d[0,0,0] - 3*xi*d[0,1] + xi^2*d[0,0]"
        )

    def test_requires_singularity_input(self):
        with pytest.raises(ConstraintError):
            sing_to_basic(basic("d[0,0]"))


class TestRoundTrips:
    def test_psi_powers_come_back_as_sticks(self):
        for m in range(0, 7):
            assert sing_to_basic(psi_power_sing(m)) == ClassExpr.single(
                BASIC, stick(m)
            )

    def test_small_generators_round_trip(self):
        for t in enumerate_trees(4):
            b = ClassExpr.single(BASIC, t)
            assert sing_to_basic(basic_to_sing(b)) == b
            s = ClassExpr.single(SINGULARITY, t)
            assert basic_to_sing(sing_to_basic(s)) == s

    def test_linearity_of_the_round_trip(self):
        e = basic("d[0,2] - 3*xi*d[0,1] + xi^2*d[0,0]")
        assert sing_to_basic(basic_to_sing(e)) == e

    def test_one_term_conversions_equal_the_sum_route(self):
        # a single tree with coefficient 1 takes its memoised row as it is;
        # _sum of that row alone must give the same integer form and class
        directions = (
            (BASIC, SINGULARITY, basic_to_sing, classes._basic_ints),
            (SINGULARITY, BASIC, sing_to_basic, classes._sing_ints),
        )
        for t in enumerate_trees(8):
            for source, target, convert, table in directions:
                for e in (ClassExpr.single(source, t), ClassExpr.single(source, t).mul_xi(1)):
                    row = classes._convert(e, table)
                    assert row == classes._sum([(1, 1, table(t))])
                    assert convert(e) == classes.ClassExpr._make(target, e.degree, row)


class TestTriangularity:
    def test_basic_expansion_terms_below_the_tree_have_smaller_weight(self):
        # _sing_ints recurses into every other term of the expansion, so none
        # may sit at the tree's own weight or above it
        for t in enumerate_trees(8):
            for t2, _ in _basic_ints(t)[1]:
                assert t2 is t or t2.weight < t.weight, (t, t2)

    def test_the_tree_itself_has_the_factorial_coefficient(self):
        for t in enumerate_trees(8):
            den, terms = _basic_ints(t)
            expected = Fraction(1, prod(factorial(m) for m in t.leaves))
            assert Fraction(dict(terms)[t], den) == expected

    def test_a_term_at_the_tree_s_own_weight_is_refused(self, monkeypatch):
        # two trees of weight 3 whose rows name each other: without the guard,
        # _sing_ints would recurse from one to the other without end
        a, b = star(0, [1, 2]), star(0, [0, 3])
        rows = {a: (1, ((a, 1), (b, 1))), b: (1, ((b, 1), (a, 1)))}
        monkeypatch.setattr(classes, "_basic_ints", rows.__getitem__)
        classes._sing_ints.cache_clear()
        try:
            with pytest.raises(RuntimeError, match="weight 3 >= 3"):
                sing_to_basic(ClassExpr.single(SINGULARITY, a))
        finally:
            classes._sing_ints.cache_clear()


class TestPointCoefficients:
    @pytest.mark.parametrize(
        "m,profile,expected",
        [
            (2, (1, 1), Fraction(1, 4)),
            (3, (1, 2), Fraction(1, 3)),
            (4, (1, 1, 1), Fraction(1, 36)),
            (4, (1, 3), Fraction(1, 8)),
            (5, (1, 1, 2), Fraction(1, 24)),
        ],
    )
    def test_closed_form(self, m, profile, expected):
        assert point_coefficient_psi(m, profile) == expected

    def test_raw_variant_restores_the_m_factorial(self):
        assert point_coefficient_psi(4, (1, 1, 1), raw=True) == Fraction(2, 3)

    def test_dimension_constraint(self):
        with pytest.raises(ConstraintError):
            point_coefficient_psi(3, (1, 1))

    def test_matches_extraction_from_psi_powers(self):
        for m in range(1, 9):
            expansion = psi_power_sing(m)
            for length in range(1, m + 2):
                total = m + 2 - length
                if total < length:
                    break
                for p in profiles_with_sum(total):
                    if len(p) != length:
                        continue
                    extracted = expansion.coefficient_at(point_class_tree(p), 0)
                    assert extracted == point_coefficient_psi(m, p)

    @pytest.mark.parametrize(
        "t, q",
        [(stick(1), True), (stick(1), 1.0), (stick(1), "1"), (5, 1)],
        ids=["bool", "float", "str", "int tree"],
    )
    def test_coefficient_at_refuses_what_is_no_tree_or_no_int(self, t, q):
        # gave 3/2, 3/2, 0 and 0
        with pytest.raises(ConstraintError):
            psi_power_sing(2).coefficient_at(t, q)

    def test_coefficient_at_reads_the_xi_power(self):
        e = psi_power_sing(2)
        assert e.coefficient_at(stick(1), 1) == Fraction(3, 2)
        assert e.coefficient_at(stick(1), 0) == 0
        assert ClassExpr.zero(SINGULARITY).coefficient_at(stick(1), 1) == 0

    @pytest.mark.parametrize(
        "ms,profile,expected",
        [
            ([1, 1], (2, 2), Fraction(1)),
            ([0, 2], (1, 3), Fraction(1, 2)),
            ([0, 2], (1, 1, 1), Fraction(1, 4)),
        ],
    )
    def test_delta_coefficients(self, ms, profile, expected):
        assert point_coefficient_delta(ms, profile) == expected

    def test_delta_dimension_constraint(self):
        with pytest.raises(ConstraintError):
            point_coefficient_delta([0, 2], (1, 1))


class TestClassExpr:
    def test_rejects_inhomogeneous_terms(self):
        with pytest.raises(ConstraintError):
            ClassExpr(
                SINGULARITY, 1, [(stick(1), Fraction(1)), (stick(2), Fraction(1))]
            )
        with pytest.raises(ConstraintError, match=r"total degrees \[1, 2\]"):
            ClassExpr.single(SINGULARITY, stick(1)) + ClassExpr.single(SINGULARITY, stick(2))

    def test_basis_mismatch_on_addition(self):
        with pytest.raises(ConstraintError):
            ClassExpr.unit(SINGULARITY) + ClassExpr.unit(BASIC)

    def test_psi_multiplication_drops_dead_terms(self):
        e = ClassExpr.single(SINGULARITY, star(0, [0, 0]))
        assert mul_psi_top(e).is_zero()

    def test_psi_multiplication_rejects_sticks(self):
        with pytest.raises(ConstraintError):
            mul_psi_top(ClassExpr.single(SINGULARITY, stick(1)))

    def test_zero_handling(self):
        z = ClassExpr.zero(SINGULARITY)
        assert z.degree is None
        assert (z + z).is_zero()
        assert sing_to_basic(z).is_zero()

    @pytest.mark.parametrize("c", [0.1, 0.5, True, False, "1/2", None, 1 + 0j])
    def test_scale_takes_only_exact_coefficients(self, c):
        e = ClassExpr.single(SINGULARITY, stick(2))
        with pytest.raises(ConstraintError, match="must be int or Fraction"):
            e.scale(c)

    @pytest.mark.parametrize("c", [0.5, True, "1/2", None, 1 + 0j])
    def test_the_constructor_takes_only_exact_coefficients(self, c):
        with pytest.raises(ConstraintError, match="must be int or Fraction"):
            ClassExpr(SINGULARITY, 2, [(stick(2), c)])
        # also beside an exact coefficient of the same tree
        with pytest.raises(ConstraintError, match="must be int or Fraction"):
            ClassExpr(SINGULARITY, 2, [(stick(2), Fraction(1, 3)), (stick(2), c)])

    def test_exact_coefficients_stay_exact(self):
        e = ClassExpr.single(SINGULARITY, stick(2))
        assert e.scale(Fraction(1, 10)).terms == ((stick(2), Fraction(1, 10)),)
        assert e.scale(3).terms == ((stick(2), Fraction(3)),)
        assert ClassExpr(SINGULARITY, 2, [(stick(2), 2)]) == e.scale(2)


class TestIntegerFormOnly:
    def test_the_class_kernels_build_no_fraction(self, monkeypatch):
        # with Fraction a stub that raises in classes and in notation, whose
        # parser and joiner the class text runs on (grammar imports no
        # Fraction), and the class memos emptied, every kernel, parse_class
        # and the three class renderers give what they gave with it
        outer, text = star(0, [0, 1]), "2/4*a_2 - 1/3*xi*a_1 + 3/2*i[1,1] + 5*xi^2 + a_2"
        grafts = [psi_power_sing(2), product_expansion(1) - product_expansion(1).scale(3)]

        def run() -> list:
            out = []
            for m in range(1, 9):
                out += [product_expansion(m), psi_power_sing(m)]
            for t in enumerate_trees(6):
                for source, there, back in (
                    (BASIC, basic_to_sing, sing_to_basic),
                    (SINGULARITY, sing_to_basic, basic_to_sing),
                ):
                    one = there(ClassExpr.single(source, t))  # the memoised row
                    out += [one, back(one), there(ClassExpr.single(source, t).scale(3))]
            out += [substitute(outer, grafts), parse_class(text)]
            for e in out[:16] + out[-2:]:
                out += [render_class(e), render_class_latex(e), class_to_json(e)]
            return out

        expected = run()

        def refuse(*args):
            raise AssertionError("a Fraction was built")

        monkeypatch.setattr(classes, "Fraction", refuse)
        assert not hasattr(grammar, "Fraction")
        monkeypatch.setattr(notation, "Fraction", refuse)
        for memo in (classes._psi_stick, classes._product_ints, classes._psi_ints,
                     classes._basic_ints, classes._sing_ints):
            memo.cache_clear()
        assert run() == expected
