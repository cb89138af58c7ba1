"""The argument gates of the public API: integers and exact coefficients.

Every count (m, g, n, a profile part, a partition row, a pole order) must be
exactly an ``int``: a bool, a float, a Fraction, a string or None raises
``ConstraintError``.  Before the gate, ``int()`` truncated floats into a
silently wrong answer, and ``True`` hashed like ``1`` into the memos of
``completed_cycle`` and ``psi_power_sing``.  Coefficients, points and poles
must be exactly an ``int`` or a ``Fraction``, as ``ClassExpr`` already asks.
A class expression must be a ``ClassExpr`` built from marked trees, and its
constructor checks its basis, degree and terms.  The fuzz tests call each
entry point, every callable public name of every submodule, every public method
and operator of a small valid ``Polynomial``, ``RationalFunction``,
``ClassExpr``, ``CycleExpr``, ``XPolynomial`` or ``MarkedTree``, and ``reassemble`` on coordinates built from fuzzed fields,
with such values, and accept only a result or a ``SingclassError``;
``TestArgvFuzz`` in ``test_cli.py`` does the same for the CLI.
"""

from __future__ import annotations

import importlib
import inspect
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import GenericAlias

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import singclass
from singclass import classes, combinatorics, cycles, grammar, notation, trees, verification
from singclass.classes import (
    BASIC,
    SINGULARITY,
    ClassExpr,
    basic_to_sing,
    point_coefficient_psi,
    product_expansion,
    psi_power_sing,
    sing_to_basic,
    substitute,
)
from singclass.combinatorics import (
    central_character,
    character_dimension,
    make_partition,
    make_profile,
    mn_character,
    partitions_of,
    profiles_with_sum,
    profiles_with_sum_and_length,
    shifted_power_sum,
)
from singclass.cycles import (
    CycleExpr,
    completed_cycle,
    evaluate,
    multiply_central,
    point_coefficient_delta,
    rho,
    verify_in_group_algebra,
    x_polynomial,
)
from singclass.combinatorics import XPolynomial
from singclass.errors import ConstraintError, ParseError, SingclassError
from singclass.local_models import (
    BranchCoordinates,
    HurwitzCoordinates,
    Polynomial,
    RationalFunction,
    canonical_function,
    hurwitz_coordinates,
    profile_constants,
)
from singclass.trees import star, stick

SRC = Path(__file__).resolve().parent.parent / "src"
_NOT_INTS = [True, False, 2.0, 2.5, float("nan"), Fraction(2), Fraction(5, 2), "2", None, (2,)]


class TestTheGate:
    @pytest.mark.parametrize("bad", _NOT_INTS, ids=repr)
    @pytest.mark.parametrize(
        "call",
        [
            completed_cycle,
            x_polynomial,
            lambda v: rho(v, (2,)),
            lambda v: shifted_power_sum((2, 1), v),
            lambda v: verify_in_group_algebra((2,), (2,), multiply_central((2,), (2,)), v),
            lambda v: make_profile([v]),
            lambda v: make_partition([v]),
            lambda v: multiply_central((v,), (2,)),
            lambda v: rho(1, (v,)),
            lambda v: central_character((v,), (3,)),
            lambda v: evaluate(CycleExpr.identity(), (v,)),
            lambda v: mn_character((2,), (v,)),
            lambda v: point_coefficient_delta([v], (1,)),
            product_expansion,
            psi_power_sing,
            lambda v: point_coefficient_psi(v, (1,)),
            lambda v: profile_constants((v, 2)),
            lambda v: canonical_function((v,), 0, (1,)),
            lambda v: hurwitz_coordinates(canonical_function((2,), 0, (1,)), (v,), (1,)),
        ],
    )
    def test_anything_but_an_int_is_refused(self, call, bad):
        with pytest.raises(ConstraintError, match="must be an integer"):
            call(bad)

    def test_the_truncated_answers_are_gone(self):
        with pytest.raises(ConstraintError):
            multiply_central((2.5,), (2,))  # was the {2}*{2} product
        with pytest.raises(ConstraintError):
            rho(1, (2.5,))  # was rho(1, (2,)) = 5/24
        with pytest.raises(ConstraintError):
            make_profile(["2"])  # was (2,)

    def test_the_names_only_tests_called_are_gone(self):
        # the polynomial algebra lives in tests/hurwitz_reference.py, and
        # profile_order in tests/test_cycles.py
        for name in ("__add__", "__sub__", "__mul__", "derivative"):
            assert not hasattr(Polynomial, name), name
        assert not hasattr(RationalFunction, "derivative")
        assert not hasattr(combinatorics, "profile_order")
        assert not hasattr(classes, "_expr")

    def test_true_does_not_read_the_memo_of_one(self):
        assert completed_cycle(1) == CycleExpr([((2,), 1)])  # now memoised
        with pytest.raises(ConstraintError):
            completed_cycle(True)  # was the element for m = 1
        assert psi_power_sing(1).degree == 1
        with pytest.raises(ConstraintError):
            psi_power_sing(True)  # was a ClassExpr of degree True

    def test_the_class_side_type_errors_are_gone(self):
        with pytest.raises(ConstraintError):
            psi_power_sing(2.0)  # was a TypeError
        with pytest.raises(ConstraintError):
            product_expansion("3")  # was a TypeError from a comparison
        with pytest.raises(ConstraintError):
            profile_constants((2.5, 1))  # was a TypeError from lcm

    def test_shifted_power_sum_takes_only_a_partition(self):
        with pytest.raises(ConstraintError, match="positive"):
            shifted_power_sum((2, -1), 1)  # was 3
        assert shifted_power_sum((1, 2), 1) == shifted_power_sum((2, 1), 1)

    @pytest.mark.parametrize("bad", [5, None, 2.5])
    def test_a_non_sequence_is_refused(self, bad):
        for call in (make_profile, make_partition, lambda v: multiply_central(v, (2,))):
            with pytest.raises(ConstraintError, match="sequence"):
                call(bad)

    def test_evaluate_and_the_oracle_take_only_a_cycle_expr(self):
        with pytest.raises(ConstraintError, match="CycleExpr"):
            evaluate(cycles.x_polynomial(2), (2,))
        with pytest.raises(ConstraintError, match="CycleExpr"):
            verify_in_group_algebra((2,), (2,), "C[2,2]", 4)

    def test_points_and_poles_are_exact(self):
        with pytest.raises(ConstraintError, match="int or Fraction"):
            canonical_function((1,), 0.5, (1,))
        with pytest.raises(ConstraintError, match="int or Fraction"):
            canonical_function((1,), 0, ("1/2",))
        with pytest.raises(ConstraintError, match="RationalFunction"):
            hurwitz_coordinates("1/z", (1,), (0,))

    def test_ints_still_pass(self):
        assert make_profile([3, 1]) == (1, 3)
        assert make_partition((1, 3)) == (3, 1)
        assert x_polynomial(0).terms == (((1,), 1),)
        assert rho(0, (1,)) == 1
        assert profile_constants((2, 3)).lcm == 6


class TestExactCoefficients:
    """Cycle expressions and x-polynomials, like ClassExpr, hold only ints and
    Fractions: a float once stored its binary value, and a string raised a bare
    TypeError."""

    @pytest.mark.parametrize("c", [0.1, 0.5, True, False, "1/2", None, 1 + 0j])
    @pytest.mark.parametrize("cls", [CycleExpr, XPolynomial], ids=lambda c: c.__name__)
    def test_the_constructor_takes_only_exact_coefficients(self, cls, c):
        with pytest.raises(ConstraintError, match="must be int or Fraction"):
            cls([((2,), c)])
        # also beside an exact coefficient of the same profile
        with pytest.raises(ConstraintError, match="must be int or Fraction"):
            cls([((2,), Fraction(1, 3)), ((2,), c)])

    @pytest.mark.parametrize("c", [0.1, True, "1/2", None])
    def test_scale_takes_only_exact_coefficients(self, c):
        with pytest.raises(ConstraintError, match="must be int or Fraction"):
            completed_cycle(1).scale(c)

    def test_exact_coefficients_stay_exact(self):
        e = CycleExpr([((2,), Fraction(1, 10)), ((1,), 3)])
        assert e.terms == (((2,), Fraction(1, 10)), ((1,), Fraction(3)))
        assert e.scale(2) == CycleExpr([((2,), Fraction(1, 5)), ((1,), 6)])


class TestClassSide:
    """Every one of these raised AttributeError, or returned a ClassExpr of a
    float degree, before the constructor and the entry points checked their
    arguments."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: sing_to_basic(5),
            lambda: basic_to_sing(None),
            lambda: substitute(star(0, [0, 0]), [1, 2]),
            lambda: substitute(star(0, [0, 0]), 5),
            lambda: substitute(5, []),
            lambda: sing_to_basic(ClassExpr(SINGULARITY, 2, ((stick(2), 0.5),))),
            lambda: ClassExpr("nope", 2, ()),
            lambda: ClassExpr(BASIC, 2.0, ()),
            lambda: ClassExpr(BASIC, True, ((stick(1), 1),)),
            lambda: ClassExpr(BASIC, 2, ((2, 1),)),
            lambda: ClassExpr(BASIC, 1, ((stick(2), 1),)),
            lambda: ClassExpr(BASIC, None, ((stick(2), 1),)),
            lambda: ClassExpr.single(BASIC, 3),
            lambda: ClassExpr(BASIC, 2, [(2.0, 1)]),
            lambda: ClassExpr(BASIC, 2, 5),
            lambda: ClassExpr(BASIC, 2, [(stick(2),)]),
            lambda: ClassExpr(BASIC, 2, [[stick(2), 1]]),
            lambda: ClassExpr(BASIC, 2.0, [(stick(2), 1)]),
            lambda: ClassExpr(BASIC, 2.0, []),
            lambda: ClassExpr.zero("nope"),
            lambda: ClassExpr.single("nope", stick(2)),
            lambda: ClassExpr.single(BASIC, stick(2)).mul_xi(2.5),
            lambda: ClassExpr.single(BASIC, stick(2)).mul_xi(True),
        ],
    )
    def test_is_refused(self, call):
        with pytest.raises(ConstraintError):
            call()

    def test_good_arguments_still_pass(self):
        e = ClassExpr(SINGULARITY, 3, ((stick(2), Fraction(1, 2)), (stick(0), 3)))
        assert e.terms == ((stick(0), Fraction(3)), (stick(2), Fraction(1, 2)))  # sorted by encoding
        assert ClassExpr(BASIC, 2, [(stick(2), 1)]) == ClassExpr.single(BASIC, stick(2))
        assert ClassExpr.single(BASIC, stick(2)).mul_xi(2).degree == 4
        assert ClassExpr(BASIC, 2, []) == ClassExpr.zero(BASIC)
        assert sing_to_basic(ClassExpr.zero(SINGULARITY)) == ClassExpr.zero(BASIC)


_SCALARS = st.one_of(
    st.integers(min_value=-2, max_value=4),
    st.booleans(),
    st.floats(min_value=-2, max_value=4),
    st.sampled_from([float("nan"), float("inf")]),
    st.fractions(min_value=-2, max_value=4, max_denominator=3),
    st.sampled_from(["", "2", "x", "{1,2}"]),
    st.none(),
)
_VALUES = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=4).map(tuple), max_leaves=6)
_PROFILE_TERMS = st.lists(
    st.tuples(st.lists(st.integers(1, 4), max_size=3), st.integers(-3, 3)), max_size=3
)
_ELEMENTS = _PROFILE_TERMS.map(CycleExpr)

_BASES = st.sampled_from([BASIC, SINGULARITY])
_TREES = st.sampled_from(trees.enumerate_trees(3))
_PAIRS = st.lists(st.tuples(_TREES, _SCALARS), max_size=3)
_CLASSES = st.builds(
    ClassExpr,
    _BASES,
    st.integers(3, 4),
    st.lists(st.tuples(_TREES, st.integers(-3, 3)), max_size=3),
)

_FUNCTIONS = st.sampled_from([
    canonical_function((1,), 0, (1,)),
    canonical_function((1, 2), 0, (1, 3)),
    canonical_function((2,), Fraction(1, 2), (-1,)),
])

# name -> (callable, one strategy per argument)
CALLS = {
    "make_profile": (make_profile, (_VALUES,)),
    "make_partition": (make_partition, (_VALUES,)),
    "profiles_with_sum": (profiles_with_sum, (_VALUES, _VALUES)),
    "profiles_with_sum_and_length": (profiles_with_sum_and_length, (_VALUES, _VALUES)),
    "partitions_of": (partitions_of, (_VALUES,)),
    "character_dimension": (character_dimension, (_VALUES,)),
    "mn_character": (mn_character, (_VALUES, _VALUES)),
    "central_character": (central_character, (_VALUES, _VALUES)),
    "shifted_power_sum": (shifted_power_sum, (_VALUES, _VALUES)),
    "completed_cycle": (completed_cycle, (_VALUES,)),
    "rho": (rho, (_VALUES, _VALUES)),
    "x_polynomial": (x_polynomial, (_VALUES,)),
    "point_coefficient_delta": (point_coefficient_delta, (_VALUES, _VALUES)),
    "evaluate": (evaluate, (_ELEMENTS | _VALUES, _VALUES)),
    "multiply_central": (multiply_central, (_VALUES, _VALUES)),
    "verify_in_group_algebra": (
        verify_in_group_algebra, (_VALUES, _VALUES, _ELEMENTS | _VALUES, _VALUES),
    ),
    "product_expansion": (product_expansion, (_VALUES,)),
    "psi_power_sing": (psi_power_sing, (_VALUES,)),
    "point_coefficient_psi": (point_coefficient_psi, (_VALUES, _VALUES)),
    "profile_constants": (profile_constants, (_VALUES,)),
    "canonical_function": (canonical_function, (_VALUES, _VALUES, _VALUES)),
    "hurwitz_coordinates": (hurwitz_coordinates, (_FUNCTIONS | _VALUES, _VALUES, _VALUES)),
    "star": (trees.star, (_VALUES, _VALUES)),
    "enumerate_trees": (trees.enumerate_trees, (_VALUES,)),
    "basic_to_sing": (basic_to_sing, (_CLASSES | _VALUES,)),
    "sing_to_basic": (sing_to_basic, (_CLASSES | _VALUES,)),
    "substitute": (substitute, (_TREES | _VALUES, st.lists(_CLASSES | _VALUES, max_size=3) | _VALUES)),
    "ClassExpr": (ClassExpr, (_BASES | _VALUES, _VALUES, _PAIRS | _VALUES)),
    "ClassExpr.single": (ClassExpr.single, (_BASES | _VALUES, _TREES | _VALUES)),
    "mul_xi": (ClassExpr.mul_xi, (_CLASSES, _VALUES)),
}


@pytest.mark.parametrize("name", sorted(CALLS))
@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_every_argument_ends_in_a_result_or_a_singclass_error(name, data):
    function, strategies = CALLS[name]
    args = [data.draw(strategy, label=f"argument {i}") for i, strategy in enumerate(strategies)]
    _call_within_small_budgets(function, args)


# every callable public name of every submodule, the classes included, but
# not the type aliases Profile and Partition
_SUBMODULES = [
    importlib.import_module(f"singclass.{name}")
    for name in ("classes", "combinatorics", "cycles", "grammar", "local_models", "notation",
                 "trees", "verification")
]
PUBLIC = {name: getattr(module, name) for module in _SUBMODULES for name in module.__all__}
PUBLIC = {
    name: value for name, value in PUBLIC.items()
    if callable(value) and not isinstance(value, GenericAlias)
}


@pytest.mark.parametrize("name", sorted(PUBLIC))
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_every_public_name_ends_in_a_result_or_a_singclass_error(name, data):
    function = PUBLIC[name]
    params = inspect.signature(function).parameters.values()
    required = sum(param.default is param.empty for param in params)
    count = data.draw(st.integers(required, len(params)), label="argument count")
    args = [data.draw(_VALUES, label=f"argument {i}") for i in range(count)]
    _call_within_small_budgets(function, args)


_COEFFICIENTS = st.integers(-3, 3) | st.fractions(min_value=-3, max_value=3, max_denominator=4)
_POLYNOMIALS = st.lists(_COEFFICIENTS, max_size=4).map(Polynomial)
_RECEIVERS = {
    Polynomial: _POLYNOMIALS,
    RationalFunction: st.builds(
        RationalFunction, _POLYNOMIALS, _POLYNOMIALS.filter(lambda p: p.coeffs)
    ),
    ClassExpr: _CLASSES,
    CycleExpr: _ELEMENTS,
    XPolynomial: _PROFILE_TERMS.map(XPolynomial),
    trees.MarkedTree: _TREES,
}
# an argument: a small valid value of any receiver class, or a fuzzed value
_ARGUMENTS = st.one_of(*_RECEIVERS.values(), _VALUES)
# the operators a receiver answers to, beside its public methods
_OPERATORS = ("__call__", "__add__", "__sub__", "__mul__", "__eq__")
METHODS = [
    (cls, name)
    for cls in _RECEIVERS
    for name in dir(cls)
    if (not name.startswith("_") or name in _OPERATORS) and callable(getattr(cls, name))
]


@pytest.mark.parametrize("cls, name", METHODS, ids=[f"{c.__name__}.{n}" for c, n in METHODS])
@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_every_method_ends_in_a_result_or_a_singclass_error(cls, name, data):
    method = getattr(data.draw(_RECEIVERS[cls], label="receiver"), name)
    params = inspect.signature(method).parameters.values()
    required = sum(param.default is param.empty for param in params)
    count = data.draw(st.integers(required, len(params)), label="argument count")
    args = [data.draw(_ARGUMENTS, label=f"argument {i}") for i in range(count)]
    _call_within_small_budgets(method, args)


@st.composite
def _coordinates(draw) -> HurwitzCoordinates:
    """Hurwitz coordinates of up to three branches, each field valid (an
    exact pole, u and tail, a tail of order - 1 values) or a fuzzed value."""

    def field(valid):
        return draw(st.just(valid) | _VALUES)

    branches = []
    for _ in range(draw(st.integers(0, 3))):
        order = draw(st.integers(1, 3))
        tail = tuple(draw(_COEFFICIENTS) for _ in range(order - 1))
        branches.append(
            BranchCoordinates(
                field(draw(_COEFFICIENTS)), field(order), field(draw(_COEFFICIENTS)), field(tail)
            )
        )
    return HurwitzCoordinates(field(tuple(branches)), field(draw(_COEFFICIENTS)))


@settings(deadline=None, max_examples=200)
@given(_coordinates())
def test_reassemble_ends_in_a_result_or_a_singclass_error(coords):
    _call_within_small_budgets(singclass.reassemble, [coords])


def _call_within_small_budgets(function, args) -> None:
    """function(*args), which must end in a result or a SingclassError."""
    # small budgets: a product or an oracle check stays under 20 000 point steps
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cycles, "PRODUCT_STEP_BUDGET", 20_000)
        mp.setattr(combinatorics, "CHARACTER_SIZE_BUDGET", 16)
        try:
            function(*args)
        except SingclassError:
            pass


@pytest.mark.parametrize(
    "call",
    [
        lambda: combinatorics.aut_count(0),
        lambda: cycles.genus0_part(0, 0),
        lambda: cycles.genus0_part(CycleExpr.identity(), 0.5),
        lambda: singclass.parse_class(0),
        lambda: singclass.parse_cycles(0),
        lambda: singclass.render_class(0),
        lambda: singclass.render_cycles(0),
        lambda: singclass.reassemble(0),
        lambda: profiles_with_sum_and_length(2, Fraction(1, 2)),
        lambda: profiles_with_sum_and_length(-2, -2),
        lambda: partitions_of(2.5),
        lambda: partitions_of(True),
        lambda: partitions_of([3]),
        lambda: Polynomial.zero().leading(),
        lambda: Polynomial.one().divmod(Polynomial.zero()),
        lambda: RationalFunction(Polynomial.one(), Polynomial([0, 1]))(0),
        lambda: singclass.reassemble(HurwitzCoordinates(0, 0)),
        lambda: singclass.reassemble(HurwitzCoordinates((BranchCoordinates(0.5, 2, 1, ()),), 0)),
        lambda: Polynomial([1, 2])("x"),
        lambda: Polynomial([1]).scale("a"),
        lambda: RationalFunction(Polynomial([1]), Polynomial([1, 1]))("a"),
        lambda: Polynomial([1]).divmod(3),
        lambda: Polynomial([1]).gcd(3),
        lambda: Polynomial([1]).coefficient("a"),
        lambda: Polynomial([1]).scale(0.5),
        lambda: Polynomial([1, 2])(0.5),
        lambda: Polynomial.from_roots([("x", 1)]),
        lambda: Polynomial.from_roots([(1, -1)]),
        lambda: ClassExpr(BASIC, 3, [(stick(3), 1)]) + 0.5,
        lambda: ClassExpr(BASIC, 3, [(stick(3), 1)]) - 0.5,
        lambda: CycleExpr([((2,), 1)]) + 0.5,
        lambda: XPolynomial([((2,), 1)]) * 0.5,
        lambda: verification.check_shifted_power_sums(2.5),
        lambda: verification.check_genus0_equality(1.5),
        lambda: verification.run_suite("ko", "1"),
        lambda: verification.load_fixture_rows("nope.txt"),
        lambda: notation.parse_profile(5),
        lambda: grammar.parse_tree(5),
        lambda: notation.render_xpoly(5),
        lambda: notation.render_xpoly_latex(5),
        lambda: notation.xpoly_to_json(5),
        lambda: notation.format_profile(5),
        lambda: notation.format_partition(5),
        lambda: notation.format_polynomial(5),
        lambda: notation.format_polynomial(psi_power_sing(1)),
        lambda: notation.format_function("1/z"),
        lambda: trees.encoding(5),
        lambda: trees.encoding([]),
    ],
    ids=[
        "aut_count", "genus0_part", "genus0_part m", "parse_class", "parse_cycles",
        "render_class", "render_cycles", "reassemble", "profiles_with_sum_and_length",
        "profiles_with_sum_and_length negative", "partitions_of float", "partitions_of bool",
        "partitions_of list",
        "Polynomial.leading zero",
        "Polynomial.divmod zero", "RationalFunction at a pole", "reassemble branches",
        "reassemble pole", "Polynomial call str", "Polynomial.scale str",
        "RationalFunction call str",
        "Polynomial.divmod int", "Polynomial.gcd int", "Polynomial.coefficient str",
        "Polynomial.scale float", "Polynomial call float", "Polynomial.from_roots str",
        "Polynomial.from_roots negative", "ClassExpr +", "ClassExpr -", "CycleExpr +",
        "XPolynomial *", "check_shifted_power_sums float",
        "check_genus0_equality float", "run_suite str", "load_fixture_rows missing",
        "parse_profile", "parse_tree", "render_xpoly", "render_xpoly_latex", "xpoly_to_json",
        "format_profile", "format_partition", "format_polynomial",
        "format_polynomial ClassExpr", "format_function",
        "encoding", "encoding list",
    ],
)
def test_the_public_names_that_raised_other_errors(call):
    # each raised TypeError, AttributeError, ValueError, ZeroDivisionError,
    # FileNotFoundError or RecursionError, or took a float that
    # ClassExpr.scale refuses
    partitions_of(1)  # True once read this memo entry
    with pytest.raises(ConstraintError):
        call()


def test_the_gated_memos_keep_their_cache_info():
    # partitions_of and encoding gate before their memos (an unhashable
    # argument raised TypeError from lru_cache); the public names still
    # report the memo, whose hit ratio the benchmark reads
    for public, memo in ((partitions_of, combinatorics._partitions_of), (trees.encoding, trees._encoding)):
        assert public.cache_info == memo.cache_info
    before = combinatorics._partitions_of.cache_info()
    partitions_of(3)
    partitions_of(3)
    assert combinatorics._partitions_of.cache_info().hits >= before.hits + 1
    assert trees.encoding(trees.star(0, [0, 1])) == "(0;0,1)"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: verification.check_shifted_power_sums(-1), "verify ko needs --max-m >= 0"),
        (lambda: verification.check_genus0_equality(0), "verify equality needs --max-m >= 1"),
        (lambda: verification.check_roundtrip(-1), "verify roundtrip needs --max-m >= 0"),
    ],
    ids=["ko max_m", "equality", "roundtrip"],
)
def test_a_check_that_would_compare_nothing_is_refused(call, message):
    # a PASS over 0 partitions, [], [] and a pass on 0 generators
    with pytest.raises(ConstraintError, match=message):
        call()


_OVER_THE_CEILING = [
    ("roundtrip", 13, "verify roundtrip --max-m = 13 is over the budget of 12"),
    ("equality", 27, "verify equality --max-m = 27 is over the budget of 26"),
    ("ko", 41, "verify ko --max-m = 41 is over the budget of 40"),
]


@pytest.mark.parametrize(
    "suite, max_m, message", _OVER_THE_CEILING, ids=[suite for suite, _, _ in _OVER_THE_CEILING]
)
def test_a_suite_refuses_a_max_m_over_its_ceiling_before_any_work(suite, max_m, message):
    # from empty memos in a fresh process: the callees' own budgets refused
    # the first two only after 1.6 s and 6.2 s of work, and ko had no
    # ceiling (at --max-m 60 it gave no answer in 40 s)
    code = (
        "import time\n"
        "from singclass import verification\n"
        "from singclass.errors import ConstraintError\n"
        "start = time.perf_counter()\n"
        "try:\n"
        f"    verification.run_suite({suite!r}, {max_m})\n"
        "except ConstraintError as e:\n"
        "    print(time.perf_counter() - start, e, sep='\\n')\n"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], cwd=SRC, capture_output=True, text=True, check=True
    )
    seconds, refusal = result.stdout.splitlines()
    assert refusal == message
    assert float(seconds) < 0.1


def test_a_suite_admits_its_ceiling():
    assert verification._floor("roundtrip", classes.SING_TO_BASIC_BUDGET) == 12
    assert verification._floor("equality", classes.EXPANSION_DEGREE_BUDGET) == 26
    assert verification._floor("ko", cycles.COMPLETED_CYCLE_BUDGET) == 40
    with pytest.raises(ConstraintError, match=_OVER_THE_CEILING[0][2]):
        verification.check_roundtrip(13)
    with pytest.raises(ConstraintError, match=_OVER_THE_CEILING[1][2]):
        verification.check_genus0_equality(27)
    with pytest.raises(ConstraintError, match=_OVER_THE_CEILING[2][2]):
        verification.check_shifted_power_sums(41)


@pytest.mark.parametrize("name", ["nope", [], None])
def test_run_suite_refuses_an_unknown_suite(name):
    # a list raised TypeError from the dict lookup
    with pytest.raises(ParseError, match="unknown verify suite"):
        verification.run_suite(name)
