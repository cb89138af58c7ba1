"""The value semantics of singclass's record classes.

Each record compares equal only to an instance of its own class with equal
fields, hashes like the tuple of its fields, shows every field in its repr,
refuses writes after construction, and takes its fields positionally or by
keyword.  It is no tuple: it never equals the tuple of its fields.  The one
exception is the hash of a ``MarkedTree``: trees are interned, so equal
fields give the same object, which hashes by identity.
"""

from __future__ import annotations

import copy
import importlib
import pickle
from fractions import Fraction

import pytest

from singclass import grammar
from singclass.classes import ClassExpr
from singclass.combinatorics import _ProfileTerms
from singclass.cycles import CycleExpr, XPolynomial, evaluate
from singclass.errors import Record
from singclass.local_models import (
    BranchCoordinates,
    HurwitzCoordinates,
    Polynomial,
    ProfileConstants,
    RationalFunction,
)
from singclass.notation import _Style
from singclass.trees import MarkedTree, stick
from singclass.verification import CheckResult

_F = Fraction
_BRANCH = (_F(1), 2, _F(3), (_F(5),))

# class, field names, field values, the repr of the instance they make
CASES = [
    (
        MarkedTree, ("marking", "children"), (1, (stick(0), stick(2))),
        "MarkedTree(marking=1, children=(MarkedTree(marking=0, children=()), "
        "MarkedTree(marking=2, children=())))",
    ),
    (
        ClassExpr, ("basis", "degree", "terms"),
        ("singularity", 2, ((stick(2), _F(1, 2)),)),
        "ClassExpr(basis='singularity', degree=2, "
        "terms=((MarkedTree(marking=2, children=()), Fraction(1, 2)),))",
    ),
    (
        _ProfileTerms, ("terms",), ((((2,), _F(3)),),),
        "_ProfileTerms(terms=(((2,), Fraction(3, 1)),))",
    ),
    (
        CycleExpr, ("terms",), ((((1, 2), _F(-1, 4)),),),
        "CycleExpr(terms=(((1, 2), Fraction(-1, 4)),))",
    ),
    (
        XPolynomial, ("terms",), ((((3,), _F(1, 6)),),),
        "XPolynomial(terms=(((3,), Fraction(1, 6)),))",
    ),
    (
        Polynomial, ("coeffs",), ((_F(-1), _F(1)),),
        "Polynomial(coeffs=(Fraction(-1, 1), Fraction(1, 1)))",
    ),
    (
        RationalFunction, ("numerator", "denominator"),
        (Polynomial((_F(2),)), Polynomial((_F(-1), _F(1)))),
        "RationalFunction(numerator=Polynomial(coeffs=(Fraction(2, 1),)), "
        "denominator=Polynomial(coeffs=(Fraction(-1, 1), Fraction(1, 1))))",
    ),
    (
        BranchCoordinates, ("pole", "order", "u", "tail"), _BRANCH,
        "BranchCoordinates(pole=Fraction(1, 1), order=2, u=Fraction(3, 1), "
        "tail=(Fraction(5, 1),))",
    ),
    (
        HurwitzCoordinates, ("branches", "constant"),
        ((BranchCoordinates(*_BRANCH),), _F(2)),
        "HurwitzCoordinates(branches=(BranchCoordinates(pole=Fraction(1, 1), "
        "order=2, u=Fraction(3, 1), tail=(Fraction(5, 1),)),), constant=Fraction(2, 1))",
    ),
    (
        ProfileConstants, ("lcm", "exponents", "components"), (6, (3, 2), 1),
        "ProfileConstants(lcm=6, exponents=(3, 2), components=1)",
    ),
    (
        _Style, ("coeff", "sep", "spell"), (str, "*", {"a": "a_{}"}),
        "_Style(coeff=<class 'str'>, sep='*', spell={'a': 'a_{}'})",
    ),
    (
        CheckResult, ("name", "passed", "detail"), ("row 1", False, "why"),
        "CheckResult(name='row 1', passed=False, detail='why')",
    ),
]

_IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls,names,values,text", CASES, ids=_IDS)
def test_repr_shows_every_field(cls, names, values, text):
    assert repr(cls(*values)) == text


@pytest.mark.parametrize("cls,names,values,text", CASES, ids=_IDS)
def test_positional_and_keyword_construction_agree(cls, names, values, text):
    by_keyword = cls(**dict(zip(names, values)))
    assert by_keyword == cls(*values)
    assert tuple(getattr(by_keyword, name) for name in names) == values


@pytest.mark.parametrize("cls,names,values,text", CASES, ids=_IDS)
def test_equality_is_by_class_and_fields(cls, names, values, text):
    record = cls(*values)
    twin = cls(*copy.deepcopy(values))
    assert record == twin and not record != twin
    assert record != values and values != record
    others = [cls2(*values2) for cls2, _, values2, _ in CASES if cls2 is not cls]
    assert all(record != other and other != record for other in others)


def _record_classes() -> set[type]:
    """Every subclass of Record defined in the singclass package."""
    found, todo = set(), [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.startswith("singclass.") and sub not in found:
                found.add(sub)
                todo.append(sub)
    return found


def test_every_record_class_has_a_case():
    for name in ("classes", "combinatorics", "cycles", "local_models", "notation", "trees", "verification"):
        importlib.import_module(f"singclass.{name}")
    assert _record_classes() == {case[0] for case in CASES}


@pytest.mark.parametrize("cls,names,values,text", CASES, ids=_IDS)
def test_make_on_the_stored_values_builds_the_constructor_s_value(cls, names, values, text):
    # _make sets the slots that _stored names (the fields unless the class
    # names others) through the setters the class looked up once; a tree's
    # _make is its constructor, so it returns the one interned node
    record = cls(*values)
    slots = getattr(cls, "_stored", names)
    stored = tuple(getattr(record, name) for name in slots)
    made = cls._make(*stored)
    assert type(made) is cls
    assert tuple(getattr(made, name) for name in slots) == stored
    assert tuple(getattr(made, name) for name in names) == tuple(getattr(record, name) for name in names)
    assert repr(made) == repr(record)
    assert made == record


def test_profile_term_classes_differ_on_equal_terms():
    terms = (((2,), _F(1)),)
    records = [_ProfileTerms(terms), CycleExpr(terms), XPolynomial(terms)]
    for i, a in enumerate(records):
        for j, b in enumerate(records):
            assert (a == b) is (i == j)


@pytest.mark.parametrize("cls,names,values,text", CASES, ids=_IDS)
def test_hash_is_the_hash_of_the_fields(cls, names, values, text):
    record = cls(*values)
    if cls is _Style:
        # a dict field is unhashable, so the record is too
        with pytest.raises(TypeError):
            hash(record)
        return
    if cls is MarkedTree:
        # trees are interned: equal fields give the same object, hashed by identity
        assert hash(record) == hash(MarkedTree(*values))
        assert record is MarkedTree(*values)
    else:
        assert hash(record) == hash(values)
    assert hash(record) == hash(cls(*copy.deepcopy(values)))


@pytest.mark.parametrize("cls,names,values,text", CASES, ids=_IDS)
def test_fields_refuse_writes(cls, names, values, text):
    record = cls(*values)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert tuple(getattr(record, name) for name in names) == values


@pytest.mark.parametrize("cls,names,values,text", CASES, ids=_IDS)
def test_copy_and_pickle_keep_the_value(cls, names, values, text):
    record = cls(*values)
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


def test_a_cycle_expr_keeps_no_trace_of_evaluate():
    # evaluate stores an integer row in a private slot; it is no field
    terms = (((1, 2), _F(-1, 4)), ((3,), _F(2, 3)))
    evaluated, fresh = CycleExpr(terms), CycleExpr(terms)
    assert evaluate(evaluated, (3, 1)) == evaluate(CycleExpr(terms), (3, 1))
    assert hasattr(evaluated, "_row") and not hasattr(fresh, "_row")
    assert evaluated == fresh and hash(evaluated) == hash(fresh)
    assert repr(evaluated) == repr(fresh)
    assert pickle.dumps(evaluated) == pickle.dumps(fresh)
    for twin in (copy.copy(evaluated), copy.deepcopy(evaluated), pickle.loads(pickle.dumps(evaluated))):
        assert twin == fresh and not hasattr(twin, "_row")
    with pytest.raises(AttributeError):
        evaluated._row = None


# every class renderer: each reads the display order the first one stores
RENDERERS = (grammar.render_class, grammar.render_class_latex, grammar.class_to_json)


def test_a_class_expr_keeps_no_trace_of_rendering():
    # the renderers store the display order in a private slot; it is no field
    terms = ((stick(3), _F(-1, 4)), (MarkedTree(0, (stick(1), stick(0))), _F(2, 3)))
    rendered, fresh = ClassExpr("basic", 3, terms), ClassExpr("basic", 3, terms)
    outputs = [render(rendered) for render in RENDERERS]
    order = grammar._display_order(rendered)
    assert order is grammar._display_order(rendered)  # sorted once, shared by all three
    assert [render(rendered) for render in RENDERERS] == outputs
    assert grammar._display_order(rendered) is order
    assert hasattr(rendered, "_order") and not hasattr(fresh, "_order")
    assert rendered == fresh and hash(rendered) == hash(fresh)
    assert repr(rendered) == repr(fresh)
    assert pickle.dumps(rendered) == pickle.dumps(fresh)
    for twin in (copy.copy(rendered), copy.deepcopy(rendered), pickle.loads(pickle.dumps(rendered))):
        assert twin == fresh and not hasattr(twin, "_order")
        assert [render(twin) for render in RENDERERS] == outputs
    with pytest.raises(AttributeError):
        rendered._order = None


def test_defaults():
    assert CheckResult("row", True) == CheckResult(name="row", passed=True, detail="")
    assert CheckResult("row", True).detail == ""
    assert MarkedTree(3) == MarkedTree(3, ()) == stick(3)


def test_a_marked_tree_shows_only_marking_and_children():
    t = MarkedTree(0, (stick(1), stick(1), stick(0)))
    assert (t.codim, t.weight, t.vanishing) == (5, 2, False)
    assert repr(t) == (
        "MarkedTree(marking=0, children=(MarkedTree(marking=0, children=()), "
        "MarkedTree(marking=1, children=()), MarkedTree(marking=1, children=())))"
    )
