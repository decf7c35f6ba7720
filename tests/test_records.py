"""The frozen-record mechanism (`groups.record`) against its oracle, stdlib
`@dataclass(frozen=True)`, and the hash contract on every groupca record."""

import dataclasses
import importlib
import inspect
from fractions import Fraction
from functools import cached_property

import pytest
from hypothesis import given
from hypothesis import strategies as st

from groupca.automata import is_surjective, linear_ca
from groupca.class_a import analyze_radius1, dual_ca, verify_conjugacy
from groupca.configs import Cylinder, PeriodicConfig
from groupca.entropy import EntropyReport, bounds_check
from groupca.groups import Character, Endomorphism, GroupSpec, Subgroup, _setfield, record
from groupca.hypotheses import check_hypotheses
from groupca.kernels import (
    FullShift,
    KernelTower,
    LinearKernelShift,
    ProductSubgroup,
    condition4_search,
    corollary_ker_check,
    recurrence_matrix,
)
from groupca.measures import (
    Bernoulli,
    HaarMeasure,
    MixtureMeasure,
    PeriodicOrbitMeasure,
    PushforwardMeasure,
    cesaro_sequence,
    counterexample_suite,
    haar_test,
    invariance_check,
)
from groupca.modular import factor_mod_p, permutative_support


def zero_fields(make):
    @make
    class Empty:
        pass
    return Empty


def one_field(make):
    @make
    class Single:
        value: object
    return Single


def several_fields(make):
    @make
    class Several:
        first: object
        second: object
        third: object = None
        fourth: object = (1, 2)
    return Several


def validating(make):
    """The same checked constructor, written out for a record and as
    `__post_init__` for a dataclass."""
    if make is record:
        @record
        class Checked:
            count: int
            label: object

            def __init__(self, count, label="x"):
                if count < 0:
                    raise ValueError("count must be >= 0")
                _setfield(self, "count", count % 7)
                _setfield(self, "label", label)
    else:
        @make
        class Checked:
            count: int
            label: object = "x"

            def __post_init__(self):
                if self.count < 0:
                    raise ValueError("count must be >= 0")
                object.__setattr__(self, "count", self.count % 7)
    return Checked


def derived(make):
    @make
    class Derived:
        left: object
        right: object

        @cached_property
        def pair(self):
            return [self.left, self.right]
    return Derived


FROZEN = dataclasses.dataclass(frozen=True)
TWINS = [zero_fields, one_field, several_fields, derived]

values = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3),
                   st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                   st.frozensets(st.integers(0, 3)))


def _outcome(call):
    """What a call returns, or the type of what it raises."""
    try:
        return call()
    except (AttributeError, TypeError, ValueError) as exc:
        return type(exc)


def _same_as_oracle(make, args, kwargs, other_args):
    """A record and its dataclass twin agree on construction, repr, ==,
    hash and refused mutation."""
    ours, oracle = make(record), make(FROZEN)
    a, b = _outcome(lambda: ours(*args, **kwargs)), _outcome(lambda: oracle(*args, **kwargs))
    if isinstance(b, type):
        assert a is b
        return
    fields = [f.name for f in dataclasses.fields(b)]
    assert repr(a) == repr(b)
    assert hash(a) == hash(b) == hash(tuple(getattr(b, name) for name in fields))
    c, d = _outcome(lambda: ours(*other_args)), _outcome(lambda: oracle(*other_args))
    if not isinstance(d, type):
        assert (a == c) == (b == d) and (a != c) == (b != d)
    assert a == a and not a != a
    # another class, even with the same fields, is never equal
    assert a.__eq__(b) is NotImplemented and b.__eq__(a) is NotImplemented
    assert a != b and a.__eq__(()) is NotImplemented
    for name in fields + ["extra"]:
        with pytest.raises(AttributeError):
            setattr(a, name, 0)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert [getattr(a, name) for name in fields] == [getattr(b, name) for name in fields]


@pytest.mark.parametrize("make", TWINS)
@given(st.lists(values, max_size=5), st.lists(values, max_size=5))
def test_a_record_matches_its_dataclass_twin_positionally(make, args, other_args):
    _same_as_oracle(make, args, {}, other_args)


@pytest.mark.parametrize("make", TWINS)
@given(st.dictionaries(st.sampled_from(["value", "first", "second", "third", "fourth", "left",
                                        "right", "other"]), values, max_size=4),
       st.lists(values, max_size=1))
def test_a_record_matches_its_dataclass_twin_by_keyword(make, kwargs, args):
    # keywords alone, and after a positional argument (which may clash)
    _same_as_oracle(make, (), kwargs, list(kwargs.values()))
    _same_as_oracle(make, args, kwargs, args)


@given(st.integers(-3, 20), st.one_of(st.none(), values), st.integers(-3, 20))
def test_a_validating_constructor_matches_post_init(count, label, other):
    args = (count,) if label is None else (count, label)
    _same_as_oracle(validating, args, {}, (other,))
    _same_as_oracle(validating, (), {"count": count, "label": label}, (other, label))


@given(values, values)
def test_derived_values_stay_out_of_eq_hash_and_repr(left, right):
    Derived = derived(record)
    a, b, twin = Derived(left, right), Derived(left, right), derived(FROZEN)(left, right)
    assert a.pair == [left, right] and a.pair is a.pair  # derived once, kept on a
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b) == repr(twin)


# -- every groupca record ---------------------------------------------------------

MODULES = ["groups", "configs", "automata", "shifts", "hypotheses", "measures", "modular",
           "kernels", "class_a", "entropy"]

Z2 = GroupSpec((2,))
V = GroupSpec((2, 2))


def _instances():
    F = linear_ca(Z2, {0: 1, 1: 1})
    x = PeriodicConfig(Z2, ((0,), (1,)))
    b = Bernoulli(Z2, {(0,): Fraction(1, 3), (1,): Fraction(2, 3)})
    tw = KernelTower(F)
    F1 = linear_ca(V, {0: ((1, 1), (1, 0)), 1: ((1, 0), (0, 0))}, neighborhood=(0, 1))
    dual = dual_ca(F1)
    bounds = bounds_check(F, 0.5, 0.5)
    return [
        Z2, Endomorphism.identity(Z2), Character(Z2, (1,)), Subgroup(Z2, [(0,), (1,)]),
        x, Cylinder(0, ((1,),)), F, is_surjective(F),
        FullShift(Z2), ProductSubgroup(Z2, 2, Subgroup(V, [(0, 0), (1, 1)]), 1),
        LinearKernelShift(F), check_hypotheses(F),
        b, HaarMeasure(FullShift(Z2)), PushforwardMeasure(b, F, 1),
        MixtureMeasure(((Fraction(1), b),)), PeriodicOrbitMeasure((x,)),
        invariance_check(b, F, f_power=1, length=2), haar_test(b, FullShift(Z2)),
        cesaro_sequence(b, F, 2, 1), counterexample_suite(),
        permutative_support(F), factor_mod_p(F),
        tw.level(1), tw.module, condition4_search(tw), corollary_ker_check(tw),
        recurrence_matrix(F),
        analyze_radius1(F1), dual, verify_conjugacy(F1, dual),
        bounds, EntropyReport(0.5, 0.5, None, None, bounds, 10, 2, 1, 0, "sampled"),
    ]


def _records():
    """Every class of groupca's modules that `record` made."""
    refuse = GroupSpec.__dict__["__setattr__"]
    found = set()
    for name in MODULES:
        module = importlib.import_module(f"groupca.{name}")
        found.update(cls for _, cls in inspect.getmembers(module, inspect.isclass)
                     if cls.__dict__.get("__setattr__") is refuse)
    return found


def test_every_record_hashes_as_its_field_tuple():
    instances = _instances()
    assert len(instances) == len({type(x) for x in instances})
    assert {type(x) for x in instances} == _records()
    for x in instances:
        names = tuple(type(x).__annotations__)
        fields = tuple(getattr(x, name) for name in names)
        # an unhashable field (a rule table, say) makes both refuse alike
        assert _outcome(lambda: hash(x)) == _outcome(lambda: hash(fields)), type(x)
        assert repr(x).startswith(f"{type(x).__name__}({names[0]}=")
        with pytest.raises(AttributeError):
            setattr(x, names[0], None)
