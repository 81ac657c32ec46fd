"""Hypothesis properties of labels: text and JSON round trips, duals as
involutions, the contragredient against spectral flow, and label hashes
that agree across construction routes and copies."""

import copy
import dataclasses
import json
import pickle
import re
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from sl2wt import OMEGA, Weight, admissible_level
from sl2wt.arithmetic import LoewyObject
from sl2wt import weight_cat as wc
from sl2wt import local_cat as lc
from sl2wt.cli import parse_alabel, parse_clabel

from conftest import TEST_LEVELS

# rational lam (b = 0) and w-generic lam (b != 0) alike
lams = st.builds(
    Weight,
    st.fractions(-6, 6, max_denominator=12),
    st.just(F(0)) | st.fractions(-3, 3, max_denominator=4).filter(bool),
)
flows = st.integers(-5, 5)


@st.composite
def c_labels(draw, level):
    kind = draw(st.sampled_from(["atypical", "dminus", "typical"]))
    r, flow = draw(st.integers(1, level.u - 1)), draw(flows)
    if kind == "atypical":
        return wc.atypical(level, r, draw(st.integers(1, level.v - 1)), flow)
    if kind == "dminus":
        return wc.dminus(level, r, draw(st.integers(0, level.v - 1)), flow)
    try:
        return wc.typical(level, r, draw(st.integers(1, level.v - 1)), draw(lams), flow)
    except wc.NotSimple:
        assume(False)


def a_labels(level):
    return st.builds(
        lc.simple_a, st.just(level), st.integers(1, level.u - 1), st.integers(1, level.v - 1), flows, lams
    )


@st.composite
def a_objects(draw, level, depth=1):
    kind = draw(st.sampled_from(["simple", "R", "M"] + (["sum"] if depth else [])))
    r, flow = draw(st.integers(1, level.u - 1)), draw(flows)
    if kind == "simple":
        return lc.a_simple(draw(a_labels(level)))
    if kind == "R":
        return lc.build_R(level, r, draw(st.integers(1, level.v - 1)), draw(lams), flow)
    if kind == "M":
        return lc.build_M(level, r, draw(st.integers(1, level.v)), flow)
    return lc.DirectSum(tuple(draw(st.lists(a_objects(level, 0), min_size=2, max_size=3))))


def _via_json_text(to_json, from_json, level, x):
    return from_json(level, json.loads(json.dumps(to_json(x))))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), uv=st.sampled_from(TEST_LEVELS))
def test_labels_round_trip_through_text_and_json(data, uv):
    level = admissible_level(*uv)
    x, y = data.draw(c_labels(level)), data.draw(a_labels(level))
    obj = data.draw(a_objects(level))
    assert parse_clabel(level, str(x)) == x
    assert parse_alabel(level, str(y)) == y
    assert _via_json_text(wc.label_to_json, wc.label_from_json, level, x) == x
    assert _via_json_text(lc.label_to_json, lc.label_from_json, level, y) == y
    assert _via_json_text(lc.aobject_to_json, lc.aobject_from_json, level, obj) == obj


@settings(max_examples=150, deadline=None)
@given(data=st.data(), uv=st.sampled_from(TEST_LEVELS), m=st.integers(-4, 4))
def test_duals_are_involutions(data, uv, m):
    level = admissible_level(*uv)
    x, y = data.draw(c_labels(level)), data.draw(a_labels(level))
    obj = data.draw(a_objects(level))
    xd = wc.contragredient(level, x)
    assert wc.contragredient(level, xd) == x
    assert wc.contragredient(level, wc.spectral_flow(x, m)) == wc.spectral_flow(xd, -m)
    assert lc.rigid_dual(level, lc.rigid_dual(level, y)) == y
    assert lc.rigid_dual(level, lc.rigid_dual(level, obj)) == obj


def _hashed_once_agrees(x, y):
    """x == y, equal hashes, and each hash is the hash of the field tuple."""
    assert x == y and hash(x) == hash(y)
    assert hash(x) == hash(tuple(getattr(x, f.name) for f in dataclasses.fields(x)))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), uv=st.sampled_from(TEST_LEVELS))
def test_equal_labels_hash_equal_by_every_route(data, uv):
    # labels hash once, at construction: labels built by different routes
    # to the same module, and copies made without calling the constructors,
    # must still compare and hash equal
    level = admissible_level(*uv)
    u, v = level.u, level.v
    r, s, flow = data.draw(st.integers(1, u - 1)), data.draw(st.integers(1, v - 1)), data.draw(flows)
    lam = data.draw(lams)
    y = lc.simple_a(level, r, s, flow, lam)
    _hashed_once_agrees(y, lc.simple_a(level, u - r, v - s, flow, lam))
    _hashed_once_agrees(y, lc.simple_a(level, r, s, flow, lam + 1))
    try:
        x = wc.typical(level, r, s, lam, flow)
    except wc.NotSimple:
        x = wc.typical(level, r, s, lam + OMEGA, flow)
    _hashed_once_agrees(x, wc.typical(level, u - r, v - s, x.lam, flow))
    _hashed_once_agrees(x, wc.typical(level, r, s, x.lam + 2, flow))
    # the D- and L(r,0) rewrites land on the D+ labels built directly
    s0 = data.draw(st.integers(0, v - 1))
    if s0 == 0:
        direct = wc.atypical(level, u - r, v - 1, flow - 1)
        _hashed_once_agrees(wc.lr0(level, r, flow), direct)
        _hashed_once_agrees(wc.dplus(level, r, 0, flow), direct)
    elif s0 <= v - 2:
        direct = wc.atypical(level, u - r, v - s0 - 1, flow - 1)
    else:
        direct = wc.atypical(level, r, v - 1, flow - 2)
    _hashed_once_agrees(wc.dminus(level, r, s0, flow), direct)
    _hashed_once_agrees(wc.spectral_flow(wc.atypical(level, r, s, 0), flow), wc.atypical(level, r, s, flow))
    for label in (y, x, direct):
        for twin in (pickle.loads(pickle.dumps(label)), copy.copy(label), copy.deepcopy(label),
                     dataclasses.replace(label)):
            _hashed_once_agrees(twin, label)
    _hashed_once_agrees(dataclasses.replace(y, flow=flow + 1), lc.simple_a(level, r, s, flow + 1, lam))
    _hashed_once_agrees(dataclasses.replace(x, flow=flow + 1), wc.spectral_flow(x, 1))
    assert {y, x, direct} == {copy.copy(y), copy.copy(x), copy.copy(direct)}


@st.composite
def c_objects(draw, level):
    kind = draw(st.sampled_from(["simple", "E-", "E+", "P"]))
    if kind == "simple":
        return wc.simple(draw(c_labels(level)))
    build = {"E-": wc.eminus, "E+": wc.eplus, "P": wc.projective}[kind]
    return build(level, draw(st.integers(1, level.u - 1)), draw(st.integers(1, level.v - 1)), draw(flows))


# the fields each value type declares, in order; _hash is a slot, not a field
DECLARED = {
    wc.SimpleCLabel: ("flow", "r", "s", "lam"),
    lc.SimpleALabel: ("r", "s", "flow", "lam"),
    LoewyObject: ("tag", "r", "s", "flow", "layers"),  # wc.CObject and lc.AObject
}


@settings(max_examples=60, deadline=None)
@given(data=st.data(), uv=st.sampled_from(TEST_LEVELS))
def test_value_types_are_slotted_frozen_dataclasses(data, uv):
    # labels and catalogued objects are built through their slot setters:
    # no instance dict, no assignment or deletion, the declared fields only,
    # and the repr and == a dataclass generates
    level = admissible_level(*uv)
    for x in (data.draw(c_labels(level)), data.draw(a_labels(level)),
              data.draw(c_objects(level)), data.draw(a_objects(level, 0))):
        cls, names = type(x), DECLARED[type(x)]
        assert not hasattr(x, "__dict__")
        assert tuple(f.name for f in dataclasses.fields(x)) == names
        values = tuple(getattr(x, name) for name in names)
        for name in names + (("_hash",) if cls in (wc.SimpleCLabel, lc.SimpleALabel) else ()):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(x, name, getattr(x, name))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(x, name)
        assert repr(x) == f"{cls.__name__}(" + ", ".join(f"{n}={v!r}" for n, v in zip(names, values)) + ")"
        assert x == cls(*values) and x.__eq__(values) is NotImplemented
        assert x != dataclasses.replace(x, flow=x.flow + 1)
        for twin in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x), dataclasses.replace(x)):
            assert type(twin) is cls and twin == x and hash(twin) == hash(x)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), uv=st.sampled_from(TEST_LEVELS))
def test_objects_refuse_attributes_that_are_not_fields(data, uv):
    # a name that is no field or slot is refused as a field is, not with the
    # TypeError that a slotted frozen dataclass raises from super()
    level = admissible_level(*uv)
    for x in (data.draw(c_objects(level)), data.draw(a_objects(level, 0))):
        before = hash(x)
        with pytest.raises(dataclasses.FrozenInstanceError):
            x.foo = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            del x.foo
        assert not hasattr(x, "foo") and hash(x) == before
        assert hash(x) == hash(tuple(getattr(x, f.name) for f in dataclasses.fields(x)))


# each label and object constructor at a fixed valid label, given only the flow
FLOW_CONSTRUCTORS = {
    "simple_a": lambda lv, flow: lc.simple_a(lv, 1, 1, flow, 0),
    "typical": lambda lv, flow: wc.typical(lv, 1, 1, F(1, 7), flow),
    "atypical": lambda lv, flow: wc.atypical(lv, 1, 1, flow),
    "dplus": lambda lv, flow: wc.dplus(lv, 1, 1, flow),
    "dminus": lambda lv, flow: wc.dminus(lv, 1, 1, flow),
    "lr0": lambda lv, flow: wc.lr0(lv, 1, flow),
    "eminus": lambda lv, flow: wc.eminus(lv, 1, 1, flow),
    "eplus": lambda lv, flow: wc.eplus(lv, 1, 1, flow),
    "projective": lambda lv, flow: wc.projective(lv, 1, 1, flow),
    "build_R": lambda lv, flow: lc.build_R(lv, 1, 1, F(1, 7), flow),
    "build_M": lambda lv, flow: lc.build_M(lv, 1, 2, flow),
}


@pytest.mark.parametrize("flow", [0.5, True, F(1, 2), "1"], ids=repr)
@pytest.mark.parametrize("name", sorted(FLOW_CONSTRUCTORS))
def test_label_constructors_refuse_flows_that_are_not_integers(name, flow):
    lv = admissible_level(5, 3)
    build = FLOW_CONSTRUCTORS[name]
    assert build(lv, 1).flow in (-1, 0, 1)  # an int flow is taken
    with pytest.raises(ValueError, match=re.escape(f"flow {flow!r} must be an integer")):
        build(lv, flow)


@pytest.mark.parametrize("flow", [0.5, True, F(1, 2), "1"], ids=repr)
def test_spectral_flow_refuses_flows_that_are_not_integers(flow):
    lv = admissible_level(5, 3)
    x = wc.atypical(lv, 1, 1)
    for target in (x, wc.eminus(lv, 1, 1), wc.DirectSum((wc.simple(x), wc.projective(lv, 1, 1)))):
        assert wc.spectral_flow(target, 1) != target  # an int flow is taken
        with pytest.raises(ValueError, match=re.escape(f"flow {flow!r} must be an integer")):
            wc.spectral_flow(target, flow)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), uv=st.sampled_from(TEST_LEVELS), c_first=st.booleans())
def test_direct_sums_of_mixed_categories_are_refused(data, uv, c_first):
    # a sum's category is that of its parts' top labels, or of a nested sum's
    # first part; the readers and writers of each side expect their own
    level = admissible_level(*uv)
    c, a = data.draw(c_objects(level)), data.draw(a_objects(level))
    c2, a2 = data.draw(c_objects(level)), data.draw(a_objects(level, 0))
    assert wc.DirectSum((wc.DirectSum((c, c2)), c)).parts[1] is c
    assert lc.DirectSum((a, lc.DirectSum((a2, a)))).parts[0] is a
    for parts in ((c, a), (c, c2, a), (wc.DirectSum((c, c2)), a), (lc.DirectSum((a2, a2)), c)):
        with pytest.raises(ValueError, match="a direct sum takes parts of one category"):
            wc.DirectSum(parts if c_first else parts[::-1])
