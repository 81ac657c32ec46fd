"""Hypothesis properties at random admissible levels, coprime u, v in 2..60,
with random Kac labels, flows and lam, rational and w-generic: tau_inverse
undoes tau, the top of F(x) is tau(x), and the level's restriction and cover
tables give the underived answer on a label whose spectral-flow orbit they
first filled at another flow."""

from math import gcd

from hypothesis import assume, given, settings, strategies as st

from sl2wt import OMEGA, admissible_level
from sl2wt.arithmetic import nu_rs
from sl2wt import functors as fn
from sl2wt import local_cat as lc
from sl2wt import weight_cat as wc

levels = st.tuples(st.integers(2, 60), st.integers(2, 60)).filter(lambda uv: gcd(*uv) == 1)
flows = st.integers(-50, 49)
rational_lams = st.fractions(-6, 6, max_denominator=12)
w_parts = st.fractions(-3, 3, max_denominator=4).filter(bool)


@st.composite
def kac_labels(draw):
    """A fresh level and a Kac label (r, s) of it."""
    level = admissible_level(*draw(levels))
    return level, draw(st.integers(1, level.u - 1)), draw(st.integers(1, level.v - 1))


@st.composite
def c_simples(draw):
    """A fresh level and a simple of its weight category: sigma^l(D+_{r,s}),
    or a typical with rational or w-generic lam."""
    level, r, s = draw(kac_labels())
    kind = draw(st.sampled_from(["atypical", "rational", "w"]))
    if kind == "atypical":
        return level, wc.atypical(level, r, s, draw(flows))
    lam = draw(rational_lams) + (draw(w_parts) * OMEGA if kind == "w" else 0)
    try:
        return level, wc.typical(level, r, s, lam, draw(flows))
    except wc.NotSimple:
        assume(False)


@st.composite
def a_simples(draw):
    """A fresh level and a simple A-label on it, with lam on either atypical
    coset nu_{r,s} or nu_{u-r,v-s} mod Z, rational, or w-generic."""
    level, r, s = draw(kac_labels())
    kind = draw(st.sampled_from(["nu", "nu mirror", "rational", "w"]))
    if kind == "nu":
        lam = nu_rs(level, r, s) + draw(st.integers(-2, 2))
    elif kind == "nu mirror":
        lam = nu_rs(level, level.u - r, level.v - s) + draw(st.integers(-2, 2))
    else:
        lam = draw(rational_lams) + (draw(w_parts) * OMEGA if kind == "w" else 0)
    return level, lc.simple_a(level, r, s, draw(flows), lam)


@settings(max_examples=250, deadline=None)
@given(c_simples())
def test_tau_is_inverted_by_the_socle_and_tops_induction(case):
    level, x = case
    y = fn.tau(level, x)
    assert fn.tau_inverse(level, y) == x
    assert fn.induce_simple(level, x).layers[0] == (y,)


@settings(max_examples=250, deadline=None)
@given(a_simples(), flows)
def test_tables_filled_at_another_flow_give_the_underived_answer(case, other):
    level, y = case
    assume(other != y.flow)
    z = lc.simple_a(level, y.r, y.s, other, y.lam)
    fn.restrict_simple(level, z)
    lc.r_layers(level, z)
    # y's orbit is kept at z's flow, and y itself in neither table
    assert level.restriction_orbits[lc.orbit_key(y)][0] == other
    assert level.cover_orbits[lc.orbit_key(y)][0] == other
    assert y not in level.restrictions and y not in level.covers
    assert fn.restrict_simple(level, y) == fn._restrict_simple(level, y)
    assert lc.r_layers(level, y) == lc._r_layers(level, y)
