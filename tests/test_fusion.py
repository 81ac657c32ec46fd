import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from sl2wt import OMEGA, Weight, admissible_level, wt
from sl2wt.arithmetic import lam_rs
from sl2wt import weight_cat as wc
from sl2wt import local_cat as lc
from sl2wt import functors as fn
from sl2wt import fusion as fu

from conftest import TEST_LEVELS, random_weight, rng
from test_weight_cat import random_label


def expected_D11_Dminus(level, r, s):
    """The printed product table, restated independently of the implementation."""
    v = level.v
    if s == v - 1:
        return wc.GrothC.of(wc.dminus(level, r, v - 2, 0))
    parts = [wc.dminus(level, r, s - 1, 0)]
    parts.append(wc.typical(level, r, s + 1, -lam_rs(level, r, s - 1), 0))
    return wc.GrothC.of(*parts)


@pytest.mark.parametrize("uv", [(5, 3), (3, 4), (3, 2), (7, 2), (2, 3)])
def test_fuse_D11plus_Dminus_table(uv):
    level = admissible_level(*uv)
    for r in range(1, level.u):
        for s in range(1, level.v):
            got = fu.fuse_D11plus_Dminus(level, r, s)
            assert wc.comp_factors(level, got) == expected_D11_Dminus(level, r, s)
            if level.v == 2:
                assert got == wc.Simple(wc.lr0(level, r, 0))


def test_fuse_D11plus_Dminus_examples():
    lv = admissible_level(5, 3)
    got = fu.fuse_D11plus_Dminus(lv, 1, 1)
    assert got == wc.DirectSum(
        (wc.Simple(wc.lr0(lv, 1, 0)), wc.Simple(wc.typical(lv, 1, 2, wt(0), 0)))
    )
    assert fu.fuse_D11plus_Dminus(lv, 2, 2) == wc.Simple(wc.dminus(lv, 2, 1, 0))


def test_fuse_selfsquare():
    lv = admissible_level(3, 2)
    got = fu.fuse_sigmaD11_selfsquare(lv)
    assert got == wc.Simple(wc.lr0(lv, 1, 4))
    assert got == wc.Simple(wc.SimpleCLabel(3, 2, 1, None))  # sigma^3(D+_{2,1})
    lv = admissible_level(2, 3)
    got = fu.fuse_sigmaD11_selfsquare(lv)
    assert got == wc.DirectSum(
        (
            wc.Simple(wc.atypical(lv, 1, 2, 2)),
            wc.Simple(wc.typical(lv, 1, 1, lam_rs(lv, 1, 3), 3)),
        )
    )


def test_selfsquare_consistent_with_equivariance(level):
    x = wc.atypical(level, 1, 1, 1)
    via_catalog = fu.catalogued_fusion(level, x, x)
    assert via_catalog is not None
    assert wc.comp_factors(level, via_catalog) == wc.comp_factors(
        level, fu.fuse_sigmaD11_selfsquare(level)
    )


def test_catalogued_fusion_detection():
    lv = admissible_level(5, 3)
    x = wc.atypical(lv, 1, 1, 2)
    y = wc.dminus(lv, 2, 1, -1)
    got = fu.catalogued_fusion(lv, x, y)
    assert got == wc.spectral_flow(fu.fuse_D11plus_Dminus(lv, 2, 1), 1)
    assert fu.catalogued_fusion(lv, y, x) == got  # order-insensitive
    z = wc.typical(lv, 1, 1, OMEGA, 0)
    assert fu.catalogued_fusion(lv, z, x) is None
    assert fu.catalogued_fusion(lv, wc.atypical(lv, 2, 1, 0), wc.atypical(lv, 3, 1, 0)) is None


@pytest.mark.parametrize("uv", [(5, 3), (3, 4), (3, 2)])
def test_solver_matches_table(uv):
    level = admissible_level(*uv)
    d11 = wc.GrothC.of(wc.atypical(level, 1, 1, 0))
    for r in range(1, level.u):
        for s in range(1, level.v):
            got = fu.groth_fuse_C(level, d11, wc.GrothC.of(wc.dminus(level, r, s, 0)))
            assert got == expected_D11_Dminus(level, r, s)


def test_solver_matches_selfsquare(level):
    x = wc.GrothC.of(wc.atypical(level, 1, 1, 1))
    got = fu.groth_fuse_C(level, x, x)
    assert got == wc.comp_factors(level, fu.fuse_sigmaD11_selfsquare(level))


def test_solver_unit_law(level):
    unit = wc.GrothC.of(wc.lr0(level, 1, 0))
    r = rng(51)
    for _ in range(10):
        x = wc.GrothC.of(random_label(level, r))
        assert fu.groth_fuse_C(level, unit, x) == x
        assert fu.groth_fuse_C(level, x, unit) == x


def test_solver_commutative_and_equivariant():
    lv = admissible_level(5, 3)
    r = rng(52)
    for _ in range(12):
        x = wc.GrothC.of(random_label(lv, r))
        y = wc.GrothC.of(wc.atypical(lv, r.randint(1, 4), r.randint(1, 2), r.randint(-2, 2)))
        p = fu.groth_fuse_C(lv, x, y)
        assert p == fu.groth_fuse_C(lv, y, x)
        a, b = r.randint(-2, 2), r.randint(-2, 2)
        flowed = fu.groth_fuse_C(lv, wc.groth_flow(x, a), wc.groth_flow(y, b))
        assert flowed == wc.groth_flow(p, a + b)


def test_solver_associative_on_sampled_triples():
    lv = admissible_level(5, 3)
    r = rng(55)
    for _ in range(6):
        x = wc.GrothC.of(random_label(lv, r))
        y = wc.GrothC.of(random_label(lv, r))
        z = wc.GrothC.of(random_label(lv, r))
        lhs = fu.groth_fuse_C(lv, fu.groth_fuse_C(lv, x, y), z)
        rhs = fu.groth_fuse_C(lv, x, fu.groth_fuse_C(lv, y, z))
        assert lhs == rhs


def test_solver_duality_compatibility():
    lv = admissible_level(5, 3)
    r = rng(53)
    for _ in range(8):
        x = wc.GrothC.of(random_label(lv, r))
        y = wc.GrothC.of(random_label(lv, r))
        p = fu.groth_fuse_C(lv, x, y)
        lhs = wc.groth_contragredient(lv, p)
        rhs = fu.groth_fuse_C(
            lv, wc.groth_contragredient(lv, x), wc.groth_contragredient(lv, y)
        )
        assert lhs == rhs


def test_solver_rejects_virtual_classes():
    lv = admissible_level(5, 3)
    x = wc.GrothC.of(wc.atypical(lv, 1, 1, 0))
    with pytest.raises(ValueError):
        fu.groth_fuse_C(lv, x - 2 * x, x)


@pytest.mark.parametrize("which", [0, -1], ids=["first", "last"])
def test_solver_refuses_a_wrong_induced_class(monkeypatch, level, which):
    # negative control: the peel subtracts F(z) with one lower Loewy factor
    # missing.  The solver must raise whenever it used such a class and may
    # return only the true product otherwise.
    original = fu._induced_class

    def drop_lower_factor(lv, z):
        cls = original(lv, z)
        top = min(w.flow for w in cls.support())
        lower = sorted((w for w in cls.support() if w.flow > top), key=lambda w: (w.flow, w.sort_key()))
        if not lower:
            return cls
        return lc.GrothA({w: n for w, n in cls.items() if w != lower[which]}, cls.fuse)

    r = rng(56)
    raised = 0
    for size in (1, 1, 2, 3):
        x = wc.GrothC.of(*(random_label(level, r) for _ in range(size)))
        y = wc.GrothC.of(*(random_label(level, r) for _ in range(size)))
        expected = fu.groth_fuse_C(level, x, y)
        touched = any(drop_lower_factor(level, z) != original(level, z) for z in expected.support())
        with monkeypatch.context() as m:
            m.setattr(fu, "_induced_class", drop_lower_factor)
            if touched:
                with pytest.raises(fu.NoSolution):
                    fu.groth_fuse_C(level, x, y)
                raised += 1
            else:
                assert fu.groth_fuse_C(level, x, y) == expected
    assert raised


def test_solver_inverts_only_what_it_peels(monkeypatch, level):
    # tau is a bijection, so each peel step adds one new label to the result:
    # one tau_inverse per label of the result, none for the terms of p that
    # are zero by the time the peel reaches them
    original, calls = fu.tau_inverse, []

    def counted(lv, w):
        calls.append(w)
        return original(lv, w)

    monkeypatch.setattr(fu, "tau_inverse", counted)
    r = rng(57)
    passed_over = 0
    for size in (1, 1, 2, 3, 4):
        x = wc.GrothC.of(*(random_label(level, r) for _ in range(size)))
        y = wc.GrothC.of(*(random_label(level, r) for _ in range(size)))
        p = fn.groth_F(level, x) * fn.groth_F(level, y)
        calls.clear()
        result = fu.groth_fuse_C(level, x, y)
        assert len(calls) == len(result.support())
        assert {original(level, w) for w in calls} == result.support()
        passed_over += len(p.support()) - len(calls)
    assert passed_over > 0


def _solve(level, x, y):
    """The product, or the text of the NoSolution it raises."""
    try:
        return fu.groth_fuse_C(level, x, y)
    except fu.NoSolution as exc:
        return str(exc)


def _lower_factors_doubled(original):
    """A wrong induced class: every factor below the top counted twice, so
    the peel drives terms negative, often several of one flow."""

    def doubled(lv, z):
        cls = original(lv, z)
        top = min(w.flow for w in cls.support())
        return lc.GrothA({w: n if w.flow == top else 2 * n for w, n in cls.items()}, cls.fuse)

    return doubled


@pytest.mark.parametrize("order", ["reversed", "shuffled"])
def test_order_within_a_flow_is_free(monkeypatch, level, order):
    # peeling a term changes only higher flows, so permuting the terms of
    # each flow in _candidates changes neither a product nor the text of a
    # NoSolution, which names the first label at fault in _peel_order
    original = fu._candidates
    permute = list.reverse if order == "reversed" else rng(59).shuffle

    def within_flows(lv, p):
        groups = [list(g) for _, g in itertools.groupby(original(lv, p), key=lambda w: w.flow)]
        for g in groups:
            permute(g)
        return [w for g in groups for w in g]

    r = rng(58)
    products = [
        tuple(wc.GrothC.of(*(random_label(level, r) for _ in range(size))) for _ in range(2))
        for size in (1, 1, 2, 3, 4)
    ]
    wrong_class = _lower_factors_doubled(fu._induced_class)

    def solve_all():
        right = [_solve(level, x, y) for x, y in products]
        with monkeypatch.context() as m:
            m.setattr(fu, "_induced_class", wrong_class)
            wrong = [_solve(level, x, y) for x, y in products]
        return right, wrong

    right, wrong = solve_all()
    assert not any(isinstance(z, str) for z in right)
    assert any(isinstance(z, str) and z.endswith("when peeled") for z in wrong)
    monkeypatch.setattr(fu, "_candidates", within_flows)
    assert solve_all() == (right, wrong)


def test_product_larger_than_the_induction_memo(monkeypatch):
    # an 8-label product at 11/6 whose result has more labels than the
    # induction memo holds: the certificate re-induces the latest peels
    # first, so the memo still answers a full table of them, and the solve
    # gives the same class cold, warm and with no memo at all
    lv = admissible_level(11, 6)
    r = rng(1)
    x, y = (wc.GrothC.of(*(random_label(lv, r) for _ in range(8))) for _ in range(2))
    memo = fn.induce_simple
    memo.cache_clear()
    cold = fu.groth_fuse_C(lv, x, y)
    assert len(cold.support()) > memo.cache_info().maxsize
    assert memo.cache_info().hits >= memo.cache_info().maxsize
    assert fu.groth_fuse_C(lv, x, y) == cold
    monkeypatch.setattr(fn, "induce_simple", memo.__wrapped__)
    monkeypatch.setattr(fu, "induce_simple", memo.__wrapped__)
    assert fu.groth_fuse_C(lv, x, y) == cold


@st.composite
def _effective_class(draw, level):
    labels = []
    for _ in range(draw(st.integers(1, 3))):
        r, s = draw(st.integers(1, level.u - 1)), draw(st.integers(1, level.v - 1))
        flow = draw(st.integers(-3, 3))
        kind = draw(st.sampled_from(["atypical", "rational", "w"]))
        if kind == "atypical":
            labels.append(wc.atypical(level, r, s, flow))
            continue
        lam = Weight(draw(st.fractions(-6, 6, max_denominator=6)), F(1) if kind == "w" else F(0))
        try:
            labels.append(wc.typical(level, r, s, lam, flow))
        except wc.NotSimple:
            labels.append(wc.typical(level, r, s, lam + OMEGA, flow))
    return wc.GrothC.of(*labels)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), uv=st.sampled_from(TEST_LEVELS))
def test_solver_property(data, uv):
    # effective result, F(z) = F(x) F(y), commutativity and the unit law
    level = admissible_level(*uv)
    x = data.draw(_effective_class(level))
    y = data.draw(_effective_class(level))
    z = fu.groth_fuse_C(level, x, y)
    assert z.is_effective and not z.is_zero
    assert fn.groth_F(level, z) == fn.groth_F(level, x) * fn.groth_F(level, y)
    assert fu.groth_fuse_C(level, y, x) == z
    unit = wc.GrothC.of(wc.lr0(level, 1, 0))
    assert fu.groth_fuse_C(level, unit, x) == x


def test_a_tensor_restriction_routes(level):
    r = rng(54)
    for rr in range(1, level.u):
        for ss in range(1, level.v):
            for lam in (wt(0), OMEGA, random_weight(r)):
                y = lc.simple_a(level, rr, ss, r.randint(-2, 2), lam)
                assert fu.a_tensor_restriction(level, y) == fu.a_tensor_restriction_via_ring(level, y)


def test_a_tensor_restriction_at_unit(level):
    # instantiating at the unit recovers the restriction of F(A)
    got = fu.a_tensor_restriction(level, lc.unit_a(level))
    expect = fn.groth_restrict(level, lc.comp_factors_a(level, fn.induce_vacuum(level)))
    assert got == expect


def test_a_tensor_restriction_generic_summands():
    lv = admissible_level(5, 3)
    lam = OMEGA
    y = lc.simple_a(lv, 1, 1, 0, lam)
    got = fu.a_tensor_restriction(lv, y)
    # s-1 = 0 drops: G(y) + G(1,1,2,lam-t) + G(1,2,1,lam-t/2), each typical simple
    assert sum(n for _, n in got.items()) == 3
    labels = {(x.r, x.s, x.flow) for x in got.support()}
    assert labels == {(1, 1, 1), (1, 1, 3), (1, 2, 2)}


def test_a_tensor_restriction_v2_collapse():
    lv = admissible_level(3, 2)
    y = lc.simple_a(lv, 1, 1, 0, OMEGA)
    got = fu.a_tensor_restriction(lv, y)
    assert sum(n for _, n in got.items()) == 2  # both s+-1 terms vanish
