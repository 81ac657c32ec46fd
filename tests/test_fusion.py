import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from sl2wt import OMEGA, Weight, admissible_level, wt
from sl2wt.arithmetic import DirectSum, lam_rs, nu_rs
from sl2wt import weight_cat as wc
from sl2wt import local_cat as lc
from sl2wt import functors as fn
from sl2wt import fusion as fu
from sl2wt.pipeline import run_pipeline

from conftest import SAMPLE_LEVELS, TEST_LEVELS, map_labels, mutant, random_weight, rng, step2_samples
from test_functors import UNITRIANGULAR_LEVELS, unitriangular_samples
from test_weight_cat import random_label


def groth_flow(x, m):
    return map_labels(x, lambda lbl: wc.spectral_flow(lbl, m))


def groth_contragredient(level, x):
    return map_labels(x, lambda lbl: wc.contragredient(level, lbl))


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
                assert got == wc.simple(wc.lr0(level, r, 0))


def test_fuse_D11plus_Dminus_examples():
    lv = admissible_level(5, 3)
    got = fu.fuse_D11plus_Dminus(lv, 1, 1)
    assert got == wc.DirectSum(
        (wc.simple(wc.lr0(lv, 1, 0)), wc.simple(wc.typical(lv, 1, 2, wt(0), 0)))
    )
    assert fu.fuse_D11plus_Dminus(lv, 2, 2) == wc.simple(wc.dminus(lv, 2, 1, 0))


def test_fuse_selfsquare():
    lv = admissible_level(3, 2)
    got = fu.fuse_sigmaD11_selfsquare(lv)
    assert got == wc.simple(wc.lr0(lv, 1, 4))
    assert got == wc.simple(wc.SimpleCLabel(3, 2, 1, None))  # sigma^3(D+_{2,1})
    lv = admissible_level(2, 3)
    got = fu.fuse_sigmaD11_selfsquare(lv)
    assert got == wc.DirectSum(
        (
            wc.simple(wc.atypical(lv, 1, 2, 2)),
            wc.simple(wc.typical(lv, 1, 1, lam_rs(lv, 1, 3), 3)),
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
        flowed = fu.groth_fuse_C(lv, groth_flow(x, a), groth_flow(y, b))
        assert flowed == groth_flow(p, a + b)


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
        lhs = groth_contragredient(lv, p)
        rhs = fu.groth_fuse_C(
            lv, groth_contragredient(lv, x), groth_contragredient(lv, y)
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
    # missing.  The solver must raise whenever it used such a cover and may
    # return only the true product otherwise.
    original = fu._cover_layers

    def drop_lower_factor(lv, w, z):
        layers = original(lv, w, z)
        lower = sorted((y for layer in layers[1:] for y in layer), key=lambda y: (y.flow, y.sort_key()))
        if not lower:
            return layers
        dropped = tuple(tuple(y for y in layer if y != lower[which]) for layer in layers)
        return tuple(layer for layer in dropped if layer)

    r = rng(56)
    raised = 0
    for size in (1, 1, 2, 3):
        x = wc.GrothC.of(*(random_label(level, r) for _ in range(size)))
        y = wc.GrothC.of(*(random_label(level, r) for _ in range(size)))
        expected = fu.groth_fuse_C(level, x, y)
        covers = [(fn.tau(level, z), z) for z in expected.support()]
        touched = any(drop_lower_factor(level, *c) != original(level, *c) for c in covers)
        with monkeypatch.context() as m:
            m.setattr(fu, "_cover_layers", drop_lower_factor)
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


def test_the_peel_builds_no_R(monkeypatch):
    # the peel reads each cover from the level's table of R's layers: R is
    # built only when F induces the typical labels of x and y, and when the
    # certificate re-induces those of the result
    lv = admissible_level(5, 3)
    original, calls = lc.build_R, []

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(lc, "build_R", counted)
    r = rng(60)
    x, y = (wc.GrothC.of(*(random_label(lv, r) for _ in range(8))) for _ in range(2))
    result = fu.groth_fuse_C(lv, x, y)

    def typicals(c):
        return sum(z.is_typical for z in c.support())

    assert typicals(result) > 0
    assert len(calls) == typicals(x) + typicals(y) + typicals(result)


@pytest.mark.parametrize("uv", UNITRIANGULAR_LEVELS, ids=lambda uv: f"{uv[0]}-{uv[1]}")
def test_cover_layers_are_the_induced_layers(uv):
    # the peel subtracts the layers that _cover_layers reads under tau(z);
    # they must be those of F(z), on a cold level and again on the warm one
    reference, lv = admissible_level(*uv), admissible_level(*uv)
    simples = unitriangular_samples(reference)
    expected = {z: fn.induce_simple(reference, z).layers for z in simples}
    assert not lv.covers
    for _ in ("cold", "warm"):
        for z in simples:
            assert fu._cover_layers(lv, fn.tau(lv, z), z) == expected[z]
        assert lv.covers
    for z in simples:
        assert fu._cover_layers(lv, fn.tau(lv, z), z) == fn.induce_simple(lv, z).layers


@pytest.mark.parametrize("uv", SAMPLE_LEVELS, ids=lambda uv: f"{uv[0]}-{uv[1]}")
def test_solver_fails_a_cover_without_a_middle_label(uv):
    # the peel reads R's layers from the level's table, the certificate
    # re-induces through F: a middle label missing from the peel's cover
    # must raise wherever the peel reads such a cover, and no wrong class
    # may come back
    level = admissible_level(*uv)
    r = rng(5)
    products = [
        tuple(wc.GrothC.of(*(random_label(level, r) for _ in range(size))) for _ in range(2))
        for size in (1, 1, 2, 3, 4)
    ]
    expected = [fu.groth_fuse_C(level, x, y) for x, y in products]
    touched = [
        any(len(fu._cover_layers(level, fn.tau(level, z), z)) == 3 for z in e.support()) for e in expected
    ]
    with mutant("cover_drops_a_middle_label"):
        for (x, y), right, hit in zip(products, expected, touched):
            if hit:
                with pytest.raises(fu.NoSolution):
                    fu.groth_fuse_C(level, x, y)
            else:
                assert fu.groth_fuse_C(level, x, y) == right
    # v = 2: no R has a middle layer, so the mutant is the real code
    assert any(touched) == (level.v >= 3)


def _solve(level, x, y):
    """The product, or the text of the NoSolution it raises."""
    try:
        return fu.groth_fuse_C(level, x, y)
    except fu.NoSolution as exc:
        return str(exc)


def _lower_factors_doubled(original):
    """A wrong cover: every layer below the top counted twice, so the peel
    drives terms negative, often several of one flow."""

    def doubled(lv, w, z):
        top, *lower = original(lv, w, z)
        return (top, *(layer for layer in lower for _ in range(2)))

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
    wrong_cover = _lower_factors_doubled(fu._cover_layers)

    def solve_all():
        right = [_solve(level, x, y) for x, y in products]
        with monkeypatch.context() as m:
            m.setattr(fu, "_cover_layers", wrong_cover)
            wrong = [_solve(level, x, y) for x, y in products]
        return right, wrong

    right, wrong = solve_all()
    assert not any(isinstance(z, str) for z in right)
    assert any(isinstance(z, str) and z.endswith("when peeled") for z in wrong)
    monkeypatch.setattr(fu, "_candidates", within_flows)
    assert solve_all() == (right, wrong)


def test_product_larger_than_the_induction_memo():
    # an 8-label product at 11/6 whose result has more than 256 labels: the
    # solve gives the same class on a cold level and again on the warm one,
    # whose tables of R's layers and M objects then answer the inductions
    lv = admissible_level(11, 6)
    r = rng(1)
    x, y = (wc.GrothC.of(*(random_label(lv, r) for _ in range(8))) for _ in range(2))
    assert not lv.covers and not lv.images
    cold = fu.groth_fuse_C(lv, x, y)
    assert len(cold.support()) > 256
    assert lv.covers and lv.images
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


def _a_tensor_restriction_by_sum(level, y):
    """The direct route as it was first written: the four restrictions folded
    through a DirectSum and its composition factors."""
    pieces = [(y.r, y.s, y.flow + 2, y.lam - level.t)]
    pieces += [
        (y.r, s2, y.flow + 1, y.lam - level.half_t)
        for s2 in (y.s - 1, y.s + 1)
        if 1 <= s2 <= level.v - 1
    ]
    restrictions = [fn.restrict_simple(level, z) for z in [y] + [lc.simple_a(level, *p) for p in pieces]]
    return wc.comp_factors(level, DirectSum(tuple(restrictions)))


@pytest.mark.parametrize("uv", SAMPLE_LEVELS, ids=lambda uv: f"{uv[0]}-{uv[1]}")
def test_a_tensor_restriction_matches_the_direct_sum(uv):
    level = admissible_level(*uv)
    samples = step2_samples(level)
    # restrictions of both kinds: typical simples and atypical E-strings
    assert {fn.restrict_simple(level, y).tag for y in samples} == {"simple", "E-"}
    for y in samples:
        got = fu.a_tensor_restriction(level, y)
        assert got == _a_tensor_restriction_by_sum(level, y)
        assert got.fuse is None and all(n > 0 for _, n in got.items())


def test_a_tensor_restriction_dropping_a_piece_fails_step2(monkeypatch):
    lv = admissible_level(5, 3)
    direct = fu.a_tensor_restriction

    def without_bottom(level, y):
        # the restriction of the bottom piece (l+2, lam-t) goes missing
        bottom = fn.restrict_simple(level, lc.simple_a(level, y.r, y.s, y.flow + 2, y.lam - level.t))
        return direct(level, y) - wc.comp_factors(level, bottom)

    monkeypatch.setattr(fu, "a_tensor_restriction", without_bottom)
    report = run_pipeline(lv)
    assert not report.step2.passed and not report.verdict
    checks = report.step2.typical_multiplicity_checks + report.step2.atypical_multiplicity_checks
    assert all(not c.routes_agree for c in checks)
    assert report.step1.passed and report.step3.passed and report.step4.passed


@pytest.mark.parametrize("uv", SAMPLE_LEVELS, ids=lambda uv: f"{uv[0]}-{uv[1]}")
def test_step2_checks_the_catalogued_R(r_middle_up, uv):
    # the direct route restricts the layers of the R that induction prints,
    # so a wrong middle layer of R makes it disagree with the ring
    report = run_pipeline(admissible_level(*uv))
    checks = report.step2.typical_multiplicity_checks + report.step2.atypical_multiplicity_checks
    assert checks
    if uv[1] == 2:  # no middle layer: the mutant is the real code
        assert report.step2.passed and all(c.routes_agree for c in checks)
    else:
        assert all(not c.routes_agree for c in checks)
        assert not report.step2.passed and not report.verdict


@pytest.mark.parametrize("uv", [uv for uv in SAMPLE_LEVELS if uv[1] >= 3], ids=lambda uv: f"{uv[0]}-{uv[1]}")
def test_step2_checks_the_catalogued_R_on_a_warm_level(uv):
    # a run fills the level's tables of R's layers and restrictions; the
    # mutant patched in after it must still reach the second run's step 2
    lv = admissible_level(*uv)
    assert run_pipeline(lv).verdict and lv.restrictions
    with mutant("r_middle_up"):
        report = run_pipeline(lv)
    checks = report.step2.typical_multiplicity_checks + report.step2.atypical_multiplicity_checks
    assert checks and all(not c.routes_agree for c in checks)
    assert not report.step2.passed and not report.verdict


def _projection_samples(level):
    """The step-2 samples, and at every Kac label and flow -1..1 the simples
    with lam on both atypical cosets nu_{r,s} and nu_{u-r,v-s}, at 1/7 and at w."""
    u, v = level.u, level.v
    out = step2_samples(level)
    for r in range(1, u):
        for s in range(1, v):
            for flow in (-1, 0, 1):
                for lam in (nu_rs(level, r, s), nu_rs(level, u - r, v - s), F(1, 7), OMEGA):
                    out.append(lc.simple_a(level, r, s, flow, lam))
    return out


def _projection_failures(level):
    """The simples y of Rep A at which the projection formula
    [F(Res y)] = [y]*[N], N = F(A), fails.  The left side runs through
    restriction, induction and the catalogued R and M, the right side through
    the fusion ring alone."""
    vacuum = fu._vacuum_class(level)
    return [
        y
        for y in _projection_samples(level)
        if fn.groth_F(level, wc.comp_factors(level, fn.restrict_simple(level, y)))
        != lc.a_class(level, y) * vacuum
    ]


@pytest.mark.parametrize("uv", SAMPLE_LEVELS, ids=lambda uv: f"{uv[0]}-{uv[1]}")
def test_projection_formula_on_the_catalogued_objects(uv):
    assert _projection_failures(admissible_level(*uv)) == []


@pytest.mark.parametrize("uv", SAMPLE_LEVELS, ids=lambda uv: f"{uv[0]}-{uv[1]}")
def test_projection_formula_fails_a_wrong_middle_layer_of_R(r_middle_up, uv):
    failures = _projection_failures(admissible_level(*uv))
    if uv[1] == 2:  # no middle layer: the mutant is the real code
        assert failures == []
    else:
        assert failures


@pytest.mark.parametrize("uv", SAMPLE_LEVELS, ids=lambda uv: f"{uv[0]}-{uv[1]}")
def test_projection_formula_fails_a_socle_of_M_one_flow_up(uv):
    # on a fresh level, and on one whose table of M objects a real pass of
    # the check has filled
    fresh, warm = admissible_level(*uv), admissible_level(*uv)
    assert _projection_failures(warm) == [] and warm.images
    with mutant("m_socle_flow_up"):
        failures = [_projection_failures(lv) for lv in (fresh, warm)]
    if uv[1] == 2:  # every M is simple: the mutant is the real code
        assert failures == [[], []]
    else:
        assert all(failures)


@pytest.mark.parametrize("uv", SAMPLE_LEVELS, ids=lambda uv: f"{uv[0]}-{uv[1]}")
def test_projection_formula_fails_a_restriction_to_2lam_plus_k(uv):
    # the formula fails this mutant at every level, 22 of 36 samples at 3/2;
    # the verdict passes it at 3/2, 5/2 and 7/2 and raises NotSimple at
    # v >= 3, where some sample restricts to a reducible E (ROADMAP items 11
    # and 14)
    with mutant("restriction_2lam_plus_k"):
        assert _projection_failures(admissible_level(*uv))
