from fractions import Fraction as F

import pytest

from sl2wt import OMEGA, admissible_level, wt
from sl2wt.arithmetic import nu_rs
from sl2wt import weight_cat as wc
from sl2wt import local_cat as lc
from sl2wt import functors as fn
from sl2wt.pipeline import FLOWS

from conftest import SAMPLE_LEVELS, random_weight, rng, step2_samples
from test_weight_cat import random_label, vacuum_extension


def frobenius_dim(level, x, y):
    """dim Hom(F(x), y) = multiplicity of x in the socle of the restriction of y."""
    return 1 if fn.tau_inverse(level, y) == x else 0


def test_restriction_table():
    lv = admissible_level(5, 3)
    # the unit A-label restricts to the vacuum extension sigma(E-_{u-1,v-1})
    assert fn.restrict_simple(lv, lc.unit_a(lv)) == wc.eminus(lv, 4, 2, 1)
    # second atypical branch: lam = nu_{u-r,v-s}
    y = lc.simple_a(lv, 1, 2, -1, nu_rs(lv, 4, 1))
    assert fn.restrict_simple(lv, y) == wc.eminus(lv, 1, 2, 0)
    # omega part forces typicality
    y = lc.simple_a(lv, 2, 1, 0, wt(F(1, 4), F(1)))
    res = fn.restrict_simple(lv, y)
    assert res.tag == "simple"
    assert res.layers[0][0] == wc.typical(lv, 2, 1, 2 * wt(F(1, 4), F(1)) - lv.k, 1)


def test_restriction_covers_both_mirrors(level):
    # the atypicality test must catch nu_{r,s} and nu_{u-r,v-s} through the
    # canonical (lex-min) representative
    for r in range(1, level.u):
        for s in range(1, level.v):
            for probe in (nu_rs(level, r, s), nu_rs(level, level.u - r, level.v - s)):
                y = lc.simple_a(level, r, s, 0, probe)
                assert fn.restrict_simple(level, y).tag == "E-"


@pytest.mark.parametrize("uv", [(3, 2), (5, 3), (7, 4), (13, 8)], ids=lambda uv: f"{uv[0]}-{uv[1]}")
def test_typical_restrictions_are_never_refused(uv):
    # off the cosets nu_{r,s} and nu_{u-r,v-s} mod Z, 2*lam-k is off
    # +-lambda_{r,s} mod 2Z, since (k + lambda_{r,s})/2 = nu_{r,s} - 1 and
    # (k - lambda_{r,s})/2 = nu_{u-r,v-s}: at every lam of denominator 2uv
    # restriction builds a typical label or an E-string, and typical never
    # raises NotSimple
    level = admissible_level(*uv)
    d = 2 * level.u * level.v
    typicals = 0
    for r in range(1, level.u):
        for s in range(1, level.v):
            for p in range(d):
                y = lc.simple_a(level, r, s, 0, wt(F(p, d)))
                typicals += fn._restrict_simple(level, y).tag == "simple"
    assert typicals > 0


def test_tau_and_tau_tilde():
    lv = admissible_level(5, 3)
    x = wc.atypical(lv, 1, 1, 2)  # s <= v-2
    assert fn.tau(lv, x) == lc.simple_a(lv, 1, 2, 2, nu_rs(lv, 1, 2))
    assert fn.tau_tilde(lv, x) == lc.simple_a(lv, 1, 1, 1, nu_rs(lv, 1, 1))
    x = wc.atypical(lv, 1, 2, 0)  # s = v-1
    assert fn.tau(lv, x) == lc.simple_a(lv, 4, 1, 1, nu_rs(lv, 4, 1))
    z = wc.typical(lv, 2, 1, wt(F(1, 3), F(2)), 1)
    assert fn.tau(lv, z) == fn.tau_tilde(lv, z)
    assert fn.tau(lv, z) == lc.simple_a(lv, 2, 1, 0, (z.lam + lv.k) * F(1, 2))


def test_tau_sections(level):
    # restrict(tau(x)) has socle x; restrict(tau_tilde(x)) has top x
    r = rng(41)
    for _ in range(60):
        x = random_label(level, r)
        res_tau = fn.restrict_simple(level, fn.tau(level, x))
        res_tilde = fn.restrict_simple(level, fn.tau_tilde(level, x))
        if x.is_typical:
            assert res_tau == wc.simple(x) == res_tilde
        else:
            assert res_tau.tag == "E-"
            assert wc.dminus(level, res_tau.r, res_tau.s, res_tau.flow) == x
            assert res_tilde.tag == "E-"
            top = wc.atypical(
                level, level.u - res_tilde.r, level.v - res_tilde.s, res_tilde.flow
            )
            assert top == x
        assert frobenius_dim(level, x, fn.tau(level, x)) == 1


def test_groth_restrict_sums_exactly(level):
    # restriction of a signed class counts n times each layer label of each
    # restriction, and keeps no zero: tau(x) - tau_tilde(x) cancels x
    r = rng(43)
    for _ in range(40):
        x = random_label(level, r)
        p = lc.a_class(level, fn.tau(level, x)) - lc.a_class(level, fn.tau_tilde(level, x))
        if not x.is_typical:
            assert x not in fn.groth_restrict(level, p).coeffs
        for _ in range(3):
            p = p + r.choice((-2, -1, 1, 2)) * lc.a_class(level, fn.tau(level, random_label(level, r)))
        expect = wc.GrothC()
        for y, n in p.items():
            expect = expect + n * wc.comp_factors(level, fn.restrict_simple(level, y))
        got = fn.groth_restrict(level, p)
        assert got == expect and 0 not in got.coeffs.values()


def test_tau_injective(level):
    r = rng(42)
    labels = {random_label(level, r) for _ in range(120)}
    for section in (fn.tau, fn.tau_tilde):
        images = {section(level, x) for x in labels}
        assert len(images) == len(labels)


def test_tau_is_a_bijection(level):
    # tau_inverse (the socle of the restriction) undoes tau on both sides:
    # on A-simples at every Kac label, flows -2..2, every nu coset, a
    # rational and a w-generic lam; on sampled and all atypical C-simples
    lams = {nu_rs(level, r, s) for r in range(1, level.u) for s in range(1, level.v)}
    lams |= {wt(F(2, 7)), wt(F(1, 3), F(1))}
    for r in range(1, level.u):
        for s in range(1, level.v):
            for flow in range(-2, 3):
                for lam in lams:
                    y = lc.simple_a(level, r, s, flow, lam)
                    assert fn.tau(level, fn.tau_inverse(level, y)) == y
    rnd = rng(45)
    simples = [random_label(level, rnd) for _ in range(120)]
    simples += [wc.atypical(level, r, s, f) for r in range(1, level.u) for s in range(1, level.v) for f in (-2, 0, 2)]
    for x in simples:
        assert fn.tau_inverse(level, fn.tau(level, x)) == x


def unitriangular_samples(level):
    """The simples of the weight category at every Kac label and flows -2..2:
    each atypical, and the typicals at lam = 1/2, 1/3 and w that are simple."""
    simples = []
    for r in range(1, level.u):
        for s in range(1, level.v):
            for flow in range(-2, 3):
                simples.append(wc.atypical(level, r, s, flow))
                for lam in (wt(F(1, 2)), wt(F(1, 3)), OMEGA):
                    try:
                        simples.append(wc.typical(level, r, s, lam, flow))
                    except wc.NotSimple:
                        pass
    return set(simples)


UNITRIANGULAR_LEVELS = [(3, 2), (5, 3), (7, 4), (11, 6), (13, 8), (5, 2), (7, 3)]


@pytest.mark.parametrize("uv", UNITRIANGULAR_LEVELS, ids=lambda uv: f"{uv[0]}-{uv[1]}")
def test_induction_is_unitriangular(uv):
    # tau is injective on simples, and F(z) has top tau(z) with every lower
    # Loewy layer at a strictly higher flow
    level = admissible_level(*uv)
    simples = unitriangular_samples(level)
    assert len({fn.tau(level, z) for z in simples}) == len(simples)
    for z in simples:
        top = fn.tau(level, z)
        layers = fn.induce_simple(level, z).layers
        assert layers[0] == (top,)
        assert all(y.flow > top.flow for layer in layers[1:] for y in layer)


def test_induce_atypical():
    lv = admissible_level(5, 3)
    m = fn.induce_simple(lv, wc.atypical(lv, 1, 1, 0))
    assert m.tag == "M"
    assert m.layers[0] == (lc.simple_a(lv, 1, 2, 0, nu_rs(lv, 1, 2)),)
    assert m.layers[1] == (lc.simple_a(lv, 1, 1, 1, nu_rs(lv, 1, 3)),)
    # s = v-1 induces to a simple
    simple = fn.induce_simple(lv, wc.atypical(lv, 1, 2, 0))
    assert simple == lc.a_simple(lc.simple_a(lv, 4, 1, 1, nu_rs(lv, 4, 1)))


def test_induce_atypical_v2():
    lv = admissible_level(3, 2)
    for r in (1, 2):
        for flow in (-1, 0, 2):
            got = fn.induce_simple(lv, wc.atypical(lv, r, 1, flow))
            expect = lc.a_simple(
                lc.simple_a(lv, r, 1, flow + 1, nu_rs(lv, lv.u - r, 1))
            )
            assert got == expect


def test_induce_typical():
    lv = admissible_level(5, 3)
    lam_pi = wt(F(1, 8), F(1))
    x = wc.typical(lv, 1, 2, 2 * lam_pi - lv.k, 3)
    got = fn.induce_simple(lv, x)
    assert got == lc.build_R(lv, 1, 2, lam_pi, 2)


def test_induce_vacuum():
    lv = admissible_level(3, 2)
    n = fn.induce_vacuum(lv)
    assert n.parts[0] == lc.a_simple(lc.unit_a(lv))
    assert n.parts[1] == lc.a_simple(lc.simple_a(lv, 1, 1, 2, lv.t))
    assert sum(n for _, n in lc.comp_factors_a(lv, n).items()) == 2

    lv = admissible_level(2, 3)
    n = fn.induce_vacuum(lv)
    factors = lc.comp_factors_a(lv, n)
    assert factors == lc.a_class(
        lv,
        lc.unit_a(lv),
        lc.simple_a(lv, 1, 2, 1, wt(F(-1, 3))),
        lc.simple_a(lv, 1, 1, 2, wt(F(-2, 3))),
    )
    assert sum(c for _, c in factors.items()) == 3


def test_frobenius_dim_examples():
    lv = admissible_level(5, 3)
    x = wc.atypical(lv, 1, 1, 1)
    assert frobenius_dim(lv, x, lc.simple_a(lv, 1, 2, 1, -lv.t / 2)) == 1
    assert frobenius_dim(lv, x, lc.simple_a(lv, 1, 1, 2, -lv.t)) == 0
    z = wc.typical(lv, 1, 1, OMEGA, 0)
    assert frobenius_dim(lv, z, fn.tau(lv, z)) == 1


def test_groth_F_examples(level):
    u, v = level.u, level.v
    # [sigma^l D+_{r,v-1}] -> [M_{u-r,1} x Pi_{l+1}(nu_{u-r,1})]
    for r in range(1, u):
        got = fn.groth_F(level, wc.GrothC.of(wc.atypical(level, r, v - 1, 2)))
        assert got == lc.a_class(level, lc.simple_a(level, u - r, 1, 3, nu_rs(level, u - r, 1)))
    # additivity
    x = wc.GrothC.of(wc.atypical(level, 1, 1, 1), wc.lr0(level, 1, 0))
    lhs = fn.groth_F(level, x)
    rhs = fn.groth_F(level, wc.GrothC.of(wc.atypical(level, 1, 1, 1))) + fn.groth_F(
        level, wc.GrothC.of(wc.lr0(level, 1, 0))
    )
    assert lhs == rhs


def test_groth_F_of_vacuum_class(level):
    # F applied to the restriction of A agrees with the direct computation of F(A)
    lhs = fn.groth_F(level, wc.comp_factors(level, vacuum_extension(level)))
    rhs = lc.comp_factors_a(level, fn.induce_vacuum(level))
    assert lhs == rhs


def test_duality_square(level):
    from sl2wt.pipeline import duality_square_holds

    r = rng(43)
    for _ in range(60):
        x = random_label(level, r)
        assert duality_square_holds(level, x)


def test_gv_dual_restricts_to_contragredient(level):
    # G(gv_dual(Y)) = G(Y)' as catalogued objects, for 100 random simples Y
    r = rng(44)
    for _ in range(100):
        y = lc.simple_a(
            level,
            r.randint(1, level.u - 1),
            r.randint(1, level.v - 1),
            r.randint(-4, 4),
            random_weight(r),
        )
        lhs = fn.restrict_simple(level, lc.gv_dual(level, y))
        rhs = wc.contragredient_obj(level, fn.restrict_simple(level, y))
        assert lhs == rhs
    # and on the atypical cosets explicitly
    for rr in range(1, level.u):
        for ss in range(1, level.v):
            from sl2wt.arithmetic import nu_rs as nu

            y = lc.simple_a(level, rr, ss, 2, nu(level, rr, ss))
            lhs = fn.restrict_simple(level, lc.gv_dual(level, y))
            rhs = wc.contragredient_obj(level, fn.restrict_simple(level, y))
            assert lhs == rhs


@pytest.mark.parametrize("uv", SAMPLE_LEVELS, ids=lambda uv: f"{uv[0]}-{uv[1]}")
def test_affine_call_sites_match_their_old_expressions(uv):
    # 2*lam - k, (lam+k)/2 and t - lam, each now one Weight.affine, against
    # the expressions they replaced, on every simple that step 2 checks and
    # on the typical restriction of each
    level = admissible_level(*uv)
    k, t, half = level.k, level.t, F(1, 2)
    typicals = 0
    for y in step2_samples(level):
        assert y.lam.affine(2, level.minus_k_weight) == 2 * y.lam - k
        assert y.lam.affine(-1, t) == -y.lam + t  # the old Fraction - Weight
        assert lc.gv_dual(level, y) == lc.simple_a(level, y.r, y.s, -y.flow - 2, -y.lam + t)
        res = fn.restrict_simple(level, y)
        if res.tag != "simple":
            continue
        typicals += 1
        x = res.layers[0][0]
        assert res == wc.simple(wc.typical(level, y.r, y.s, 2 * y.lam - k, y.flow + 1))
        assert x.lam.affine(half, level.half_k_weight) == (x.lam + k) * half
        assert fn.tau(level, x) == lc.simple_a(level, x.r, x.s, x.flow - 1, (x.lam + k) * half)
        big_r = fn.induce_simple(level, x)
        assert big_r == lc.build_R(level, x.r, x.s, (x.lam + k) * half, x.flow - 1)
        lam = big_r.layers[0][0].lam
        assert lc.rigid_dual(level, big_r) == lc.build_R(level, big_r.r, big_r.s, -lam + t, -big_r.flow - 2)
    # lam = w gives a typical sample at every (r, s, flow)
    assert typicals >= len(FLOWS) * (level.u - 1) * (level.v - 1)


def _flow_a(level, y, m):
    """sigma^m of a simple A-label: its flow raised by m."""
    return lc.simple_a(level, y.r, y.s, y.flow + m, y.lam)


def _flow_a_object(level, x, m):
    """sigma^m of a catalogued A-object: the flow of the object and of every
    layer label raised by m."""
    layers = tuple(tuple(_flow_a(level, z, m) for z in layer) for layer in x.layers)
    return lc.AObject(x.tag, x.r, x.s, x.flow + m, layers)


@pytest.mark.parametrize("uv", SAMPLE_LEVELS, ids=lambda uv: f"{uv[0]}-{uv[1]}")
def test_functors_commute_with_spectral_flow(uv):
    # restriction, induction and tau at flow m are the flow-0 answer moved
    # by sigma^m: y on both atypical cosets, at 1/7 and at w; x atypical and
    # typical at 1/7 and at w
    level = admissible_level(*uv)
    u, v = level.u, level.v
    checked = 0
    for r in range(1, u):
        for s in range(1, v):
            lams = (nu_rs(level, r, s), nu_rs(level, u - r, v - s), F(1, 7), OMEGA)
            ys = [lc.simple_a(level, r, s, 0, lam) for lam in lams]
            xs = [wc.atypical(level, r, s, 0), wc.typical(level, r, s, F(1, 7), 0), wc.typical(level, r, s, OMEGA, 0)]
            for m in (-2, -1, 1, 2):
                for y in ys:
                    flowed = fn.restrict_simple(level, _flow_a(level, y, m))
                    assert flowed == wc.spectral_flow(fn.restrict_simple(level, y), m)
                for x in xs:
                    flowed = wc.spectral_flow(x, m)
                    assert fn.induce_simple(level, flowed) == _flow_a_object(level, fn.induce_simple(level, x), m)
                    assert fn.tau(level, flowed) == _flow_a(level, fn.tau(level, x), m)
                checked += len(ys) + 2 * len(xs)
    assert checked == 40 * (u - 1) * (v - 1)
