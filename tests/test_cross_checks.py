"""Cross-checks tying independent computation routes to each other.

The fusion ring, the restriction table, and the catalogued products were
each implemented from their own closed forms; these tests replay the
intermediate identities that connect them (restrictions of fusion products
with the two nontrivial factors of F(A), the free-field construction of
both summands of the key product, and the solver on sum-valued classes)
and require exact agreement.  The reducible cosets that ``typical`` refuses,
and the socle that ``eminus`` catalogues, are checked against the
reducibility points and the submodule spans of the sl2 oracle, which shares
no code with the labels.
"""

from fractions import Fraction as F

import pytest

from sl2wt import OMEGA, admissible_level, wt
from sl2wt.arithmetic import as_weight, delta_rs, lam_ratio, lam_rs, nu_rs
from sl2wt import weight_cat as wc
from sl2wt import local_cat as lc
from sl2wt import functors as fn
from sl2wt import fusion as fu
from sl2wt.sl2_oracle import build_relaxed, reducibility_points

from conftest import SAMPLE_LEVELS, random_fraction, random_weight, rng
from test_weight_cat import vacuum_extension

V3_LEVELS = [admissible_level(u, v) for u, v in ((2, 3), (3, 4), (5, 3), (4, 3))]


def _restrict_label(level, x: lc.SimpleALabel) -> wc.CObject:
    return fn.restrict_simple(level, x)


def _only(p: lc.GrothA) -> lc.SimpleALabel:
    (label, n), = p.items()
    assert n == 1
    return label


@pytest.mark.parametrize("level", V3_LEVELS, ids=str)
def test_socle_factor_of_n_against_atypical_covers(level):
    # fusing the socle factor M(1,1) x Pi_2(-t) of F(A) with the cover
    # Y1 = M(r,s) x Pi_{l-1}(nu_{r,s}) restricts to a single typical
    # sigma^{l+2}(E(lambda_{r,s+2}; r,s)) for s <= v-2, and to
    # sigma^{l+2}(E-(r,v-1)) at the table edge
    socle = lc.simple_a(level, 1, 1, 2, -level.t)
    for r in range(1, level.u):
        for s in range(1, level.v):
            for ell in (-1, 0, 2):
                y1 = lc.simple_a(level, r, s, ell - 1, nu_rs(level, r, s))
                prod = _only(lc.a_fuse(level, socle, y1))
                got = _restrict_label(level, prod)
                if s <= level.v - 2:
                    expect = wc.simple(
                        wc.typical(level, r, s, lam_rs(level, r, s + 2), ell + 2)
                    )
                else:
                    expect = wc.eminus(level, r, level.v - 1, ell + 2)
                assert got == expect


@pytest.mark.parametrize("level", V3_LEVELS, ids=str)
def test_middle_factor_of_n_against_atypical_covers(level):
    # the top factor M(1,2) x Pi_1(-t/2) of F(A) against the same covers:
    # the s+1 channel is the atypical string whose socle recreates the cover's
    # top, the s-1 channel is typical
    mid = lc.simple_a(level, 1, 2, 1, -level.t / 2)
    for r in range(1, level.u):
        for s in range(1, level.v):
            for ell in (-1, 0, 2):
                y1 = lc.simple_a(level, r, s, ell - 1, nu_rs(level, r, s))
                channels = {
                    _restrict_label(level, z) for z in lc.a_fuse(level, mid, y1).support()
                }
                expect = set()
                if s <= level.v - 2:
                    expect.add(wc.eminus(level, level.u - r, level.v - s - 1, ell + 1))
                if s >= 2:
                    expect.add(
                        wc.simple(
                            wc.typical(level, r, s - 1, lam_rs(level, r, s + 1), ell + 1)
                        )
                    )
                assert channels == expect
                # the atypical channel is what produces the second copy of the
                # cover's top in the locality count
                if s <= level.v - 2:
                    e = wc.eminus(level, level.u - r, level.v - s - 1, ell + 1)
                    assert wc.dminus(level, e.r, e.s, e.flow) == wc.atypical(level, r, s, ell)


@pytest.mark.parametrize("level", V3_LEVELS, ids=str)
def test_n_factors_against_typical_covers(level):
    # against a typical cover Y = M(r,s) x Pi_{l-1}((lam+k)/2) every channel
    # restricts to a typical with the lam shifted by -2t resp. -t, so the
    # original simple never reappears (multiplicity stays 1)
    socle = lc.simple_a(level, 1, 1, 2, -level.t)
    mid = lc.simple_a(level, 1, 2, 1, -level.t / 2)
    r_ = rng(61)
    for _ in range(40):
        r, s = r_.randint(1, level.u - 1), r_.randint(1, level.v - 1)
        ell = r_.randint(-3, 3)
        lam = random_weight(r_) + OMEGA  # force typicality
        z = wc.typical(level, r, s, lam, ell)
        y = fn.tau(level, z)
        got = _restrict_label(level, _only(lc.a_fuse(level, socle, y)))
        assert got == wc.simple(wc.typical(level, r, s, z.lam - 2 * level.t, ell + 2))
        for prod in lc.a_fuse(level, mid, y).support():
            res = _restrict_label(level, prod)
            assert res.tag == "simple"
            assert res.layers[0][0].lam == (z.lam - level.t).reduce(2)
            assert res.layers[0][0] != z


@pytest.mark.parametrize("uv", [(2, 3), (3, 4), (5, 3), (4, 3)])
def test_key_product_summands_via_free_field(uv):
    # both summands of D+(1,1) x D-(r,s) are restrictions of the free-field
    # modules the nonzero intertwining operators land in:
    #   typical part:  M(r,s+1) x Pi_{-1}(nu_{u-r,v-s+1})  (1 <= s <= v-2)
    #   other part:    M(r,s-1) x Pi_{-1}(nu_{u-r,v-s+1})  (2 <= s <= v-1)
    level = admissible_level(*uv)
    u, v = level.u, level.v
    for r in range(1, u):
        for s in range(1, v):
            product = wc.comp_factors(level, fu.fuse_D11plus_Dminus(level, r, s))
            lam_ff = nu_rs(level, u - r, v - s + 1)
            if s <= v - 2:
                target = fn.restrict_simple(level, lc.simple_a(level, r, s + 1, -1, lam_ff))
                assert target == wc.simple(
                    wc.typical(level, r, s + 1, -lam_rs(level, r, s - 1), 0)
                )
                assert product.multiplicity(target.layers[0][0]) == 1
            if s >= 2:
                target = fn.restrict_simple(level, lc.simple_a(level, r, s - 1, -1, lam_ff))
                assert target == wc.eminus(level, r, s - 1, 0)
                socle = wc.dminus(level, r, s - 1, 0)
                assert product.multiplicity(socle) == 1


def test_solver_on_algebra_class_square(level):
    # [A]^2 = [1] + 2[Q] + [Q x Q] with Q the simple quotient of A
    a_class = wc.comp_factors(level, vacuum_extension(level))
    got = fu.groth_fuse_C(level, a_class, a_class)
    q = wc.atypical(level, 1, 1, 1)
    expect = (
        wc.GrothC.of(wc.lr0(level, 1, 0))
        + 2 * wc.GrothC.of(q)
        + wc.comp_factors(level, fu.fuse_sigmaD11_selfsquare(level))
    )
    assert got == expect


@pytest.mark.parametrize("uv", [(3, 2), (5, 2), (7, 2)])
def test_v2_algebra_times_simple_current(uv):
    # at v = 2 the quotient of A is a flow of the order-2 simple current
    # L(u-1,0), and A x sigma^2(L(u-1,0)) has the factors of sigma^3(E-(1,1))
    level = admissible_level(*uv)
    a_class = wc.comp_factors(level, vacuum_extension(level))
    current = wc.GrothC.of(wc.lr0(level, level.u - 1, 2))
    assert current == wc.GrothC.of(wc.atypical(level, 1, 1, 1))  # = the quotient Q
    got = fu.groth_fuse_C(level, a_class, current)
    assert got == wc.comp_factors(level, wc.eminus(level, 1, 1, 3))
    # and the square of the current is the unit shifted by four flow units
    sq = fu.groth_fuse_C(level, current, current)
    assert sq == wc.GrothC.of(wc.lr0(level, 1, 4))


def test_tau_hits_every_sampled_simple_local(level):
    # the section tau inverts "take the socle of the restriction"
    r = rng(62)
    for _ in range(80):
        y = lc.simple_a(
            level,
            r.randint(1, level.u - 1),
            r.randint(1, level.v - 1),
            r.randint(-4, 4),
            random_weight(r),
        )
        res = fn.restrict_simple(level, y)
        socle = res.layers[0][0] if res.tag == "simple" else wc.dminus(level, res.r, res.s, res.flow)
        assert fn.tau(level, socle) == y


def _typical_disagreements(level):
    """The (r, s, lam) at which ``wc.typical`` refusing lam disagrees with the
    sl2 oracle finding a reducibility point of the minus window of
    E_{lam; Delta_{r,s}}, whose top space has Casimir 2t*Delta_{r,s}.  lam
    runs over +-lambda_{r,s}, their shifts by 2, lambda_{r,s} + 1/7 and two
    seeded rationals."""
    seeded = rng(level.u * 100 + level.v)
    out = []
    for r in range(1, level.u):
        for s in range(1, level.v):
            lam, casimir = lam_rs(level, r, s), 2 * level.t * delta_rs(level, r, s)
            lams = [lam, -lam, lam + 2, lam - 2, -lam + 2, -lam - 2, lam + F(1, 7)]
            lams += [random_fraction(seeded) for _ in range(2)]
            for mu in lams:
                try:
                    wc.typical(level, r, s, mu)
                    refused = False
                except wc.NotSimple:
                    refused = True
                if refused != bool(reducibility_points(mu, casimir, "minus", 20)):
                    out.append((r, s, mu))
    return out


@pytest.mark.parametrize("uv", SAMPLE_LEVELS, ids=lambda uv: f"{uv[0]}-{uv[1]}")
def test_typical_refuses_where_the_oracle_finds_a_reducibility_point(uv):
    assert _typical_disagreements(admissible_level(*uv)) == []


def _refuses_lambda_plus_one(level, r, s, lam, flow=0):
    """A wrong ``typical``: it refuses lambda_{r,s} + 1 mod 2Z in place of
    -lambda_{r,s} mod 2Z."""
    n, b = lam_ratio(level, r, s)
    w = as_weight(lam).reduce(2)
    if w.on_coset(n, b, 2, 1) or w.on_coset(n + b, b, 2, 1):
        raise wc.NotSimple(f"E({w};{r},{s}) is reducible")
    r, s = min((r, s), (level.u - r, level.v - s))
    return wc.SimpleCLabel(flow, r, s, w)


@pytest.mark.parametrize("uv", SAMPLE_LEVELS, ids=lambda uv: f"{uv[0]}-{uv[1]}")
def test_a_typical_refusing_the_wrong_coset_disagrees_with_the_oracle(monkeypatch, uv):
    monkeypatch.setattr(wc, "typical", _refuses_lambda_plus_one)
    failures = _typical_disagreements(admissible_level(*uv))
    if uv[1] == 2:
        # lambda_{r,1} = r - 1 - u/2 is a half-integer, so lambda + 1 and
        # -lambda lie on one coset mod 2Z: the mutant is the real code
        assert failures == []
    else:
        assert failures


def _eminus_socle_disagreements(level):
    """The Kac labels (r, s) at which the oracle and the catalogue disagree
    on the socle of E-_{r,s}.  The minus window of N = 12 at
    lam = -lambda_{r,s} with Casimir 2t*Delta_{r,s} has the one reducibility
    point mu = lam - 2, and its span {lam + 2i >= mu + 2} is e- and
    f-stable: the submodule is bounded below, so it is D-_{r,s}, and the
    socle that ``wc.eminus(level, r, s, 0)`` catalogues must be
    ``wc.dminus(level, r, s, 0)``."""
    out = []
    for r in range(1, level.u):
        for s in range(1, level.v):
            lam, casimir = -lam_rs(level, r, s), 2 * level.t * delta_rs(level, r, s)
            mu = as_weight(lam - 2)
            window = build_relaxed(lam, casimir, "minus", 12)
            bounded_below = reducibility_points(lam, casimir, "minus", 12) == [mu] and window.is_submodule_stable(mu)
            if not bounded_below or wc.eminus(level, r, s, 0).layers[-1] != (wc.dminus(level, r, s, 0),):
                out.append((r, s))
    return out


@pytest.mark.parametrize("uv", SAMPLE_LEVELS, ids=lambda uv: f"{uv[0]}-{uv[1]}")
def test_the_socle_of_e_minus_is_the_submodule_the_oracle_bounds_below(uv):
    assert _eminus_socle_disagreements(admissible_level(*uv)) == []


@pytest.mark.parametrize("uv", SAMPLE_LEVELS, ids=lambda uv: f"{uv[0]}-{uv[1]}")
def test_an_e_minus_with_top_and_socle_swapped_disagrees_with_the_oracle(monkeypatch, uv):
    # this mutant passes the pipeline's verdict at every level probed
    real = wc.eminus

    def swapped(level, r, s, flow=0):
        x = real(level, r, s, flow)
        return wc.CObject("E-", r, s, flow, x.layers[::-1])

    monkeypatch.setattr(wc, "eminus", swapped)
    lv = admissible_level(*uv)
    kac = [(r, s) for r in range(1, lv.u) for s in range(1, lv.v)]
    assert _eminus_socle_disagreements(lv) == kac
