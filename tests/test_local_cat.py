import json
from fractions import Fraction as F
from itertools import chain, product

import pytest

from sl2wt import OMEGA, OutOfKacTable, admissible_level, pi_conf_weight, wt
from sl2wt.arithmetic import DirectSum, Groth, h_rs, nu_rs
from sl2wt import local_cat as lc

from conftest import TEST_LEVELS, map_labels, random_weight, rng

CHANNEL_LEVELS = TEST_LEVELS + [(13, 8)]


def random_alabel(level, r):
    return lc.simple_a(
        level,
        r.randint(1, level.u - 1),
        r.randint(1, level.v - 1),
        r.randint(-4, 4),
        random_weight(r),
    )


def test_simple_a_canonical():
    lv = admissible_level(5, 3)
    a = lc.simple_a(lv, 4, 2, 1, wt(F(7, 3)))
    b = lc.simple_a(lv, 1, 1, 1, wt(F(1, 3)))
    assert a == b and (a.r, a.s) == (1, 1) and a.lam == wt(F(1, 3))
    with pytest.raises(OutOfKacTable):
        lc.simple_a(lv, 1, 3, 0, wt(0))


def test_vir_fuse_examples():
    lv = admissible_level(5, 3)
    for r, s in product(range(1, 5), range(1, 3)):
        assert lc.vir_fuse(lv, 1, 1, r, s) == [(r, s)]
    assert lc.vir_fuse(lv, 2, 1, 2, 1) == [(1, 1), (3, 1)]
    for r in range(1, 5):
        channels = lc.vir_fuse(lv, 1, 2, r, 2)
        assert {s for _, s in channels} == {1}  # s'' range collapses at v = 3


def test_vir_fuse_ring_axioms_small():
    lv = admissible_level(4, 3)
    table = [(r, s) for r in range(1, 4) for s in range(1, 3)]

    def mult(xs, y):
        out = []
        for x in xs:
            out.extend(lc.vir_fuse(lv, *x, *y))
        return sorted(out)

    for a, b in product(table, repeat=2):
        assert sorted(lc.vir_fuse(lv, *a, *b)) == sorted(lc.vir_fuse(lv, *b, *a))
    for a, b, c in product(table, repeat=3):
        assert mult(lc.vir_fuse(lv, *a, *b), c) == sorted(
            x for y in lc.vir_fuse(lv, *b, *c) for x in lc.vir_fuse(lv, *a, *y)
        )


def test_vir_fuse_out_of_range():
    lv = admissible_level(5, 3)
    for bad in ((0, 1, 1, 1), (1, 3, 1, 1), (1, 1, 5, 2), (1, 1, 1, 0)):
        with pytest.raises(OutOfKacTable):
            lc.vir_fuse(lv, *bad)
    with pytest.raises(OutOfKacTable):
        lc.build_R(lv, 1, 3, wt(0), 0)
    with pytest.raises(OutOfKacTable):
        lc.build_M(lv, 5, 1, 0)
    with pytest.raises(OutOfKacTable):
        lc.build_M(lv, 1, 4, 0)  # s may reach v but not v+1


def test_build_R_names_the_kac_label_once():
    # simple_a is build_R's one Kac check, and its message is the one the
    # check in build_R itself used to raise
    lv = admissible_level(5, 3)
    with pytest.raises(OutOfKacTable) as err:
        lc.build_R(lv, 1, 3, wt(0), 0)
    assert str(err.value) == "(r, s) = (1, 3) outside [1,4] x [1,2] at level 5/3"


def test_pi_fuse():
    assert lc.pi_fuse(0, wt(0), 3, wt(F(1, 4))) == (3, wt(F(1, 4)))
    assert lc.pi_fuse(1, wt(F(1, 2)), -1, wt(F(1, 3))) == (0, wt(F(5, 6)))
    t = admissible_level(5, 3).t
    assert lc.pi_fuse(2, wt(t), -2, wt(-t)) == (0, wt(0))


def test_a_fuse_examples():
    lv = admissible_level(5, 3)
    unit = lc.unit_a(lv)
    y = lc.simple_a(lv, 2, 2, 3, wt(F(2, 7), F(1, 2)))
    assert lc.a_fuse(lv, unit, y) == lc.a_class(lv, y)
    inv = lc.simple_a(lv, 1, 1, -3, -wt(F(2, 7), F(1, 2)))
    prod = lc.a_fuse(lv, lc.simple_a(lv, 1, 1, 3, wt(F(2, 7), F(1, 2))), inv)
    assert prod == lc.a_class(lv, unit)
    # (M_{1,2} x Pi_1(-t/2))^2 at (5,3): only the s'' = 1 channel survives
    x = lc.simple_a(lv, 1, 2, 1, -lv.t / 2)
    assert lc.a_fuse(lv, x, x) == lc.a_class(lv, lc.simple_a(lv, 1, 1, 2, -lv.t))


def test_groth_a_ring(level):
    r = rng(31)
    unit = lc.a_class(level, lc.unit_a(level))
    for _ in range(60):
        x = lc.a_class(level, random_alabel(level, r))
        y = lc.a_class(level, random_alabel(level, r))
        z = lc.a_class(level, random_alabel(level, r))
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert unit * x == x
    for _ in range(20):
        flow, lam = r.randint(-5, 5), random_weight(r)
        a = lc.a_class(level, lc.simple_a(level, 1, 1, flow, lam))
        b = lc.a_class(level, lc.simple_a(level, 1, 1, -flow, -lam))
        assert a * b == unit


def test_rigid_dual_and_gv_dual():
    lv = admissible_level(5, 3)
    x = lc.simple_a(lv, 1, 2, 3, wt(F(1, 7), F(2)))
    assert lc.rigid_dual_label(lv, x) == lc.simple_a(lv, 1, 2, -3, -wt(F(1, 7), F(2)))
    assert lc.gv_dual(lv, x) == lc.simple_a(lv, 1, 2, -5, lv.t - wt(F(1, 7), F(2)))
    # gv = rigid followed by fusing with M(1,1) x Pi_{-2}(t)
    shift = lc.simple_a(lv, 1, 1, -2, lv.t)
    via_fusion = lc.a_fuse(lv, lc.rigid_dual_label(lv, x), shift)
    assert via_fusion == lc.a_class(lv, lc.gv_dual(lv, x))
    # fixed point at (flow, lam) = (-1, t/2)
    fp = lc.simple_a(lv, 2, 1, -1, lv.t / 2)
    assert lc.gv_dual(lv, fp) == fp


def test_gv_dual_of_unit_and_nu_identity(level):
    # nu_{u-1,v-1} = t - 1, so the gv dual of the unit is M(1,1) x Pi_{-2}(t)
    assert nu_rs(level, level.u - 1, level.v - 1) == level.t - 1
    got = lc.gv_dual(level, lc.unit_a(level))
    assert got == lc.simple_a(level, 1, 1, -2, level.t)


def test_rigid_dual_involution(level):
    r = rng(32)
    objs = []
    for _ in range(100):
        kind = r.random()
        if kind < 0.4:
            objs.append(lc.a_simple(random_alabel(level, r)))
        elif kind < 0.7:
            objs.append(
                lc.build_R(
                    level,
                    r.randint(1, level.u - 1),
                    r.randint(1, level.v - 1),
                    random_weight(r),
                    r.randint(-3, 3),
                )
            )
        else:
            objs.append(
                lc.build_M(level, r.randint(1, level.u - 1), r.randint(1, level.v), r.randint(-3, 3))
            )
    for obj in objs:
        assert lc.rigid_dual(level, lc.rigid_dual(level, obj)) == obj


def test_rigid_dual_is_ring_map(level):
    r = rng(33)
    for _ in range(40):
        x = random_alabel(level, r)
        y = random_alabel(level, r)
        lhs = map_labels(lc.a_fuse(level, x, y), lambda z: lc.rigid_dual_label(level, z))
        rhs = lc.a_fuse(level, lc.rigid_dual_label(level, x), lc.rigid_dual_label(level, y))
        assert lhs == rhs


def test_r_dual_formula():
    lv = admissible_level(5, 3)
    robj = lc.build_R(lv, 1, 2, wt(F(1, 9), F(1, 2)), 4)
    dual = lc.rigid_dual(lv, robj)
    assert dual == lc.build_R(lv, 1, 2, lv.t - wt(F(1, 9), F(1, 2)), -6)


def test_twist_exponent():
    lv = admissible_level(5, 3)
    assert lc.twist_exponent(lv, lc.unit_a(lv)) == wt(0)
    x = lc.simple_a(lv, 1, 2, 1, -lv.t / 2)
    got = lc.twist_exponent(lv, x)
    # independent: h_{1,2} + k/4 - t = 3/4 - 1/12 - 5/3 = -1; stored rep shifts by ints
    assert (got - wt(F(3, 4) + lv.k / 4 - lv.t)).is_integral
    assert h_rs(lv, 1, 2) == F(3, 4)


def test_twist_gv_invariance(level):
    r = rng(34)
    for _ in range(100):
        x = random_alabel(level, r)
        diff = lc.twist_exponent(level, lc.gv_dual(level, x)) - lc.twist_exponent(level, x)
        assert diff.is_integral


def test_monodromy_exponent():
    lv = admissible_level(5, 3)
    assert lc.monodromy_exponent(lv, 0, wt(F(3, 7)), 0, OMEGA) == wt(0)
    # k = -1/3: exponent = k*0/2 + lam*1 + lam'*0 with (l,lam)=(1,0),(l',lam')=(0,1/2)
    assert lc.monodromy_exponent(lv, 1, wt(0), 0, wt(F(1, 2))) == wt(F(1, 2))


def test_monodromy_symmetry_biadditivity_balancing(level):
    r = rng(35)
    for _ in range(200):
        l1, l2, l3 = (r.randint(-4, 4) for _ in range(3))
        w1, w2, w3 = (random_weight(r) for _ in range(3))
        m = lc.monodromy_exponent
        assert m(level, l1, w1, l2, w2) == m(level, l2, w2, l1, w1)
        add = m(level, l1 + l3, w1 + w3, l2, w2) - m(level, l1, w1, l2, w2) - m(level, l3, w3, l2, w2)
        assert add.is_integral  # in fact exactly zero, but mod 1 is the contract
        balance = (
            pi_conf_weight(level, l1 + l2, w1 + w2)
            - pi_conf_weight(level, l1, w1)
            - pi_conf_weight(level, l2, w2)
        )
        assert m(level, l1, w1, l2, w2) == balance


def test_nondegeneracy_witness_bounded_search(level):
    r = rng(36)
    unit = lc.unit_a(level)
    for _ in range(50):
        x = lc.simple_a(level, 1, 1, r.randint(-4, 4), random_weight(r))
        if x == unit:
            continue
        found = False
        for lp in (0, 1):
            for wp in (OMEGA, wt(F(1, 2)), wt(F(1, 3)), wt(F(1, 5)), wt(F(2, 5))):
                if not lc.monodromy_exponent(level, x.flow, x.lam, lp, wp).is_integral:
                    found = True
                    break
            if found:
                break
        assert found, f"no Pi-sector witness for {x}"


def test_is_local_flow():
    assert lc.is_local_flow(3)
    assert lc.is_local_flow(-7)
    assert not lc.is_local_flow(F(1, 2))


def test_build_r_shapes(level):
    u, v = level.u, level.v
    for s in range(1, v):
        robj = lc.build_R(level, 1, s, wt(F(1, 9), F(1)), 0)
        count = sum(len(layer) for layer in robj.layers)
        if v == 2:
            assert count == 2 and len(robj.layers) == 2
        elif s in (1, v - 1):
            assert count == 3
        else:
            assert count == 4
        # top and bottom are always the (r,s) line shifted by (2, -t)
        top = robj.layers[0][0]
        bot = robj.layers[-1][0]
        assert (bot.flow - top.flow, (bot.lam - top.lam + level.t).is_integral) == (2, True)


def test_build_r_v2_layers():
    lv = admissible_level(3, 2)
    robj = lc.build_R(lv, 1, 1, wt(F(1, 5)), 0)
    assert robj.layers == (
        (lc.simple_a(lv, 1, 1, 0, wt(F(1, 5))),),
        (lc.simple_a(lv, 1, 1, 2, wt(F(1, 5)) - lv.t),),
    )
    # lam + t = lam - t mod 1 when v = 2
    assert (wt(F(1, 5)) + lv.t - (wt(F(1, 5)) - lv.t)).is_integral


def test_build_m_shapes():
    lv = admissible_level(5, 3)
    m = lc.build_M(lv, 1, 2, 0)
    assert m.tag == "M"
    assert m.layers == (
        (lc.simple_a(lv, 1, 2, 0, nu_rs(lv, 1, 2)),),
        (lc.simple_a(lv, 1, 1, 1, nu_rs(lv, 1, 3)),),
    )
    simple_low = lc.build_M(lv, 2, 1, 4)
    assert simple_low == lc.a_simple(lc.simple_a(lv, 2, 1, 4, nu_rs(lv, 2, 1)))
    simple_top = lc.build_M(lv, 2, 3, 4)
    assert simple_top == lc.a_simple(lc.simple_a(lv, 3, 1, 5, nu_rs(lv, 3, 1)))
    assert simple_top == lc.a_simple(lc.simple_a(lv, 2, 2, 5, nu_rs(lv, 2, 4)))


def test_loewy_lines_render():
    lv = admissible_level(5, 3)
    lines = lc.loewy_lines(lc.build_R(lv, 1, 1, OMEGA, 0))
    assert lines[0].startswith("R(1,1;w)@0")
    assert any("M(1,2)xPi(1;" in ln for ln in lines)


def test_aobject_json_round_trip():
    lv = admissible_level(5, 3)
    objects = [
        lc.a_simple(lc.simple_a(lv, 1, 2, -1, wt(F(5, 6)))),
        lc.build_R(lv, 1, 1, OMEGA, 2),
        lc.build_M(lv, 2, 2, -3),
        lc.DirectSum((lc.a_simple(lc.unit_a(lv)), lc.build_M(lv, 1, 2, 1))),
    ]
    for obj in objects:
        blob = json.dumps(lc.aobject_to_json(obj), sort_keys=True)
        back = lc.aobject_from_json(lv, json.loads(blob))
        assert back == obj
        assert json.dumps(lc.aobject_to_json(back), sort_keys=True) == blob


def test_build_R_middle_layer_in_sort_key_order(level):
    # build_R sorts its middle layer by (r, s) alone: the two middle labels
    # share flow and lam and never share a canonical Kac label
    for r in range(1, level.u):
        for s in range(1, level.v):
            for lam in (wt(0), wt(F(1, 3)), OMEGA, level.t):
                mid = lc.build_R(level, r, s, lam, 1).layers[1:-1]
                for layer in mid:
                    assert list(layer) == sorted(layer, key=lambda x: x.sort_key())
                    assert len({(x.r, x.s) for x in layer}) == len(layer)


def _kac_pairs(level):
    table = [(r, s) for r in range(1, level.u) for s in range(1, level.v)]
    return product(table, repeat=2)


@pytest.mark.parametrize("uv", CHANNEL_LEVELS, ids=lambda uv: f"{uv[0]}-{uv[1]}")
def test_folded_virasoro_channels_are_distinct(uv):
    # a_fuse enters each channel's label once, so no two channels of one
    # product may fold to the same Kac label
    lv = admissible_level(*uv)
    for a, b in _kac_pairs(lv):
        folded = [min((r, s), (lv.u - r, lv.v - s)) for r, s in lc.vir_fuse(lv, *a, *b)]
        assert folded and len(set(folded)) == len(folded), (a, b)


@pytest.mark.parametrize("uv", CHANNEL_LEVELS, ids=lambda uv: f"{uv[0]}-{uv[1]}")
def test_a_fuse_is_the_class_of_its_channels(uv):
    lv = admissible_level(*uv)
    r = rng(uv[0] * 100 + uv[1] + 5)
    for _ in range(60):
        x, y = random_alabel(lv, r), random_alabel(lv, r)
        flow, lam = x.flow + y.flow, x.lam + y.lam
        channels = lc.vir_fuse(lv, x.r, x.s, y.r, y.s)
        got = lc.a_fuse(lv, x, y)
        assert got == Groth.of(*(lc.simple_a(lv, rr, ss, flow, lam) for rr, ss in channels))
        assert got.fuse.func is lc.a_fuse and got.fuse.args == (lv,)


@pytest.mark.parametrize("uv", CHANNEL_LEVELS, ids=lambda uv: f"{uv[0]}-{uv[1]}")
def test_comp_factors_a_counts_every_layer_label(uv):
    lv = admissible_level(*uv)
    objects = []
    for r in range(1, lv.u):
        for flow in (-1, 0, 1):
            objects += [lc.build_M(lv, r, s, flow) for s in range(1, lv.v + 1)]
            for s in range(1, lv.v):
                for lam in (wt(0), nu_rs(lv, r, s), wt(F(1, 3)), OMEGA, wt(F(1, 5), 1)):
                    objects.append(lc.build_R(lv, r, s, lam, flow))
    for x in objects:
        got = lc.comp_factors_a(lv, x)
        assert got == Groth.of(*chain.from_iterable(x.layers)), str(x)
        assert got.fuse.func is lc.a_fuse and got.fuse.args == (lv,)
    total = lc.comp_factors_a(lv, DirectSum(tuple(objects)))
    assert total == Groth.of(*(y for x in objects for layer in x.layers for y in layer))
    assert lc.comp_factors_a(lv, DirectSum((objects[0], DirectSum(tuple(objects[1:]))))) == total
