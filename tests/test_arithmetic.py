import copy
import pickle
from fractions import Fraction as F
from math import floor, gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from sl2wt import (
    OMEGA,
    NotAdmissible,
    OutOfKacTable,
    Weight,
    admissible_level,
    conf_wt_gap,
    kac_data,
    ks_dual_level,
    pi_conf_weight,
    wt,
)
from sl2wt.arithmetic import Groth, as_weight, delta_rs, h_rs, lam_rs, nu_rs
from sl2wt import functors as fn
from sl2wt import fusion as fu
from sl2wt import local_cat as lc
from sl2wt import weight_cat as wc
from sl2wt.pipeline import run_pipeline

from conftest import TEST_LEVELS, random_weight, rng


def test_admissible_level_values():
    lv = admissible_level(3, 2)
    assert (lv.t, lv.k) == (F(3, 2), F(-1, 2))
    # independent evaluation of 1 - 6(k+1)^2/(k+2)
    assert lv.c_k == 1 - 6 * (F(-1, 2) + 1) ** 2 / (F(-1, 2) + 2) == 0
    lv = admissible_level(5, 3)
    assert (lv.t, lv.k) == (F(5, 3), F(-1, 3))
    assert lv.c_k == 1 - 6 * (F(-1, 3) + 1) ** 2 / (F(-1, 3) + 2) == F(-3, 5)


@pytest.mark.parametrize("u,v", [(4, 2), (6, 3), (1, 2), (3, 1), (2, 1), (0, 5)])
def test_not_admissible(u, v):
    with pytest.raises(NotAdmissible):
        admissible_level(u, v)


def test_kac_data_examples():
    lv = admissible_level(5, 3)
    d = kac_data(lv, 1, 1)
    assert d.lam == F(-5, 3) == -lv.t
    # independent: Delta = ((r - t s)^2 - 1)/(4t), h = ((su - rv)^2 - (u-v)^2)/(4uv)
    assert d.delta == ((1 - F(5, 3)) ** 2 - 1) / (4 * F(5, 3)) == F(-1, 12)
    assert d.h == F((1 * 5 - 1 * 3) ** 2 - (5 - 3) ** 2, 4 * 5 * 3) == 0
    assert kac_data(lv, 2, 1).h == F(-1, 20)
    assert kac_data(lv, 1, 0).h is None
    assert kac_data(lv, 1, 3).h is None


@pytest.mark.parametrize("r,s", [(0, 1), (5, 1), (1, -1), (1, 4)])
def test_kac_data_range(r, s):
    with pytest.raises(OutOfKacTable):
        kac_data(admissible_level(5, 3), r, s)


def test_kac_symmetries_exhaustive(level):
    u, v = level.u, level.v
    for r in range(1, u):
        for s in range(1, v):
            assert lam_rs(level, u - r, v - s) == -lam_rs(level, r, s) - 2
            assert delta_rs(level, u - r, v - s) == delta_rs(level, r, s)
            assert h_rs(level, u - r, v - s) == h_rs(level, r, s)


def test_kac_tables_match_the_formulas(level):
    # tabled on 0 <= r <= u, 0 <= s <= v+1, built per call one step outside
    t = level.t
    for r in range(-1, level.u + 2):
        for s in range(-1, level.v + 3):
            assert lam_rs(level, r, s) == r - 1 - t * s
            assert nu_rs(level, r, s) == (r - 1 - t * (s - 1)) / 2
    assert level.half_t == t / 2


def test_conf_wt_gap_examples():
    assert conf_wt_gap(admissible_level(5, 3), 1, 1) == F(2, 3)
    assert conf_wt_gap(admissible_level(3, 2), 1, 1) == F(1, 2)
    with pytest.raises(OutOfKacTable):
        conf_wt_gap(admissible_level(5, 3), 1, 3)


def test_conf_wt_gap_never_integral(level):
    for r in range(1, level.u):
        for s in range(1, level.v):
            gap = conf_wt_gap(level, r, s)
            assert gap == -r + level.t * s
            assert gap.denominator > 1


def test_pi_conf_weight():
    lv = admissible_level(3, 2)
    assert pi_conf_weight(lv, 0, wt(0)) == wt(0)
    assert pi_conf_weight(lv, 2, lv.t) == wt(4)
    # lam coefficient vanishes at flow = -1
    for lam in (wt(0), wt(F(7, 3)), OMEGA, wt(F(1, 2), F(-2, 3))):
        assert pi_conf_weight(lv, -1, lam) == wt(lv.k / 4)


def test_ks_dual_level():
    assert ks_dual_level(admissible_level(3, 2)) == F(-1, 3)
    assert ks_dual_level(admissible_level(2, 3)) == F(1, 2)
    assert ks_dual_level(admissible_level(5, 3)) == F(-2, 5)
    for u, v in TEST_LEVELS:
        lv = admissible_level(u, v)
        ell = ks_dual_level(lv)
        assert (ell + 1) * (lv.k + 2) == 1


def test_weight_equality_and_predicates():
    assert wt(F(1, 2)) == Weight(F(1, 2), F(0))
    assert wt(F(1, 2)) != wt(F(1, 2), F(1, 3))
    assert OMEGA.b == 1 and not OMEGA.is_rational
    assert wt(3).is_integral and not wt(F(1, 2)).is_integral and not OMEGA.is_integral


def test_weight_reduce_properties():
    r = rng(7)
    for _ in range(300):
        x = random_weight(r)
        y = random_weight(r)
        for m in (1, 2):
            assert x.reduce(m).reduce(m) == x.reduce(m)
            assert (x + y).reduce(m) == (x.reduce(m) + y.reduce(m)).reduce(m)
            red = x.reduce(m)
            assert 0 <= red.a < m
            assert red.b == x.b


def test_weight_json_round_trip():
    r = rng(8)
    for _ in range(50):
        x = random_weight(r)
        data = x.to_json()
        for part in ("a", "b"):
            num, den = data[part]
            assert den > 0
            from math import gcd

            assert gcd(num, den) == 1
        assert Weight.from_json(data) == x


# -- the integer Weight against a (Fraction, Fraction) reference model --

_fractions = st.fractions(min_value=-40, max_value=40, max_denominator=24)
_pairs = st.tuples(_fractions, _fractions | st.just(F(0)))


def _model_str(a, b):
    """The rendering of a + b*w, written on the pair."""
    if b == 0:
        return str(a)
    wpart = "w" if b == 1 else "-w" if b == -1 else f"{b}w"
    if a == 0:
        return wpart
    return f"{a}{'+' if b > 0 else ''}{wpart}"


def _check_against(x, pair):
    a, b = pair
    assert (x.a, x.b) == (a, b)
    assert type(x.a) is F and type(x.b) is F
    assert x.d > 0 and gcd(x.p, x.q, x.d) == 1
    # normalized triples are unique: the pair fixes them
    assert x == Weight(a, b) and hash(x) == hash(Weight(a, b))
    assert x.is_rational == (b == 0)
    assert x.is_integral == (b == 0 and a.denominator == 1)
    assert bool(x) == (a != 0 or b != 0)
    assert str(x) == _model_str(a, b)
    assert x.to_json() == {"a": [a.numerator, a.denominator], "b": [b.numerator, b.denominator]}
    assert Weight.from_json(x.to_json()) == x


@settings(max_examples=300, deadline=None)
@given(_pairs, _pairs, st.integers(-30, 30), _fractions)
def test_weight_matches_fraction_pair_model(xp, yp, n, c):
    (a1, b1), (a2, b2) = xp, yp
    x, y = Weight(a1, b1), Weight(a2, b2)
    _check_against(x, xp)
    _check_against(x + y, (a1 + a2, b1 + b2))
    _check_against(x - y, (a1 - a2, b1 - b2))
    _check_against(-x, (-a1, -b1))
    for k in (n, c):
        _check_against(x * k, (a1 * k, b1 * k))
        _check_against(k * x, (a1 * k, b1 * k))
        _check_against(x + k, (a1 + k, b1))
        _check_against(k + x, (a1 + k, b1))
        _check_against(x - k, (a1 - k, b1))
        _check_against(k - x, (k - a1, -b1))
    for m in (1, 2):
        _check_against(x.reduce(m), (a1 - floor(a1 / m) * m, b1))
    assert (x == y) == (xp == yp)
    if x == y:
        assert hash(x) == hash(y)


@given(st.integers(-60, 60), st.integers(-60, 60), st.integers(-60, 60).filter(bool), st.integers(1, 6))
@example(2, 1, 2, 1)  # (2 + w)/2: gcd(p, q, d) = 1 and d | p, yet not integral
@example(2, 0, 2, 1)  # 2/2 = 1 is integral
@example(0, 0, -5, 1)
def test_weight_triples_normalize(p, q, d, k):
    x = Weight(p, q, d)
    _check_against(x, (F(p, d), F(q, d)))
    # every multiple of a triple is the same weight
    scaled = Weight(k * p, k * q, k * d)
    assert scaled == x and hash(scaled) == hash(x)
    assert (scaled.p, scaled.q, scaled.d) == (x.p, x.q, x.d)


def test_weight_integrality_trap():
    trap = Weight(1, F(1, 2))  # (2 + w)/2
    assert (trap.p, trap.q, trap.d) == (2, 1, 2)
    assert not trap.is_integral and not trap.is_rational
    assert (trap - OMEGA * F(1, 2)).is_integral


@given(st.lists(_pairs, max_size=12))
def test_weight_sort_key_orders_as_the_pair(pairs):
    weights = [Weight(a, b) for a, b in pairs]
    by_key = sorted(weights, key=lambda x: x.sort_key())
    assert [(x.a, x.b) for x in by_key] == sorted(pairs)


def test_weight_is_immutable_and_copyable():
    x = wt(F(3, 4), F(-1, 6))
    with pytest.raises(AttributeError):
        x.p = 1
    with pytest.raises(AttributeError):
        del x.d
    assert copy.copy(x) == x and pickle.loads(pickle.dumps(x)) == x
    assert repr(x) == "Weight(a=Fraction(3, 4), b=Fraction(-1, 6))"


def test_weight_hot_path_builds_no_fraction(monkeypatch):
    x, twin, y, c = wt(F(5, 6), F(-2, 3)), Weight(-5, 4, -6), wt(F(7, 4)), F(3, 8)
    table = {x: "x"}

    def refuse(*args, **kwargs):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(F, "__new__", refuse)
    assert x + y == y + x and x - y == -(y - x)
    assert x + c == c + x and x - c == -(c - x) and x + 2 == 2 + x
    assert x * 3 == 3 * x and x * c == c * x
    assert x.reduce(1) == x.reduce(2).reduce(1)
    assert twin == x and hash(twin) == hash(x) and table[twin] == "x"
    assert not x.is_integral and not x.is_rational and bool(x)


@pytest.mark.parametrize("uv", TEST_LEVELS + [(13, 8)], ids=lambda uv: f"{uv[0]}-{uv[1]}")
def test_label_and_functor_hot_path_builds_no_fraction(monkeypatch, uv):
    # once a level has built its constants (t, k, t/2 and the lambda and nu
    # tables), labels, restriction, tau^-1, induction and simple fusion build
    # no Fraction
    level = admissible_level(*uv)
    r = rng(uv[0] * 10 + uv[1])
    args = []
    for rr in range(1, level.u):
        for ss in range(1, level.v):
            for lam in (nu_rs(level, rr, ss) + 1, nu_rs(level, level.u - rr, level.v - ss), random_weight(r)):
                args.append((rr, ss, r.randint(-2, 2), as_weight(lam)))
    for name in ("t", "k", "half_t", "lam_table", "nu_table"):
        getattr(level, name)
    assert not level.restrictions  # every restriction below is computed

    def refuse(*args, **kwargs):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(F, "__new__", refuse)
    labels = [lc.simple_a(level, *a) for a in args]
    for y in labels:
        fn.restrict_simple(level, y)
        x = fn.tau_inverse(level, y)
        fn.induce_simple(level, x)
        lc.a_fuse(level, y, labels[0])


# -- sums in place: Groth._add_to, and the sums and products built on it --

_LEVEL_53 = admissible_level(5, 3)
_A_LABELS = [
    lc.simple_a(_LEVEL_53, r, s, flow, lam)
    for r, s, flow, lam in ((1, 1, 0, 0), (1, 2, 1, F(1, 3)), (2, 1, 0, OMEGA), (2, 2, -1, F(1, 2)), (1, 1, 2, OMEGA))
]
_classes = st.dictionaries(st.sampled_from(_A_LABELS), st.integers(-3, 3), max_size=5).map(
    lambda coeffs: Groth(coeffs, lc.a_class(_LEVEL_53).fuse)
)
_terms = st.lists(st.tuples(st.integers(-3, 3), _classes), max_size=8)


def _fold(terms):
    """The reference sum, through the public + and -."""
    total = Groth()
    for n, cls in terms:
        total = total + n * cls if n >= 0 else total - (-n) * cls
    return total


def _model(terms):
    """The reference sum, on plain dicts."""
    out = {}
    for n, cls in terms:
        for x, c in cls.items():
            out[x] = out.get(x, 0) + n * c
    return {x: c for x, c in out.items() if c}


@settings(max_examples=300, deadline=None)
@given(_terms)
@example([(1, Groth({_A_LABELS[0]: 2})), (-2, Groth({_A_LABELS[0]: 1, _A_LABELS[1]: 1})), (1, Groth({_A_LABELS[1]: 2}))])
@example([(0, Groth({_A_LABELS[0]: 1}))])
def test_sums_in_place_match_the_fold(terms):
    before = [dict(cls.coeffs) for _, cls in terms]
    out = {}
    for n, cls in terms:
        cls._add_to(out, n)
        assert 0 not in out.values()
    assert out == _fold(terms).coeffs == _model(terms)
    assert [cls.coeffs for _, cls in terms] == before


@settings(max_examples=100, deadline=None)
@given(_classes, _classes)
def test_product_in_place_matches_the_model(a, b):
    before = (dict(a.coeffs), dict(b.coeffs))
    model = {}
    for x, n in a.items():
        for y, m in b.items():
            for z, c in lc.a_fuse(_LEVEL_53, x, y).items():
                model[z] = model.get(z, 0) + n * m * c
    got = a * b
    assert got.coeffs == {z: c for z, c in model.items() if c}
    assert (a + b) - b == a and (a - a).is_zero
    assert (a.coeffs, b.coeffs) == before
    assert (0 * a).is_zero and (-1 * a + a).is_zero


def test_pipeline_leaves_the_shared_vacuum_class_alone():
    level = admissible_level(5, 3)
    shared = fu._vacuum_class(level)
    before = dict(shared.coeffs)
    assert run_pipeline(level).verdict
    assert fu._vacuum_class(level) is shared and shared.coeffs == before
    assert before == lc.comp_factors_a(level, fn.induce_vacuum(level)).coeffs


# -- coset tests on integers: Weight.on_coset --


@settings(max_examples=400, deadline=None)
@given(_pairs, _fractions | st.integers(-9, 9), st.sampled_from([1, 2]), st.sampled_from([1, -1]),
       st.booleans(), st.integers(-5, 5))
def test_on_coset_matches_the_reduction(pair, c, m, sign, place, j):
    a, b = pair
    if place:  # put the rational part on the coset, so that True cases come up
        a = sign * c + m * j
    x = Weight(a, b)
    assert x.on_coset(c, m, sign) == (not (x - sign * c).reduce(m))
    assert x.on_coset(c, m, sign) == (b == 0 and (F(a - sign * c) / m).denominator == 1)


def _refused_before(level, r, s, lam):
    """The NotSimple text of the earlier typical(), which reduced the gaps, or None."""
    w = as_weight(lam).reduce(2)
    lam_r = lam_rs(level, r, s)
    for sign, gap in (("+", w - lam_r), ("-", w + lam_r)):
        if not gap.reduce(2):
            return f"E({w};{r},{s}) is reducible: lam = {sign}lambda_{{r,s}} mod 2Z"
    return None


@pytest.mark.parametrize("uv", TEST_LEVELS, ids=lambda uv: f"{uv[0]}-{uv[1]}")
def test_typical_refuses_the_same_lams(uv):
    level = admissible_level(*uv)
    # every lam with denominator 2uv in [-4, 4], and each shifted by w
    den = 2 * level.u * level.v
    lams = [F(j, den) for j in range(-4 * den, 4 * den + 1)]
    lams += [lam + OMEGA for lam in lams[::7]]
    refused = 0
    for r in range(1, level.u):
        for s in range(1, level.v):
            for lam in lams:
                text = _refused_before(level, r, s, lam)
                if text is None:
                    assert wc.typical(level, r, s, lam).lam == as_weight(lam).reduce(2)
                    continue
                refused += 1
                with pytest.raises(wc.NotSimple) as err:
                    wc.typical(level, r, s, lam)
                assert str(err.value) == text
    # each label refuses its two cosets +-lambda_{r,s} + 2Z, four times each in [-4, 4]
    assert refused >= 4 * (level.u - 1) * (level.v - 1)
