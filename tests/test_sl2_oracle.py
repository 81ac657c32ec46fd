import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from sl2wt import OMEGA, Weight, admissible_level, wt
from sl2wt import sl2_oracle as so
from sl2wt.sl2_oracle import (
    AffineDepth1,
    RelaxedWindow,
    build_relaxed,
    reducibility_points,
    verify_affine_singular,
)

from conftest import random_fraction, random_weight, rng


def c_mu(mu: F) -> F:
    return mu * mu / 2 + mu


# The exact value of one coefficient: the window's int entry over its
# denominator, as Fractions.

def _x(win, i):
    """lam + 2i."""
    return tuple(F(c, win._den("h")) for c in win._entry("h", i))


def up_coeff(win, i):
    """Coefficient of e: v_i -> v_{i+1}."""
    return tuple(F(c, win._den("e")) for c in win._entry("e", i))


def down_coeff(win, i):
    """Coefficient of f: v_i -> v_{i-1}."""
    return tuple(F(c, win._den("f")) for c in win._entry("f", i))


def test_f_coefficient_vanishing():
    # lam = 0, C = 0: the string breaks where lam + 2i - 2 = 0, i.e. i = 1
    win = build_relaxed(0, 0, "minus", 5)
    assert not down_coeff(win, 1)
    assert down_coeff(win, 2)


def test_generic_omega_never_breaks():
    win = build_relaxed(OMEGA, 17, "minus", 3)
    for i in range(-3, 4):
        assert down_coeff(win, i)
    assert reducibility_points(OMEGA, 17, "minus", 3) == []
    assert reducibility_points(OMEGA, F(-5, 7), "plus", 4) == []


def test_reducibility_points_examples():
    # C_2 = 2^2/2 + 2 = 4
    assert c_mu(F(2)) == 4
    pts = reducibility_points(0, 4, "minus", 5)
    assert wt(2) in pts
    assert pts == [wt(-4), wt(2)]  # the two roots of mu^2/2 + mu = 4
    assert reducibility_points(0, 0, "minus", 5) == [wt(-2), wt(0)]
    assert reducibility_points(1, F(3, 2), "minus", 5) == [wt(-3), wt(1)]
    # plus model uses C_{-mu} = mu^2/2 - mu
    assert reducibility_points(1, F(3, 2), "plus", 5) == [wt(-1), wt(3)]


def test_window_relations_random():
    r = rng(11)
    for _ in range(25):
        lam = random_fraction(r)
        cas = random_fraction(r)
        for sign in ("minus", "plus"):
            win = build_relaxed(lam, cas, sign, 4)
            assert win.check_brackets()
            assert win.check_casimir()
    for lam, cas in ((OMEGA, wt(3)), (wt(F(1, 3), F(1, 2)), OMEGA), (OMEGA, OMEGA)):
        win = build_relaxed(lam, cas, "minus", 3)
        assert win.check_brackets()
        assert win.check_casimir()


def test_exact_sequence_witness():
    r = rng(12)
    for _ in range(25):
        lam = random_fraction(r)
        i0 = r.randint(-8, 8)
        mu = lam + 2 * i0
        win = build_relaxed(lam, c_mu(mu), "minus", 12)
        assert wt(mu) in reducibility_points(lam, c_mu(mu), "minus", 12)
        assert win.is_submodule_stable(wt(mu))
        # negative control: with a shifted Casimir the same span leaks under f
        bad = build_relaxed(lam, c_mu(mu) + 1, "minus", 12)
        assert not bad.is_submodule_stable(wt(mu))


def test_submodule_witness_refuses_an_empty_or_whole_span():
    # A generic minus window with no reducibility point.  The span
    # {lam + 2i >= mu + 2} is proper and nonempty only for -N <= i0 <= N-1;
    # outside that a stability check would pass on no evidence.
    lam, cas, n = F(1, 3), F(-2, 5), 4
    win = build_relaxed(lam, cas, "minus", n)
    assert reducibility_points(lam, cas, "minus", n) == []
    for i0 in (n, n + 5, -(n + 1), -(n + 3)):
        with pytest.raises(ValueError):
            win.submodule_indices(wt(lam + 2 * i0))
        with pytest.raises(ValueError):
            win.is_submodule_stable(wt(lam + 2 * i0))
    assert win.submodule_indices(wt(lam + 2 * (n - 1))) == [n]
    assert win.submodule_indices(wt(lam - 2 * n)) == list(range(-n + 1, n + 1))
    for i0 in (-n, 0, n - 1):
        assert not win.is_submodule_stable(wt(lam + 2 * i0))


def test_affine_singular_vector():
    for u, v in ((3, 2), (2, 3), (5, 3)):
        assert verify_affine_singular(admissible_level(u, v))
    # perturbing the f_{-1} coefficient by +1 destroys singularity
    assert not verify_affine_singular(admissible_level(5, 3), F(1))
    assert not verify_affine_singular(admissible_level(3, 2), F(1))


def test_depth1_modes_land_where_expected():
    model = AffineDepth1(admissible_level(5, 3))
    s = model.singular_vector()
    assert set(s) == {("e", 2), ("h", 1), ("f", 0)}
    # e_0 keeps depth 1, e_1/f_1/h_1 drop to the top space
    image = model.act_zero("e", {("h", 1): F(1)})
    assert all(kind in ("e", "h") for kind, _ in image)
    image = model.act_one("h", {("f", 2): F(1)})
    assert all(kind == "T" for kind, _ in image)


@pytest.mark.parametrize(
    "args",
    [
        (1, F(3, 2), "bogus", 5),
        (0, 0, "minus", -3),
        (0, 0, "plus", 0),
        (0, 0, "minus", so.MAX_WINDOW + 1),
        (0, 0, "minus", True),
        (0, 0, "minus", 2.0),
        (0, 0, "minus", 10**7),
    ],
)
def test_invalid_model_is_rejected(args):
    lam, cas, sign, window = args
    with pytest.raises(ValueError):
        reducibility_points(*args)
    with pytest.raises(ValueError):
        build_relaxed(*args)
    with pytest.raises(ValueError):
        so.RelaxedWindow(wt(lam), wt(cas), sign, window)


@pytest.mark.parametrize(
    "lam, cas, field",
    [(F(1, 3), wt(0), "lam"), (wt(1), 0, "casimir"), (0, F(2, 5), "lam")],
)
def test_relaxed_window_refuses_a_non_weight(lam, cas, field):
    with pytest.raises(TypeError, match=field):
        RelaxedWindow(lam, cas, "minus", 3)
    # build_relaxed coerces the same values
    assert build_relaxed(lam, cas, "minus", 3).check_brackets()


def _corrupt(win, gen, at, delta=None):
    """Add the int poly delta to the entry of gen at index at, before the
    window's first check, so that its tables and entry_act, and so the
    reference checks, all see it.  delta defaults to (D,), +1 on the coefficient.
    Returns the set of (gen, i) that _entry is asked for from then on."""
    assert "_tables" not in vars(win)
    entry, reads = win._entry, set()
    delta = (win._den(gen),) if delta is None else delta

    def corrupted(g, i):
        reads.add((g, i))
        p = entry(g, i)
        return _ref_add(p, delta) if (g, i) == (gen, at) else p

    object.__setattr__(win, "_entry", corrupted)
    return reads


@pytest.mark.parametrize("sign", ["minus", "plus"])
@pytest.mark.parametrize("coeff", ["up_coeff", "down_coeff"])
def test_corrupted_matrix_entry_fails_both_checks(sign, coeff):
    # negative control: a +1 on the e (up_coeff) or f (down_coeff) entry at
    # index 0.  The models are generic, so no string coefficient next to
    # index 0 vanishes and hides it.
    gen = {"up_coeff": "e", "down_coeff": "f"}[coeff]
    for lam, cas in ((F(1, 3), F(-2, 5)), (F(-3), F(7, 2)), (wt(F(1, 2), 1), wt(3, F(1, 4)))):
        win = build_relaxed(lam, cas, sign, 4)
        _corrupt(win, gen, 0)
        assert not win.check_brackets()
        assert not win.check_casimir()


@pytest.mark.parametrize("sign", ["minus", "plus"])
def test_checks_build_no_fraction(monkeypatch, sign):
    # rational, w-generic, and reducible (lam = 0, C = 0: h vanishes at 0)
    models = ((F(1, 3), F(-2, 5)), (wt(F(1, 2), 1), wt(3, F(1, 4))), (0, 0))
    windows = [build_relaxed(lam, cas, sign, 5) for lam, cas in models]

    def no_fraction(*args):
        raise AssertionError(f"Fraction{args} on the check path")

    monkeypatch.setattr(so, "Fraction", no_fraction)
    for win in windows:
        assert win.check_brackets()
        assert win.check_casimir()
        for gen, tables in win._tables.items():
            assert type(win._den(gen)) is int
            assert all(type(v) is int for values in tables for v in values)


# Symbolic references: generators applied to vectors in Q[w] with plain
# polynomial arithmetic and no short-circuits.  entry_act reads the window's
# _entry, _den and _span; reference_act computes each coefficient from _x,
# up_coeff and down_coeff and truncates at the window's edges.  The reference
# checks below apply the relations through entry_act, so they read the
# window's own entries in Q[w], not at evaluation points.

def _ref_trim(cs):
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _ref_add(p, q):
    n = max(len(p), len(q))
    return _ref_trim([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)])


def _ref_mul(p, q):
    if not p or not q:
        return ()
    out = [F(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _ref_trim(out)


def _ref_sub(p, q):
    n = max(len(p), len(q))
    return _ref_trim([(p[i] if i < len(p) else 0) - (q[i] if i < len(q) else 0) for i in range(n)])


def _ref_scale(p, c):
    return _ref_trim([a * c for a in p])


def _ref_at(p, t):
    return sum(c * t**k for k, c in enumerate(p))


def entry_act(win, gen, vec):
    """gen applied to vec: each image coefficient is the entry over its D,
    and an index outside _span(gen) has no image."""
    shift, span = {"h": 0, "e": 1, "f": -1}[gen], win._span(gen)
    den = (F(1, win._den(gen)),)
    out = {}
    for i, p in vec.items():
        if i in span:
            j = i + shift
            out[j] = _ref_add(out.get(j, ()), _ref_mul(p, _ref_mul(win._entry(gen, i), den)))
    return {i: p for i, p in out.items() if p}


def reference_act(win, gen, vec):
    out = {}
    n = win.window
    for i, p in vec.items():
        if gen == "h":
            image = [(i, _ref_mul(p, _x(win, i)))]
        elif gen == "e":
            image = [(i + 1, _ref_mul(p, up_coeff(win, i)))] if i + 1 <= n else []
        else:
            image = [(i - 1, _ref_mul(p, down_coeff(win, i)))] if i - 1 >= -n else []
        for j, q in image:
            if q:
                out[j] = _ref_add(out.get(j, ()), q)
    return {i: p for i, p in out.items() if p}


def _ref_combine(*terms):
    """The vector sum of c * vec over the (c, vec) terms."""
    out = {}
    for c, vec in terms:
        for j, p in vec.items():
            out[j] = _ref_add(out.get(j, ()), _ref_mul(p, (F(c),)))
    return {j: p for j, p in out.items() if p}


def reference_brackets(win):
    """[e,f] = h, [h,e] = 2e, [h,f] = -2f through entry_act, one basis vector at a time."""
    for i in win.interior():
        v = {i: (F(1),)}
        for a, b, scale, c in (("e", "f", 1, "h"), ("h", "e", 2, "e"), ("h", "f", -2, "f")):
            ab, ba = entry_act(win, a, entry_act(win, b, v)), entry_act(win, b, entry_act(win, a, v))
            if _ref_combine((1, ab), (-1, ba)) != _ref_combine((scale, entry_act(win, c, v))):
                return False
    return True


def reference_casimir(win):
    """2ef + h(h-2)/2 = C through entry_act, one basis vector at a time."""
    cas = _ref_trim([win.casimir.a, win.casimir.b])
    for i in win.interior():
        v = {i: (F(1),)}
        hv = entry_act(win, "h", v)
        efv = entry_act(win, "e", entry_act(win, "f", v))
        total = _ref_combine((2, efv), (F(1, 2), entry_act(win, "h", hv)), (-1, hv))
        if total != _ref_combine((1, {i: cas})):
            return False
    return True


def _trimmed(coef):
    return st.just(()) | st.builds(lambda low, top: (*low, top), st.lists(coef, max_size=2), coef.filter(bool))


@settings(max_examples=400, deadline=None)
@given(p=_trimmed(st.integers(-4, 4)), t=st.integers(0, 6))
def test_poly_helpers_match_reference_arithmetic(p, t):
    # _at only ever gets int polys, the window's entries
    assert so._at(p, t) == _ref_at(p, t) and type(so._at(p, t)) is int


# generic models: no e or f coefficient vanishes and no h eigenvalue is 1/2
# at the indices used, so a +1 on any entry a check reads changes its verdict
_GENERIC = ((F(1, 3), F(-2, 5)), (F(-3), F(7, 2)), (wt(F(1, 2), 1), wt(3, F(1, 4))))


def test_table_checks_match_act_reference_on_honest_models():
    r = rng(14)
    models = list(_GENERIC) + [
        (F(0), F(0)),  # reducible: f vanishes at index 1 in the minus model
        (F(1), F(3, 2)),
        (OMEGA, OMEGA),
        (wt(F(1, 3), F(-1, 2)), wt(F(2), F(1, 3))),
    ]
    models += [(random_weight(r), random_weight(r)) for _ in range(4)]
    for lam, cas in models:
        for sign in ("minus", "plus"):
            for n in (1, 2, 5):
                win = build_relaxed(lam, cas, sign, n)
                assert win.check_brackets() is reference_brackets(win) is True, (lam, cas, sign, n)
                assert win.check_casimir() is reference_casimir(win) is True, (lam, cas, sign, n)


def _tabled(n):
    """Generator -> the indices where it has an entry."""
    return {"e": range(-n, n), "f": range(-n + 1, n + 1), "h": range(-n, n + 1)}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("sign", ["minus", "plus"])
def test_table_checks_catch_a_corrupted_entry_at_every_index(sign, n):
    # A +1 on one entry at each index of [-N, N].  Brackets read every table
    # entry; the Casimir check reads e on [-N, N-2], f on [-N+1, N-1] and h
    # on the interior.  e at N and f at -N are never tabled: _entry is never
    # asked for them, and a corruption put there changes no verdict.
    casimir_reads = {"e": range(-n, n - 1), "f": range(-n + 1, n), "h": range(-n + 1, n)}
    tabled = _tabled(n)
    for lam, cas in _GENERIC:
        for gen in ("e", "f", "h"):
            for at in range(-n, n + 1):
                win = build_relaxed(lam, cas, sign, n)
                reads = _corrupt(win, gen, at)
                case = (lam, cas, gen, at)
                brackets, casimir = win.check_brackets(), win.check_casimir()
                assert {i for g, i in reads if g == gen} == set(tabled[gen]), case
                assert all(len(values) == len(tabled[gen]) for values in win._tables[gen])
                assert brackets is reference_brackets(win) is (at not in tabled[gen]), case
                assert casimir is reference_casimir(win) is (at not in casimir_reads[gen]), case
                assert ("e", n) not in reads and ("f", -n) not in reads, case


@pytest.mark.parametrize("j", [1, 2, 3])
@pytest.mark.parametrize("gen", ["e", "f"])
@pytest.mark.parametrize("sign", ["minus", "plus"])
def test_a_pure_w_corruption_is_caught_off_w_0(sign, gen, j):
    # D*w^j added to one e or f entry is 0 at w = 0, so only the points
    # w >= 1 can show it.  The rational model's honest entries have degree 0,
    # and the w-generic one's degree 2 < 3, so the checks see the corruption
    # only if m is read off the corrupted entries themselves.
    n = 3
    casimir_reads = {"e": range(-n, n - 1), "f": range(-n + 1, n)}
    for lam, cas in (_GENERIC[0], _GENERIC[2]):
        for at in _tabled(n)[gen]:
            win = build_relaxed(lam, cas, sign, n)
            _corrupt(win, gen, at, (0,) * j + (win._den(gen),))
            case = (lam, cas, at)
            assert win.check_brackets() is reference_brackets(win) is False, case
            assert win.check_casimir() is reference_casimir(win) is (at not in casimir_reads[gen]), case
            # every generator is tabled at the 2m + 1 points, m = j or the honest 2
            m = max(j, 2 if win.lam.q else 0)
            assert [len(tables) for tables in win._tables.values()] == [2 * m + 1] * 3, case


def test_h_table_is_trimmed_and_exact():
    # lam + 2i = 0 must be the zero polynomial, not (0,); each table holds
    # the entry's value at its point, w = 0 .. 2m
    for lam in (0, -4, wt(0, 1), F(-7, 3), wt(F(1, 3), F(-1, 2))):
        win = build_relaxed(lam, 0, "minus", 3)
        den, tables = win._den("h"), win._tables["h"]
        assert den == win.lam.d and len(tables) == (5 if win.lam.q else 1)
        for i in range(-3, 4):
            p = win._entry("h", i)
            assert not p or p[-1] != 0
            assert all(type(c) is int for c in p)
            assert tuple(F(c, den) for c in p) == _x(win, i) == _ref_add((win.lam.a, win.lam.b), (F(2 * i),))
            assert [values[i + 3] for values in tables] == [_ref_at(p, t) for t in range(len(tables))]
    assert build_relaxed(0, 0, "minus", 3)._entry("h", 0) == ()
    assert build_relaxed(-4, 0, "minus", 3)._entry("h", 2) == ()
    assert build_relaxed(wt(0, 1), 0, "minus", 3)._entry("h", 0) == (0, 1)
    # lam = w: H_i = 2i + w, tabled at w = 0 .. 4
    assert build_relaxed(wt(0, 1), 0, "minus", 3)._tables["h"] == [[2 * i + t for i in range(-3, 4)] for t in range(5)]


def _random_poly(r):
    return _ref_trim([random_fraction(r, 5, 4) for _ in range(r.randint(0, 3))])


def test_tabled_act_matches_per_call_reference():
    # the reference checks' entry_act, which truncates at the window's
    # _span, against coefficients computed per call and truncated at -N and N
    r = rng(13)
    models = [
        (F(-7, 3), F(5, 2)),
        (wt(F(1, 3), F(-1, 2)), F(2)),
        (F(1, 2), wt(F(-1, 4), 3)),
        (OMEGA, OMEGA),
    ]
    models += [(random_weight(r), random_weight(r)) for _ in range(4)]
    for lam, cas in models:
        for sign in ("minus", "plus"):
            n = r.randint(1, 6)
            win = build_relaxed(lam, cas, sign, n)
            for _ in range(12):
                indices = {-n, n} | {r.randint(-n, n) for _ in range(r.randint(0, 4))}
                vec = {i: p for i in indices if (p := _random_poly(r))}
                for gen in ("h", "e", "f"):
                    assert entry_act(win, gen, vec) == reference_act(win, gen, vec), (lam, cas, sign, gen, vec)


def _rational_sqrt(q):
    if q < 0:
        return None
    n, d = math.isqrt(q.numerator), math.isqrt(q.denominator)
    return F(n, d) if n * n == q.numerator and d * d == q.denominator else None


def _expected_points(lam: Weight, cas: Weight, sign: str, n: int):
    """x in lam + 2Z, |x - lam| <= 2N, with x^2/2 -+ x = C, by the root formula.

    A w-part in lam gives C_x a w^2 term, and a w-part in C matches no
    rational C_x, so either leaves no root.
    """
    if lam.b or cas.b:
        return []
    root = _rational_sqrt(1 + 2 * cas.a)
    if root is None:
        return []
    centre = -1 if sign == "minus" else 1
    out = set()
    for x in (centre + root, centre - root):
        steps = (x - lam.a) / 2
        if steps.denominator == 1 and abs(steps) <= n:
            out.add(x)
    return [wt(x) for x in sorted(out)]


_small = st.fractions(min_value=-6, max_value=6, max_denominator=6)
_q_plus_qw = st.builds(Weight, _small, st.one_of(st.just(F(0)), _small))


@settings(max_examples=60, deadline=None)
@given(
    lam=_q_plus_qw,
    cas=_q_plus_qw,
    sign=st.sampled_from(["minus", "plus"]),
    n=st.integers(1, 6),
    hit=st.one_of(st.none(), st.integers(-8, 8)),
)
def test_window_relations_and_points_property(lam, cas, sign, n, hit):
    if hit is not None and not lam.b:
        # put a root at lam + 2*hit, inside the window or just outside it
        x = lam.a + 2 * hit
        cas = wt(x * x / 2 + (x if sign == "minus" else -x))
    win = build_relaxed(lam, cas, sign, n)
    assert win.check_brackets()
    assert win.check_casimir()
    assert reducibility_points(lam, cas, sign, n) == _expected_points(lam, cas, sign, n)


def reference_stable(win, mu):
    """The span {lam + 2i >= mu + 2} is e- and f-stable, through entry_act."""
    inside = set(win.submodule_indices(mu))
    return all(set(entry_act(win, gen, {i: (F(1),)})) <= inside for i in inside for gen in ("e", "f"))


@settings(max_examples=80, deadline=None)
@given(
    lam=_q_plus_qw,
    n=st.integers(1, 8),
    hit=st.integers(-10, 10),
    shift=st.sampled_from([0, 0, F(1, 2), 1]),
    i0=st.integers(-8, 7),
)
def test_submodule_stability_matches_act_reference(lam, n, hit, shift, i0):
    # C = C_x + shift for x = lam.a + 2*hit puts a root in the window or
    # leaves none; the check reads its tables at each reducibility point and
    # at one drawn mu = lam + 2*i0 in range
    x = lam.a + 2 * hit
    cas = wt(c_mu(x) + shift)
    win = build_relaxed(lam, cas, "minus", n)
    mus = reducibility_points(lam, cas, "minus", n) + [lam + 2 * max(-n, min(i0, n - 1))]
    for mu in mus:
        if mu == lam + 2 * n:  # the span would be empty
            with pytest.raises(ValueError):
                win.is_submodule_stable(mu)
            continue
        assert win.is_submodule_stable(mu) is reference_stable(win, mu), (lam, cas, n, mu)


# Integer relation checks.  Each table holds int entries over one
# denominator D; these models give lam and C large coprime denominators, so
# the string side has D = 4 d^2 d_C up to 4 * 10^36.

_BIG = 10**12


@st.composite
def _coprime_models(draw):
    """(lam, C): Weights with coprime denominators up to 10^12, each with or
    without a w-part."""
    d = draw(st.integers(1, _BIG))
    dc = draw(st.integers(1, _BIG).filter(lambda m: math.gcd(m, d) == 1))
    num = st.integers(-_BIG, _BIG)
    w_part = st.just(0) | num
    return Weight(draw(num), draw(w_part), d), Weight(draw(num), draw(w_part), dc)


def _tabled_string_coeffs(win):
    return [win._entry(gen, i) for gen in ("e", "f") for i in _tabled(win.window)[gen]]


def _ref_value(win, gen, i):
    """The coefficient of gen at index i from lam and C by Fraction
    arithmetic: lam + 2i for h, 1 on the unit side, and (C - x^2/2 + s*x)/2
    at x = lam + 2i + 2s on the string side, s = 1 for e and -1 for f."""
    lam = (win.lam.a, win.lam.b)
    if gen == "h":
        return _ref_add(lam, (F(2 * i),))
    if (gen == "e") == (win.sign == "minus"):
        return (F(1),)
    s = 1 if gen == "e" else -1
    x = _ref_add(lam, (F(2 * i + 2 * s),))
    c = _ref_sub((win.casimir.a, win.casimir.b), _ref_scale(_ref_mul(x, x), F(1, 2)))
    return _ref_scale(_ref_add(c, _ref_scale(x, s)), F(1, 2))


def _tables_match_per_call_values(win):
    """Every entry is an int poly whose value over its D is the per-call
    _x, up_coeff or down_coeff, and that is the Fraction value; the tables
    hold its value at w = 0 .. 2m, m the largest degree of an entry."""
    per_call = {"h": _x, "e": up_coeff, "f": down_coeff}
    tabled = _tabled(win.window)
    m = max(len(win._entry(gen, i)) - 1 for gen in tabled for i in tabled[gen])
    for gen, tables in win._tables.items():
        assert len(tables) == 2 * m + 1
        for k, i in enumerate(tabled[gen]):
            p = win._entry(gen, i)
            assert all(type(n) is int for n in p) and (not p or p[-1])
            assert tuple(F(n, win._den(gen)) for n in p) == per_call[gen](win, i) == _ref_value(win, gen, i), (gen, i)
            assert [values[k] for values in tables] == [_ref_at(p, t) for t in range(2 * m + 1)], (gen, i)


@settings(max_examples=150, deadline=None)
@given(
    model=_coprime_models(),
    sign=st.sampled_from(["minus", "plus"]),
    n=st.integers(1, 6),
    gen=st.sampled_from(["e", "f", "h"]),
    where=st.integers(0, 12),
)
def test_integer_checks_match_reference_and_catch_a_small_corruption(model, sign, n, gen, where):
    lam, cas = model
    win = build_relaxed(lam, cas, sign, n)
    assert win.check_brackets() is reference_brackets(win) is True
    assert win.check_casimir() is reference_casimir(win) is True
    _tables_match_per_call_values(win)

    # a +1 on one numerator, +1/D in value; the read sets are those of the
    # corruption test above
    tabled = _tabled(n)
    casimir_reads = {"e": range(-n, n - 1), "f": range(-n + 1, n), "h": range(-n + 1, n)}
    at = tabled[gen][where % len(tabled[gen])]
    bad = build_relaxed(lam, cas, sign, n)
    _corrupt(bad, gen, at, (1,))
    brackets, casimir = bad.check_brackets(), bad.check_casimir()
    assert brackets is reference_brackets(bad)
    assert casimir is reference_casimir(bad)
    if all(_tabled_string_coeffs(win)):
        # no string coefficient vanishes, so none hides the corruption
        assert brackets is False
        assert casimir is (at not in casimir_reads[gen])


@settings(max_examples=150, deadline=None)
@given(
    lam=st.builds(F, st.integers(-_BIG, _BIG), st.integers(1, _BIG)),
    sign=st.sampled_from(["minus", "plus"]),
    n=st.integers(1, 6) | st.sampled_from([200, so.MAX_WINDOW]),
    edge=st.sampled_from(["-N-1", "-N", "N", "N+1"]),
    w_part=st.sampled_from([None, "lam", "C"]),
    b=st.builds(F, st.integers(-_BIG, _BIG).filter(bool), st.integers(1, _BIG)),
)
def test_integer_scan_finds_roots_at_the_window_edges(lam, sign, n, edge, w_part, b):
    steps = {"-N-1": -n - 1, "-N": -n, "N": n, "N+1": n + 1}[edge]
    x = lam + 2 * steps
    cas = wt(c_mu(x) if sign == "minus" else x * x / 2 - x)
    lam = wt(lam)
    if w_part == "lam":
        lam = wt(lam.a, b)
    elif w_part == "C":
        cas = wt(cas.a, b)
    points = reducibility_points(lam, cas, sign, n)
    assert points == _expected_points(lam, cas, sign, n)
    if w_part is None:
        assert (wt(x) in points) is (abs(steps) <= n)
    else:
        assert points == []
