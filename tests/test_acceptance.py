"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Everything is exact rational arithmetic; the only tolerances are the wall
clock budgets stated inline.  Run with `pytest tests/test_acceptance.py -s`
to see the per-criterion lines.
"""

import math
import time
from fractions import Fraction as F
from itertools import product

from sl2wt import OMEGA, admissible_level, pi_conf_weight, wt
from sl2wt.arithmetic import delta_rs, h_rs, lam_rs
from sl2wt import weight_cat as wc
from sl2wt import local_cat as lc
from sl2wt import functors as fn
from sl2wt import fusion as fu
from sl2wt import sl2_oracle as so
from sl2wt.cli import main as cli_main
from sl2wt.pipeline import duality_square_holds

from conftest import TEST_LEVELS, random_fraction, random_weight, rng
from test_fusion import expected_D11_Dminus

LEVELS = [admissible_level(u, v) for u, v in TEST_LEVELS]


def report(num: int, ok: bool, text: str, failures=()):
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {text}")
    for item in list(failures)[:5]:
        print(f"    {item}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_01_kac_symmetries():
    start = time.monotonic()
    failures = []
    for level in LEVELS:
        u, v = level.u, level.v
        for r in range(1, u):
            for s in range(1, v):
                if lam_rs(level, u - r, v - s) != -lam_rs(level, r, s) - 2:
                    failures.append(f"lambda symmetry at {level} ({r},{s})")
                if delta_rs(level, u - r, v - s) != delta_rs(level, r, s):
                    failures.append(f"Delta symmetry at {level} ({r},{s})")
                if h_rs(level, u - r, v - s) != h_rs(level, r, s):
                    failures.append(f"h symmetry at {level} ({r},{s})")
                gap = delta_rs(level, r, s + 1) - delta_rs(level, r, s - 1)
                if gap.denominator == 1:
                    failures.append(f"integral gap at {level} ({r},{s})")
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 1.0
    report(1, ok, f"Kac-table symmetries and non-integral gaps, 7 levels ({elapsed:.2f}s < 1s)", failures)


def test_criterion_02_vir_fusion_ring():
    start = time.monotonic()
    failures = []
    pairs = [(u, v) for u in range(2, 8) for v in range(2, 8) if math.gcd(u, v) == 1]
    triples = 0
    for u, v in pairs:
        level = admissible_level(u, v)
        table = [(r, s) for r in range(1, u) for s in range(1, v)]
        prod_table = {
            (a, b): lc.vir_fuse(level, *a, *b) for a, b in product(table, repeat=2)
        }
        for a in table:
            if prod_table[((1, 1), a)] != [a]:
                failures.append(f"unit law fails at {level} for {a}")
        for a, b in product(table, repeat=2):
            if sorted(prod_table[(a, b)]) != sorted(prod_table[(b, a)]):
                failures.append(f"commutativity fails at {level} for {a},{b}")
        for a, b, c in product(table, repeat=3):
            triples += 1
            lhs = sorted(x for y in prod_table[(a, b)] for x in prod_table[(y, c)])
            rhs = sorted(x for y in prod_table[(b, c)] for x in prod_table[(a, y)])
            if lhs != rhs:
                failures.append(f"associativity fails at {level} for {a},{b},{c}")
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 10.0
    report(
        2,
        ok,
        f"Virasoro fusion ring axioms, {len(pairs)} levels u,v<=7, {triples} triples ({elapsed:.2f}s < 10s)",
        failures,
    )


def test_criterion_03_groth_a_ring():
    failures = []
    for level in LEVELS:
        r = rng(1000 + level.u * 10 + level.v)

        def sample():
            return lc.a_class(
                level,
                lc.simple_a(
                    level,
                    r.randint(1, level.u - 1),
                    r.randint(1, level.v - 1),
                    r.randint(-4, 4),
                    random_weight(r),
                ),
            )

        unit = lc.a_class(level, lc.unit_a(level))
        for _ in range(500):
            x, y, z = sample(), sample(), sample()
            if x * y != y * x:
                failures.append(f"commutativity fails at {level}")
            if (x * y) * z != x * (y * z):
                failures.append(f"associativity fails at {level}")
        for _ in range(50):
            flow, lam = r.randint(-6, 6), random_weight(r)
            a = lc.a_class(level, lc.simple_a(level, 1, 1, flow, lam))
            b = lc.a_class(level, lc.simple_a(level, 1, 1, -flow, -lam))
            if a * b != unit:
                failures.append(f"simple current not invertible at {level}: flow={flow}")
    ok = not failures
    report(3, ok, "extended Grothendieck ring: 500 random triples/level + simple-current inverses", failures)


def test_criterion_04_vacuum_induction_structure():
    failures = []
    lv = admissible_level(3, 2)
    n = fn.induce_vacuum(lv)
    expect = lc.a_class(lv, lc.unit_a(lv), lc.simple_a(lv, 1, 1, 2, lv.t))
    if lc.comp_factors_a(lv, n) != expect or len(n.parts) != 2:
        failures.append("N structure at 3/2")
    for u, v in ((2, 3), (3, 4), (5, 3)):
        lv = admissible_level(u, v)
        n = fn.induce_vacuum(lv)
        expect = lc.a_class(
            lv,
            lc.unit_a(lv),
            lc.simple_a(lv, 1, 2, 1, -lv.t / 2),
            lc.simple_a(lv, 1, 1, 2, -lv.t),
        )
        if lc.comp_factors_a(lv, n) != expect:
            failures.append(f"N factors at {lv}")
        m = n.parts[1]
        if m.tag != "M" or len(m.layers) != 2:
            failures.append(f"N complement not length 2 at {lv}")
        elif m.layers[0] != (lc.simple_a(lv, 1, 2, 1, -lv.t / 2),) or m.layers[1] != (
            lc.simple_a(lv, 1, 1, 2, -lv.t),
        ):
            failures.append(f"N complement layers at {lv}")
    ok = not failures
    report(4, ok, "F(A) = A (+) M with the printed factors at 3/2, 2/3, 3/4, 5/3", failures)


def test_criterion_05_explicit_fusion_theorems():
    failures = []
    for u, v in ((5, 3), (3, 4), (3, 2)):
        level = admissible_level(u, v)
        for r in range(1, u):
            for s in range(1, v):
                got = wc.comp_factors(level, fu.fuse_D11plus_Dminus(level, r, s))
                if got != expected_D11_Dminus(level, r, s):
                    failures.append(f"D+(1,1) x D-({r},{s}) at {level}")
    lv = admissible_level(3, 2)
    if fu.fuse_sigmaD11_selfsquare(lv) != wc.simple(wc.SimpleCLabel(3, 2, 1, None)):
        failures.append("selfsquare at 3/2")
    lv = admissible_level(2, 3)
    expect = wc.DirectSum(
        (
            wc.simple(wc.atypical(lv, 1, 2, 2)),
            wc.simple(wc.typical(lv, 1, 1, lam_rs(lv, 1, 3), 3)),
        )
    )
    if fu.fuse_sigmaD11_selfsquare(lv) != expect:
        failures.append("selfsquare at 2/3")
    ok = not failures
    report(5, ok, "printed fusion theorems reproduced exactly at 5/3, 3/4, 3/2 (+ selfsquare)", failures)


def test_criterion_06_solver_cross_check():
    failures = []
    for u, v in ((5, 3), (3, 4), (3, 2)):
        level = admissible_level(u, v)
        d11 = wc.GrothC.of(wc.atypical(level, 1, 1, 0))
        for r in range(1, u):
            for s in range(1, v):
                try:
                    got = fu.groth_fuse_C(level, d11, wc.GrothC.of(wc.dminus(level, r, s, 0)))
                except fu.NoSolution as exc:
                    failures.append(f"solver {type(exc).__name__} at {level} ({r},{s})")
                    continue
                if got != expected_D11_Dminus(level, r, s):
                    failures.append(f"solver mismatch at {level} ({r},{s})")
    for u, v in ((3, 2), (2, 3)):
        level = admissible_level(u, v)
        x = wc.GrothC.of(wc.atypical(level, 1, 1, 1))
        try:
            got = fu.groth_fuse_C(level, x, x)
        except fu.NoSolution as exc:
            failures.append(f"selfsquare solver {type(exc).__name__} at {level}")
        else:
            if got != wc.comp_factors(level, fu.fuse_sigmaD11_selfsquare(level)):
                failures.append(f"selfsquare solver mismatch at {level}")
    ok = not failures
    report(6, ok, "Grothendieck solver reproduces the theorems with unique solutions", failures)


def test_criterion_07_duality_square():
    failures = []
    flows = range(-2, 3)
    for level in LEVELS:
        for r in range(1, level.u):
            for s in range(1, level.v):
                for flow in flows:
                    x = wc.atypical(level, r, s, flow)
                    if not duality_square_holds(level, x):
                        failures.append(f"atypical square at {level}: {x}")
                    for lam in (OMEGA, wt(F(1, 5), 1)):
                        y = lc.simple_a(level, r, s, flow, lam)
                        res = fn.restrict_simple(level, y)
                        z = res.layers[0][0]
                        lhs = fn.induce_simple(level, wc.contragredient(level, z))
                        rhs = lc.rigid_dual(level, fn.induce_simple(level, z))
                        if lhs != rhs or lhs.layers != rhs.layers:
                            failures.append(f"typical square at {level}: {z}")
    ok = not failures
    report(7, ok, "F(x') = F(x)* layer-for-layer, flows [-2,2], full Kac tables", failures)


def test_criterion_08_locality_multiplicities():
    failures = []
    for level in LEVELS:
        for r in range(1, level.u):
            for s in range(1, level.v):
                x = wc.atypical(level, r, s, 0)
                y = fn.tau_tilde(level, x)
                direct = fu.a_tensor_restriction(level, y)
                via_ring = fu.a_tensor_restriction_via_ring(level, y)
                if direct != via_ring:
                    failures.append(f"route mismatch (atypical) at {level} ({r},{s})")
                if direct.multiplicity(x) != 2:
                    failures.append(
                        f"atypical multiplicity at {level} ({r},{s}): {direct.multiplicity(x)}"
                    )
                yt = lc.simple_a(level, r, s, 0, OMEGA)
                res = fn.restrict_simple(level, yt)
                z = res.layers[0][0]
                direct = fu.a_tensor_restriction(level, yt)
                via_ring = fu.a_tensor_restriction_via_ring(level, yt)
                if direct != via_ring:
                    failures.append(f"route mismatch (typical) at {level} ({r},{s})")
                if direct.multiplicity(z) != 1:
                    failures.append(
                        f"typical multiplicity at {level} ({r},{s}): {direct.multiplicity(z)}"
                    )
    ok = not failures
    report(8, ok, "G(F(.)) multiplicities: 1 typical / 2 atypical via two agreeing routes", failures)


def test_criterion_09_sl2_oracle():
    start = time.monotonic()
    failures = []
    r = rng(9009)
    for _ in range(50):
        lam = random_fraction(r)
        i0 = r.randint(-10, 10)
        mu = lam + 2 * i0
        c_mu = mu * mu / 2 + mu
        window = so.build_relaxed(lam, c_mu, "minus", 20)
        points = so.reducibility_points(lam, c_mu, "minus", 20)
        # independent enumeration: roots of C_x = C_mu are x = mu and x = -2-mu
        expected = sorted(
            {
                wt(root)
                for root in (mu, -2 - mu)
                if (root - lam) % 2 == 0 and abs((root - lam) // 2) <= 20
            },
            key=lambda w: w.sort_key(),
        )
        if points != expected:
            failures.append(f"reducibility points for lam={lam}, mu={mu}")
        if not window.is_submodule_stable(wt(mu)):
            failures.append(f"submodule window not stable for lam={lam}, mu={mu}")
        if not (window.check_brackets() and window.check_casimir()):
            failures.append(f"bracket/Casimir failure for lam={lam}, C={c_mu}")
    for u, v in ((3, 2), (2, 3), (5, 3)):
        if not so.verify_affine_singular(admissible_level(u, v)):
            failures.append(f"singular vector not annihilated at {u}/{v}")
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 5.0
    report(9, ok, f"sl2 window oracle, 50 random strings at N=20 ({elapsed:.2f}s < 5s)", failures)


def test_criterion_10_balancing():
    failures = []
    for level in LEVELS:
        r = rng(2000 + level.u * 10 + level.v)
        for _ in range(200):
            l1, l2 = r.randint(-5, 5), r.randint(-5, 5)
            w1, w2 = random_weight(r), random_weight(r)
            mono = lc.monodromy_exponent(level, l1, w1, l2, w2)
            balance = (
                pi_conf_weight(level, l1 + l2, w1 + w2)
                - pi_conf_weight(level, l1, w1)
                - pi_conf_weight(level, l2, w2)
            )
            if not (mono - balance).is_integral:
                failures.append(f"balancing at {level}: ({l1},{w1}) x ({l2},{w2})")
    ok = not failures
    report(10, ok, "monodromy = twist defect mod 1 on 200 random Pi-sector pairs/level", failures)


def test_criterion_11_full_pipeline(capsys):
    start = time.monotonic()
    failures = []
    for u, v in TEST_LEVELS:
        code = cli_main(["pipeline", "--level", f"{u}/{v}"])
        capsys.readouterr()  # swallow the report text; only the exit code matters here
        if code != 0:
            failures.append(f"pipeline exit code {code} at {u}/{v}")
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 60.0
    with capsys.disabled():
        report(11, ok, f"`pipeline --level u/v` verdict true, 7 levels ({elapsed:.2f}s < 60s)", failures)
