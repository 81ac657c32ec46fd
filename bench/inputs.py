"""Seeded input generators for the benchmark workloads.

Each generator takes the seed as an argument and yields plain JSON-ready
data: labels in the ``label_to_json`` schema of ``sl2wt.weight_cat`` and
weights in the ``Weight.to_json`` schema.  Nothing here imports sl2wt, so
the program under test receives only the generated inputs.  The same seed
gives the same stream.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Iterator, List, Tuple

Level = Tuple[int, int]

LADDER: Tuple[Level, ...] = ((5, 3), (7, 4), (11, 6), (13, 8))
# one pass runs the smallest level twice: with five runs per pass the median
# run is a 7/4 run and the 90th percentile a 13/8 run, where with four the
# median would fall between the 7/4 and the 11/6 runs
LADDER_PASS: Tuple[Level, ...] = (LADDER[0],) + LADDER

# fuse_mix cells: (level, labels per side, products per cycle).  Each side is
# half atypical and half typical; a cell of four one-label products covers
# atypical and typical on each side once.  The three 8-label products, the
# slowest cell, make up a seventh of a cycle, so the 90th percentile of
# per-product latency falls inside that cell rather than at its edge.
FUSE_CELLS: Tuple[Tuple[Level, int, int], ...] = (
    ((5, 3), 1, 4), ((7, 4), 1, 4), ((11, 6), 1, 4),
    ((5, 3), 2, 1), ((7, 4), 2, 1), ((11, 6), 2, 1),
    ((5, 3), 4, 1), ((7, 4), 4, 1), ((11, 6), 4, 1),
    ((5, 3), 8, 3),
)

# oracle_windows: per cycle, the eight (lam, C) kinds at window 200, the four
# rational-lam kinds at window 1000, and the singular-vector check at eight
# levels.  Check latency clusters by kind: w-generic lam costs up to 1.6x
# rational lam at window 200, and would cost about 1.8x at window 1000, so
# the large window takes rational lam only.  The counts (8 singular checks,
# 4 rational and 4 w-generic checks at window 200, 4 at window 1000) put the
# median in the middle of the rational window-200 cluster and the 90th
# percentile in the middle of the window-1000 cluster.
ORACLE_KINDS: Tuple[Tuple[str, str, str], ...] = tuple(
    (lam, case, sign)
    for lam in ("rational", "w")
    for case in (("reducible", "odd_shift") if lam == "rational" else ("rational_C", "w_C"))
    for sign in ("minus", "plus")
)
ORACLE_SMALL, ORACLE_LARGE = 200, 1000
SINGULAR_LEVELS: Tuple[Level, ...] = LADDER + ((3, 2), (2, 3), (4, 3), (5, 2))


def weight_json(a: Fraction, b: Fraction = Fraction(0)) -> dict:
    a, b = Fraction(a), Fraction(b)
    return {"a": [a.numerator, a.denominator], "b": [b.numerator, b.denominator]}


def _fraction(rng: random.Random, num: int, den: int) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def _is_reducible(level: Level, r: int, s: int, lam: Fraction) -> bool:
    """lam = +-lambda_{r,s} mod 2Z, with lambda_{r,s} = r - 1 - u*s/v."""
    u, v = level
    lam_rs = r - 1 - Fraction(u * s, v)
    return any((lam - sign * lam_rs) % 2 == 0 for sign in (1, -1))


def random_label(rng: random.Random, level: Level, kind: str) -> dict:
    """A C-label of the given kind: "atypical" (a D+ base), or a typical with
    "rational" lam or lam = a + b*w ("w"); flows in -2..2."""
    u, v = level
    flow = rng.randint(-2, 2)
    r, s = rng.randint(1, u - 1), rng.randint(1, v - 1)
    if kind == "atypical":
        return {"cat": "C", "flow": flow, "base": {"type": "D+", "r": r, "s": s}}
    if kind == "w":
        lam = weight_json(_fraction(rng, 12, 3), rng.choice((1, -1)) * Fraction(rng.randint(1, 3), rng.randint(1, 3)))
    else:
        while True:
            a = _fraction(rng, 12, 9)
            if not _is_reducible(level, r, s, a):
                break
        lam = weight_json(a)
    return {"cat": "C", "flow": flow, "base": {"type": "E", "r": r, "s": s, "lam": lam}}


def side_kinds(rng: random.Random, size: int) -> List[str]:
    """Label kinds of one side of an even size: half atypical, and half
    typical split evenly between rational and w-generic lam (a coin settles
    an odd split)."""
    half = size // 2
    typical = ["rational", "w"] * (half // 2) + [rng.choice(("rational", "w"))] * (half % 2)
    return ["atypical"] * half + typical


def ladder_passes(seed: int) -> Iterator[List[Level]]:
    """The levels of LADDER_PASS in a seeded order, one list per pass."""
    rng = random.Random(seed)
    while True:
        order = list(LADDER_PASS)
        rng.shuffle(order)
        yield order


def fuse_cycles(seed: int) -> Iterator[List[dict]]:
    """Cycles of fusion inputs, each holding every cell of FUSE_CELLS with
    its weight, in a seeded order.  Every product is distinct."""
    rng = random.Random(seed)
    one_label = [("atypical", "atypical"), ("atypical", "typical"), ("typical", "atypical"), ("typical", "typical")]
    while True:
        cycle = []
        for level, size, weight in FUSE_CELLS:
            for i in range(weight):
                if size == 1:
                    sides = [[k if k == "atypical" else rng.choice(("rational", "w"))] for k in one_label[i % 4]]
                else:
                    sides = [side_kinds(rng, size), side_kinds(rng, size)]
                lhs, rhs = ([random_label(rng, level, k) for k in kinds] for kinds in sides)
                cycle.append({"level": list(level), "size": size, "lhs": lhs, "rhs": rhs})
        rng.shuffle(cycle)
        yield cycle


def _casimir(x: Fraction, sign: str) -> Fraction:
    """C_x = x^2/2 + x for the minus model, C_{-x} = x^2/2 - x for the plus model."""
    return x * x / 2 + (x if sign == "minus" else -x)


def oracle_case(rng: random.Random, kind: Tuple[str, str, str], window: int) -> dict:
    lam_kind, case, sign = kind
    if lam_kind == "rational":
        # C = C_nu has the roots nu and -2-nu (minus) or 2-nu (plus); an odd
        # shift puts nu outside lam + 2Z, though the other root may land inside
        lam = Fraction(rng.randint(-12, 12), rng.randint(3, 9))
        shift = 2 * rng.randint(-window // 2, window // 2)
        nu = lam + shift + (1 if case == "odd_shift" else 0)
        lam_w, casimir = weight_json(lam), weight_json(_casimir(nu, sign))
    else:
        lam_w = weight_json(_fraction(rng, 12, 9), rng.choice((1, -1)) * Fraction(rng.randint(1, 3), rng.randint(1, 3)))
        c = _fraction(rng, 12, 9)
        casimir = weight_json(c, _fraction(rng, 3, 3) or 1) if case == "w_C" else weight_json(c)
    return {"lam": lam_w, "casimir": casimir, "sign": sign, "window": window, "kind": "/".join(kind)}


def oracle_cycles(seed: int) -> Iterator[List[dict]]:
    """Cycles of (lam, C, sign, window) checks: every kind of ORACLE_KINDS at
    the small window and the rational-lam kinds at the large one, in a
    seeded order."""
    rng = random.Random(seed)
    while True:
        cycle = [oracle_case(rng, kind, ORACLE_SMALL) for kind in ORACLE_KINDS]
        cycle += [oracle_case(rng, kind, ORACLE_LARGE) for kind in ORACLE_KINDS if kind[0] == "rational"]
        rng.shuffle(cycle)
        yield cycle


def expected_points(case: dict) -> List[Fraction]:
    """Reducibility points by direct root enumeration, independent of sl2wt.

    The points are the x in lam + 2Z with |x - lam| <= 2N and C = x^2/2 +- x.
    With a nonzero w-part in lam, C_x has a w^2 term that no C in Q + Qw
    matches; with a rational lam and a w-part in C, no rational C_x matches.
    Otherwise x = -+1 +- sqrt(1 + 2C), kept when rational and in the window.
    """
    lam_a, lam_b = (Fraction(*case["lam"][k]) for k in ("a", "b"))
    c_a, c_b = (Fraction(*case["casimir"][k]) for k in ("a", "b"))
    if lam_b or c_b:
        return []
    disc = 1 + 2 * c_a
    root = _rational_sqrt(disc)
    if root is None:
        return []
    centre = -1 if case["sign"] == "minus" else 1
    out = set()
    for x in (centre + root, centre - root):
        steps = (x - lam_a) / 2
        if steps.denominator == 1 and abs(steps) <= case["window"]:
            out.add(x)
    return sorted(out)


def _rational_sqrt(q: Fraction):
    if q < 0:
        return None
    n, d = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if n * n == q.numerator and d * d == q.denominator:
        return Fraction(n, d)
    return None


def label_kind(label: dict) -> str:
    """"atypical", "rational" or "w", as random_label draws them."""
    base = label["base"]
    if base["type"] != "E":
        return "atypical"
    return "w" if base["lam"]["b"][0] else "rational"
