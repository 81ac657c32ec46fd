"""Restriction and induction between the affine weight category and the
extended category, with the section maps tau / tau-tilde, the inverse of the
bijection tau, and the Grothendieck-level induction map.

Conventions follow the restriction table: with the Pi-index written as l-1,
the simple M(r,s) x Pi_{l-1}(lam) restricts to sigma^l(E-_{u-r,v-s}) when
lam = nu_{r,s} mod Z, to sigma^l(E-_{r,s}) when lam = nu_{u-r,v-s} mod Z,
and to the typical simple sigma^l(E_{2*lam-k, Delta_{r,s}}) otherwise.

Restriction of simples is memoized in a table per level,
``AdmissibleLevel.restrictions``: one pipeline run restricts each simple
several times (11,784 calls on 2,082 labels at 13/8), and the table dies with
its level.  It holds at most RESTRICTIONS_PER_KAC_LABEL entries per Kac label
and is cleared when full.  The pipeline samples 24.8 to 25.8 labels per Kac
label at 13/8, 23/12 and 37/18, so one run fits and restricts each label once.
Clearing needs no recency bookkeeping on a hit.  A fixed 1024-entry table
shared by all levels missed 3,321 times at 13/8 and 36,369 times at 37/18,
and one of 4096 entries held 13/8 but raised the fuse_mix benchmark's peak
memory by about 10%.

Induction of simples is memoized per process in a least-recently-used table
of 256 objects, sized for the fusion solver, which induces each label of its
result twice, once to peel it and once to certify the result: the largest
solution in 400 seeded cycles of the fuse_mix benchmark has 232 labels at
seed 0, and since the solver certifies its latest peels first, a solution
larger than the memo still finds 256 of its labels there.  A table of 1024
cut that benchmark's pass time by about 2% and raised its peak memory by
about 3%.  Both memos are transparent, since the labels and the objects they
map to are frozen.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .arithmetic import AdmissibleLevel, nu_rs
from . import weight_cat as wc
from . import local_cat as lc

_HALF = Fraction(1, 2)

RESTRICTIONS_PER_KAC_LABEL = 32


def restrict_simple(level: AdmissibleLevel, y: lc.SimpleALabel) -> wc.CObject:
    """Restriction of a simple extended-algebra module to the weight category,
    memoized in the level's restriction table."""
    table = level.restrictions
    out = table.get(y)
    if out is None:
        if len(table) >= RESTRICTIONS_PER_KAC_LABEL * (level.u - 1) * (level.v - 1):
            table.clear()
        out = table[y] = _restrict_simple(level, y)
    return out


def _restrict_simple(level: AdmissibleLevel, y: lc.SimpleALabel) -> wc.CObject:
    """restrict_simple without its memo."""
    flow = y.flow + 1
    if y.lam.on_coset(nu_rs(level, y.r, y.s), 1):
        return wc.eminus(level, level.u - y.r, level.v - y.s, flow)
    if y.lam.on_coset(nu_rs(level, level.u - y.r, level.v - y.s), 1):
        return wc.eminus(level, y.r, y.s, flow)
    return wc.simple(wc.typical(level, y.r, y.s, 2 * y.lam - level.k, flow))


def tau(level: AdmissibleLevel, x: wc.SimpleCLabel) -> lc.SimpleALabel:
    """The simple extended module containing x: x embeds into its restriction."""
    if x.is_typical:
        return lc.simple_a(level, x.r, x.s, x.flow - 1, (x.lam + level.k) * _HALF)
    if x.s <= level.v - 2:
        return lc.simple_a(level, x.r, x.s + 1, x.flow, nu_rs(level, x.r, x.s + 1))
    ru = level.u - x.r
    return lc.simple_a(level, ru, 1, x.flow + 1, nu_rs(level, ru, 1))


def tau_tilde(level: AdmissibleLevel, x: wc.SimpleCLabel) -> lc.SimpleALabel:
    """The simple extended module whose restriction surjects onto x."""
    if x.is_typical:
        return tau(level, x)
    return lc.simple_a(level, x.r, x.s, x.flow - 1, nu_rs(level, x.r, x.s))


@lru_cache(maxsize=256)
def induce_simple(level: AdmissibleLevel, x: wc.SimpleCLabel) -> lc.AObject:
    """Induction of a simple: typicals give projectives R, atypicals give M.

    sigma^(l+1)(E_{2*lam-k, Delta_{r,s}}) -> R(r,s;lam)@l and
    sigma^l(D+_{r,s}) -> M[r,s+1]@l (simple when s = v-1).
    """
    if x.is_typical:
        return lc.build_R(level, x.r, x.s, (x.lam + level.k) * _HALF, x.flow - 1)
    return lc.build_M(level, x.r, x.s + 1, x.flow)


def induce_vacuum(level: AdmissibleLevel) -> lc.ADirectSum:
    """Induction of the algebra itself: A (+) M[1,2]@1.

    The second summand is the length-2 module with top M(1,2) x Pi_1(-t/2)
    and socle M(1,1) x Pi_2(-t) for v >= 3, and collapses to the simple
    M(1,1) x Pi_2(t) when v = 2.
    """
    return lc.ADirectSum((lc.a_simple(lc.unit_a(level)), lc.build_M(level, 1, 2, 1)))


def tau_inverse(level: AdmissibleLevel, y: lc.SimpleALabel) -> wc.SimpleCLabel:
    """The simple x with tau(x) = y: the socle of the restriction of y."""
    return restrict_simple(level, y).layers[-1][0]


def groth_F(level: AdmissibleLevel, x: wc.GrothC) -> lc.GrothA:
    """Induction on Grothendieck groups, basis label by basis label."""
    total = lc.a_class(level)
    for lbl, n in x.items():
        total = total + n * lc.comp_factors_a(level, induce_simple(level, lbl))
    return total


def groth_restrict(level: AdmissibleLevel, p: lc.GrothA) -> wc.GrothC:
    """Restriction on Grothendieck groups: n times each layer label of the
    restriction of each basis label n*lbl, counted into one dict whose entries
    are deleted on reaching 0, so sums that cancel stay exact."""
    out = {}
    get = out.get
    for lbl, n in p.items():
        for layer in restrict_simple(level, lbl).layers:
            for x in layer:
                m = get(x, 0) + n
                if m:
                    out[x] = m
                else:
                    del out[x]
    return wc.GrothC._own(out)
