"""Restriction and induction between the affine weight category and the
extended category, with the section maps tau / tau-tilde, the inverse of the
bijection tau, and the Grothendieck-level induction map.

Conventions follow the restriction table: with the Pi-index written as l-1,
the simple M(r,s) x Pi_{l-1}(lam) restricts to sigma^l(E-_{u-r,v-s}) when
lam = nu_{r,s} mod Z, to sigma^l(E-_{r,s}) when lam = nu_{u-r,v-s} mod Z,
and to the typical simple sigma^l(E_{2*lam-k, Delta_{r,s}}) otherwise.

Restriction and induction of simples are memoized per process, each in a
least-recently-used table of fixed size: one pipeline run restricts each
simple several times, and the fusion solver induces each label of its result
twice, once to peel it and once to certify the result.  Both memos are
transparent, since the labels and the objects they map to are frozen.  The
induction memo holds 256 objects: the largest solution in 400 seeded cycles
of the fuse_mix benchmark has 232 labels at seed 0, and since the solver
certifies its latest peels first, a solution larger than the memo still
finds 256 of its labels there.  A table of 1024 cut that benchmark's pass
time by about 2% and raised its peak memory by about 3%.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .arithmetic import AdmissibleLevel, nu_rs
from . import weight_cat as wc
from . import local_cat as lc

_HALF = Fraction(1, 2)


@lru_cache(maxsize=1024)
def restrict_simple(level: AdmissibleLevel, y: lc.SimpleALabel) -> wc.CObject:
    """Restriction of a simple extended-algebra module to the weight category."""
    flow = y.flow + 1
    if (y.lam - nu_rs(level, y.r, y.s)).is_integral:
        return wc.Eminus(level.u - y.r, level.v - y.s, flow)
    if (y.lam - nu_rs(level, level.u - y.r, level.v - y.s)).is_integral:
        return wc.Eminus(y.r, y.s, flow)
    return wc.Simple(wc.typical(level, y.r, y.s, 2 * y.lam - level.k, flow))


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
    return lc.ADirectSum((lc.ASimple(lc.unit_a(level)), lc.build_M(level, 1, 2, 1)))


def tau_inverse(level: AdmissibleLevel, y: lc.SimpleALabel) -> wc.SimpleCLabel:
    """The simple x with tau(x) = y: the socle of the restriction of y."""
    res = restrict_simple(level, y)
    if isinstance(res, wc.Simple):
        return res.label
    return wc.dminus(level, res.r, res.s, res.flow)


def frobenius_dim(level: AdmissibleLevel, x: wc.SimpleCLabel, y: lc.SimpleALabel) -> int:
    """dim Hom(F(x), y) = multiplicity of x in the socle of the restriction of y."""
    return 1 if tau_inverse(level, y) == x else 0


def groth_F(level: AdmissibleLevel, x: wc.GrothC) -> lc.GrothA:
    """Induction on Grothendieck groups, basis label by basis label."""
    total = lc.a_class(level)
    for lbl, n in x.items():
        total = total + n * lc.comp_factors_a(level, induce_simple(level, lbl))
    return total


def groth_restrict(level: AdmissibleLevel, p: lc.GrothA) -> wc.GrothC:
    """Restriction on Grothendieck groups."""
    total = wc.GrothC()
    for lbl, n in p.items():
        total = total + n * wc.comp_factors(level, restrict_simple(level, lbl))
    return total
