"""Restriction and induction between the affine weight category and the
extended category, with the section maps tau / tau-tilde, the inverse of the
bijection tau, and the Grothendieck-level induction map.

Conventions follow the restriction table: with the Pi-index written as l-1,
the simple M(r,s) x Pi_{l-1}(lam) restricts to sigma^l(E-_{u-r,v-s}) when
lam = nu_{r,s} mod Z, to sigma^l(E-_{r,s}) when lam = nu_{u-r,v-s} mod Z,
and to the typical simple sigma^l(E_{2*lam-k, Delta_{r,s}}) otherwise.

Restriction of simples is memoized in a table per level,
``AdmissibleLevel.restrictions``: one pipeline run restricts each simple
several times, and the table dies with its level.  It holds at most
RESTRICTIONS_PER_KAC_LABEL entries per Kac label, more than a pipeline run
samples, and is cleared when full, so a hit needs no recency bookkeeping.
The keys are simple A-labels, which local_cat.simple_a hands out from the
level's label table, so a hit on a label built since that table was last
cleared matches by identity and builds nothing.

Restriction commutes with spectral flow, so a miss is derived once per
orbit.  ``AdmissibleLevel.restriction_orbits`` keeps, under the integers
(r, s, p, q, d) of y's Kac label and lam (``local_cat.orbit_key``), the
flow and the restriction of the first label of the orbit derived, and a
miss on any other label of the orbit moves that answer to its flow with
``weight_cat.spectral_flow``.  The orbit table has the restriction table's
bound and is cleared only when it fills itself, so a run derives each
(r, s, lam) once however many flows it samples: at 13/8 a default run
restricts 2,082 labels and a run over ``pipeline.MAX_FLOWS`` flows 36,840,
and each derives the same 486.

Induction of simples keeps no memo of its own: it reads R's layers and the
M objects from the level's tables (see ``local_cat``), so every memo dies
with its level.
"""

from __future__ import annotations

from fractions import Fraction

from .arithmetic import AdmissibleLevel, add_layers, nu_ratio, nu_weight
from . import weight_cat as wc
from . import local_cat as lc

_HALF = Fraction(1, 2)

# The restriction table and its orbit table each hold at most this many
# entries per Kac label and are cleared when full: a default run at 13/8
# restricts about 25 labels per Kac label, on about 6 orbits.
RESTRICTIONS_PER_KAC_LABEL = 32


def restrict_simple(level: AdmissibleLevel, y: lc.SimpleALabel) -> wc.CObject:
    """Restriction of a simple extended-algebra module to the weight category,
    memoized in the level's restriction table; a miss is derived once per
    spectral-flow orbit and moved to y's flow."""
    table = level.restrictions
    out = table.get(y)
    if out is None:
        bound = RESTRICTIONS_PER_KAC_LABEL * (level.u - 1) * (level.v - 1)
        if len(table) >= bound:
            table.clear()
        key = lc.orbit_key(y)
        orbits = level.restriction_orbits
        stored = orbits.get(key)
        if stored is None:
            if len(orbits) >= bound:
                orbits.clear()
            out = _restrict_simple(level, y)
            orbits[key] = (y.flow, out)
        else:
            flow, res = stored
            out = wc.spectral_flow(res, y.flow - flow)
        table[y] = out
    return out


def _restrict_simple(level: AdmissibleLevel, y: lc.SimpleALabel) -> wc.CObject:
    """restrict_simple without its memo."""
    flow = y.flow + 1
    if y.lam.on_coset(*nu_ratio(level, y.r, y.s), 1):
        return wc.eminus(level, level.u - y.r, level.v - y.s, flow)
    if y.lam.on_coset(*nu_ratio(level, level.u - y.r, level.v - y.s), 1):
        return wc.eminus(level, y.r, y.s, flow)
    return wc.simple(wc.typical(level, y.r, y.s, y.lam.affine(2, level.minus_k_weight), flow))


def tau(level: AdmissibleLevel, x: wc.SimpleCLabel) -> lc.SimpleALabel:
    """The simple extended module containing x: x embeds into its restriction."""
    if x.is_typical:
        return lc.simple_a(level, x.r, x.s, x.flow - 1, x.lam.affine(_HALF, level.half_k_weight))
    if x.s <= level.v - 2:
        return lc.simple_a(level, x.r, x.s + 1, x.flow, nu_weight(level, x.r, x.s + 1))
    ru = level.u - x.r
    return lc.simple_a(level, ru, 1, x.flow + 1, nu_weight(level, ru, 1))


def tau_tilde(level: AdmissibleLevel, x: wc.SimpleCLabel) -> lc.SimpleALabel:
    """The simple extended module whose restriction surjects onto x."""
    if x.is_typical:
        return tau(level, x)
    return lc.simple_a(level, x.r, x.s, x.flow - 1, nu_weight(level, x.r, x.s))


def induce_simple(level: AdmissibleLevel, x: wc.SimpleCLabel) -> lc.AObject:
    """Induction of a simple: typicals give projectives R, atypicals give M.

    sigma^(l+1)(E_{2*lam-k, Delta_{r,s}}) -> R(r,s;lam)@l and
    sigma^l(D+_{r,s}) -> M[r,s+1]@l (simple when s = v-1).
    """
    if x.is_typical:
        return lc.build_R(level, x.r, x.s, x.lam.affine(_HALF, level.half_k_weight), x.flow - 1)
    return lc.build_M(level, x.r, x.s + 1, x.flow)


def induce_vacuum(level: AdmissibleLevel) -> lc.DirectSum:
    """Induction of the algebra itself: A (+) M[1,2]@1.

    The second summand is the length-2 module with top M(1,2) x Pi_1(-t/2)
    and socle M(1,1) x Pi_2(-t) for v >= 3, and collapses to the simple
    M(1,1) x Pi_2(t) when v = 2.
    """
    return lc.DirectSum((lc.a_simple(lc.unit_a(level)), lc.build_M(level, 1, 2, 1)))


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
    for lbl, n in p.items():
        add_layers(out, restrict_simple(level, lbl), n)
    return wc.GrothC._own(out)
