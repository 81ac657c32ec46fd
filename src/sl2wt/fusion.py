"""Fusion products inside the weight category.

Two explicit families are catalogued at object level -- D+(1,1) fused with
any lowest-weight D-(r,s), and the self-fusion of sigma(D+(1,1)).  The class
of A fused with the restriction of a simple y, which pipeline step 2 counts,
comes on two routes: the direct one restricts the layers of y's catalogued
projective cover R(y), the other restricts [y]*[N] in the extended fusion
ring, N = F(A).  A Grothendieck-level solver transfers arbitrary products of
effective classes through the induction functor.  Induction is unitriangular
on Grothendieck groups: the top of F(z) is tau(z) and every lower factor sits
at a higher flow.  So the solver computes the induced product in the extended
fusion ring and peels it flow by flow, lowest first, into the unique
effective preimage, raising NoSolution when no effective class induces to it.
Each step subtracts the Loewy layers of the catalogued object topped by its
term w: the cover R(w) that the level keeps under w for a typical
z = tau^-1(w), the one M that F(z) is for an atypical z.  The certificate then
re-induces every z through F, so the catalogue's covers are checked against
the functor on a second route.  Peeling a term changes only higher flows, so
the terms of one flow may go in any order.  A term whose coefficient is
already zero when the peel reaches it starts no step, so tau is inverted
(one restriction each) only on the terms that do.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, List, Optional, Tuple, Union

from .arithmetic import AdmissibleLevel, add_layers, check_rs, lam_rs
from . import weight_cat as wc
from . import local_cat as lc
from .functors import groth_F, restrict_simple, groth_restrict, induce_simple, induce_vacuum, tau_inverse


class NoSolution(RuntimeError):
    """No effective class induces to the product (implementation bug signal)."""


def fuse_D11plus_Dminus(level: AdmissibleLevel, r: int, s: int) -> Union[wc.CObject, wc.DirectSum]:
    """D+(1,1) fused with D-(r,s), canonicalized.

    s = 1:         L(r,0) [ (+) E(-lambda_{r,0}; r,2) when v >= 3 ]
    2 <= s <= v-2: D-(r,s-1) (+) E(-lambda_{r,s-1}; r,s+1)
    s = v-1:       D-(r,v-2)
    """
    check_rs(level, r, s)
    parts: List[wc.CObject] = [wc.simple(wc.dminus(level, r, s - 1))]
    if s <= level.v - 2:
        parts.append(
            wc.simple(wc.typical(level, r, s + 1, -lam_rs(level, r, s - 1)))
        )
    return wc.direct_sum(parts)


def fuse_sigmaD11_selfsquare(level: AdmissibleLevel) -> Union[wc.CObject, wc.DirectSum]:
    """sigma(D+(1,1)) fused with itself.

    v = 2:  sigma^4(L(1,0));   v >= 3:  sigma^2(D+(1,2)) (+) sigma^3(E(lambda_{1,3}; 1,1)).
    """
    if level.v == 2:
        return wc.simple(wc.lr0(level, 1, flow=4))
    return wc.direct_sum(
        [
            wc.simple(wc.atypical(level, 1, 2, flow=2)),
            wc.simple(wc.typical(level, 1, 1, lam_rs(level, 1, 3), flow=3)),
        ]
    )


def catalogued_fusion(
    level: AdmissibleLevel, x: wc.SimpleCLabel, y: wc.SimpleCLabel
) -> Optional[Union[wc.CObject, wc.DirectSum]]:
    """Object-level product when a pair matches the catalogued theorem.

    Any atypical is a flowed lowest-weight module, so whenever one factor is
    a flow of D+(1,1) the product follows from the D+(1,1) x D-(r,s) table
    by flow equivariance.  Returns None for pairs outside the catalog.
    """
    if x.is_typical or y.is_typical:
        return None
    for a, b in ((x, y), (y, x)):
        if (a.r, a.s) != (1, 1):
            continue
        # invert the canonical rewriting: b = sigma^c(D-(rm, sm))
        if b.s == level.v - 1:
            rm, sm, c = b.r, level.v - 1, b.flow + 2
        else:
            rm, sm, c = level.u - b.r, level.v - b.s - 1, b.flow + 1
        product = fuse_D11plus_Dminus(level, rm, sm)
        return wc.spectral_flow(product, a.flow + c)
    return None


def a_tensor_restriction(level: AdmissibleLevel, y: lc.SimpleALabel) -> wc.GrothC:
    """Composition factors of A fused with the restriction of y.

    Computed directly from the printed exact sequence: the restrictions of
    the layer labels of the projective cover R(y), as ``local_cat.r_layers``
    catalogues them (y itself on top), counted into one dict.  So step 2
    checks the R that induction prints against the fusion ring.
    """
    out = {}
    for layer in lc.r_layers(level, y):
        for z in layer:
            add_layers(out, restrict_simple(level, z))
    return wc.GrothC._own(out)


def _vacuum_class(level: AdmissibleLevel) -> lc.GrothA:
    """The class [N] of F(A), kept in the level's memo and shared between
    calls: never mutate it."""
    memo = level.memo
    out = memo.get("vacuum_class")
    if out is None:
        out = memo["vacuum_class"] = lc.comp_factors_a(level, induce_vacuum(level))
    return out


def a_tensor_restriction_via_ring(level: AdmissibleLevel, y: lc.SimpleALabel) -> wc.GrothC:
    """Same class computed through the extended fusion ring: restrict [y]*[N].

    The product takes its fusion map from the fresh class of y, so the shared
    [N] contributes only its coefficients.
    """
    return groth_restrict(level, lc.a_class(level, y) * _vacuum_class(level))


# ---------------------------------------------------------------------------
# Grothendieck solver


def _cover_layers(level: AdmissibleLevel, w: lc.SimpleALabel, z: wc.SimpleCLabel) -> Tuple[tuple, ...]:
    """The Loewy layers of F(z), top first, for w = tau(z): the layers of the
    cover R(w) as ``local_cat.r_layers`` keeps them under w when z is typical,
    those of the one M that induction builds when z is atypical."""
    if z.is_typical:
        return lc.r_layers(level, w)
    return induce_simple(level, z).layers


def _peel_order(w: lc.SimpleALabel):
    """The label order that error messages name their label by."""
    return (w.flow, w.sort_key())


_flow = attrgetter("flow")


def _candidates(level: AdmissibleLevel, p: lc.GrothA) -> List[lc.SimpleALabel]:
    """The terms of p in peel order: flow by flow, lowest first.

    Every lower factor of F(z) sits at a strictly higher flow than its top
    tau(z), so peeling a term changes no other term of its own flow: all
    coefficients of a flow are final once the peel reaches it, and the order
    within the flow is free.  Sorting on the flow alone builds none of the
    Fractions of a full label key.  The solver inverts tau only on the terms
    still nonzero then.  level goes unused; the signature stays because
    ``bench/layers.py`` wraps this function to count p's terms per solve.
    """
    return sorted(p.support(), key=_flow)


def _lowest_left(residual: Dict[lc.SimpleALabel, int]) -> str:
    w = min(residual, key=_peel_order)
    return f"coefficient {residual[w]} left at {w}"


def groth_fuse_C(level: AdmissibleLevel, x: wc.GrothC, y: wc.GrothC) -> wc.GrothC:
    """Fusion of effective classes, solved through the induction functor.

    Computes p = F(x)*F(y) in the extended ring and peels it by
    unitriangularity: a term w of the lowest flow not yet reached, with
    coefficient n in what is left, fixes n copies of z = tau^-1(w), and n
    times the layers of the catalogued object topped by w (``_cover_layers``)
    are subtracted.  Raises NoSolution, naming a label and its coefficient,
    if a negative coefficient is reached, if anything is left over, or if the
    functor itself, re-inducing every z, does not send the result back to p.
    The label named is the first in ``_peel_order`` among those at fault, so
    the message does not depend on the order within a flow.
    """
    if not (x.is_effective and y.is_effective):
        raise ValueError("solver inputs must be effective (nonnegative) classes")
    if x.is_zero or y.is_zero:
        return wc.GrothC()
    p = groth_F(level, x) * groth_F(level, y)
    residual: Dict[lc.SimpleALabel, int] = dict(p.items())
    out: Dict[wc.SimpleCLabel, int] = {}
    order = _candidates(level, p)
    for w in order:
        n = residual.get(w, 0)
        if n < 0:
            # every coefficient of this flow is final: name the first negative
            negatives = (v for v in order if v.flow == w.flow and residual.get(v, 0) < 0)
            w = min(negatives, key=_peel_order)
            raise NoSolution(f"coefficient {residual[w]} at {w} when peeled")
        if n:
            z = tau_inverse(level, w)
            out[z] = n
            add_layers(residual, _cover_layers(level, w, z), -n)
    if residual:
        raise NoSolution(f"{_lowest_left(residual)} after peeling")
    # the peel only shows that the covers it read sum to p: re-induce the
    # result through the functor, so that a wrong cover cannot certify itself
    residual = dict(p.items())
    for z, n in out.items():
        add_layers(residual, induce_simple(level, z), -n)
    if residual:
        raise NoSolution(f"F(result) differs from the product: {_lowest_left(residual)}")
    return wc.GrothC(out)
