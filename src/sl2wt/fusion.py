"""Fusion products inside the weight category.

Two explicit families are catalogued at object level -- D+(1,1) fused with
any lowest-weight D-(r,s), and the self-fusion of sigma(D+(1,1)) -- and a
Grothendieck-level solver transfers arbitrary products of effective classes
through the induction functor: it computes the induced product in the
extended fusion ring and solves an integer system for the unique effective
preimage, reporting NoSolution / Ambiguous outcomes instead of guessing.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional

from .arithmetic import AdmissibleLevel, check_rs, lam_rs
from . import weight_cat as wc
from . import local_cat as lc
from .functors import groth_F, restrict_simple, groth_restrict, induce_simple, induce_vacuum


class NoSolution(RuntimeError):
    """The induced-product system is inconsistent (implementation bug signal)."""


class Ambiguous(RuntimeError):
    """Several effective classes induce to the same product."""

    def __init__(self, solutions: List[wc.GrothC]):
        super().__init__(f"{len(solutions)} effective solutions found")
        self.solutions = solutions


def fuse_D11plus_Dminus(level: AdmissibleLevel, r: int, s: int) -> wc.CObject:
    """D+(1,1) fused with D-(r,s), canonicalized.

    s = 1:         L(r,0) [ (+) E(-lambda_{r,0}; r,2) when v >= 3 ]
    2 <= s <= v-2: D-(r,s-1) (+) E(-lambda_{r,s-1}; r,s+1)
    s = v-1:       D-(r,v-2)
    """
    check_rs(level, r, s)
    parts: List[wc.CObject] = [wc.Simple(wc.dminus(level, r, s - 1))]
    if s <= level.v - 2:
        parts.append(
            wc.Simple(wc.typical(level, r, s + 1, -lam_rs(level, r, s - 1)))
        )
    return wc.direct_sum(parts)


def fuse_sigmaD11_selfsquare(level: AdmissibleLevel) -> wc.CObject:
    """sigma(D+(1,1)) fused with itself.

    v = 2:  sigma^4(L(1,0));   v >= 3:  sigma^2(D+(1,2)) (+) sigma^3(E(lambda_{1,3}; 1,1)).
    """
    if level.v == 2:
        return wc.Simple(wc.lr0(level, 1, flow=4))
    return wc.direct_sum(
        [
            wc.Simple(wc.atypical(level, 1, 2, flow=2)),
            wc.Simple(wc.typical(level, 1, 1, lam_rs(level, 1, 3), flow=3)),
        ]
    )


def catalogued_fusion(
    level: AdmissibleLevel, x: wc.SimpleCLabel, y: wc.SimpleCLabel
) -> Optional[wc.CObject]:
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

    Computed directly from the printed exact sequence: the restriction of y
    itself, plus the three-part complement with Pi-data
    (l+2, lam-t) and (l+1, lam-t/2) at Kac labels (r, s-+1), components with
    s-part 0 or v dropped.
    """
    t = level.t
    total = wc.comp_factors(level, restrict_simple(level, y))
    pieces = [(y.r, y.s, y.flow + 2, y.lam - t)]
    pieces += [
        (y.r, s2, y.flow + 1, y.lam - t / 2)
        for s2 in (y.s - 1, y.s + 1)
        if 1 <= s2 <= level.v - 1
    ]
    for r2, s2, f2, lam2 in pieces:
        z = lc.simple_a(level, r2, s2, f2, lam2)
        total = total + wc.comp_factors(level, restrict_simple(level, z))
    return total


@lru_cache(maxsize=16)
def _vacuum_class(level: AdmissibleLevel) -> lc.GrothA:
    """The class [N] of F(A), shared between calls: never mutate it."""
    return lc.comp_factors_a(level, induce_vacuum(level))


def a_tensor_restriction_via_ring(level: AdmissibleLevel, y: lc.SimpleALabel) -> wc.GrothC:
    """Same class computed through the extended fusion ring: restrict [y]*[N].

    The product takes its fusion map from the fresh class of y, so the shared
    [N] contributes only its coefficients.
    """
    return groth_restrict(level, lc.a_class(level, y) * _vacuum_class(level))


# ---------------------------------------------------------------------------
# Grothendieck solver


def _induced_class(level: AdmissibleLevel, z: wc.SimpleCLabel) -> lc.GrothA:
    return lc.comp_factors_a(level, induce_simple(level, z))


def _candidates(level: AdmissibleLevel, p: lc.GrothA) -> List[wc.SimpleCLabel]:
    """All canonical simple labels whose induced class is supported in supp(p).

    The top constituent of any induced object sits in supp(p), which pins the
    candidate typicals to (top label, top flow, top lam) and bounds the
    atypical flows to {m, m-1} for Pi-flows m occurring in p.
    """
    support = p.support()
    seen: set = set()
    out: List[wc.SimpleCLabel] = []

    def consider(z: wc.SimpleCLabel) -> None:
        if z in seen:
            return
        seen.add(z)
        if _induced_class(level, z).support() <= support:
            out.append(z)

    flows = {w.flow for w in support}
    for w in support:
        try:
            consider(wc.typical(level, w.r, w.s, 2 * w.lam - level.k, w.flow + 1))
        except wc.NotSimple:
            pass
    for r in range(1, level.u):
        for s in range(1, level.v):
            for m in flows | {m - 1 for m in flows}:
                consider(wc.atypical(level, r, s, m))
    return out


def _solve_nonneg(
    targets: List[lc.SimpleALabel],
    target_counts: List[int],
    cand_vectors: List[Dict[lc.SimpleALabel, int]],
    cap: int = 16,
) -> List[Dict[int, int]]:
    """All nonnegative integer combinations of cand_vectors equal to the target."""
    index = {w: i for i, w in enumerate(targets)}
    vecs = [{index[w]: n for w, n in v.items()} for v in cand_vectors]
    # labels that no later candidate can still reach must be exhausted early
    last_touch = [max((i for i, v in enumerate(vecs) if j in v), default=-1) for j in range(len(targets))]
    solutions: List[Dict[int, int]] = []

    def dfs(i: int, residual: List[int], chosen: Dict[int, int]) -> None:
        if len(solutions) >= cap:
            return
        if i == len(vecs):
            if all(n == 0 for n in residual):
                solutions.append(dict(chosen))
            return
        for j, n in enumerate(residual):
            if n > 0 and last_touch[j] < i:
                return
        v = vecs[i]
        top = min(residual[j] // n for j, n in v.items())
        for count in range(top, -1, -1):
            if count:
                chosen[i] = count
            elif i in chosen:
                del chosen[i]
            dfs(i + 1, [residual[j] - count * v.get(j, 0) for j in range(len(residual))], chosen)
        chosen.pop(i, None)

    dfs(0, list(target_counts), {})
    return solutions


def groth_fuse_C(level: AdmissibleLevel, x: wc.GrothC, y: wc.GrothC) -> wc.GrothC:
    """Fusion of effective classes, solved through the induction functor.

    Computes p = F(x)*F(y) in the extended ring, enumerates the finite set of
    simple labels whose induced classes fit inside supp(p), and solves
    sum n_i * F(z_i) = p over nonnegative integers.  Raises NoSolution if the
    system is inconsistent and Ambiguous (carrying every solution found) if
    the effective preimage is not unique.
    """
    if not (x.is_effective and y.is_effective):
        raise ValueError("solver inputs must be effective (nonnegative) classes")
    if x.is_zero or y.is_zero:
        return wc.GrothC()
    p = groth_F(level, x) * groth_F(level, y)
    cands = _candidates(level, p)
    targets = sorted(p.support(), key=lambda w: w.sort_key())
    counts = [p.multiplicity(w) for w in targets]
    vectors = [dict(_induced_class(level, z).items()) for z in cands]
    order = sorted(range(len(cands)), key=lambda i: min(t.sort_key() for t in vectors[i]))
    cands = [cands[i] for i in order]
    vectors = [vectors[i] for i in order]
    sols = _solve_nonneg(targets, counts, vectors)
    if not sols:
        raise NoSolution(f"no effective class induces to {p}")
    if len(sols) > 1:
        raise Ambiguous([wc.GrothC({cands[i]: n for i, n in s.items()}) for s in sols])
    return wc.GrothC({cands[i]: n for i, n in sols[0].items()})
