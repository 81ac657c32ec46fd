"""The extended category side: simple local modules M(r,s) x Pi_l(lam),
their fusion ring, duals and twist/monodromy exponents, and the catalogued
indecomposables R (projective covers) and M (two-step images).

Pi-labels lam are taken mod Z; the Virasoro Kac label obeys
M(r,s) = M(u-r,v-s) and is stored lexicographically minimal.  Twist and
monodromy scalars are exp(2*pi*i * e) and are exposed through their exact
exponents e in Q + Q*w, so all comparisons are exact mod 1.

The catalogued indecomposables -- simples, R and M -- are one type,
AObject, that carries its Loewy layers, top first; composition factors,
duals and Loewy diagrams read them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain
from typing import List, Optional, Tuple, Union

from .arithmetic import (
    AdmissibleLevel,
    Groth,
    HashedOnce,
    Immutable,
    Weight,
    as_weight,
    check_rs,
    h_rs,
    json_field,
    nu_rs,
    pi_conf_weight,
    set_hash,
    slot_setters,
)


@dataclass(slots=True, init=False)
class SimpleALabel(HashedOnce):
    """Canonical label M(r,s) x Pi_flow(lam), lam mod Z, (r,s) ~ (u-r,v-s)."""

    r: int
    s: int
    flow: int
    lam: Weight

    def __init__(self, r: int, s: int, flow: int, lam: Weight):
        _set_r(self, r)
        _set_s(self, s)
        _set_flow(self, flow)
        _set_lam(self, lam)
        set_hash(self, hash((r, s, flow, lam)))

    __hash__ = HashedOnce.__hash__

    def __reduce__(self):
        return (SimpleALabel, (self.r, self.s, self.flow, self.lam))

    def sort_key(self):
        return (self.r, self.s, self.flow, self.lam.sort_key())

    def __str__(self) -> str:
        return f"M({self.r},{self.s})xPi({self.flow};{self.lam})"


_set_r, _set_s, _set_flow, _set_lam = slot_setters(SimpleALabel)


def simple_a(level: AdmissibleLevel, r: int, s: int, flow: int, lam) -> SimpleALabel:
    check_rs(level, r, s)
    r, s = min((r, s), (level.u - r, level.v - s))
    return SimpleALabel(r, s, flow, as_weight(lam).reduce(1))


def unit_a(level: AdmissibleLevel) -> SimpleALabel:
    """The extension algebra itself: M(1,1) x Pi_0(0)."""
    return simple_a(level, 1, 1, 0, 0)


# ---------------------------------------------------------------------------
# Fusion


def vir_fuse(level: AdmissibleLevel, r: int, s: int, rp: int, sp: int) -> List[Tuple[int, int]]:
    """Virasoro minimal-model fusion: the multiset of (r'', s'') channels.

    r'' runs from |r-r'|+1 to min(r+r'-1, 2u-r-r'-1) in steps of 2, and s''
    analogously with v.  Multiplicity-free.
    """
    check_rs(level, r, s)
    check_rs(level, rp, sp)
    rr = range(abs(r - rp) + 1, min(r + rp - 1, 2 * level.u - r - rp - 1) + 1, 2)
    ss = range(abs(s - sp) + 1, min(s + sp - 1, 2 * level.v - s - sp - 1) + 1, 2)
    return [(a, b) for a in rr for b in ss]


def pi_fuse(flow: int, lam, flowp: int, lamp) -> Tuple[int, Weight]:
    """Pi_l(lam) x Pi_l'(lam') = Pi_{l+l'}(lam+lam'), lam mod Z."""
    return flow + flowp, (as_weight(lam) + as_weight(lamp)).reduce(1)


def a_fuse(level: AdmissibleLevel, x: SimpleALabel, y: SimpleALabel) -> Groth:
    """Fusion of simples: Virasoro channels tensored with the Pi product."""
    flow, lam = pi_fuse(x.flow, x.lam, y.flow, y.lam)
    channels = vir_fuse(level, x.r, x.s, y.r, y.s)
    return a_class(level, *(simple_a(level, rr, ss, flow, lam) for rr, ss in channels))


# ---------------------------------------------------------------------------
# Grothendieck ring: Z-combinations of SimpleALabel with the fusion product.

GrothA = Groth


def a_class(level: AdmissibleLevel, *labels: SimpleALabel) -> Groth:
    """The class of the given simples in the extended fusion ring."""
    return Groth.of(*labels, fuse=partial(a_fuse, level))


# ---------------------------------------------------------------------------
# Duality, twist, monodromy


def rigid_dual_label(level: AdmissibleLevel, x: SimpleALabel) -> SimpleALabel:
    """Left dual of a simple: (l, lam) -> (-l, -lam)."""
    return simple_a(level, x.r, x.s, -x.flow, -x.lam)


def gv_dual(level: AdmissibleLevel, x: SimpleALabel) -> SimpleALabel:
    """Grothendieck-Verdier dual: (r, s, l, lam) -> (r, s, -l-2, t-lam)."""
    return simple_a(level, x.r, x.s, -x.flow - 2, level.t - x.lam)


def twist_exponent(level: AdmissibleLevel, x: SimpleALabel) -> Weight:
    """Exponent of the ribbon twist e^{2 pi i L_0}: h_{r,s} + (k/4)l^2 + lam(l+1).

    Well defined mod 1 (the label's lam is itself only a coset mod Z).
    """
    return pi_conf_weight(level, x.flow, x.lam) + h_rs(level, x.r, x.s)


def monodromy_exponent(level: AdmissibleLevel, flow: int, lam, flowp: int, lamp) -> Weight:
    """Pi-sector double-braiding exponent k*l*l'/2 + lam*l' + lam'*l."""
    return (
        Weight(level.k * flow * flowp / 2)
        + as_weight(lam) * flowp
        + as_weight(lamp) * flow
    )


def is_local_flow(flow) -> bool:
    """A Pi-sector flow parameter induces a local module iff it is an integer."""
    return as_weight(flow).is_integral


# ---------------------------------------------------------------------------
# Catalogued indecomposables


# the kinds of catalogued object
A_TAGS = frozenset({"simple", "R", "M"})


# not frozen=True (see Immutable): unsafe_hash gives the hash of the field
# tuple that frozen=True would
@dataclass(slots=True, init=False, unsafe_hash=True)
class AObject(Immutable):
    """A catalogued indecomposable with its Loewy layers, top first: a simple
    (tag "simple", the other fields those of its label), R(r,s;lam)@flow
    (tag "R") or M[r,s]@flow (tag "M", lam None)."""

    tag: str
    r: int
    s: int
    flow: int
    lam: Optional[Weight]
    layers: Tuple[Tuple[SimpleALabel, ...], ...]

    def __init__(
        self, tag: str, r: int, s: int, flow: int, lam: Optional[Weight],
        layers: Tuple[Tuple[SimpleALabel, ...], ...],
    ):
        if tag not in A_TAGS:
            raise ValueError(f"unknown A-object tag {tag!r}")
        _set_obj_tag(self, tag)
        _set_obj_r(self, r)
        _set_obj_s(self, s)
        _set_obj_flow(self, flow)
        _set_obj_lam(self, lam)
        _set_obj_layers(self, layers)

    def __reduce__(self):
        return (AObject, (self.tag, self.r, self.s, self.flow, self.lam, self.layers))

    def __str__(self) -> str:
        if self.tag == "R":
            return f"R({self.r},{self.s};{self.lam})@{self.flow}"
        if self.tag == "M":
            return f"M[{self.r},{self.s}]@{self.flow}"
        return str(self.layers[0][0])


_set_obj_tag, _set_obj_r, _set_obj_s, _set_obj_flow, _set_obj_lam, _set_obj_layers = slot_setters(AObject)


@dataclass(frozen=True)
class ADirectSum:
    parts: Tuple[Union[AObject, "ADirectSum"], ...]

    def __post_init__(self):
        if len(self.parts) < 2:
            raise ValueError(f"a direct sum needs at least two parts, got {len(self.parts)}")

    def __str__(self) -> str:
        return " (+) ".join(str(p) for p in self.parts)


def a_simple(x: SimpleALabel) -> AObject:
    return AObject("simple", x.r, x.s, x.flow, x.lam, ((x,),))


def build_R(level: AdmissibleLevel, r: int, s: int, lam, flow: int) -> AObject:
    """The projective cover R(r,s;lam)@flow, a diamond: top (r,s,l,lam),
    middle (r,s-+1,l+1,lam-t/2), bottom (r,s,l+2,lam-t), middle entries with
    Kac s-component 0 or v dropped."""
    check_rs(level, r, s)
    w = as_weight(lam).reduce(1)
    top = (simple_a(level, r, s, flow, w),)
    mid = tuple(
        simple_a(level, r, s2, flow + 1, w - level.half_t)
        for s2 in (s - 1, s + 1)
        if 1 <= s2 <= level.v - 1
    )
    # the middle labels share flow and lam, and their canonical Kac labels
    # differ (u and v are coprime), so (r, s) gives the sort_key order
    if len(mid) == 2 and (mid[1].r, mid[1].s) < (mid[0].r, mid[0].s):
        mid = mid[::-1]
    bot = (simple_a(level, r, s, flow + 2, w - level.t),)
    layers = tuple(layer for layer in (top, mid, bot) if layer)
    r, s = min((r, s), (level.u - r, level.v - s))
    return AObject("R", r, s, flow, w, layers)


def build_M(level: AdmissibleLevel, r: int, s: int, flow: int) -> AObject:
    """The image module M[r,s]@flow for 1 <= s <= v, of length 2: top
    (r,s,l,nu_{r,s}) over (r,s-1,l+1,nu_{r,s+1}).

    Constituents with Virasoro s-component 0 or v are dropped, so the
    boundary cases are simple: M[r,1] = M(r,1) x Pi_flow(nu_{r,1}) and
    M[r,v] = M(r,v-1) x Pi_{flow+1}(nu_{r,v+1}) = M(u-r,1) x Pi_{flow+1}(nu_{u-r,1}).
    """
    check_rs(level, r, s, 1, level.v)
    if s == 1:
        return a_simple(simple_a(level, r, 1, flow, nu_rs(level, r, 1)))
    if s == level.v:
        return a_simple(simple_a(level, r, level.v - 1, flow + 1, nu_rs(level, r, level.v + 1)))
    top = (simple_a(level, r, s, flow, nu_rs(level, r, s)),)
    bot = (simple_a(level, r, s - 1, flow + 1, nu_rs(level, r, s + 1)),)
    return AObject("M", r, s, flow, None, (top, bot))


def rigid_dual(
    level: AdmissibleLevel, x: Union[AObject, ADirectSum, SimpleALabel]
) -> Union[AObject, ADirectSum, SimpleALabel]:
    """Left dual of a catalogued object.

    R(r,s;lam)@l -> R(r,s;t-lam)@(-l-2); M-objects dualize by reversing the
    Loewy diagram, which lands back in the catalog as M[u-r,v-s+1]@(-l-1).
    """
    if isinstance(x, SimpleALabel):
        return rigid_dual_label(level, x)
    if isinstance(x, ADirectSum):
        return ADirectSum(tuple(rigid_dual(level, p) for p in x.parts))
    if x.tag == "R":
        return build_R(level, x.r, x.s, level.t - x.lam, -x.flow - 2)
    if x.tag == "M":
        return build_M(level, level.u - x.r, level.v - x.s + 1, -x.flow - 1)
    return a_simple(rigid_dual_label(level, x.layers[0][0]))


def comp_factors_a(level: AdmissibleLevel, x: Union[AObject, ADirectSum]) -> GrothA:
    if isinstance(x, ADirectSum):
        total = a_class(level)
        for p in x.parts:
            comp_factors_a(level, p)._add_to(total.coeffs)
        return total
    return a_class(level, *chain.from_iterable(x.layers))


# -- JSON label schema --
# {"cat": "A", "r": r, "s": s, "flow": l, "lam": Weight} for simples, and
# {"cat": "A", "tag": "R" | "M" | "sum", ...} for catalogued objects; "flow"
# defaults to 0.  label_from_json and aobject_from_json are the only readers
# of A-labels and A-objects: the CLI turns its compact syntax into this schema.


def label_to_json(x: SimpleALabel) -> dict:
    return {"cat": "A", "r": x.r, "s": x.s, "flow": x.flow, "lam": x.lam.to_json()}


def label_from_json(level: AdmissibleLevel, data: dict) -> SimpleALabel:
    if json_field(data, "cat", str) != "A" or "tag" in data:
        raise ValueError(f"not a simple A-label: {data!r}")
    r, s, flow = json_field(data, "r", int), json_field(data, "s", int), json_field(data, "flow", int, 0)
    return simple_a(level, r, s, flow, Weight.from_json(json_field(data, "lam", dict)))


def aobject_to_json(x: Union[AObject, ADirectSum]) -> dict:
    if isinstance(x, ADirectSum):
        return {"cat": "A", "tag": "sum", "parts": [aobject_to_json(p) for p in x.parts]}
    if x.tag == "R":
        return {"cat": "A", "tag": "R", "r": x.r, "s": x.s, "flow": x.flow, "lam": x.lam.to_json()}
    if x.tag == "M":
        return {"cat": "A", "tag": "M", "r": x.r, "s": x.s, "flow": x.flow}
    return label_to_json(x.layers[0][0])


# Deepest nesting of direct sums the reader accepts.  str, rigid_dual and
# aobject_to_json recurse about three frames per level, so a sum this deep
# stays well inside Python's default recursion limit of 1000.
MAX_SUM_DEPTH = 100


def aobject_from_json(level: AdmissibleLevel, data: dict, depth: int = 0) -> Union[AObject, ADirectSum]:
    """The A-object of data; depth counts the sums that enclose it."""
    if json_field(data, "cat", str) != "A":
        raise ValueError(f"not an A-object: {data!r}")
    tag = json_field(data, "tag", str, None)
    if tag is None:
        return a_simple(label_from_json(level, data))
    if tag == "sum":
        if depth >= MAX_SUM_DEPTH:
            raise ValueError(f"direct sums are nested more than {MAX_SUM_DEPTH} deep")
        parts = json_field(data, "parts", list)
        return ADirectSum(tuple(aobject_from_json(level, p, depth + 1) for p in parts))
    if tag not in ("R", "M"):
        raise ValueError(f"unknown A-object tag {tag!r}")
    r, s, flow = json_field(data, "r", int), json_field(data, "s", int), json_field(data, "flow", int, 0)
    if tag == "R":
        return build_R(level, r, s, Weight.from_json(json_field(data, "lam", dict)), flow)
    return build_M(level, r, s, flow)


def loewy_lines(x: Union[AObject, ADirectSum]) -> List[str]:
    """ASCII Loewy diagram, one line per layer, top first."""
    if isinstance(x, ADirectSum):
        out: List[str] = []
        for i, p in enumerate(x.parts):
            if i:
                out.append("(+)")
            out.extend(loewy_lines(p))
        return out
    body = ["   ".join(str(lbl) for lbl in layer) for layer in x.layers]
    if len(body) > 1:
        body = [body[0]] + [line for b in body[1:] for line in ("  |", b)]
    return ([f"{x}:"] if x.tag != "simple" else []) + ["  " + b for b in body]
