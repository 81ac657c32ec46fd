"""Simple labels and catalogued indecomposables of the affine weight category.

Every simple object is written canonically as a spectral flow of either a
highest-weight module D+(r,s) (atypical) or a fully relaxed module
E(lam; r,s) (typical, lam taken mod 2Z with (r,s) ~ (u-r,v-s) identified).
Non-canonical presentations -- lowest-weight modules D-(r,s), the modules
L(r,0), typicals with the mirrored Kac label -- are rewritten on
construction, so label equality is isomorphism.

The catalogued indecomposables -- simples, the E-strings E-+ and the
projectives P, each up to spectral flow -- are arithmetic.LoewyObject,
named CObject here, with SimpleCLabel layers, top first; composition
factors, spectral flow and contragredients read them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .arithmetic import (
    AdmissibleLevel,
    DirectSum,
    Groth,
    HashedOnce,
    LoewyObject,
    Weight,
    add_layers,
    as_weight,
    check_flow,
    check_rs,
    json_field,
    lam_ratio,
    set_hash,
    slot_setters,
)


class NotSimple(ValueError):
    """A typical label whose lam collides with +-lambda_{r,s} mod 2Z."""


# the kinds of catalogued object
C_TAGS = frozenset({"simple", "E-", "E+", "P"})


@dataclass(slots=True, init=False)
class SimpleCLabel(HashedOnce):
    """Canonical simple label sigma^flow(D+_{r,s}) or sigma^flow(E_{lam,Delta_{r,s}})."""

    flow: int
    r: int
    s: int
    lam: Optional[Weight] = None  # None <=> atypical

    # the category and the tags of the catalogued objects this label tops
    CAT = "C"
    TAGS = C_TAGS

    def __init__(self, flow: int, r: int, s: int, lam: Optional[Weight] = None):
        _set_flow(self, flow)
        _set_r(self, r)
        _set_s(self, s)
        _set_lam(self, lam)
        set_hash(self, hash((flow, r, s, lam)))

    __hash__ = HashedOnce.__hash__

    def __reduce__(self):
        return (SimpleCLabel, (self.flow, self.r, self.s, self.lam))

    @property
    def is_typical(self) -> bool:
        return self.lam is not None

    def sort_key(self):
        lam_key = self.lam.sort_key() if self.lam is not None else None
        return (self.lam is not None, self.r, self.s, self.flow, lam_key or (0, 0))

    def __str__(self) -> str:
        if self.lam is None:
            return f"D+({self.r},{self.s})@{self.flow}"
        return f"E({self.lam};{self.r},{self.s})@{self.flow}"


_set_flow, _set_r, _set_s, _set_lam = slot_setters(SimpleCLabel)


def atypical(level: AdmissibleLevel, r: int, s: int, flow: int = 0) -> SimpleCLabel:
    """sigma^flow(D+_{r,s}), already canonical."""
    check_rs(level, r, s)
    check_flow(flow)
    return SimpleCLabel(flow, r, s, None)


def typical(level: AdmissibleLevel, r: int, s: int, lam, flow: int = 0) -> SimpleCLabel:
    """Canonical sigma^flow(E_{lam, Delta_{r,s}}).

    lam is reduced mod 2Z and (r, s) is replaced by the lexicographically
    smaller of (r, s) and (u-r, v-s).  Raises NotSimple on the reducible
    cosets lam = +-lambda_{r,s} mod 2Z.
    """
    check_rs(level, r, s)
    check_flow(flow)
    w = as_weight(lam).reduce(2)
    n, b = lam_ratio(level, r, s)
    for sign, factor in (("+", 1), ("-", -1)):
        if w.on_coset(n, b, 2, factor):
            raise NotSimple(f"E({w};{r},{s}) is reducible: lam = {sign}lambda_{{r,s}} mod 2Z")
    r, s = min((r, s), (level.u - r, level.v - s))
    return SimpleCLabel(flow, r, s, w)


def lr0(level: AdmissibleLevel, r: int, flow: int = 0) -> SimpleCLabel:
    """sigma^flow(L_{r,0}) rewritten as sigma^(flow-1)(D+_{u-r,v-1})."""
    check_rs(level, r, 0, 0, 0)
    check_flow(flow)
    return SimpleCLabel(flow - 1, level.u - r, level.v - 1, None)


def dplus(level: AdmissibleLevel, r: int, s: int, flow: int = 0) -> SimpleCLabel:
    """sigma^flow(D+_{r,s}) for 0 <= s <= v-1; s = 0 is the L_{r,0} alias."""
    check_rs(level, r, s, 0)
    if s == 0:
        return lr0(level, r, flow)
    return atypical(level, r, s, flow)


def dminus(level: AdmissibleLevel, r: int, s: int, flow: int = 0) -> SimpleCLabel:
    """Canonical form of sigma^flow(D-_{r,s}).

    D-_{r,s} = sigma^(-1)(D+_{u-r,v-s-1}) for s <= v-2 and
    D-_{r,v-1} = sigma^(-2)(D+_{r,v-1}); s = 0 is again L_{r,0}.
    """
    check_rs(level, r, s, 0)
    check_flow(flow)
    if s == 0:
        return lr0(level, r, flow)
    return _dminus(level, r, s, flow)


def _dminus(level: AdmissibleLevel, r: int, s: int, flow: int) -> SimpleCLabel:
    """dminus for a Kac label (r, s) already checked, 1 <= s <= v-1."""
    if s <= level.v - 2:
        return SimpleCLabel(flow - 1, level.u - r, level.v - s - 1, None)
    return SimpleCLabel(flow - 2, r, level.v - 1, None)


def contragredient(level: AdmissibleLevel, x: SimpleCLabel) -> SimpleCLabel:
    """The contragredient dual, canonicalized.

    Typicals: sigma^l(E_{lam,D})' = sigma^(-l)(E_{-lam,D}).
    Atypicals: sigma^l(D+_{r,s})' = sigma^(-l)(D-_{r,s}).
    """
    if x.is_typical:
        return typical(level, x.r, x.s, -x.lam, -x.flow)
    return dminus(level, x.r, x.s, -x.flow)


def contragredient_obj(level: AdmissibleLevel, x: "CObject") -> "CObject":
    """Contragredient of a catalogued object; E-strings dualize to the
    Kac-mirrored string of the same kind, sigma^l(E+-_{r,s})' = sigma^(-l)(E+-_{u-r,v-s}),
    and the projective cover of x to the projective cover of x'."""
    if isinstance(x, DirectSum):
        return DirectSum(tuple(contragredient_obj(level, p) for p in x.parts))
    if x.tag == "simple":
        return simple(contragredient(level, x.layers[0][0]))
    if x.tag == "P":
        top = contragredient(level, x.layers[0][0])
        return projective(level, top.r, top.s, top.flow)
    return (eminus if x.tag == "E-" else eplus)(level, level.u - x.r, level.v - x.s, -x.flow)


# ---------------------------------------------------------------------------
# Catalogued objects


CObject = LoewyObject


def simple(x: SimpleCLabel) -> CObject:
    return CObject("simple", x.r, x.s, x.flow, ((x,),))


def eminus(level: AdmissibleLevel, r: int, s: int, flow: int = 0) -> CObject:
    """sigma^flow(E-_{r,s}): top D+_{u-r,v-s}, socle D-_{r,s}.  Restriction
    builds one on each atypical memo miss, so the Kac label is checked once:
    (u-r, v-s) lies in the Kac table when (r, s) does."""
    check_rs(level, r, s)
    check_flow(flow)
    top = SimpleCLabel(flow, level.u - r, level.v - s, None)
    return CObject("E-", r, s, flow, ((top,), (_dminus(level, r, s, flow),)))


def eplus(level: AdmissibleLevel, r: int, s: int, flow: int = 0) -> CObject:
    """sigma^flow(E+_{r,s}): top D-_{u-r,v-s}, socle D+_{r,s}."""
    check_rs(level, r, s)
    top = dminus(level, level.u - r, level.v - s, flow)
    return CObject("E+", r, s, flow, ((top,), (atypical(level, r, s, flow),)))


def projective(level: AdmissibleLevel, r: int, s: int, flow: int = 0) -> CObject:
    """sigma^flow(P_{r,s}), the projective cover of sigma^flow(D+_{r,s}): an
    extension of the E-string quo by the E-string sub, so its layers are the
    top of quo, the socle of quo with the top of sub, and the socle of sub."""
    check_rs(level, r, s)
    check_flow(flow)
    u, v = level.u, level.v
    if s <= v - 2:
        sub, quo = eminus(level, u - r, v - s - 1, flow + 1), eminus(level, u - r, v - s, flow)
    else:
        sub, quo = eminus(level, r, v - 1, flow + 2), eminus(level, u - r, 1, flow)
    middle = tuple(sorted(quo.layers[1] + sub.layers[0], key=SimpleCLabel.sort_key))
    return CObject("P", r, s, flow, (quo.layers[0], middle, sub.layers[1]))


def direct_sum(parts: Iterable[CObject]) -> Union[CObject, DirectSum]:
    parts = tuple(parts)
    if len(parts) == 1:
        return parts[0]
    return DirectSum(parts)


def spectral_flow(x, m: int):
    """sigma^m, adding m to every flow index (of labels, layers and objects
    alike); m must be an int, like every flow."""
    check_flow(m)
    return _flowed(x, m)


def _flowed(x, m: int):
    """spectral_flow for an m already checked."""
    if isinstance(x, SimpleCLabel):
        return SimpleCLabel(x.flow + m, x.r, x.s, x.lam)
    if isinstance(x, DirectSum):
        return DirectSum(tuple(_flowed(p, m) for p in x.parts))
    layers = tuple(tuple(_flowed(lbl, m) for lbl in layer) for layer in x.layers)
    return CObject(x.tag, x.r, x.s, x.flow + m, layers)


# ---------------------------------------------------------------------------
# Grothendieck group of the weight category: Z-combinations of SimpleCLabel,
# without a ring product.

GrothC = Groth


# -- JSON label schema --
# {"cat": "C", "flow": l, "base": {"type": "D+", "r": r, "s": s}}
# {"cat": "C", "flow": l, "base": {"type": "E", "r": r, "s": s, "lam": Weight}}
# inputs may also use base types "D-" (with s) and "L" (r only); they
# canonicalize on parse, and "flow" defaults to 0.  label_from_json is the
# only reader of C-labels: the CLI turns its compact syntax into this schema.


def label_to_json(x: SimpleCLabel) -> dict:
    if x.is_typical:
        base = {"type": "E", "r": x.r, "s": x.s, "lam": x.lam.to_json()}
    else:
        base = {"type": "D+", "r": x.r, "s": x.s}
    return {"cat": "C", "flow": x.flow, "base": base}


def label_from_json(level: AdmissibleLevel, data: dict) -> SimpleCLabel:
    if json_field(data, "cat", str) != "C":
        raise ValueError(f"not a C-label: {data!r}")
    flow = json_field(data, "flow", int, 0)
    base = json_field(data, "base", dict)
    kind = json_field(base, "type", str)
    if kind not in ("D+", "D-", "L", "E"):
        raise ValueError(f"unknown C-label base type {kind!r}")
    r = json_field(base, "r", int)
    if kind == "L":
        return lr0(level, r, flow)
    s = json_field(base, "s", int)
    if kind == "E":
        return typical(level, r, s, Weight.from_json(json_field(base, "lam", dict)), flow)
    return (dplus if kind == "D+" else dminus)(level, r, s, flow)


def cobject_to_json(x: Union[CObject, DirectSum]) -> dict:
    if isinstance(x, DirectSum):
        return {"cat": "C", "tag": "sum", "parts": [cobject_to_json(p) for p in x.parts]}
    if x.tag == "simple":
        return label_to_json(x.layers[0][0])
    return {"cat": "C", "tag": x.tag, "r": x.r, "s": x.s, "flow": x.flow}


def comp_factors(level: AdmissibleLevel, x: Union[CObject, DirectSum]) -> GrothC:
    """Composition-factor class of a catalogued object or (nested) direct sum,
    all labels canonical."""
    out = {}
    add_layers(out, x)
    return GrothC._own(out)
