"""Simple labels and catalogued indecomposables of the affine weight category.

Every simple object is written canonically as a spectral flow of either a
highest-weight module D+(r,s) (atypical) or a fully relaxed module
E(lam; r,s) (typical, lam taken mod 2Z with (r,s) ~ (u-r,v-s) identified).
Non-canonical presentations -- lowest-weight modules D-(r,s), the modules
L(r,0), typicals with the mirrored Kac label -- are rewritten on
construction, so label equality is isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple, Union

from .arithmetic import (
    AdmissibleLevel,
    Groth,
    Weight,
    as_weight,
    check_rs,
    json_field,
    lam_rs,
)


class NotSimple(ValueError):
    """A typical label whose lam collides with +-lambda_{r,s} mod 2Z."""


@dataclass(frozen=True)
class SimpleCLabel:
    """Canonical simple label sigma^flow(D+_{r,s}) or sigma^flow(E_{lam,Delta_{r,s}})."""

    flow: int
    r: int
    s: int
    lam: Optional[Weight] = None  # None <=> atypical

    # labels key every Grothendieck class, so each is hashed many times:
    # hash the field tuple once, at construction
    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.flow, self.r, self.s, self.lam)))

    def __hash__(self) -> int:
        return self._hash

    # pickling and copying rebuild the hash rather than carry it over:
    # hash(None) differs between processes
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


def atypical(level: AdmissibleLevel, r: int, s: int, flow: int = 0) -> SimpleCLabel:
    """sigma^flow(D+_{r,s}), already canonical."""
    check_rs(level, r, s)
    return SimpleCLabel(flow, r, s, None)


def typical(level: AdmissibleLevel, r: int, s: int, lam, flow: int = 0) -> SimpleCLabel:
    """Canonical sigma^flow(E_{lam, Delta_{r,s}}).

    lam is reduced mod 2Z and (r, s) is replaced by the lexicographically
    smaller of (r, s) and (u-r, v-s).  Raises NotSimple on the reducible
    cosets lam = +-lambda_{r,s} mod 2Z.
    """
    check_rs(level, r, s)
    w = as_weight(lam).reduce(2)
    lam_r = lam_rs(level, r, s)
    for sign, gap in (("+", w - lam_r), ("-", w + lam_r)):
        if not gap.reduce(2):
            raise NotSimple(f"E({w};{r},{s}) is reducible: lam = {sign}lambda_{{r,s}} mod 2Z")
    r, s = min((r, s), (level.u - r, level.v - s))
    return SimpleCLabel(flow, r, s, w)


def lr0(level: AdmissibleLevel, r: int, flow: int = 0) -> SimpleCLabel:
    """sigma^flow(L_{r,0}) rewritten as sigma^(flow-1)(D+_{u-r,v-1})."""
    check_rs(level, r, 0, 0, 0)
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
    if s == 0:
        return lr0(level, r, flow)
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
    Kac-mirrored string of the same kind, sigma^l(E+-_{r,s})' = sigma^(-l)(E+-_{u-r,v-s})."""
    if isinstance(x, Simple):
        return Simple(contragredient(level, x.label))
    if isinstance(x, (Eminus, Eplus)):
        return type(x)(level.u - x.r, level.v - x.s, -x.flow)
    if isinstance(x, DirectSum):
        return DirectSum(tuple(contragredient_obj(level, p) for p in x.parts))
    raise TypeError(f"no catalogued contragredient for {x!r}")


# ---------------------------------------------------------------------------
# Catalogued objects


@dataclass(frozen=True)
class Simple:
    label: SimpleCLabel

    def __str__(self) -> str:
        return str(self.label)


@dataclass(frozen=True)
class Eminus:
    """sigma^flow(E-_{r,s}): socle D-_{r,s}, top D+_{u-r,v-s} (flows implied)."""

    r: int
    s: int
    flow: int

    def __str__(self) -> str:
        return f"E-({self.r},{self.s})@{self.flow}"


@dataclass(frozen=True)
class Eplus:
    """sigma^flow(E+_{r,s}): socle D+_{r,s}, top D-_{u-r,v-s}."""

    r: int
    s: int
    flow: int

    def __str__(self) -> str:
        return f"E+({self.r},{self.s})@{self.flow}"


@dataclass(frozen=True)
class Projective:
    """sigma^flow(P_{r,s}), the projective cover of sigma^flow(D+_{r,s})."""

    r: int
    s: int
    flow: int

    def __str__(self) -> str:
        return f"P({self.r},{self.s})@{self.flow}"


@dataclass(frozen=True)
class DirectSum:
    parts: Tuple["CObject", ...]

    def __str__(self) -> str:
        return " (+) ".join(str(p) for p in self.parts)


CObject = Union[Simple, Eminus, Eplus, Projective, DirectSum]


def direct_sum(parts: Iterable[CObject]) -> CObject:
    parts = tuple(parts)
    if len(parts) == 1:
        return parts[0]
    return DirectSum(parts)


def vacuum_extension(level: AdmissibleLevel) -> CObject:
    """The free-field algebra restricted to the weight category: sigma(E-_{u-1,v-1})."""
    return Eminus(level.u - 1, level.v - 1, 1)


def spectral_flow(x, m: int):
    """sigma^m, adding m to every flow index (labels and catalog tags alike)."""
    if isinstance(x, SimpleCLabel):
        return SimpleCLabel(x.flow + m, x.r, x.s, x.lam)
    if isinstance(x, Simple):
        return Simple(spectral_flow(x.label, m))
    if isinstance(x, (Eminus, Eplus, Projective)):
        return type(x)(x.r, x.s, x.flow + m)
    if isinstance(x, DirectSum):
        return DirectSum(tuple(spectral_flow(p, m) for p in x.parts))
    raise TypeError(f"cannot spectral-flow {x!r}")


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


def cobject_to_json(x: CObject) -> dict:
    if isinstance(x, Simple):
        return label_to_json(x.label)
    if isinstance(x, (Eminus, Eplus, Projective)):
        tag = {Eminus: "E-", Eplus: "E+", Projective: "P"}[type(x)]
        return {"cat": "C", "tag": tag, "r": x.r, "s": x.s, "flow": x.flow}
    if isinstance(x, DirectSum):
        return {"cat": "C", "tag": "sum", "parts": [cobject_to_json(p) for p in x.parts]}
    raise TypeError(f"not a catalogued object: {x!r}")


def groth_flow(x: GrothC, m: int) -> GrothC:
    return x.map_labels(lambda lbl: spectral_flow(lbl, m))


def groth_contragredient(level: AdmissibleLevel, x: GrothC) -> GrothC:
    return x.map_labels(lambda lbl: contragredient(level, lbl))


def comp_factors(level: AdmissibleLevel, x: CObject) -> GrothC:
    """Composition-factor class of a catalogued object, all labels canonical."""
    if isinstance(x, Simple):
        return GrothC.of(x.label)
    if isinstance(x, Eminus):
        check_rs(level, x.r, x.s)
        return GrothC.of(
            dminus(level, x.r, x.s, x.flow),
            atypical(level, level.u - x.r, level.v - x.s, x.flow),
        )
    if isinstance(x, Eplus):
        check_rs(level, x.r, x.s)
        return GrothC.of(
            atypical(level, x.r, x.s, x.flow),
            dminus(level, level.u - x.r, level.v - x.s, x.flow),
        )
    if isinstance(x, Projective):
        check_rs(level, x.r, x.s)
        u, v = level.u, level.v
        if x.s <= v - 2:
            sub = Eminus(u - x.r, v - x.s - 1, x.flow + 1)
            quo = Eminus(u - x.r, v - x.s, x.flow)
        else:
            sub = Eminus(x.r, v - 1, x.flow + 2)
            quo = Eminus(u - x.r, 1, x.flow)
        return comp_factors(level, sub) + comp_factors(level, quo)
    if isinstance(x, DirectSum):
        total = GrothC()
        for p in x.parts:
            total = total + comp_factors(level, p)
        return total
    raise TypeError(f"not a catalogued object: {x!r}")
