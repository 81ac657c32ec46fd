"""The A side: modules over the free-field extension A (Rep A).  Its simples
M(r,s) x Pi_l(lam) are local; here live their fusion ring, duals and
twist/monodromy exponents, and the catalogued indecomposables R (projective
covers) and M (two-step images).

Pi-labels lam are taken mod Z; the Virasoro Kac label obeys
M(r,s) = M(u-r,v-s) and is stored lexicographically minimal.  Twist and
monodromy scalars are exp(2*pi*i * e) and are exposed through their exact
exponents e in Q + Q*w, so all comparisons are exact mod 1.

R and the non-simple M need not be local: the twist exponents of their
layers differ mod 1 (on every non-simple M measured), while an
indecomposable local module has one L_0 coset mod Z.

The catalogued indecomposables are arithmetic.LoewyObject, named AObject
here, with SimpleALabel layers, top first; an R's lam is its top label's.

Each level keeps the simple labels it has built in a table,
``AdmissibleLevel.a_labels``, keyed by the integers (r, s, flow, p, q, d) of
the canonical label, and simple_a returns the table's instance of a label
already in it.  Every call still checks the Kac label and the flow, folds
the Kac label and reduces lam; only building the label is saved.  Equal
labels of one level are then one object, so the dict lookups of
Grothendieck sums and of the level's other tables match them by identity and
skip the dataclass and Weight equality.

One size policy holds for every table of labels, and of what is built from
them, that a level keeps: the label table holds at most
label_table_bound(level) labels, A_LABELS_PER_KAC_LABEL = 64 per Kac label
but never fewer than A_LABELS_FLOOR = 1024, and when it is full simple_a
clears it together with the tables of R's layers, of M objects and of
restrictions and their orbit tables; no other code empties them.  A default
pipeline run builds at most 49 labels per Kac label at every level with
u, v <= 12 (5,380 on the 110 Kac labels of 11/12), so it clears nothing.
Levels with fewer than 16 Kac labels, 5/3 among them, take the floor, which
keeps them from clearing every few fusion products: one 8-label product at
5/3 builds up to about 380 labels, and 20 cycles of the benchmark's fusion
mix clear the 5/3 table 16 times with the floor and 44 times at 512 labels.

Each level also keeps the Virasoro channels of every ordered pair of Kac
labels it has fused, ``AdmissibleLevel.channels``, keyed by (r, s, r', s')
as vir_fuse was given them.  Every vir_fuse call still checks both Kac
labels, and each returns a fresh list.  The Kac table bounds the table at
((u-1)(v-1))^2 entries, so it is never cleared.

A pipeline run asks for each R and each M about twice (step 2 checks each
folded typical twice, and step 3's squares share tops with step 2), so each
level keeps R's layers under the top label, ``AdmissibleLevel.covers``, and
each M[r,s]@flow under (r, s, flow) after build_M's checks,
``AdmissibleLevel.images``.  Both commute with spectral flow, and a run asks
for them at every flow it samples, so between two clears each is derived
once per orbit: a miss reads ``AdmissibleLevel.cover_orbits``, under the
integers (r, s, p, q, d) of the top, or ``AdmissibleLevel.image_orbits``,
under (r, s), and moves the answer kept there to the flow asked for,
building its labels through simple_a.  A default run at 13/8 asks for R's
layers 2,934 times on 1,224 tops and derives their 312 orbits, and for M
1,202 times on 516 keys and derives their 84 orbits.  These four tables keep
an entry only if its top is still the label table's instance once built, so
they hold only the table's instances.  The cover table never holds more
entries than the label table, the image table at most twice as many
(M[r,v]@l and M[u-r,1]@(l+1) are one simple), and an orbit table no more
than the table it serves.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import List, Tuple, Union

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
    h_rs,
    json_field,
    nu_weight,
    pi_conf_weight,
    set_hash,
    slot_setters,
)


# the kinds of catalogued object
A_TAGS = frozenset({"simple", "R", "M"})


@dataclass(slots=True, init=False)
class SimpleALabel(HashedOnce):
    """Canonical label M(r,s) x Pi_flow(lam), lam mod Z, (r,s) ~ (u-r,v-s)."""

    r: int
    s: int
    flow: int
    lam: Weight

    # the category and the tags of the catalogued objects this label tops
    CAT = "A"
    TAGS = A_TAGS

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


# The size policy of every table a level keeps (see the module docstring):
# this many labels per Kac label, but never fewer than A_LABELS_FLOOR.
A_LABELS_PER_KAC_LABEL = 64
A_LABELS_FLOOR = 1024


def label_table_bound(level: AdmissibleLevel) -> int:
    """The most labels the level's label table holds before it is cleared."""
    return max(A_LABELS_PER_KAC_LABEL * (level.u - 1) * (level.v - 1), A_LABELS_FLOOR)


def simple_a(level: AdmissibleLevel, r: int, s: int, flow: int, lam) -> SimpleALabel:
    """The canonical label M(r,s) x Pi_flow(lam): every call checks the Kac
    label and the flow, folds (r,s) ~ (u-r,v-s) and reduces lam mod 1, then
    returns the level's shared instance of that label."""
    u, v = level.u, level.v
    if not (type(r) is int and type(s) is int and type(flow) is int and 0 < r < u and 0 < s < v):
        check_rs(level, r, s)
        check_flow(flow)
    if 2 * r > u or (2 * r == u and 2 * s > v):
        r, s = u - r, v - s
    lam = (lam if lam.__class__ is Weight else as_weight(lam)).reduce(1)
    key = (r, s, flow, lam.p, lam.q, lam.d)
    table = level.a_labels
    out = table.get(key)
    if out is None:
        if len(table) >= label_table_bound(level):
            table.clear()
            level.covers.clear()
            level.images.clear()
            level.cover_orbits.clear()
            level.image_orbits.clear()
            level.restrictions.clear()
            level.restriction_orbits.clear()
        out = table[key] = SimpleALabel(r, s, flow, lam)
    return out


def _in_label_table(level: AdmissibleLevel, y: SimpleALabel) -> bool:
    """Whether y is still the instance in the level's label table: built by
    simple_a and not cleared out of the table since."""
    lam = y.lam
    return level.a_labels.get((y.r, y.s, y.flow, lam.p, lam.q, lam.d)) is y


def orbit_key(y: SimpleALabel) -> Tuple[int, ...]:
    """The integers (r, s, p, q, d) of y's Kac label and lam, which the
    labels of one spectral-flow orbit share: they differ in the flow alone."""
    lam = y.lam
    return (y.r, y.s, lam.p, lam.q, lam.d)


def unit_a(level: AdmissibleLevel) -> SimpleALabel:
    """The extension algebra itself: M(1,1) x Pi_0(0)."""
    return simple_a(level, 1, 1, 0, 0)


# ---------------------------------------------------------------------------
# Fusion


def vir_fuse(level: AdmissibleLevel, r: int, s: int, rp: int, sp: int) -> List[Tuple[int, int]]:
    """Virasoro minimal-model fusion: the multiset of (r'', s'') channels.

    r'' runs from |r-r'|+1 to min(r+r'-1, 2u-r-r'-1) in steps of 2, and s''
    analogously with v.  Multiplicity-free.

    Every call checks both Kac labels; the channels of each ordered pair are
    computed once per level and kept in ``level.channels`` under (r, s, r', s')
    as given, at most ((u-1)(v-1))^2 entries.  Each call returns a fresh list.
    """
    u, v = level.u, level.v
    if not (
        type(r) is int and type(s) is int and type(rp) is int and type(sp) is int
        and 0 < r < u and 0 < s < v and 0 < rp < u and 0 < sp < v
    ):
        check_rs(level, r, s)
        check_rs(level, rp, sp)
    key = (r, s, rp, sp)
    table = level.channels
    out = table.get(key)
    if out is None:
        rr = range(abs(r - rp) + 1, min(r + rp - 1, 2 * u - r - rp - 1) + 1, 2)
        ss = range(abs(s - sp) + 1, min(s + sp - 1, 2 * v - s - sp - 1) + 1, 2)
        out = table[key] = tuple((a, b) for a in rr for b in ss)
    return list(out)


def pi_fuse(flow: int, lam, flowp: int, lamp) -> Tuple[int, Weight]:
    """Pi_l(lam) x Pi_l'(lam') = Pi_{l+l'}(lam+lam'), lam mod Z."""
    lam = lam if lam.__class__ is Weight else as_weight(lam)
    lamp = lamp if lamp.__class__ is Weight else as_weight(lamp)
    return flow + flowp, (lam + lamp).reduce(1)


def a_fuse(level: AdmissibleLevel, x: SimpleALabel, y: SimpleALabel) -> Groth:
    """Fusion of simples: Virasoro channels tensored with the Pi product.

    Virasoro fusion is multiplicity-free on folded labels, so each channel's
    label enters the class once."""
    flow, lam = pi_fuse(x.flow, x.lam, y.flow, y.lam)
    out = {simple_a(level, rr, ss, flow, lam): 1 for rr, ss in vir_fuse(level, x.r, x.s, y.r, y.s)}
    return Groth._own(out, partial(a_fuse, level))


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
    return simple_a(level, x.r, x.s, -x.flow - 2, x.lam.affine(-1, level.t))


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


AObject = LoewyObject


def a_simple(x: SimpleALabel) -> AObject:
    return AObject("simple", x.r, x.s, x.flow, ((x,),))


def r_layers(level: AdmissibleLevel, y: SimpleALabel) -> Tuple[tuple, ...]:
    """The Loewy layers of the projective cover R(y) of the simple
    y = (r,s,l,lam), top first, a diamond: top y, middle (r,s-+1,l+1,lam-t/2),
    bottom (r,s,l+2,lam-t), middle entries with Kac s-component 0 or v
    dropped, so that for v = 2 there is no middle layer.  build_R and the
    direct route of pipeline step 2 both take R's layers from here, kept per
    top in ``level.covers`` and derived once per spectral-flow orbit of the
    top in ``level.cover_orbits``."""
    table = level.covers
    out = table.get(y)
    if out is None:
        key = orbit_key(y)
        stored = level.cover_orbits.get(key)
        if stored is None:
            out = _r_layers(level, y)
        else:
            flow, layers = stored
            out = ((y,),) + _flowed_layers(level, layers[1:], y.flow - flow)
        # kept only if y is still the label table's instance: a clear since y
        # was built would leave labels of out outside the table
        if _in_label_table(level, y):
            table[y] = out
            level.cover_orbits[key] = (y.flow, out)
    return out


def _r_layers(level: AdmissibleLevel, y: SimpleALabel) -> Tuple[tuple, ...]:
    """r_layers without its table."""
    r, s, flow, lam = y.r, y.s, y.flow, y.lam
    w_mid = lam - level.half_t
    # in sort_key order: only a top with 2r = u (so v odd) folds s + 1, onto s
    mid = tuple(simple_a(level, r, s2, flow + 1, w_mid) for s2 in (s - 1, s + 1) if 0 < s2 < level.v)
    bot = (simple_a(level, r, s, flow + 2, lam - level.t),)
    return ((y,), mid, bot) if mid else ((y,), bot)


def _flowed_layers(level: AdmissibleLevel, layers: Tuple[tuple, ...], m: int) -> Tuple[tuple, ...]:
    """sigma^m of Loewy layers of simple labels: each label's flow raised by
    m, built through simple_a, in order, so the layers hold the label table's
    instances."""
    return tuple([tuple([simple_a(level, z.r, z.s, z.flow + m, z.lam) for z in layer]) for layer in layers])


def build_R(level: AdmissibleLevel, r: int, s: int, lam, flow: int) -> AObject:
    """The projective cover R(r,s;lam)@flow of M(r,s) x Pi_flow(lam), with
    the layers of :func:`r_layers`; simple_a checks the Kac label and the flow."""
    top = simple_a(level, r, s, flow, lam)
    return AObject("R", top.r, top.s, flow, r_layers(level, top))


def build_M(level: AdmissibleLevel, r: int, s: int, flow: int) -> AObject:
    """The image module M[r,s]@flow for 1 <= s <= v, of length 2: top
    (r,s,l,nu_{r,s}) over (r,s-1,l+1,nu_{r,s+1}).

    Constituents with Virasoro s-component 0 or v are dropped, so the
    boundary cases are simple: M[r,1] = M(r,1) x Pi_flow(nu_{r,1}) and
    M[r,v] = M(r,v-1) x Pi_{flow+1}(nu_{r,v+1}) = M(u-r,1) x Pi_{flow+1}(nu_{u-r,1}).
    Every call checks (r, s) and the flow, then reads ``level.images``, and
    on a miss ``level.image_orbits``, where M[r,s] is kept at one flow.
    """
    check_rs(level, r, s, 1, level.v)
    check_flow(flow)
    key = (r, s, flow)
    table = level.images
    out = table.get(key)
    if out is None:
        stored = level.image_orbits.get((r, s))
        if stored is None:
            out = _build_M(level, r, s, flow)
        else:
            at, x = stored
            m = flow - at
            out = AObject(x.tag, x.r, x.s, x.flow + m, _flowed_layers(level, x.layers, m))
        # kept only if its top, built first, is still the table's instance
        if _in_label_table(level, out.layers[0][0]):
            table[key] = out
            level.image_orbits[(r, s)] = (flow, out)
    return out


def _build_M(level: AdmissibleLevel, r: int, s: int, flow: int) -> AObject:
    """build_M without its checks and its table; the top is built first."""
    if s == 1:
        return a_simple(simple_a(level, r, 1, flow, nu_weight(level, r, 1)))
    if s == level.v:
        return a_simple(simple_a(level, r, level.v - 1, flow + 1, nu_weight(level, r, level.v + 1)))
    top = (simple_a(level, r, s, flow, nu_weight(level, r, s)),)
    bot = (simple_a(level, r, s - 1, flow + 1, nu_weight(level, r, s + 1)),)
    return AObject("M", r, s, flow, (top, bot))


def rigid_dual(
    level: AdmissibleLevel, x: Union[AObject, DirectSum, SimpleALabel]
) -> Union[AObject, DirectSum, SimpleALabel]:
    """Left dual of a catalogued object.

    R(r,s;lam)@l -> R(r,s;t-lam)@(-l-2); M-objects dualize by reversing the
    Loewy diagram, which lands back in the catalog as M[u-r,v-s+1]@(-l-1).
    """
    if isinstance(x, SimpleALabel):
        return rigid_dual_label(level, x)
    if isinstance(x, DirectSum):
        return DirectSum(tuple(rigid_dual(level, p) for p in x.parts))
    if x.tag == "R":
        return build_R(level, x.r, x.s, x.layers[0][0].lam.affine(-1, level.t), -x.flow - 2)
    if x.tag == "M":
        return build_M(level, level.u - x.r, level.v - x.s + 1, -x.flow - 1)
    return a_simple(rigid_dual_label(level, x.layers[0][0]))


def comp_factors_a(level: AdmissibleLevel, x: Union[AObject, DirectSum]) -> GrothA:
    """Composition-factor class of a catalogued object or (nested) direct sum,
    in the extended fusion ring."""
    out = {}
    add_layers(out, x)
    return Groth._own(out, partial(a_fuse, level))


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


def aobject_to_json(x: Union[AObject, DirectSum]) -> dict:
    if isinstance(x, DirectSum):
        return {"cat": "A", "tag": "sum", "parts": [aobject_to_json(p) for p in x.parts]}
    if x.tag == "R":
        return {"cat": "A", "tag": "R", "r": x.r, "s": x.s, "flow": x.flow, "lam": x.layers[0][0].lam.to_json()}
    if x.tag == "M":
        return {"cat": "A", "tag": "M", "r": x.r, "s": x.s, "flow": x.flow}
    return label_to_json(x.layers[0][0])


# Deepest nesting of direct sums the reader accepts.  str, rigid_dual and
# aobject_to_json recurse about three frames per level, so a sum this deep
# stays well inside Python's default recursion limit of 1000.
MAX_SUM_DEPTH = 100


def aobject_from_json(level: AdmissibleLevel, data: dict, depth: int = 0) -> Union[AObject, DirectSum]:
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
        return DirectSum(tuple(aobject_from_json(level, p, depth + 1) for p in parts))
    if tag not in ("R", "M"):
        raise ValueError(f"unknown A-object tag {tag!r}")
    r, s, flow = json_field(data, "r", int), json_field(data, "s", int), json_field(data, "flow", int, 0)
    if tag == "R":
        return build_R(level, r, s, Weight.from_json(json_field(data, "lam", dict)), flow)
    return build_M(level, r, s, flow)


def loewy_lines(x: AObject) -> List[str]:
    """ASCII Loewy diagram, one line per layer, top first."""
    body = ["   ".join(str(lbl) for lbl in layer) for layer in x.layers]
    if len(body) > 1:
        body = [body[0]] + [line for b in body[1:] for line in ("  |", b)]
    return ([f"{x}:"] if x.tag != "simple" else []) + ["  " + b for b in body]
