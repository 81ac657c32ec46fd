"""Brute-force finite-window models of relaxed sl2 weight modules and of
depth-1 affine vectors.

These realizations are deliberately independent of the label bookkeeping in
the rest of the package: they build explicit matrices / bracket tables and
check relations coefficient by coefficient, so they serve as the oracle for
reducibility points, exact-sequence witnesses, and the depth-1 singular
vector that drives the explicit fusion computation.

Matrix entries live in Q[w] (polynomials in the formal irrational w with
Fraction coefficients), since a generic weight lam = a + b*w gets squared in
the string coefficients.  Each window builds its e, f and h matrices once, on
first use, as weighted shifts (a coefficient per index and an index shift).
The bracket and Casimir checks compose those tables into the tables of ef,
fe, he, ... and compare them entry by entry at every interior index; `act`
applies a table to a vector, for the submodule witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, Iterable, List, Tuple

from .arithmetic import AdmissibleLevel, Weight, as_weight, lam_rs

# Largest window N accepted by RelaxedWindow and reducibility_points.  The
# matrices of a window hold 6N + 1 entries, so memory grows with N as time does.
MAX_WINDOW = 5000

# Coefficients of 1, w, w^2, ...  Every poly this module builds or accepts is
# trimmed: its last coefficient is nonzero, and 0 is the empty tuple.  The
# helpers below rely on that: a product's top coefficient a_m * b_n is never 0
# (Q has no zero divisors), and a sum can only cancel at the top when both
# terms have the same length.
Poly = Tuple[Fraction, ...]

_ZERO: Poly = ()
_ONE: Poly = (Fraction(1),)  # up_coeff and down_coeff return this object, so _pmul tests identity
_TWO: Poly = (Fraction(2),)
_HALF = Fraction(1, 2)


def _trim(cs: List[Fraction]) -> Poly:
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def _poly(x) -> Poly:
    w = as_weight(x)
    return _trim([w.a, w.b])


def _shift(p: Poly, k: int) -> Poly:
    """p + k for an integer k."""
    if not p:
        return (Fraction(k),) if k else _ZERO
    c = p[0] + k
    if len(p) > 1:
        return (c, *p[1:])
    return (c,) if c else _ZERO


def _padd(p: Poly, q: Poly) -> Poly:
    """p + q."""
    if not p:
        return q
    if not q:
        return p
    lp, lq = len(p), len(q)
    if lp == 1 == lq:
        c = p[0] + q[0]
        return (c,) if c else _ZERO
    if lp < lq:
        p, q, lp, lq = q, p, lq, lp
    out = [a + b for a, b in zip(p, q)]
    if lp == lq:
        return _trim(out)
    return (*out, *p[lq:])


def _psub(p: Poly, q: Poly) -> Poly:
    """p - q."""
    if not q:
        return p
    if not p:
        return tuple([-b for b in q])
    lp, lq = len(p), len(q)
    if lp == 1 == lq:
        c = p[0] - q[0]
        return (c,) if c else _ZERO
    out = [a - b for a, b in zip(p, q)]
    if lp == lq:
        return _trim(out)
    if lp > lq:
        return (*out, *p[lq:])
    return (*out, *[-b for b in q[lp:]])


def _pmul(p: Poly, q: Poly) -> Poly:
    """p * q; a product of trimmed polys is trimmed, so it is not trimmed again."""
    if not p or not q:
        return _ZERO
    if p is _ONE:
        return q
    if q is _ONE:
        return p
    if len(p) == 1:
        if len(q) == 1:
            return (p[0] * q[0],)
        return _pscale(q, p[0])
    if len(q) == 1:
        return _pscale(p, q[0])
    # the first row p[0] * q, then each further row adds onto the overlap and
    # appends its top term
    a = p[0]
    out = [a * b for b in q]
    top = len(q) - 1
    for i in range(1, len(p)):
        a = p[i]
        for j in range(top):
            out[i + j] += a * q[j]
        out.append(a * q[top])
    return tuple(out)


def _pscale(p: Poly, c) -> Poly:
    """c * p for an int or Fraction c."""
    if not c:
        return _ZERO
    if len(p) == 1:
        return (p[0] * c,)
    return tuple([a * c for a in p])


Vec = Dict[int, Poly]  # window vector: index i -> coefficient of v_{lam+2i}

# A weighted shift: the coefficient at each window index it acts on, and the
# index shift.  It sends v_i to table[i] * v_{i + shift}; an index without an
# entry is sent to 0.
Table = Tuple[Dict[int, Poly], int]


def _compose(a: Table, b: Table) -> Table:
    """The weighted shift a∘b (b first): (a∘b)[i] = b[i]·a[i + shift_b]."""
    ta, sa = a
    tb, sb = b
    return {i: _pmul(c, ta[i + sb]) for i, c in tb.items() if i + sb in ta}, sa + sb


@dataclass(frozen=True)
class RelaxedWindow:
    """The string module E^{sign}_{lam, C} restricted to indices [-N, N].

    h acts diagonally with eigenvalue lam + 2i.  In the minus model e shifts
    up with coefficient 1 and f shifts down with the string coefficient
    (C - (lam+2i-2)^2/2 - (lam+2i-2)) / 2; the plus model is the mirror with
    f shifting down by 1 and e carrying (C - (lam+2i+2)^2/2 + (lam+2i+2)) / 2.
    Shift images falling outside the window are truncated, so only interior
    indices support exact relations.  The relation checks compose the e, f
    and h tables as operators and compare the products entry by entry on the
    interior.  The constructor rejects a sign other than minus/plus and a
    window outside [1, MAX_WINDOW].
    """

    lam: Weight
    casimir: Weight
    sign: str
    window: int

    def __post_init__(self) -> None:
        _check_model(self.sign, self.window)

    @cached_property
    def _lam_poly(self) -> Poly:
        return _poly(self.lam)

    @cached_property
    def _casimir_poly(self) -> Poly:
        return _poly(self.casimir)

    def _x(self, i: int, offset: int) -> Poly:
        return _shift(self._lam_poly, 2 * i + offset)

    def up_coeff(self, i: int) -> Poly:
        """Coefficient of e: v_i -> v_{i+1}."""
        if self.sign == "minus":
            return _ONE
        x = self._x(i, 2)
        val = _psub(self._casimir_poly, _pscale(_pmul(x, x), _HALF))
        return _pscale(_padd(val, x), _HALF)

    def down_coeff(self, i: int) -> Poly:
        """Coefficient of f: v_i -> v_{i-1}."""
        if self.sign == "plus":
            return _ONE
        x = self._x(i, -2)
        val = _psub(self._casimir_poly, _pscale(_pmul(x, x), _HALF))
        return _pscale(_psub(val, x), _HALF)

    @cached_property
    def _matrices(self) -> Dict[str, Table]:
        """Generator -> its weighted shift.

        e has no entry at N and f none at -N: their images would leave the
        window, so a missing entry is the truncation.
        """
        n = self.window
        return {
            "h": ({i: self._x(i, 0) for i in range(-n, n + 1)}, 0),
            "e": ({i: self.up_coeff(i) for i in range(-n, n)}, 1),
            "f": ({i: self.down_coeff(i) for i in range(-n + 1, n + 1)}, -1),
        }

    def act(self, gen: str, vec: Vec) -> Vec:
        if gen not in ("h", "e", "f"):
            raise ValueError(f"unknown generator {gen!r}")
        matrix, shift = self._matrices[gen]
        out: Vec = {}
        for i, p in vec.items():
            c = matrix.get(i)
            if c is None:
                continue
            q = _pmul(p, c)
            if q:
                j = i + shift
                out[j] = _padd(out.get(j, _ZERO), q)
        return {i: p for i, p in out.items() if p}

    def interior(self) -> range:
        return range(-self.window + 1, self.window)

    def _commutator_is(self, a: Table, b: Table, scale: int, c: Table) -> bool:
        """[a, b] = scale * c on every interior index."""
        ab, shift = _compose(a, b)
        ba, _ = _compose(b, a)
        if shift != c[1]:
            return False
        target = c[0]
        for i in self.interior():
            expected = target[i] if scale == 1 else _pscale(target[i], scale)
            if _psub(ab[i], ba[i]) != expected:
                return False
        return True

    def check_brackets(self) -> bool:
        """[e,f] = h, [h,e] = 2e, [h,f] = -2f on every interior index."""
        m = self._matrices
        h, e, f = m["h"], m["e"], m["f"]
        return (
            self._commutator_is(e, f, 1, h)
            and self._commutator_is(h, e, 2, e)
            and self._commutator_is(h, f, -2, f)
        )

    def check_casimir(self) -> bool:
        """2ef + h(h-2)/2 acts as the Casimir scalar on interior indices."""
        m = self._matrices
        h = m["h"][0]
        ef, _ = _compose(m["e"], m["f"])
        c = self._casimir_poly
        for i in self.interior():
            x = h[i]
            diag = _pscale(_pmul(x, _psub(x, _TWO)), _HALF)
            if _padd(_pscale(ef[i], 2), diag) != c:
                return False
        return True

    def submodule_indices(self, mu: Weight) -> List[int]:
        """Indices i with lam + 2i >= mu + 2, for mu = lam + 2*i0 with
        -N <= i0 <= N-1.

        Any other i0 leaves the span empty or the whole window, so a
        stability check on it would pass on no evidence; it raises ValueError.
        """
        diff = (mu - self.lam) * Fraction(1, 2)
        if not diff.is_integral:
            raise ValueError(f"mu = {mu} is not in lam + 2Z")
        i0 = int(diff.a)
        if not -self.window <= i0 <= self.window - 1:
            raise ValueError(
                f"(mu - lam)/2 = {i0} is outside [-N, N-1] for N = {self.window}: "
                "the span would be empty or the whole window"
            )
        return [i for i in range(-self.window, self.window + 1) if i >= i0 + 1]

    def is_submodule_stable(self, mu: Weight) -> bool:
        """The D- window span {lam+2i >= mu+2} is e- and f-stable (minus model)."""
        if self.sign != "minus":
            raise ValueError("the exact-sequence witness applies to the minus model")
        inside = set(self.submodule_indices(mu))
        for i in inside:
            for gen in ("e", "f"):
                image = self.act(gen, {i: _ONE})
                if any(j not in inside for j in image):
                    return False
        return True


def _check_model(sign: str, window: int) -> None:
    """Reject a sign other than minus/plus and a window outside [1, MAX_WINDOW]."""
    if sign not in ("minus", "plus"):
        raise ValueError(f"sign must be 'minus' or 'plus', got {sign!r}")
    if type(window) is not int or not 1 <= window <= MAX_WINDOW:
        raise ValueError(f"window must be an integer in [1, {MAX_WINDOW}], got {window!r}")


def build_relaxed(lam, casimir, sign: str, window: int) -> RelaxedWindow:
    return RelaxedWindow(as_weight(lam), as_weight(casimir), sign, window)


def reducibility_points(lam, casimir, sign: str, window: int) -> List[Weight]:
    """All mu in lam + 2Z inside the window with C = C_mu (minus) or C_{-mu} (plus).

    C_mu = mu^2/2 + mu.  An empty list certifies irreducibility over the window.
    """
    _check_model(sign, window)
    lam = as_weight(lam)
    lam_poly, target = _poly(lam), _poly(casimir)
    out: List[Weight] = []
    for i in range(-window, window + 1):
        mp = _shift(lam_poly, 2 * i)
        c_mu = _pscale(_pmul(mp, mp), _HALF)
        c_mu = _padd(c_mu, mp) if sign == "minus" else _psub(c_mu, mp)
        if c_mu == target:
            out.append(lam + 2 * i)
    return sorted(out, key=lambda w: w.sort_key())


# ---------------------------------------------------------------------------
# Depth-1 affine model over the top of D+(1,1)

# basis keys: ("T", m) is f^m applied to the highest-weight vector;
# (a, m) for a in {e, h, f} is a_{-1} applied to ("T", m).

_BRACKET = {
    ("e", "e"): (), ("f", "f"): (), ("h", "h"): (),
    ("e", "f"): (("h", Fraction(1)),), ("f", "e"): (("h", Fraction(-1)),),
    ("h", "e"): (("e", Fraction(2)),), ("e", "h"): (("e", Fraction(-2)),),
    ("h", "f"): (("f", Fraction(-2)),), ("f", "h"): (("f", Fraction(2)),),
}

_PAIRING = {("e", "f"): Fraction(1), ("f", "e"): Fraction(1), ("h", "h"): Fraction(2)}

AVec = Dict[Tuple[str, int], Fraction]


def _collect(terms: Iterable[Tuple[Tuple[str, int], Fraction]]) -> AVec:
    """The vector sum of (key, coefficient) terms, without zero entries."""
    out: AVec = {}
    for key, coef in terms:
        out[key] = out.get(key, Fraction(0)) + coef
    return {k: c for k, c in out.items() if c}


class AffineDepth1:
    """(sl2 tensor t^-1) applied to the top of the Verma module over D+(1,1).

    Mode actions are derived from [a_m, b_n] = [a,b]_{m+n} + m<a,b>delta k,
    which closes on this space for the modes e_0/e_1/f_1/h_1 needed to test
    singular vectors at depth 1.
    """

    def __init__(self, level: AdmissibleLevel):
        self.level = level
        self.hw = lam_rs(level, 1, 1)  # = -t

    def _top(self, gen: str, m: int) -> List[Tuple[Tuple[str, int], Fraction]]:
        lam = self.hw
        if gen == "e":
            return [(("T", m - 1), m * (lam - m + 1))] if m >= 1 else []
        if gen == "f":
            return [(("T", m + 1), Fraction(1))]
        return [(("T", m), lam - 2 * m)]

    def act_zero(self, gen: str, vec: AVec) -> AVec:
        terms = []
        for (kind, m), c in vec.items():
            if kind == "T":
                terms += [(key, c * coef) for key, coef in self._top(gen, m)]
            else:
                terms += [((b, m), c * coef) for b, coef in _BRACKET[(gen, kind)]]
                terms += [((kind, tm), c * coef) for (_, tm), coef in self._top(gen, m)]
        return _collect(terms)

    def act_one(self, gen: str, vec: AVec) -> AVec:
        terms = []
        for (kind, m), c in vec.items():
            if kind == "T":
                continue  # positive modes kill the top space
            for b, coef in _BRACKET[(gen, kind)]:
                terms += [(key, c * coef * tc) for key, tc in self._top(b, m)]
            terms.append((("T", m), c * _PAIRING.get((gen, kind), Fraction(0)) * self.level.k))
        return _collect(terms)

    def singular_vector(self, perturbation: Fraction = Fraction(0)) -> AVec:
        """e_{-1} f^2 v - (t+1) h_{-1} f v - (t(t+1) + perturbation) f_{-1} v."""
        t = self.level.t
        return {
            ("e", 2): Fraction(1),
            ("h", 1): -(t + 1),
            ("f", 0): -(t * (t + 1) + perturbation),
        }


def verify_affine_singular(level: AdmissibleLevel, perturbation: Fraction = Fraction(0)) -> bool:
    """True iff e_0, e_1, f_1, h_1 all annihilate the depth-1 singular vector."""
    model = AffineDepth1(level)
    s = model.singular_vector(perturbation)
    if model.act_zero("e", s):
        return False
    return all(not model.act_one(gen, s) for gen in ("e", "f", "h"))
