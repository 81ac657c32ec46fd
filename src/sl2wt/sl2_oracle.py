"""Brute-force finite-window models of relaxed sl2 weight modules and of
depth-1 affine vectors.

These realizations are deliberately independent of the label bookkeeping in
the rest of the package: they build explicit bracket tables and check
relations coefficient by coefficient, so they serve as the oracle for
reducibility points, exact-sequence witnesses, and the depth-1 singular
vector that drives the explicit fusion computation.

e, f and h act on a window by weighted shifts (a coefficient per index and
an index shift) with coefficients in Q[w], w the formal irrational, since a
generic weight lam = a + b*w gets squared in the string coefficients.  Each
coefficient is an integer polynomial in w over one denominator D per
generator, read off the integers of lam = (p + q*w)/d and
C = (p_C + q_C*w)/d_C: an h entry is X = p + 2id + q*w over D = d, a string
coefficient is an integer polynomial N over D = 4d^2 d_C, and the unit side
is 1 over D = 1.

The bracket and Casimir relations, cross-multiplied by the denominators,
are identities in Z[w]: [a, b] = s*c becomes (AB - BA)*D_c = s*C*D_a*D_b
for the entries A, B, C, and the Casimir relation has every term scaled to
one common denominator.  If m is the largest w-degree of an entry (0 for
rational lam and C, 1 when only C has a w-part, 2 when lam has one), each
side has degree at most 2m, and a nonzero polynomial of degree at most 2m
has at most 2m roots.  So each window evaluates its entries, once, at
w = 0, 1, ..., 2m into tables of plain ints, and checking every relation at
every interior index and every point is exactly as strong as checking it in
Z[w].  reducibility_points scans the window on integers and builds a Weight
only for a hit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice
from typing import Dict, Iterable, List, Tuple

from .arithmetic import AdmissibleLevel, Weight, as_weight, lam_rs

# Largest window N accepted by RelaxedWindow and reducibility_points.  The
# tables of a window hold 6N + 1 ints per evaluation point, so memory grows
# with N as time does.
MAX_WINDOW = 5000

# Coefficients of 1, w, w^2, ...: the int entries of a window.  Every entry
# is trimmed: its last coefficient is nonzero, and 0 is the empty tuple.
Poly = Tuple[int, ...]


def _at(p: Poly, t: int) -> int:
    """The value of the int poly p at w = t."""
    v = 0
    for c in reversed(p):
        v = v * t + c
    return v


# the index shift of each generator's weighted shift: v_i -> c_i v_{i + shift}
_SHIFT = {"h": 0, "e": 1, "f": -1}


@dataclass(frozen=True)
class RelaxedWindow:
    """The string module E^{sign}_{lam, C} restricted to indices [-N, N].

    h acts diagonally with eigenvalue lam + 2i.  In the minus model e shifts
    up with coefficient 1 and f shifts down with the string coefficient
    (C - (lam+2i-2)^2/2 - (lam+2i-2)) / 2; the plus model is the mirror with
    f shifting down by 1 and e carrying (C - (lam+2i+2)^2/2 + (lam+2i+2)) / 2.
    Shift images falling outside the window are truncated, so only interior
    indices support exact relations.

    Each coefficient, times its generator's denominator D, is an int
    polynomial in w (`_entry`).  At its first check the window evaluates
    every entry at w = 0, 1, ..., 2m, m the largest w-degree of an entry,
    and keeps one int table per generator and point; the relation checks
    compare at every interior index and every point, which is the check in
    Z[w] (see the module docstring).  The constructor rejects a lam or C
    that is not a Weight, a sign other than minus/plus and a window outside
    [1, MAX_WINDOW].
    """

    lam: Weight
    casimir: Weight
    sign: str
    window: int

    def __post_init__(self) -> None:
        for name, value in (("lam", self.lam), ("casimir", self.casimir)):
            if not isinstance(value, Weight):
                raise TypeError(f"{name} must be a Weight, got {value!r}")
        _check_model(self.sign, self.window)

    @cached_property
    def _string_ints(self) -> Tuple[int, int, int, int]:
        """2d^2 p_C, 2d^2 q_C, -d_C q^2 and 4d^2 d_C, for lam = (p + q*w)/d
        and C = (p_C + q_C*w)/d_C: the integers every string coefficient uses."""
        d, q, c = self.lam.d, self.lam.q, self.casimir
        return 2 * d * d * c.p, 2 * d * d * c.q, -c.d * q * q, 4 * d * d * c.d

    def _string_coeff(self, a: int, s: int) -> Poly:
        """N = 2d^2 (p_C + q_C*w) - d_C X^2 + 2s d d_C X for X = a + q*w:
        (C - x^2/2 + s*x)/2 at x = X/d, times 4d^2 d_C."""
        q, d, dc = self.lam.q, self.lam.d, self.casimir.d
        c0, c1, c2, _ = self._string_ints
        n0 = c0 + dc * a * (2 * s * d - a)
        if q:  # the w^2 term -d_C q^2 is nonzero
            return (n0, c1 + 2 * dc * q * (s * d - a), c2)
        if c1:
            return (n0, c1)
        return (n0,) if n0 else ()

    def _den(self, gen: str) -> int:
        """The denominator D of gen's entries."""
        if gen == "h":
            return self.lam.d
        return 1 if (gen == "e") == (self.sign == "minus") else self._string_ints[3]

    def _span(self, gen: str) -> range:
        """The indices where gen has an entry.  e has none at N and f none
        at -N: their images would leave the window, so a missing entry is
        the truncation."""
        n = self.window
        return {"h": range(-n, n + 1), "e": range(-n, n), "f": range(-n + 1, n + 1)}[gen]

    def _entry(self, gen: str, i: int) -> Poly:
        """The coefficient of gen at index i times D = _den(gen): X = p + 2id
        + q*w for h, N of _string_coeff for the string side, and 1 for the
        unit side (e in the minus model, f in the plus model)."""
        lam = self.lam
        if gen == "h":
            a = lam.p + 2 * i * lam.d
            if lam.q:
                return (a, lam.q)
            return (a,) if a else ()
        if (gen == "e") == (self.sign == "minus"):
            return (1,)
        s = _SHIFT[gen]
        return self._string_coeff(lam.p + 2 * (i + s) * lam.d, s)

    @cached_property
    def _tables(self) -> Dict[str, List[List[int]]]:
        """Generator -> one int table per point w = 0, ..., 2m: the values
        of its entries over _span(gen), index i at position i - start.

        A first pass reads m off the entries; then the columns of polys are
        built and evaluated one generator at a time.  The Casimir scalar is
        no entry, so a w-part in it asks for 2 points on its own."""
        m = max(len(self._entry(gen, i)) for gen in _SHIFT for i in self._span(gen)) - 1
        points = range(max(2 * m + 1, 2 if self.casimir.q else 1))
        tables: Dict[str, List[List[int]]] = {}
        for gen in _SHIFT:
            column = [self._entry(gen, i) for i in self._span(gen)]
            tables[gen] = [[_at(p, t) for p in column] for t in points]
        return tables

    def interior(self) -> range:
        return range(-self.window + 1, self.window)

    def check_brackets(self) -> bool:
        """[e,f] = h, [h,e] = 2e, [h,f] = -2f on every interior index.

        At interior index i and each point, with the ints E, F, H over
        D_e, D_f, D_h, each relation [a, b] = s*c reads
        (AB - BA) D_c = s C D_a D_b on the coefficients of the image of v_i:
        (F_i E_{i-1} - E_i F_{i+1}) D_h = H_i D_e D_f,
        (E_i H_{i+1} - H_i E_i) D_e = 2 E_i D_h D_e and
        (F_i H_{i-1} - H_i F_i) D_f = -2 F_i D_h D_f.
        """
        t = self._tables
        dh, de, df = self._den("h"), self._den("e"), self._den("f")
        k_ef, k_he, k_hf = de * df, 2 * dh * de, -2 * dh * df
        for h, e, f in zip(t["h"], t["e"], t["f"]):
            # e[k] is E_{i-1}, f[k] is F_i and h[k] is H_{i-1} for i = k - N + 1
            rows = zip(h, islice(h, 1, None), islice(h, 2, None), e, islice(e, 1, None), f, islice(f, 1, None))
            for h0, h1, h2, e0, e1, f0, f1 in rows:
                if (
                    (f0 * e0 - e1 * f1) * dh != h1 * k_ef
                    or (e1 * h2 - h1 * e1) * de != e1 * k_he
                    or (f0 * h0 - h1 * f0) * df != f0 * k_hf
                ):
                    return False
        return True

    def check_casimir(self) -> bool:
        """2ef + h(h-2)/2 acts as the Casimir scalar on interior indices.

        At each point, on the ints E, F, H over D_e, D_f, D_h and
        C = (p_C + q_C*w)/d_C, times 2 D_e D_f D_h^2 d_C:
        4 d_C D_h^2 F_i E_{i-1} + d_C D_e D_f H_i(H_i - 2 D_h)
        = 2 D_e D_f D_h^2 (p_C + q_C*w).
        """
        t = self._tables
        dh, de, df = self._den("h"), self._den("e"), self._den("f")
        c = self.casimir
        k_ef, k_h, k_c = 4 * c.d * dh * dh, c.d * de * df, 2 * de * df * dh * dh
        for w, (h, e, f) in enumerate(zip(t["h"], t["e"], t["f"])):
            target = k_c * (c.p + c.q * w)
            # h[1 .. 2N-1] is H_i on the interior, e[k] E_{i-1} and f[k] F_i
            for h1, e0, f0 in zip(islice(h, 1, 2 * self.window), e, f):
                if k_ef * f0 * e0 + k_h * h1 * (h1 - 2 * dh) != target:
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
        """The D- window span {lam+2i >= mu+2} is e- and f-stable (minus model).

        The image of v_i under e or f is nonzero iff its entry is: an entry
        of degree at most m is nonzero iff it is nonzero at one of the 2m + 1
        tabled points."""
        if self.sign != "minus":
            raise ValueError("the exact-sequence witness applies to the minus model")
        inside = set(self.submodule_indices(mu))
        t = self._tables
        for gen in ("e", "f"):
            span = self._span(gen)
            for i in inside:
                if i in span and i + _SHIFT[gen] not in inside:
                    if any(values[i - span.start] for values in t[gen]):
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
    With lam = (p + q*w)/d and C = (p_C + q_C*w)/d_C, mu = lam + 2i is X/d for
    X = p + 2id + q*w, and C = C_{+-mu} reads
    d_C X^2 +- 2 d d_C X = 2d^2 (p_C + q_C*w).  A w-part in lam leaves
    d_C q^2 w^2 on the left only, and a w-part in C is on the right only, so
    either gives no point; otherwise the scan compares integers, in increasing
    order of mu, and builds a Weight only for a hit.
    """
    _check_model(sign, window)
    lam, casimir = as_weight(lam), as_weight(casimir)
    if lam.q or casimir.q:
        return []
    p, d, dc = lam.p, lam.d, casimir.d
    linear = 2 * d if sign == "minus" else -2 * d
    target = 2 * d * d * casimir.p
    out: List[Weight] = []
    for x in range(p - 2 * window * d, p + 2 * window * d + 1, 2 * d):
        if dc * x * (x + linear) == target:
            out.append(Weight(x, 0, d))
    return out


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
