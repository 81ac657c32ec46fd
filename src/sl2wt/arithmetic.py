"""Exact rational and Kac-table arithmetic for affine sl2 at admissible level.

An admissible level is k = -2 + u/v with coprime u, v >= 2 (non-integral
levels only).  Everything downstream is computed exactly: rational numbers
are ``fractions.Fraction`` and generic weight parameters live in the rank-2
space Q + Q*w, where w is a fixed formal symbol treated as irrational and
not rationally related to any other constant in play.  A :class:`Weight`
stores (p + q*w)/d as three integers with d > 0 and gcd(p, q, d) = 1, so its
arithmetic, hashing, coset reduction and printing run on integers and build
no Fraction.  ``Weight.affine(m, c)`` gives m*lam + c in one normalization,
the one gcd of the one Weight it builds, for the Pi-weights the functors and
duals derive from a label: (lam+k)/2, 2*lam - k and t - lam.

lambda_{r,s} = ((r-1)v - us)/v and nu_{r,s} = ((r-1)v - u(s-1))/(2v) are
written once each, as an integer numerator over an integer denominator
(``lam_ratio``, ``nu_ratio``).  The label code reads those integers as they
are: the coset tests take them unreduced, and a nu-label is one Weight with
one gcd (``nu_weight``).  No level tables them, so a level's first use costs
the same at any u, v.  ``lam_rs`` and ``nu_rs`` give the Fractions.

What both categories share lives here too: the Kac-label check, the
hash-once base of the simple labels, the Grothendieck-group class, and the
one catalogued-object type with its direct sum and the counter of their
layer labels.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Dict, Hashable, Optional, Tuple, Union

Rational = Union[int, Fraction]


class NotAdmissible(ValueError):
    """(u, v) is not a non-integral admissible level."""


class OutOfKacTable(ValueError):
    """Kac label (r, s) lies outside the allowed grid."""


def _ratio(x: Rational) -> Tuple[int, int]:
    """(numerator, denominator) of an exact rational."""
    if isinstance(x, int):
        return x, 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise TypeError(f"expected an exact rational, got {x!r}")


_REQUIRED = object()


def json_field(data, key: str, kind: type, default=_REQUIRED):
    """data[key] of a JSON object, of exactly type kind (a bool is not an int), or
    default, if given, for a missing key; every JSON reader checks shapes here."""
    if type(data) is not dict:
        raise ValueError(f"expected a JSON object, got {data!r}")
    if key not in data:
        if default is _REQUIRED:
            raise ValueError(f"field {key!r} is missing from {data!r}")
        return default
    if type(data[key]) is not kind:
        raise ValueError(f"field {key!r} must be of type {kind.__name__}, got {data[key]!r}")
    return data[key]


class Immutable:
    """Base of the slotted value types (Weight, the simple labels and the
    catalogued objects): it refuses assignment and deletion of any attribute,
    field or not, with FrozenInstanceError.

    Their constructors write each slot through :func:`slot_setters`, and their
    ``__reduce__`` rebuilds an instance through its constructor for pickling
    and copying.  The dataclasses among them are slotted but not ``frozen``:
    the refusal that ``frozen=True`` generates refers to the class that
    ``slots=True`` replaces, so on a name that is not a field it raises
    TypeError from ``super()`` instead of FrozenInstanceError.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class Weight(Immutable):
    """An exact element (p + q*w)/d of Q + Q*w, stored as three integers.

    The triple is normalized to d > 0 and gcd(p, q, d) = 1, which makes d the
    lcm of the denominators of the two components, so equal weights have
    equal triples: equality, hashing, the predicates, :meth:`reduce` and the
    linear operations work on integers only.  ``a`` and ``b`` read the
    components back as Fractions, the weight being a + b*w; ``b == 0`` means
    the weight is an honest rational.  Only the rational part is ever reduced
    by :meth:`reduce`, so a weight with nonzero w-part never collides with a
    rational coset.

    ``Weight(a, b)`` takes exact rationals; ``Weight(p, q, d)`` takes the
    integers of (p + q*w)/d with d != 0 and normalizes them.  Instances are
    immutable.
    """

    __slots__ = ("p", "q", "d")

    def __init__(self, a: Rational = 0, b: Rational = 0, d: Optional[int] = None):
        if d is None:
            (na, da), (nb, db) = _ratio(a), _ratio(b)
            d = da * db // math.gcd(da, db)
            _set_p(self, na * (d // da))
            _set_q(self, nb * (d // db))
            _set_d(self, d)
            return
        if d == 0:
            raise ZeroDivisionError(f"Weight({a}, {b}, 0)")
        g = math.gcd(a, b, d)
        if d < 0:
            g = -g
        if g != 1:
            a, b, d = a // g, b // g, d // g
        _set_p(self, a)
        _set_q(self, b)
        _set_d(self, d)

    def __reduce__(self):
        return (Weight, (self.p, self.q, self.d))

    @property
    def a(self) -> Fraction:
        """The rational part."""
        return Fraction(self.p, self.d)

    @property
    def b(self) -> Fraction:
        """The coefficient of w."""
        return Fraction(self.q, self.d)

    def __eq__(self, other) -> bool:
        if other.__class__ is not Weight:
            return NotImplemented
        return self.p == other.p and self.q == other.q and self.d == other.d

    def __hash__(self) -> int:
        return hash((self.p, self.q, self.d))

    def __repr__(self) -> str:
        return f"Weight(a={self.a!r}, b={self.b!r})"

    # -- linear arithmetic (scalars are exact rationals) --

    def __add__(self, other) -> "Weight":
        p, q, d = _triple(other)
        if d == self.d:
            return Weight(self.p + p, self.q + q, d)
        return Weight(self.p * d + p * self.d, self.q * d + q * self.d, self.d * d)

    __radd__ = __add__

    def __sub__(self, other) -> "Weight":
        p, q, d = _triple(other)
        if d == self.d:
            return Weight(self.p - p, self.q - q, d)
        return Weight(self.p * d - p * self.d, self.q * d - q * self.d, self.d * d)

    def __rsub__(self, other) -> "Weight":
        return self.affine(-1, other)

    def __neg__(self) -> "Weight":
        return Weight(-self.p, -self.q, self.d)

    def __mul__(self, scalar: Rational) -> "Weight":
        n, m = _ratio(scalar)
        return Weight(self.p * n, self.q * n, self.d * m)

    __rmul__ = __mul__

    def affine(self, m: Rational, c: Union["Weight", Rational]) -> "Weight":
        """m*self + c for an exact rational m and a weight or exact rational c,
        built as one Weight, so with one gcd: the derived Pi-weights (lam+k)/2,
        2*lam - k and t - lam of the functors and duals each take one call."""
        n, dm = _ratio(m)
        p, q, d = _triple(c)
        dd = dm * self.d
        return Weight(n * self.p * d + p * dd, n * self.q * d + q * dd, dd * d)

    def __bool__(self) -> bool:
        return self.p != 0 or self.q != 0

    # -- coset reduction and predicates --

    def reduce(self, m: int) -> "Weight":
        """Normalize the rational part into [0, m) for m > 0; the w-part is
        untouched.

        The rational part is p/d, so the new numerator is p mod m*d, and a
        weight already in range comes back as it is.  The new triple needs
        no gcd: p mod m*d differs from p by a multiple of d, so
        gcd(p mod m*d, q, d) = gcd(p, q, d) = 1.
        """
        p, md = self.p, m * self.d
        if 0 <= p < md:
            return self
        out = object.__new__(Weight)
        _set_p(out, p % md)
        _set_q(out, self.q)
        _set_d(out, self.d)
        return out

    def on_coset(self, n: int, b: int, m: int, sign: int = 1) -> bool:
        """Whether the weight lies on sign*n/b + mZ, for integers n and b > 0
        (n/b need not be in lowest terms), m > 0 and sign = +-1; the same
        answer as ``not (self - sign*Fraction(n, b)).reduce(m)``.

        The test is exact and builds nothing.  w is a formal irrational, so a
        weight with a nonzero w-part lies on no rational coset.  Otherwise
        self - sign*n/b = (p*b - sign*n*d)/(d*b), which lies in mZ exactly
        when m*d*b divides the integer p*b - sign*n*d.
        """
        if self.q:
            return False
        return (self.p * b - sign * n * self.d) % (m * self.d * b) == 0

    @property
    def is_rational(self) -> bool:
        return self.q == 0

    @property
    def is_integral(self) -> bool:
        return self.q == 0 and self.d == 1

    def sort_key(self):
        return (self.a, self.b)

    # -- I/O --

    def __str__(self) -> str:
        """a+bw with each part in lowest terms, "n" or "n/m" as a Fraction
        prints; the coefficient of w is left out when it is 1 or -1, and a
        zero part is left out.  Printed from p, q and d, with no Fraction."""
        p, q, d = self.p, self.q, self.d
        if not q:
            return _ratio_str(p, d)
        if q == d:
            wpart = "w"
        elif q == -d:
            wpart = "-w"
        else:
            wpart = _ratio_str(q, d) + "w"
        if not p:
            return wpart
        return f"{_ratio_str(p, d)}{'+' if q > 0 else ''}{wpart}"

    def to_json(self) -> dict:
        ga, gb = math.gcd(self.p, self.d), math.gcd(self.q, self.d)
        return {
            "a": [self.p // ga, self.d // ga],
            "b": [self.q // gb, self.d // gb],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Weight":
        parts = [json_field(data, key, list) for key in ("a", "b")]
        if any([type(n) for n in p] != [int, int] or p[1] == 0 for p in parts):
            raise ValueError(f"weight components must be integers over nonzero denominators: {data!r}")
        (na, da), (nb, db) = parts
        return cls(na * db, nb * da, da * db)


# Weight, the simple labels of both categories and their catalogued objects are
# built tens of thousands of times in one pipeline run and refuse assignment, so
# each constructor writes its fields through the setters of its slots.  A label
# built so, hash included, takes 0.91-1.0 us against 1.6-1.8 us as a frozen
# dataclass with a __dict__ whose __post_init__ set the hash through
# object.__setattr__, and a catalogued object 0.74 us against 1.26 us as a
# slotted frozen dataclass with a __post_init__ tag check (best of 7 timeit
# repeats, Python 3.11.7 on a shared 2-core Xeon).
def slot_setters(cls: type) -> tuple:
    """The setters of the slots cls declares itself, in declaration order."""
    return tuple(vars(cls)[name].__set__ for name in cls.__slots__)


_set_p, _set_q, _set_d = slot_setters(Weight)


class HashedOnce(Immutable):
    """Base of the simple labels: they key every Grothendieck class, so each is
    hashed many times, and its constructor stores the hash of its field tuple
    once in the slot ``_hash``, through :data:`set_hash`.

    A slot of a base class is not a dataclass field, so ``dataclasses.fields``
    of a label lists its real fields only.  Pickling and copying must rebuild a
    label through its constructor (``hash(None)`` differs between processes),
    so each label defines ``__reduce__``.

    The labels are :class:`Immutable`, ``_hash`` included.  A label must
    define ``__hash__ = HashedOnce.__hash__`` itself, or ``dataclass`` would
    make it unhashable.
    """

    __slots__ = ("_hash",)

    def __hash__(self) -> int:
        return self._hash


(set_hash,) = slot_setters(HashedOnce)


def _ratio_str(n: int, d: int) -> str:
    """n/d for d > 0 in lowest terms, as str of the Fraction prints it."""
    g = math.gcd(n, d)
    if g == d:
        return str(n // d)
    return f"{n // g}/{d // g}"


def _triple(x: Union[Weight, Rational]) -> Tuple[int, int, int]:
    """(p, q, d) of a weight or an exact rational."""
    cls = x.__class__
    if cls is Weight:
        return x.p, x.q, x.d
    if cls is Fraction:
        return x.numerator, 0, x.denominator
    n, m = _ratio(x)
    return n, 0, m


def as_weight(x) -> Weight:
    return x if isinstance(x, Weight) else Weight(x)


#: The formal irrational generator of the w-part.
OMEGA = Weight(0, 1)


def wt(a: Rational, b: Rational = 0) -> Weight:
    return Weight(a, b)


@dataclass(frozen=True)
class AdmissibleLevel:
    """k = -2 + u/v for coprime integers u, v >= 2."""

    u: int
    v: int

    def __post_init__(self):
        if not (isinstance(self.u, int) and isinstance(self.v, int)):
            raise NotAdmissible(f"level indices must be integers, got ({self.u}, {self.v})")
        if self.u < 2 or self.v < 2 or math.gcd(self.u, self.v) != 1:
            raise NotAdmissible(
                f"(u, v) = ({self.u}, {self.v}) is not coprime with u, v >= 2"
            )

    # t, k, t/2 and the shifts below are read on every label, functor and
    # Pi-sector step: build them once per level (lambda and nu are closed forms)
    @cached_property
    def t(self) -> Fraction:
        return Fraction(self.u, self.v)

    @cached_property
    def k(self) -> Fraction:
        return self.t - 2

    @cached_property
    def half_t(self) -> Fraction:
        return Fraction(self.u, 2 * self.v)

    # the shifts of tau, induction and restriction, (lam+k)/2 and 2*lam - k,
    # as Weights built from u and v, so a first use builds no Fraction
    @cached_property
    def half_k_weight(self) -> Weight:
        return Weight(self.u - 2 * self.v, 0, 2 * self.v)

    @cached_property
    def minus_k_weight(self) -> Weight:
        return Weight(2 * self.v - self.u, 0, self.v)

    # The memos of the layers above that depend on the level live on it: the
    # simple A-labels built, the Virasoro fusion channels computed, R's layers
    # and the M objects built, the restrictions computed and the class of
    # F(A).  They die with the level, and a hit hashes only its key, never the
    # level.
    @cached_property
    def a_labels(self) -> Dict[Tuple[int, ...], object]:
        """The simple A-label built at this level for each canonical integer
        key (r, s, flow, p, q, d) so far; ``local_cat.simple_a`` fills it and
        bounds its size."""
        return {}

    @cached_property
    def channels(self) -> Dict[Tuple[int, int, int, int], Tuple[Tuple[int, int], ...]]:
        """The Virasoro fusion channels of each ordered pair of Kac labels
        (r, s, r', s') fused at this level so far; ``local_cat.vir_fuse``
        fills it, at most ((u-1)(v-1))^2 entries."""
        return {}

    @cached_property
    def covers(self) -> Dict[object, Tuple[tuple, ...]]:
        """The layers of R(y) under each top label y; see ``local_cat.r_layers``."""
        return {}

    @cached_property
    def images(self) -> Dict[Tuple[int, int, int], object]:
        """M[r,s]@flow under each (r, s, flow); see ``local_cat.build_M``."""
        return {}

    @cached_property
    def restrictions(self) -> Dict[Hashable, object]:
        """The restriction of each simple label restricted at this level so
        far; ``functors.restrict_simple`` fills it and bounds its size."""
        return {}

    @cached_property
    def memo(self) -> Dict[str, object]:
        """Values computed once per level, by name (the class of F(A))."""
        return {}

    def __reduce__(self):
        # a pickle or copy carries u and v only, not the memos above
        return (AdmissibleLevel, (self.u, self.v))

    @property
    def c_k(self) -> Fraction:
        """Virasoro central charge 1 - 6(k+1)^2/(k+2)."""
        k = self.k
        return 1 - 6 * (k + 1) ** 2 / (k + 2)

    def __str__(self) -> str:
        return f"{self.u}/{self.v}"


def admissible_level(u: int, v: int) -> AdmissibleLevel:
    """Validate and build the admissible level with t = u/v."""
    return AdmissibleLevel(u, v)


# -- Kac-table quantities at any (r, s), no range checks --


def lam_ratio(level: AdmissibleLevel, r: int, s: int) -> Tuple[int, int]:
    """(n, b) with lambda_{r,s} = r - 1 - t*s = n/b = ((r-1)v - us)/v, not in
    lowest terms."""
    return (r - 1) * level.v - level.u * s, level.v


def nu_ratio(level: AdmissibleLevel, r: int, s: int) -> Tuple[int, int]:
    """(n, b) with nu_{r,s} = (r - 1 - t*(s-1))/2 = n/b = ((r-1)v - u(s-1))/(2v),
    not in lowest terms."""
    return (r - 1) * level.v - level.u * (s - 1), 2 * level.v


def lam_rs(level: AdmissibleLevel, r: int, s: int) -> Fraction:
    """lambda_{r,s} = r - 1 - t*s."""
    return Fraction(*lam_ratio(level, r, s))


def nu_rs(level: AdmissibleLevel, r: int, s: int) -> Fraction:
    """nu_{r,s} = (r - 1 - t*(s-1)) / 2."""
    return Fraction(*nu_ratio(level, r, s))


def nu_weight(level: AdmissibleLevel, r: int, s: int) -> Weight:
    """nu_{r,s} as a Weight, built from its integers with one gcd."""
    n, b = nu_ratio(level, r, s)
    return Weight(n, 0, b)


def delta_rs(level: AdmissibleLevel, r: int, s: int) -> Fraction:
    """Delta_{r,s} = ((r - t*s)^2 - 1) / (4t)."""
    t = level.t
    return ((r - t * s) ** 2 - 1) / (4 * t)


def h_rs(level: AdmissibleLevel, r: int, s: int) -> Fraction:
    """Virasoro minimal-model weight h_{r,s} = ((su - rv)^2 - (u-v)^2) / (4uv)."""
    u, v = level.u, level.v
    return Fraction((s * u - r * v) ** 2 - (u - v) ** 2, 4 * u * v)


@dataclass(frozen=True)
class KacData:
    r: int
    s: int
    lam: Fraction
    delta: Fraction
    nu: Fraction
    h: Optional[Fraction]  # defined only for 1 <= s <= v-1


def check_rs(level: AdmissibleLevel, r: int, s: int, s_min: int = 1, s_max: Optional[int] = None) -> None:
    """Validate a Kac label: integers r, s with 1 <= r <= u-1 and s_min <= s <= s_max,
    where s_max defaults to v-1 (the Kac table)."""
    if type(r) is not int or type(s) is not int:
        raise ValueError(f"Kac label (r, s) = ({r!r}, {s!r}) must be integers")
    s_max = level.v - 1 if s_max is None else s_max
    if not (1 <= r <= level.u - 1 and s_min <= s <= s_max):
        bounds = f"[1,{level.u - 1}] x [{s_min},{s_max}]"
        raise OutOfKacTable(f"(r, s) = ({r}, {s}) outside {bounds} at level {level}")


def check_flow(flow: int) -> None:
    """Validate a spectral-flow index: an int (a bool, float, Fraction or str is no flow)."""
    if type(flow) is not int:
        raise ValueError(f"flow {flow!r} must be an integer")


def kac_data(level: AdmissibleLevel, r: int, s: int) -> KacData:
    """All Kac-table quantities at (r, s), for 1 <= r <= u-1 and 0 <= s <= v."""
    check_rs(level, r, s, 0, level.v)
    h = h_rs(level, r, s) if 1 <= s <= level.v - 1 else None
    return KacData(r, s, lam_rs(level, r, s), delta_rs(level, r, s), nu_rs(level, r, s), h)


def pi_conf_weight(level: AdmissibleLevel, flow: int, lam) -> Weight:
    """Lowest conformal weight (k/4)*flow^2 + lam*(flow + 1) of a Pi-sector label."""
    return as_weight(lam) * (flow + 1) + Weight(level.k * flow * flow / 4)


def conf_wt_gap(level: AdmissibleLevel, r: int, s: int) -> Fraction:
    """Delta_{r,s+1} - Delta_{r,s-1}; non-integral throughout the Kac table."""
    check_rs(level, r, s)
    return delta_rs(level, r, s + 1) - delta_rs(level, r, s - 1)


def ks_dual_level(level: AdmissibleLevel) -> Fraction:
    """The level l of the Kazama-Suzuki dual, defined by (l+1)(k+2) = 1."""
    return 1 / (level.k + 2) - 1


# -- Grothendieck groups of both categories --


class Groth:
    """Finitely supported Z-combination of hashable basis labels.

    ``fuse`` maps two basis labels to the class of their product and makes
    ``*`` the ring product; without it the class lives in a Z-module only.

    ``coeffs`` never holds a zero, so equality is dict equality and the
    support is the key set.  A class owns its dict, and nothing writes into
    that dict once the class is handed out: classes are shared (the fusion
    module caches the class of F(A), and callers keep what ``comp_factors``
    returns).  So a sum is accumulated through :meth:`_add_to` into the dict
    of a class its builder has just made, or into a fresh dict that
    :meth:`_own` then wraps without a copy or a zero filter.  The public
    ``Groth(coeffs)`` copies its argument and drops its zeros.
    """

    __slots__ = ("coeffs", "fuse")

    def __init__(self, coeffs: Optional[Dict[Hashable, int]] = None, fuse: Optional[Callable] = None):
        self.coeffs = {x: n for x, n in (coeffs or {}).items() if n != 0}
        self.fuse = fuse

    @classmethod
    def _own(cls, coeffs: Dict[Hashable, int], fuse: Optional[Callable] = None) -> "Groth":
        """The class of coeffs, taken as it is: coeffs holds no zero, and the
        new class owns it."""
        out = object.__new__(cls)
        out.coeffs = coeffs
        out.fuse = fuse
        return out

    def _add_to(self, out: Dict[Hashable, int], n: int = 1) -> None:
        """out += n * self in place, deleting the entries that reach zero;
        out belongs to the caller and holds no zero."""
        if not n:
            return
        get = out.get
        for x, c in self.coeffs.items():
            m = get(x, 0) + n * c
            if m:
                out[x] = m
            else:
                del out[x]

    @classmethod
    def of(cls, *labels: Hashable, fuse=None) -> "Groth":
        out: Dict[Hashable, int] = {}
        for x in labels:
            out[x] = out.get(x, 0) + 1
        return cls._own(out, fuse)

    def multiplicity(self, label) -> int:
        return self.coeffs.get(label, 0)

    def support(self):
        return set(self.coeffs)

    def items(self):
        return self.coeffs.items()

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_effective(self) -> bool:
        return all(n > 0 for n in self.coeffs.values())

    def __add__(self, other: "Groth") -> "Groth":
        out = dict(self.coeffs)
        other._add_to(out)
        return Groth._own(out, self.fuse)

    def __sub__(self, other: "Groth") -> "Groth":
        return self + -other

    def __neg__(self) -> "Groth":
        return -1 * self

    def __rmul__(self, n: int) -> "Groth":
        if not isinstance(n, int):
            return NotImplemented
        return Groth._own({x: n * c for x, c in self.coeffs.items()} if n else {}, self.fuse)

    def __mul__(self, other: "Groth") -> "Groth":
        if isinstance(other, int):
            return self.__rmul__(other)
        fuse = self.fuse
        if fuse is None:
            return NotImplemented
        out: Dict[Hashable, int] = {}
        for x, n in self.coeffs.items():
            for y, m in other.coeffs.items():
                fuse(x, y)._add_to(out, n * m)
        return Groth._own(out, fuse)

    def __eq__(self, other) -> bool:
        return isinstance(other, Groth) and self.coeffs == other.coeffs

    def sorted_items(self):
        return sorted(self.coeffs.items(), key=lambda kv: kv[0].sort_key())

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(
            (f"{n}*{x}" if n != 1 else str(x)) for x, n in self.sorted_items()
        )

    __repr__ = __str__


# -- catalogued objects of both categories --


# not frozen=True (see Immutable): unsafe_hash gives the hash of the field
# tuple that frozen=True would
@dataclass(slots=True, init=False, unsafe_hash=True)
class LoewyObject(Immutable):
    """A catalogued indecomposable of either category with its Loewy layers
    of simple labels, top first.  The tag must lie in the ``TAGS`` of the top
    label's class: "simple" (r, s and flow those of its label) or a kind its
    category builds; the lam of an A-side R is that of its top label."""

    tag: str
    r: int
    s: int
    flow: int
    layers: Tuple[tuple, ...]

    def __init__(self, tag: str, r: int, s: int, flow: int, layers: Tuple[tuple, ...]):
        top = layers[0][0]
        if tag not in top.TAGS:
            raise ValueError(f"unknown {top.CAT}-object tag {tag!r}")
        _set_obj_tag(self, tag)
        _set_obj_r(self, r)
        _set_obj_s(self, s)
        _set_obj_flow(self, flow)
        _set_obj_layers(self, layers)

    def __reduce__(self):
        return (LoewyObject, (self.tag, self.r, self.s, self.flow, self.layers))

    def __str__(self) -> str:
        if self.tag == "simple":
            return str(self.layers[0][0])
        if self.tag == "R":
            return f"R({self.r},{self.s};{self.layers[0][0].lam})@{self.flow}"
        if self.tag == "M":
            return f"M[{self.r},{self.s}]@{self.flow}"
        return f"{self.tag}({self.r},{self.s})@{self.flow}"


_set_obj_tag, _set_obj_r, _set_obj_s, _set_obj_flow, _set_obj_layers = slot_setters(LoewyObject)


def _category(x: Union[LoewyObject, "DirectSum"]) -> str:
    """The CAT of the top label of x, or of the first part of a sum."""
    while isinstance(x, DirectSum):
        x = x.parts[0]
    return x.layers[0][0].CAT


@dataclass(frozen=True)
class DirectSum:
    """A direct sum of two or more catalogued objects or sums of one category."""

    parts: Tuple[Union[LoewyObject, "DirectSum"], ...]

    def __post_init__(self):
        if len(self.parts) < 2:
            raise ValueError(f"a direct sum needs at least two parts, got {len(self.parts)}")
        cats = {_category(p) for p in self.parts}
        if len(cats) > 1:
            raise ValueError(f"a direct sum takes parts of one category, got {sorted(cats)}")

    def __str__(self) -> str:
        return " (+) ".join(str(p) for p in self.parts)


def add_layers(
    out: Dict[Hashable, int], x: Union[LoewyObject, DirectSum, Tuple[tuple, ...]], n: int = 1
) -> None:
    """out += n * each layer label of x, recursing into direct sums, in place,
    deleting the entries that reach zero; out belongs to the caller and holds
    no zero.  x may also be the Loewy layers of an object, top first.  Every
    count of layer labels into a class goes through here."""
    if isinstance(x, DirectSum):
        for p in x.parts:
            add_layers(out, p, n)
        return
    get = out.get
    for layer in x if x.__class__ is tuple else x.layers:
        for y in layer:
            m = get(y, 0) + n
            if m:
                out[y] = m
            else:
                del out[y]
