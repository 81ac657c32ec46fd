"""Exact rational and Kac-table arithmetic for affine sl2 at admissible level.

An admissible level is k = -2 + u/v with coprime u, v >= 2 (non-integral
levels only).  Everything downstream is computed exactly: rational numbers
are ``fractions.Fraction`` and generic weight parameters live in the rank-2
space Q + Q*w, where w is a fixed formal symbol treated as irrational and
not rationally related to any other constant in play.  A :class:`Weight`
stores (p + q*w)/d as three integers with d > 0 and gcd(p, q, d) = 1, so its
arithmetic, hashing and coset reduction run on integers and build no
Fraction.  The Kac-label check, the Grothendieck-group class and the
hash-once base of the simple labels that both categories use live here too.
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
        return -self + other

    def __neg__(self) -> "Weight":
        return Weight(-self.p, -self.q, self.d)

    def __mul__(self, scalar: Rational) -> "Weight":
        n, m = _ratio(scalar)
        return Weight(self.p * n, self.q * n, self.d * m)

    __rmul__ = __mul__

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

    def on_coset(self, c: Rational, m: int, sign: int = 1) -> bool:
        """Whether the weight lies on sign*c + mZ, for an exact rational c,
        m > 0 and sign = +-1; the same answer as ``not (self - sign*c).reduce(m)``.

        The test is exact and builds nothing.  w is a formal irrational, so a
        weight with a nonzero w-part lies on no rational coset.  Otherwise,
        with c = a/b in lowest terms, self - sign*c = (p*b - sign*a*d)/(d*b),
        which lies in mZ exactly when m*d*b divides the integer p*b - sign*a*d.
        """
        if self.q:
            return False
        b = c.denominator
        return (self.p * b - sign * c.numerator * self.d) % (m * self.d * b) == 0

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
        a, b = self.a, self.b
        if b == 0:
            return str(a)
        if b == 1:
            wpart = "w"
        elif b == -1:
            wpart = "-w"
        else:
            wpart = f"{b}w"
        if a == 0:
            return wpart
        sign = "+" if b > 0 else ""
        return f"{a}{sign}{wpart}"

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
# object.__setattr__, and a CObject 0.74 us against 1.26 us as a slotted frozen
# dataclass with a __post_init__ tag check (best of 7 timeit repeats, Python
# 3.11.7 on a shared 2-core Xeon).
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

    # t, k, t/2 and the Kac tables are read on every label, functor and
    # Pi-sector step: build them once per level
    @cached_property
    def t(self) -> Fraction:
        return Fraction(self.u, self.v)

    @cached_property
    def k(self) -> Fraction:
        return self.t - 2

    @cached_property
    def half_t(self) -> Fraction:
        return Fraction(self.u, 2 * self.v)

    @cached_property
    def lam_table(self) -> Tuple[Tuple[Fraction, ...], ...]:
        """lam_table[r][s] = lambda_{r,s} for 0 <= r <= u and 0 <= s <= v+1."""
        return _kac_table(self, _lam)

    @cached_property
    def nu_table(self) -> Tuple[Tuple[Fraction, ...], ...]:
        """nu_table[r][s] = nu_{r,s} for 0 <= r <= u and 0 <= s <= v+1."""
        return _kac_table(self, _nu)

    # The memos of the layers above that depend on the level live on it: they
    # die with the level, and a hit hashes only its key, never the level.
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
        # a pickle or copy carries u and v only, not the tables above
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


# -- raw Kac-table quantities, no range checks (internal building blocks) --

# The label code reads lambda_{r,s} and nu_{r,s} at 0 <= r <= u and
# 0 <= s <= v+1 (the Kac table plus the columns s = 0, v and v+1 that the
# fusion table and build_M reach); AdmissibleLevel tables them there, and
# values outside that range are built on each call.


def _kac_table(level: AdmissibleLevel, formula) -> Tuple[Tuple[Fraction, ...], ...]:
    return tuple(
        tuple(formula(level, r, s) for s in range(level.v + 2)) for r in range(level.u + 1)
    )


def _lam(level: AdmissibleLevel, r: int, s: int) -> Fraction:
    return Fraction((r - 1) * level.v - level.u * s, level.v)


def _nu(level: AdmissibleLevel, r: int, s: int) -> Fraction:
    return Fraction((r - 1) * level.v - level.u * (s - 1), 2 * level.v)


def lam_rs(level: AdmissibleLevel, r: int, s: int) -> Fraction:
    """lambda_{r,s} = r - 1 - t*s."""
    if 0 <= r <= level.u and 0 <= s <= level.v + 1:
        return level.lam_table[r][s]
    return _lam(level, r, s)


def delta_rs(level: AdmissibleLevel, r: int, s: int) -> Fraction:
    """Delta_{r,s} = ((r - t*s)^2 - 1) / (4t)."""
    t = level.t
    return ((r - t * s) ** 2 - 1) / (4 * t)


def nu_rs(level: AdmissibleLevel, r: int, s: int) -> Fraction:
    """nu_{r,s} = (r - 1 - t*(s-1)) / 2."""
    if 0 <= r <= level.u and 0 <= s <= level.v + 1:
        return level.nu_table[r][s]
    return _nu(level, r, s)


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

    def map_labels(self, fn) -> "Groth":
        out: Dict[Hashable, int] = {}
        for x, n in self.coeffs.items():
            y = fn(x)
            out[y] = out.get(y, 0) + n
        return Groth(out, self.fuse)

    def sorted_items(self):
        return sorted(self.coeffs.items(), key=lambda kv: kv[0].sort_key())

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(
            (f"{n}*{x}" if n != 1 else str(x)) for x, n in self.sorted_items()
        )

    __repr__ = __str__
