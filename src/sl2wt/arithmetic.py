"""Exact rational and Kac-table arithmetic for affine sl2 at admissible level.

An admissible level is k = -2 + u/v with coprime u, v >= 2 (non-integral
levels only).  Everything downstream is computed exactly: rational numbers
are ``fractions.Fraction`` and generic weight parameters live in the rank-2
space Q + Q*w, where w is a fixed formal symbol treated as irrational and
not rationally related to any other constant in play.  A :class:`Weight`
stores (p + q*w)/d as three integers with d > 0 and gcd(p, q, d) = 1, so its
arithmetic, hashing and coset reduction run on integers and build no
Fraction.  The Kac-label check and the Grothendieck-group class that both
categories use live here too.
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


class Weight:
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

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

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


# the slot setters Weight.__init__ writes through, since __setattr__ refuses
_set_p, _set_q, _set_d = (vars(Weight)[name].__set__ for name in Weight.__slots__)


def _triple(x: Union[Weight, Rational]) -> Tuple[int, int, int]:
    """(p, q, d) of a weight or an exact rational."""
    if x.__class__ is Weight:
        return x.p, x.q, x.d
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
    """

    __slots__ = ("coeffs", "fuse")

    def __init__(self, coeffs: Optional[Dict[Hashable, int]] = None, fuse: Optional[Callable] = None):
        self.coeffs = {x: n for x, n in (coeffs or {}).items() if n != 0}
        self.fuse = fuse

    @classmethod
    def of(cls, *labels: Hashable, fuse=None) -> "Groth":
        out: Dict[Hashable, int] = {}
        for x in labels:
            out[x] = out.get(x, 0) + 1
        return cls(out, fuse)

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
        for x, n in other.coeffs.items():
            out[x] = out.get(x, 0) + n
        return Groth(out, self.fuse)

    def __sub__(self, other: "Groth") -> "Groth":
        return self + -other

    def __neg__(self) -> "Groth":
        return -1 * self

    def __rmul__(self, n: int) -> "Groth":
        if not isinstance(n, int):
            return NotImplemented
        return Groth({x: n * c for x, c in self.coeffs.items()}, self.fuse)

    def __mul__(self, other: "Groth") -> "Groth":
        if isinstance(other, int):
            return self.__rmul__(other)
        if self.fuse is None:
            return NotImplemented
        out: Dict[Hashable, int] = {}
        for x, n in self.coeffs.items():
            for y, m in other.coeffs.items():
                for z, c in self.fuse(x, y).items():
                    out[z] = out.get(z, 0) + n * m * c
        return Groth(out, self.fuse)

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
