"""Exact rational and Kac-table arithmetic for affine sl2 at admissible level.

An admissible level is k = -2 + u/v with coprime u, v >= 2 (non-integral
levels only).  Everything downstream is computed exactly: rational numbers
are ``fractions.Fraction`` and generic weight parameters live in the rank-2
space Q + Q*w, where w is a fixed formal symbol treated as irrational and
not rationally related to any other constant in play.  The Kac-label check
and the Grothendieck-group class that both categories use live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Hashable, Optional, Union

Rational = Union[int, Fraction]


class NotAdmissible(ValueError):
    """(u, v) is not a non-integral admissible level."""


class OutOfKacTable(ValueError):
    """Kac label (r, s) lies outside the allowed grid."""


def _frac(x: Rational) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {x!r}")


def strict_int(x, name: str) -> int:
    """x itself if it is an int and not a bool; validates label input."""
    if type(x) is not int:
        raise ValueError(f"{name} must be an integer, got {x!r}")
    return x


@dataclass(frozen=True)
class Weight:
    """An exact element a + b*w of Q + Q*w.

    Equality and hashing are componentwise; ``b == 0`` means the weight is an
    honest rational.  Only the rational part is ever reduced by :meth:`reduce`,
    so a weight with nonzero w-part never collides with a rational coset.
    """

    a: Fraction = Fraction(0)
    b: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "a", _frac(self.a))
        object.__setattr__(self, "b", _frac(self.b))

    # -- linear arithmetic (scalars are exact rationals) --

    def __add__(self, other) -> "Weight":
        o = as_weight(other)
        return Weight(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other) -> "Weight":
        o = as_weight(other)
        return Weight(self.a - o.a, self.b - o.b)

    def __rsub__(self, other) -> "Weight":
        return as_weight(other) - self

    def __neg__(self) -> "Weight":
        return Weight(-self.a, -self.b)

    def __mul__(self, scalar: Rational) -> "Weight":
        c = _frac(scalar)
        return Weight(self.a * c, self.b * c)

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return bool(self.a) or bool(self.b)

    # -- coset reduction and predicates --

    def reduce(self, m: int) -> "Weight":
        """Normalize the rational part into [0, m); the w-part is untouched."""
        return Weight(self.a - math.floor(self.a / m) * m, self.b)

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    @property
    def is_integral(self) -> bool:
        return self.b == 0 and self.a.denominator == 1

    def sort_key(self):
        return (self.a, self.b)

    # -- I/O --

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        if self.b == 1:
            wpart = "w"
        elif self.b == -1:
            wpart = "-w"
        else:
            wpart = f"{self.b}w"
        if self.a == 0:
            return wpart
        sign = "+" if self.b > 0 else ""
        return f"{self.a}{sign}{wpart}"

    def to_json(self) -> dict:
        return {
            "a": [self.a.numerator, self.a.denominator],
            "b": [self.b.numerator, self.b.denominator],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Weight":
        an, ad = data["a"]
        bn, bd = data["b"]
        if any(type(n) is not int for n in (an, ad, bn, bd)) or 0 in (ad, bd):
            raise ValueError(f"weight components must be integers over nonzero denominators: {data!r}")
        return cls(Fraction(an, ad), Fraction(bn, bd))


def as_weight(x) -> Weight:
    if isinstance(x, Weight):
        return x
    return Weight(_frac(x))


#: The formal irrational generator of the w-part.
OMEGA = Weight(Fraction(0), Fraction(1))


def wt(a: Rational, b: Rational = 0) -> Weight:
    return Weight(_frac(a), _frac(b))


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

    @property
    def t(self) -> Fraction:
        return Fraction(self.u, self.v)

    @property
    def k(self) -> Fraction:
        return self.t - 2

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

def lam_rs(level: AdmissibleLevel, r: int, s: int) -> Fraction:
    """lambda_{r,s} = r - 1 - t*s."""
    return r - 1 - level.t * s


def delta_rs(level: AdmissibleLevel, r: int, s: int) -> Fraction:
    """Delta_{r,s} = ((r - t*s)^2 - 1) / (4t)."""
    t = level.t
    return ((r - t * s) ** 2 - 1) / (4 * t)


def nu_rs(level: AdmissibleLevel, r: int, s: int) -> Fraction:
    """nu_{r,s} = (r - 1 - t*(s-1)) / 2."""
    return Fraction(r - 1 - level.t * (s - 1), 2)


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
