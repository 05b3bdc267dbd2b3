"""Isomorphism classification of admissible modules.

Extracts a P^2 point from fil1, computes the coarse moduli coordinate c, and
branches into the canonical classes; also the Wintenberger type A/B read off
from the valuation of c.
"""

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .modules import (
    InadmissibleModule,
    InvariantViolation,
    _chi_shape,
    cyclic_presentation,
    is_admissible,
    mu_c,
)
from .scalars import INF, as_pair, field_sqrt, hensel_root, normalize, scalar_to_str, valuation


class ModuliPoint:
    """[t1 : t2 : t3], normalized so the first nonzero coordinate is 1."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        coords = tuple(c + Fraction(0) for c in coords)
        if len(coords) != 3:
            raise ValueError("a moduli point has three homogeneous coordinates")
        lead = next((c for c in coords if c), None)
        if lead is None:
            raise ValueError("coordinates must not all vanish")
        object.__setattr__(self, "coords", tuple(normalize(c / lead) for c in coords))

    @classmethod
    def of(cls, t1, t2, t3):
        return cls((t1, t2, t3))

    def __setattr__(self, *a):
        raise AttributeError("ModuliPoint is immutable")

    def __eq__(self, other):
        if not isinstance(other, ModuliPoint):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return "[" + " : ".join(str(c) for c in self.coords) + "]"


class CInvariant:
    """A point of P^1: a finite scalar or infinity."""

    __slots__ = ("value",)

    def __init__(self, value=None):
        object.__setattr__(self, "value", None if value is None else normalize(value + Fraction(0)))

    @classmethod
    def infinity(cls):
        return cls(None)

    @classmethod
    def finite(cls, v):
        return cls(v)

    @property
    def is_infinity(self):
        return self.value is None

    def vp(self, ctx):
        """Valuation, with v([1:0]) = -infinity."""
        return -INF if self.is_infinity else valuation(self.value, ctx)

    def __setattr__(self, *a):
        raise AttributeError("CInvariant is immutable")

    def __eq__(self, other):
        if isinstance(other, CInvariant):
            return self.value == other.value
        if other is None:
            return NotImplemented
        return self.value is not None and self.value == other

    def __hash__(self):
        return hash(self.value)

    def __repr__(self):
        return "∞" if self.is_infinity else str(self.value)


class Branch(Enum):
    LINE1 = "Line1"
    LINE2 = "Line2"
    ORIGIN = "Origin"


@dataclass(frozen=True)
class ProdClass:
    eps_prime: int
    tag = "Prod"


@dataclass(frozen=True)
class IsoClass:
    eps: int
    eps_prime: int
    tag = "Iso"


@dataclass(frozen=True)
class NuInfinityClass:
    eps: int
    tag = "NuInfinity"


@dataclass(frozen=True)
class MuGenericClass:
    eps: int
    c: object
    tag = "MuGeneric"


@dataclass(frozen=True)
class MuDegenerateClass:
    eps: int
    branch: Branch
    tag = "MuDegenerate"


class WintenbergerType(Enum):
    """Periodic-function patterns of the refined Hodge decomposition;
    only A and B occur for admissible inputs."""

    A = ("0011", "0110", "1100", "1001")
    B = ("01", "10")
    C = ("0", "1")
    D = ("001", "010", "100", "1")

    @property
    def patterns(self):
        return self.value


def point_from_module(D, cyclic_index=0):
    """[c1 : c2 : c3] with fil1 = span(x, sum c_j phi^j x) for a cyclic x in fil1."""
    _, _, coeffs = cyclic_presentation(D, skip=cyclic_index)
    return ModuliPoint.of(coeffs[1], coeffs[2], coeffs[3])


def c_of_point(P, eps, p):
    """c of [x:y:z]: -(x^2 - eps p x z + p^2 z^2)/(eps p z^2 + y^2 - x z) - eps p."""
    x, y, z = P.coords
    den = eps * p * z * z + y * y - x * z
    if not den:
        return CInvariant.infinity()
    num = x * x - eps * p * x * z + p * p * z * z
    return CInvariant.finite(-num / den - eps * p)


def c_of_mu_params(a, b, eps, p):
    return CInvariant.finite(mu_c(a, b, eps, p))


def mu_roots(eps, ctx):
    """Roots (mu1, mu2) of X^2 + eps p X + p^2 over the scalar field, ordered by
    the embedded residue of mu/p mod p; None when irreducible."""
    p = ctx.p
    disc = Fraction(eps * eps * p * p - 4 * p * p)
    s = field_sqrt(disc, ctx.m)
    if s is None:
        return None
    r1 = (-eps * p + s) / 2
    r2 = (-eps * p - s) / 2
    if ctx.m == 1:
        return (r1, r2) if r1 <= r2 else (r2, r1)
    root = hensel_root(ctx.m, p, 1)

    def unit_residue(mu):
        u, v = as_pair(mu / p)
        num = u.numerator * v.denominator + v.numerator * u.denominator * root
        den = u.denominator * v.denominator
        return num * pow(den, -1, p) % p

    return (r1, r2) if unit_residue(r1) <= unit_residue(r2) else (r2, r1)


def class_of_point(P, eps, ctx):
    """(class, c) of an admissible eps-type module whose cyclic presentation
    gives the point P: the branch ladder of the canonical classes."""
    p = ctx.p
    c = c_of_point(P, eps, p)
    if c.is_infinity:
        return NuInfinityClass(eps), c
    if c.value == 2 * p:
        return IsoClass(eps, 1), c
    if c.value == -2 * p:
        return IsoClass(eps, -1), c
    if c.value == -eps * p and (roots := mu_roots(eps, ctx)) is not None:
        x, _, z = P.coords
        if not x and not z:
            return MuDegenerateClass(eps, Branch.ORIGIN), c
        for mu, branch in zip(roots, (Branch.LINE1, Branch.LINE2)):
            if z and x / z == -mu:
                return MuDegenerateClass(eps, branch), c
        raise InvariantViolation(f"{P} has c = -eps p but lies off both lines")
    return MuGenericClass(eps, c.value), c


def canonical_class(D):
    """The isomorphism class of an admissible module with supersingular chi."""
    rep = is_admissible(D)
    if not rep.admissible:
        raise InadmissibleModule(_stable_witness(D))
    kind, e = _chi_shape(D)
    if kind == "prod":
        return ProdClass(e)
    return class_of_point(point_from_module(D), e, D.ctx)[0]


def _stable_witness(D):
    for v in D.fil1.vectors:
        if D.fil1.contains(D.phi.apply(v)):
            return v
    return D.fil1.vectors[0]


def c_of_module(D):
    """The c-invariant of an admissible eps-type module."""
    kind, e = _chi_shape(D)
    if kind == "prod":
        raise ValueError("c is defined for eps-type chi only")
    return c_of_point(point_from_module(D), e, D.ctx.p)


def wintenberger_type(D):
    """Prod: type B.  eps-type: A when v_p(c) <= 0 (including c = infinity), B
    when v_p(c) >= 1."""
    kind, _ = _chi_shape(D)
    if kind == "prod":
        return WintenbergerType.B
    return wintenberger_of_c(c_of_module(D), D.ctx)


def wintenberger_of_c(c, ctx):
    return WintenbergerType.A if c.vp(ctx) <= 0 else WintenbergerType.B


def is_isomorphic(D1, D2):
    return canonical_class(D1) == canonical_class(D2)


def class_to_record(cls_):
    rec = {"tag": cls_.tag}
    if isinstance(cls_, ProdClass):
        rec["epsilon_prime"] = cls_.eps_prime
    elif isinstance(cls_, IsoClass):
        rec["epsilon"] = cls_.eps
        rec["epsilon_prime"] = cls_.eps_prime
    elif isinstance(cls_, NuInfinityClass):
        rec["epsilon"] = cls_.eps
    elif isinstance(cls_, MuGenericClass):
        rec["epsilon"] = cls_.eps
        rec["c"] = scalar_to_str(cls_.c)
    elif isinstance(cls_, MuDegenerateClass):
        rec["epsilon"] = cls_.eps
        rec["branch"] = cls_.branch.value
    return rec
