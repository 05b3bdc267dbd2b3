"""Height-bounded scan of the moduli plane.

Enumerates P^2 points with integer coordinates up to a height bound
(projectively deduplicated), classifies each, reads off the Wintenberger type
from c, and computes the monodromy group of a same-class canonical-family
representative.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .classify import (
    Branch,
    CInvariant,
    IsoClass,
    ModuliPoint,
    MuDegenerateClass,
    MuGenericClass,
    NuInfinityClass,
    WintenbergerType,
    c_of_point,
    class_to_record,
    mu_roots,
    wintenberger_of_c,
)
from .modules import Iso, Mu, Nu
from .moduli import mu_inverse
from .monodromy import InvariantViolation, monodromy_group
from .scalars import Cyclotomic, scalar_to_str


@dataclass(frozen=True)
class ScanRow:
    point: ModuliPoint
    raw: tuple  # the integer (or line-sample) coordinates as entered
    c: CInvariant
    cls: object
    wintenberger: WintenbergerType
    group: object


class InconsistentRow(InvariantViolation):
    """A row violates the monodromy distribution table."""


def class_of_point(P, eps, ctx):
    """Canonical class of the companion-Frobenius module with fil1 = iota(P).

    Same branch logic as canonical_class, driven by the point directly; every
    iota-image is admissible, so no stability check is needed.
    """
    p = ctx.p
    c = c_of_point(P, eps, p)
    if c.is_infinity:
        return NuInfinityClass(eps), c
    if c.value == 2 * p:
        return IsoClass(eps, 1), c
    if c.value == -2 * p:
        return IsoClass(eps, -1), c
    if c.value == -eps * p:
        roots = mu_roots(eps, ctx)
        if roots is None:
            return MuGenericClass(eps, c.value), c
        mu1, mu2 = roots
        x, y, z = P.coords
        if not x and not z:
            return MuDegenerateClass(eps, Branch.ORIGIN), c
        ratio = x / z
        branch = Branch.LINE1 if ratio == -mu1 else Branch.LINE2
        return MuDegenerateClass(eps, branch), c
    return MuGenericClass(eps, c.value), c


def representative_params(P, cls, eps, ctx):
    """Canonical-family parameters for a module in the class of D_P."""
    p = ctx.p
    if isinstance(cls, NuInfinityClass):
        return Nu(eps, Fraction(eps * p))
    if isinstance(cls, IsoClass):
        return Iso(eps, cls.eps_prime)
    if isinstance(cls, MuDegenerateClass):
        if cls.branch is Branch.ORIGIN:
            return Mu(eps, Fraction(0), Fraction(0))
        mu1, mu2 = mu_roots(eps, ctx)
        mu = mu1 if cls.branch is Branch.LINE1 else mu2
        return Mu(eps, -mu, Cyclotomic(1) if ctx.m > 1 else Fraction(1))
    x, y, z = P.coords
    if y:
        a, b = mu_inverse(P, eps, p)
        return Mu(eps, a, b)
    return Nu(eps, x / z)


def projective_integer_points(height):
    """Integer coordinate triples of height <= H, gcd 1, first nonzero positive,
    in lexicographic order."""
    pts = []
    for x in range(-height, height + 1):
        for y in range(-height, height + 1):
            for z in range(-height, height + 1):
                if x == 0 and y == 0 and z == 0:
                    continue
                if gcd(gcd(abs(x), abs(y)), abs(z)) != 1:
                    continue
                first = next(c for c in (x, y, z) if c)
                if first < 0:
                    continue
                pts.append((x, y, z))
    return pts


def line_sample_points(eps, ctx, height):
    """Sample points on the two c = -eps p lines (split case only): the lines
    have irrational slope over Q, so the integer grid misses them."""
    roots = mu_roots(eps, ctx)
    if roots is None:
        return []
    out = []
    for mu in roots:
        for y in range(0, height + 1):
            out.append((-mu, Fraction(y), Fraction(1)))
    return out


def check_row_consistency(row, eps, p):
    """Emit-time check against the distribution table of the exceptional fibers."""
    kind = row.group.kind
    c = row.c
    if c.is_infinity:
        expected = "Gm3" if eps == 0 else "GL2FiberDet"
        ok = kind == expected
    elif c.value == 2 * p or c.value == -2 * p:
        ok = kind == "GL2"
    elif c.value == -eps * p:
        if isinstance(row.cls, MuDegenerateClass) and row.cls.branch is not Branch.ORIGIN:
            ok = kind == "Ga2SemidirectGm2"
        else:
            ok = kind == "Gm2"
    else:
        ok = kind == "GL2FiberDet"
    if not ok:
        raise InconsistentRow(f"{row.raw}: c={c} but group={kind}")


def scan(ctx, eps, height, with_groups=True):
    """All scan rows, deterministically ordered; groups are cached per class."""
    rows = []
    cache = {}
    raw_points = [tuple(map(Fraction, t)) for t in projective_integer_points(height)]
    raw_points += line_sample_points(eps, ctx, height)
    for raw in raw_points:
        P = ModuliPoint.of(*raw)
        cls, c = class_of_point(P, eps, ctx)
        wint = wintenberger_of_c(c, ctx)
        group = None
        if with_groups:
            key = tuple(sorted(class_to_record(cls).items()))
            if key not in cache:
                cache[key] = monodromy_group(representative_params(P, cls, eps, ctx), ctx)
            group = cache[key]
            row = ScanRow(P, raw, c, cls, wint, group)
            check_row_consistency(row, eps, ctx.p)
        else:
            row = ScanRow(P, raw, c, cls, wint, None)
        rows.append(row)
    return rows


def histogram(rows):
    counts = {}
    for row in rows:
        if row.group is not None:
            counts[row.group.kind] = counts.get(row.group.kind, 0) + 1
    return dict(sorted(counts.items()))


def row_to_record(row, ctx):
    rec = {
        "point": [scalar_to_str(c) for c in row.point.coords],
        "c": "inf" if row.c.is_infinity else scalar_to_str(row.c.value),
        "class": class_to_record(row.cls),
        "wintenberger": row.wintenberger.name,
    }
    if row.group is not None:
        rec["group"] = row.group.to_record()
    return rec
