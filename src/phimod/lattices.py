"""Valuation regions for the mu-family parameters and adapted 2x2 lattices.

(v_p(a), v_p(b)) falls into one of four regions partitioning (Z u {+inf})^2:
D1 = {x <= y, x <= 0}, D2 = {x >= y+2, y <= -1}, D3 = {x >= 1, y >= 0},
L = {x - y = 1, x <= 0}.  c lies in p Zp exactly on D3 u L, where an adapted
lattice for the block data exists.
"""

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .linalg import Matrix
from .modules import InvariantViolation, mu_c
from .scalars import valuation


class Region(Enum):
    D1 = "D1"
    D2 = "D2"
    D3 = "D3"
    L = "L"


class RegionWithoutLattice(ValueError):
    """Regions D1 and D2 admit no adapted lattice (c is not in p Zp there)."""


def valuation_region(a, b, ctx):
    """Region of (v_p(a), v_p(b)); +inf values follow the limit reading of the
    defining inequalities."""
    if a * b == -1:
        raise ValueError("ab = -1 is excluded")
    x = valuation(a, ctx)
    y = valuation(b, ctx)
    if x >= 1 and y >= 0:
        return Region.D3
    if x <= y and x <= 0:
        return Region.D1
    if x == y + 1 and x <= 0:
        return Region.L
    if x >= y + 2 and y <= -1:
        return Region.D2
    raise InvariantViolation(f"valuations ({x}, {y}) lie in no region")


def c_in_pZp(a, b, eps, ctx):
    """v_p(c) >= 1; checked to agree with region membership in {D3, L}."""
    c = mu_c(a, b, eps, ctx.p)
    verdict = valuation(c, ctx) >= 1
    region = valuation_region(a, b, ctx)
    expected = region in (Region.D3, Region.L)
    if verdict != expected:
        raise InvariantViolation(f"v_p(c) >= 1 is {verdict} for (a, b) = ({a}, {b}) in region {region.value}")
    return verdict


@dataclass(frozen=True)
class Standard:
    pass


@dataclass(frozen=True)
class ShiftedByU:
    u: object
    n: int


@dataclass(frozen=True)
class LatticeBasis:
    vectors: tuple  # two length-2 generator vectors of the Zp-lattice
    provenance: object

    def __post_init__(self):
        (a, b), (c, d) = self.vectors
        if a * d - b * c == 0:
            raise ValueError("lattice basis is degenerate")

    def basis_matrix(self):
        return Matrix([list(v) for v in zip(*self.vectors)])  # columns are generators


def construct_lattice(a, b, eps, ctx):
    """D3: the standard lattice.  L: {e1, (e1 + u e2)/p^n} with u = bp/a and
    n = -v_p(a)."""
    region = valuation_region(a, b, ctx)
    f = Fraction
    if region is Region.D3:
        return LatticeBasis(((f(1), f(0)), (f(0), f(1))), Standard())
    if region is Region.L:
        p = ctx.p
        u = b * p / a
        n = -valuation(a, ctx)
        scale = f(1, p**n) if n >= 0 else f(p ** (-n))
        return LatticeBasis(((f(1), f(0)), (scale, u * scale)), ShiftedByU(u, n))
    raise RegionWithoutLattice(f"region {region.value} admits no adapted lattice")


def _entries_integral(M, ctx):
    return all(valuation(a, ctx) >= 0 for row in M.rows for a in row)


def verify_lattice(N, a, b, eps, ctx):
    """Condition (i): (0,-1;1,c/p) is a unit of the lattice; (ii): the block
    matrix (-pb, a; a+bc, pb) preserves it."""
    p = ctx.p
    c = mu_c(a, b, eps, ctx.p)
    B = N.basis_matrix()
    Binv = B.inverse()
    f = Fraction
    m1 = Matrix([[f(0), f(-1)], [f(1), c / p + f(0)]])
    m2 = Matrix([[-p * b + f(0), a + f(0)], [a + b * c + f(0), p * b + f(0)]])
    t1 = Binv @ m1 @ B
    if not _entries_integral(t1, ctx) or valuation(t1.det(), ctx) != 0:
        return False
    t2 = Binv @ m2 @ B
    return _entries_integral(t2, ctx)


def proof_identity_holds(a, b, eps, p):
    """a + bc = -(c + eps p + p^2 b^2)/a, the identity used in the proof."""
    if not a:
        return True
    c = mu_c(a, b, eps, p)
    return a + b * c == -(c + eps * p + p * p * b * b) / a
