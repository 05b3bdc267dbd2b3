"""The Grassmannian/GIT layer: Plucker coordinates, the intrinsic trace
definition of c, the diagonal-eigenbasis quotient formula, semistability, and
the invariant-ring verification.
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .classify import CInvariant, ModuliPoint
from .linalg import Matrix, row_reduce, solve
from .modules import DegenerateDenominator, InvariantViolation
from .scalars import normalize


class NotSemistable(ValueError):
    """Both invariant sections vanish at the point."""


@dataclass(frozen=True)
class EigenData:
    """Pairwise distinct nonzero eigenvalues of a diagonal Frobenius model."""

    lambdas: tuple

    def __post_init__(self):
        if len(self.lambdas) != 4:
            raise ValueError("four eigenvalues expected")
        if len(set(self.lambdas)) != 4 or not all(self.lambdas):
            raise ValueError("eigenvalues must be pairwise distinct and nonzero")

    def __iter__(self):
        return iter(self.lambdas)


_PAIRS = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))


class PluckerPoint:
    """Projective Plucker coordinates (x12, x13, x14, x23, x24, x34)."""

    __slots__ = ("coords",)

    def __init__(self, coords, check=True):
        coords = tuple(c + Fraction(0) for c in coords)
        if len(coords) != 6:
            raise ValueError("six Plucker coordinates expected")
        lead = next((c for c in coords if c), None)
        if lead is None:
            raise ValueError("coordinates must not all vanish")
        coords = tuple(normalize(c / lead) for c in coords)
        if check:
            x12, x13, x14, x23, x24, x34 = coords
            if x12 * x34 - x13 * x24 + x14 * x23 != 0:
                raise ValueError("Plucker relation fails")
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, *a):
        raise AttributeError("PluckerPoint is immutable")

    def __getitem__(self, pair):
        return self.coords[_PAIRS.index(pair)]

    def __eq__(self, other):
        if not isinstance(other, PluckerPoint):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return f"Plucker{self.coords}"


def plucker_of_plane(basis):
    """Plucker coordinates of the plane spanned by two 4-vectors."""
    u, v = basis
    return PluckerPoint([u[i - 1] * v[j - 1] - u[j - 1] * v[i - 1] for i, j in _PAIRS])


def iota(P):
    """Closed immersion P^2 -> Gr(2,4): the plane span(e1, (0, t1, t2, t3)).

    Returns (PluckerPoint, plane basis).
    """
    t1, t2, t3 = P.coords
    f = Fraction
    plane = ((f(1), f(0), f(0), f(0)), (f(0), t1 + f(0), t2 + f(0), t3 + f(0)))
    return plucker_of_plane(plane), plane


def nu_map(a_prime):
    return ModuliPoint.of(a_prime, 0, 1)


def mu_map(a, b, eps, p):
    """(a, b) -> [-(a + eps p a b^2 - b^3 p^2)/(ab+1) : 1 : -b]."""
    den = a * b + 1
    if not den:
        raise DegenerateDenominator("ab = -1")
    return ModuliPoint.of(-(a + eps * p * a * b * b - b**3 * p * p) / den, 1, -b + Fraction(0))


def mu_inverse(P, eps, p):
    """The unique (a, b) with mu(a, b) = P, for P in the chart y != 0 with
    finite c."""
    x, y, z = P.coords
    if not y:
        raise ValueError("mu chart needs y != 0")
    x, z = x / y, z / y
    b = -z
    den = x * b + eps * p * b * b + 1
    if not den:
        raise ValueError("point lies on the c = infinity locus")
    a = (b**3 * p * p - x) / den
    if a * b == -1:
        raise InvariantViolation(f"mu_inverse of {P} gives ab = -1")
    return normalize(a + Fraction(0)), normalize(b + Fraction(0))


def companion_phi(eps, p):
    """The degree-4 companion Frobenius with chi = X^4 + eps p X^2 + p^2."""
    f = Fraction
    return Matrix(
        [
            [f(0), f(0), f(0), f(-p * p)],
            [f(1), f(0), f(0), f(0)],
            [f(0), f(1), f(0), f(-eps * p)],
            [f(0), f(0), f(1), f(0)],
        ]
    )


def c_intrinsic(phi, plane):
    """trace of (projection onto V along phi V) composed with phi^2, restricted
    to V; infinity when V + phi V is not the whole space."""
    v1, v2 = plane
    w1, w2 = phi.apply(v1), phi.apply(v2)
    cols = [v1, v2, w1, w2]
    if row_reduce(cols).dim != 4:
        return CInvariant.infinity()
    t = Fraction(0)
    for i, v in enumerate((v1, v2)):
        coeffs = solve(cols, phi.apply(phi.apply(v)))
        t = t + coeffs[i]
    return CInvariant.finite(t)


def extension_sections(phi, plane):
    """The section pair (s1, s2) with c = s1/s2 on the domain of definition:
    s2 = det(u, v, phi u, phi v) and s1 = det(phi^2 u, v, phi u, phi v)
    + det(u, phi^2 v, phi u, phi v).  The common zero locus is the complement
    of the domain of definition of c."""
    u, v = plane
    pu, pv = phi.apply(u), phi.apply(v)
    ppu, ppv = phi.apply(pu), phi.apply(pv)
    s2 = Matrix.from_columns([u, v, pu, pv]).det()
    s1 = Matrix.from_columns([ppu, v, pu, pv]).det() + Matrix.from_columns([u, ppv, pu, pv]).det()
    return s1, s2


def is_phi_stable_plane(phi, plane):
    return row_reduce(list(plane) + [phi.apply(v) for v in plane]).dim == 2


def c_domain_matches_stability(phi, plane):
    """Sampled check: c extends at the plane iff the plane is not phi-stable."""
    s1, s2 = extension_sections(phi, plane)
    return (bool(s1) or bool(s2)) == (not is_phi_stable_plane(phi, plane))


def plucker_c(lambdas, X):
    """The GIT quotient coordinate [s1 : s2] in the diagonal eigenbasis.

    s1 = (l1 l3 + l2 l4)(l1-l3)(l2-l4) x14 x23 - (l1 l4 + l2 l3)(l1-l4)(l2-l3) x13 x24
    s2 = -(l1-l3)(l2-l4) x14 x23 + (l1-l4)(l2-l3) x13 x24
    """
    l1, l2, l3, l4 = lambdas
    if len({l1, l2, l3, l4}) != 4:
        raise ValueError("eigenvalues must be pairwise distinct")
    a = (l1 - l3) * (l2 - l4)
    b = (l1 - l4) * (l2 - l3)
    m14 = X[(1, 4)] * X[(2, 3)]
    m13 = X[(1, 3)] * X[(2, 4)]
    s1 = (l1 * l3 + l2 * l4) * a * m14 - (l1 * l4 + l2 * l3) * b * m13
    s2 = -a * m14 + b * m13
    if not s1 and not s2:
        raise NotSemistable("both invariant sections vanish")
    return (s1, s2)


def plucker_c_value(lambdas, X):
    s1, s2 = plucker_c(lambdas, X)
    if not s2:
        return CInvariant.infinity()
    return CInvariant.finite(s1 / s2)


def git_coefficient_det(lambdas):
    """Determinant of the 2x2 coefficient matrix of the quotient sections;
    equals prod_{i<j} (lambda_i - lambda_j)."""
    l1, l2, l3, l4 = lambdas
    a = (l1 - l3) * (l2 - l4)
    b = (l1 - l4) * (l2 - l3)
    return (l1 * l3 + l2 * l4) * a * b - (l1 * l4 + l2 * l3) * b * a


def vandermonde_product(lambdas):
    out = Fraction(1)
    for i in range(4):
        for j in range(i + 1, 4):
            out *= lambdas[i] - lambdas[j]
    return out


def is_semistable(X):
    """Not both x12 x34 = 0 and x13 x24 = 0."""
    return bool(X[(1, 2)] * X[(3, 4)]) or bool(X[(1, 3)] * X[(2, 4)])


# -- invariant ring -----------------------------------------------------------

@dataclass
class DegreeReport:
    degree: int
    invariant_monomials: list
    dimension_mod_relation: int


@dataclass
class InvariantRingReport:
    degrees: list = field(default_factory=list)
    violations: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.violations


def _weights(exps):
    """Phi_k(d): the exponent sum at each of the four indices."""
    w = [0, 0, 0, 0]
    for (i, j), e in zip(_PAIRS, exps):
        w[i - 1] += e
        w[j - 1] += e
    return tuple(w)


def _monomials(total):
    """All exponent 6-tuples of the given total degree."""
    def rec(k, rem):
        if k == 5:
            yield (rem,)
            return
        for e in range(rem + 1):
            for rest in rec(k + 1, rem - e):
                yield (e,) + rest
    return rec(0, total)


def _reduce_mod_plucker(exps):
    """Rewrite the monomial as a polynomial in u = x12 x34, w = x14 x23 using
    x13 x24 = u + w; valid for torus-invariant monomials."""
    a, b, c = exps[0], exps[1], exps[2]  # powers of u, x13x24, w blocks
    # invariant monomials have exps = (a, b, c, c, b, a)
    out = {}
    for k in range(b + 1):
        coeff = _binom(b, k)
        key = (a + k, c + b - k)
        out[key] = out.get(key, 0) + coeff
    return out


def _binom(n, k):
    r = 1
    for i in range(k):
        r = r * (n - i) // (i + 1)
    return r


def verify_invariant_ring(max_degree):
    """Mechanical check of the torus-invariant subalgebra of the Plucker ring.

    Per total degree d <= max_degree: the weight-trivial monomials are exactly
    the products of the three perfect matchings x12x34, x13x24, x14x23; modulo
    the Plucker relation they span the degree-d part of Q[x12x34, x14x23]; and
    the exponent sets D and E_n are disjoint for n >= 1.
    """
    report = InvariantRingReport()
    for d in range(1, max_degree + 1):
        invariant = [e for e in _monomials(d) if len(set(_weights(e))) == 1]
        for e in invariant:
            if not (e[0] == e[5] and e[1] == e[4] and e[2] == e[3]):
                report.violations.append(("not-a-matching-product", d, e))
        n = d // 2
        dim = 0
        if invariant:
            keys = sorted({(i, n - i) for i in range(n + 1)})
            vecs = []
            for e in invariant:
                red = _reduce_mod_plucker((e[0], e[1], e[2]))
                vecs.append([Fraction(red.get(k, 0)) for k in keys])
            dim = row_reduce(vecs).dim
            if dim != n + 1:
                report.violations.append(("wrong-dimension", d, dim, n + 1))
        if d % 2 == 1 and invariant:
            report.violations.append(("odd-degree-invariant", d, invariant))
        report.degrees.append(DegreeReport(d, invariant, dim))
    # D cap E_n = empty for 4n <= 2 * max_degree
    for n in range(1, max_degree // 2 + 1):
        for e in _monomials(2 * n):
            if len(set(_weights(e))) == 1 and _weights(e)[0] == n:
                if e[0] * e[5] == 0 and e[1] * e[4] == 0 and e[2] * e[3] == 0:
                    report.violations.append(("D-meets-E", n, e))
    return report


# -- cross-checks --------------------------------------------------------------

@dataclass
class CrosscheckReport:
    trials: int
    mismatches: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.mismatches


def crosscheck_c_definitions(trials, seed=0):
    """Random distinct rational eigenvalues and random semistable planes: the
    trace definition of c agrees with the Plucker quotient formula as points
    of P^1."""
    rng = random.Random(seed)
    report = CrosscheckReport(trials)
    done = 0
    while done < trials:
        lambdas = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4))
        if len(set(lambdas)) != 4 or not all(lambdas):
            continue
        plane = tuple(
            tuple(Fraction(rng.randint(-5, 5)) for _ in range(4)) for _ in range(2)
        )
        if row_reduce(plane).dim != 2:
            continue
        X = plucker_of_plane(plane)
        phi = Matrix.diagonal(list(lambdas))
        intrinsic = c_intrinsic(phi, plane)
        if not is_semistable(X):
            try:
                plucker_c(lambdas, X)
                report.mismatches.append((lambdas, plane, "plucker_c defined off Y^ss"))
            except NotSemistable:
                if not intrinsic.is_infinity:
                    report.mismatches.append((lambdas, plane, "finite trace off Y^ss"))
            done += 1
            continue
        value = plucker_c_value(lambdas, X)
        if value != intrinsic:
            report.mismatches.append((lambdas, plane, str(intrinsic), str(value)))
        done += 1
    return report
