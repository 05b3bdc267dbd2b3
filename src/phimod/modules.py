"""Filtered phi-modules: the canonical families, admissibility, and skew forms.

A module is (ctx, phi, fil1) with phi an invertible 4x4 matrix over the scalar
field and fil1 a 2-dimensional subspace; the filtration jumps only at 0 and 1,
so fil1 carries all the information.
"""

from dataclasses import dataclass
from fractions import Fraction

from . import polys, weil
from .linalg import Matrix, SubspaceBasis, kernel, row_reduce, solve
from .scalars import (
    PrimeContext,
    as_pair,
    field_sqrt,
    scalar_from_str,
    scalar_to_str,
    valuation,
)


class DegenerateDenominator(ZeroDivisionError):
    """The mu-family needs ab != -1."""


class PreconditionFailed(ValueError):
    pass


class InadmissibleModule(ValueError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"fil1 is phi-stable; witness vector {witness}")


class OracleDisagreement(AssertionError):
    """The fil1-stability verdict and the t_H <= t_N sweep disagreed."""


@dataclass(frozen=True)
class FilteredPhiModule:
    ctx: PrimeContext
    phi: Matrix
    fil1: SubspaceBasis

    def __post_init__(self):
        if self.phi.n != 4:
            raise ValueError("phi must be 4x4")
        if not self.phi.det():
            raise ValueError("phi must be invertible")
        if self.fil1.dim != 2 or self.fil1.ambient != 4:
            raise ValueError("fil1 must be a 2-dimensional subspace of dimension-4 space")


# -- canonical families -------------------------------------------------------

@dataclass(frozen=True)
class Prod:
    eps_prime: int

    def __post_init__(self):
        if self.eps_prime not in (1, -1):
            raise ValueError("eps_prime must be +1 or -1")


@dataclass(frozen=True)
class Iso:
    eps: int
    eps_prime: int

    def __post_init__(self):
        _check_eps(self.eps)
        if self.eps_prime not in (1, -1):
            raise ValueError("eps_prime must be +1 or -1")


@dataclass(frozen=True)
class Nu:
    eps: int
    a_prime: object

    def __post_init__(self):
        _check_eps(self.eps)


@dataclass(frozen=True)
class Mu:
    eps: int
    a: object
    b: object

    def __post_init__(self):
        _check_eps(self.eps)
        if self.a * self.b == -1:
            raise DegenerateDenominator("ab = -1")


def _check_eps(eps):
    if eps not in (0, 1, -1):
        raise ValueError("eps must be -1, 0 or +1")


FamilyParams = (Prod, Iso, Nu, Mu)


def standard_fil1():
    return SubspaceBasis(
        [
            (Fraction(1), Fraction(0), Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(1), Fraction(0), Fraction(0)),
        ]
    )


def mu_c(a, b, eps, p):
    """c = -(a^2 + eps*p + b^2 p^2) / (ab + 1)."""
    den = a * b + 1
    if not den:
        raise DegenerateDenominator("ab = -1")
    return -(a * a + eps * p + b * b * p * p) / den


def build_family(params, ctx):
    """The filtered phi-module of the cited canonical family definition."""
    p = ctx.p
    f = Fraction
    if isinstance(params, Prod):
        ep = params.eps_prime
        phi = Matrix(
            [
                [f(0), f(0), f(ep * p), f(0)],
                [f(0), f(0), f(0), f(ep * p)],
                [f(1), f(0), f(0), f(0)],
                [f(0), f(1), f(0), f(0)],
            ]
        )
    elif isinstance(params, Iso):
        ep, e = params.eps_prime, params.eps
        phi = Matrix(
            [
                [f(0), f(0), f(ep * p), f(0)],
                [f(0), f(0), f(0), f(ep * p)],
                [f(1), f(0), f(0), f(-(e + 2 * ep) * p)],
                [f(0), f(1), f(1), f(0)],
            ]
        )
    elif isinstance(params, Nu):
        e, a = params.eps, params.a_prime
        phi = Matrix(
            [
                [f(0), f(0), f(0), f(1)],
                [f(-p * p), f(0), f(0), f(0)],
                [f(0), f(1), f(0), -a + f(0)],
                [a - e * p + f(0), f(0), f(1), f(0)],
            ]
        )
    elif isinstance(params, Mu):
        e, a, b = params.eps, params.a, params.b
        c = mu_c(a, b, e, p)
        d = a * c + b * p * p
        phi = Matrix(
            [
                [f(0), f(0), f(0), f(-p * p)],
                [f(0), f(0), f(1), c + f(0)],
                [f(1), f(0), a + f(0), d + f(0)],
                [f(0), f(1), b + f(0), -a + f(0)],
            ]
        )
    else:
        raise TypeError(f"unknown family params {params!r}")
    return FilteredPhiModule(ctx, phi, standard_fil1())


def validate_geometric_params(params, ctx):
    """The parameter-table conditions under which the family member arises
    from an abelian surface: a' in eps*p + p^2 Zp; v(a) >= 1 and v(b) >= 0,
    or v(a) = v(b) + 1."""
    if isinstance(params, (Prod, Iso)):
        return True
    if isinstance(params, Nu):
        return valuation(params.a_prime - params.eps * ctx.p + Fraction(0), ctx) >= 2
    if isinstance(params, Mu):
        va = valuation(params.a, ctx)
        vb = valuation(params.b, ctx)
        return (va >= 1 and vb >= 0) or va == vb + 1
    raise TypeError(f"unknown family params {params!r}")


# -- S1/S2 and admissibility --------------------------------------------------

@dataclass(frozen=True)
class S1S2Report:
    s1: bool
    s2: bool
    chi: tuple
    label: str | None
    semisimple: bool

    @property
    def ok(self):
        return self.s1 and self.s2


def _integer_chi(chi):
    out = []
    for c in chi:
        u, v = as_pair(c)
        if v != 0 or u.denominator != 1:
            return None
        out.append(int(u))
    return tuple(out)


def check_s1_s2(D):
    """S1: dimension bookkeeping.  S2: chi is a supersingular p-Weil polynomial
    and phi is semisimple (squarefree minimal polynomial)."""
    from .linalg import char_poly, is_semisimple

    s1 = D.phi.n == 4 and D.fil1.dim == 2
    chi = char_poly(D.phi)
    ichi = _integer_chi(chi)
    label = weil.label_of(ichi, D.ctx.p) if ichi is not None else None
    # squarefree chi already forces a squarefree minimal polynomial
    semisimple = polys.is_squarefree(chi) or is_semisimple(D.phi)
    s2 = label is not None and semisimple
    return S1S2Report(s1, s2, tuple(chi), label, semisimple)


def quadratic_factors(chi, ctx):
    """Monic degree-2 factors of chi over the scalar field, with multiplicity.

    For the five supersingular forms, chi = X^4 + c2 X^2 + c0 and the only
    quadratic factors are X^2 - y for roots y of Y^2 + c2 Y + c0 (ramified
    factorizations cannot exist over an unramified field).
    """
    c0, c1, c2, c3, c4 = chi
    if c1 != 0 or c3 != 0 or c4 != 1:
        raise ValueError("chi is not one of the supersingular forms")
    disc = c2 * c2 - 4 * c0
    s = field_sqrt(disc, ctx.m)
    if s is None:
        return []
    y1 = (-c2 + s) / 2
    y2 = (-c2 - s) / 2
    if y1 == y2:
        return [((-y1, Fraction(0), Fraction(1)), 2)]
    return [((-y1, Fraction(0), Fraction(1)), 1), ((-y2, Fraction(0), Fraction(1)), 1)]


@dataclass(frozen=True)
class AdmissibilityReport:
    admissible: bool
    witness: tuple | None  # fil1 vector with phi(v) escaping fil1, when admissible
    hodge_newton: tuple  # (t_H, t_N) per tested phi-stable plane


def _restriction_det(phi, plane):
    cols = list(plane.vectors)
    images = [phi.apply(v) for v in cols]
    m = []
    for img in images:
        coeffs = solve(cols, img)
        assert coeffs is not None, "plane is not phi-stable"
        m.append(coeffs)
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def is_admissible(D):
    """Admissible iff fil1 is not phi-stable; cross-checked against the
    t_H <= t_N sweep over the phi-stable planes."""
    rep = check_s1_s2(D)
    if not rep.ok:
        raise PreconditionFailed(f"S1/S2 fail: {rep}")
    images = [D.phi.apply(v) for v in D.fil1.vectors]
    escaping = [v for v, img in zip(D.fil1.vectors, images) if not D.fil1.contains(img)]
    admissible = bool(escaping)
    witness = escaping[0] if escaping else None

    planes = []
    for (g, mult) in quadratic_factors(rep.chi, D.ctx):
        gphi = polys.eval_matrix(list(g), D.phi)
        ker = kernel(gphi)
        if len(ker) == 2:
            planes.append(SubspaceBasis(ker))
        elif len(ker) == 4:
            # minimal polynomial of degree 2: every span(v, phi v) is stable;
            # only those meeting fil1 in dimension 2 can violate t_H <= t_N
            b1, b2 = D.fil1.vectors
            both = tuple(x + y for x, y in zip(b1, b2))
            for v in (b1, b2, both):
                pv = D.phi.apply(v)
                cand = row_reduce([v, pv])
                if cand.dim == 2:
                    planes.append(cand)
    seen = set()
    pairs = []
    sweep_ok = True
    for plane in planes:
        if plane.vectors in seen:
            continue
        seen.add(plane.vectors)
        t_h = plane.intersection_dim(D.fil1)
        t_n = valuation(_restriction_det(D.phi, plane), D.ctx)
        pairs.append((t_h, t_n))
        if t_h > t_n:
            sweep_ok = False
    if sweep_ok != admissible:
        raise OracleDisagreement(
            f"stability verdict {admissible} vs t_H<=t_N sweep {sweep_ok}"
        )
    return AdmissibilityReport(admissible, witness, tuple(pairs))


# -- cyclic presentation ------------------------------------------------------

def cyclic_presentation(D, skip=0):
    """(x, orbit matrix, coefficients of y) with fil1 = span(x, y) and
    y = sum(c_j phi^j x).

    Deterministic search: fil1 echelon vectors, their sum, then integer
    combinations of height <= 3.  `skip` ignores the first `skip` usable
    candidates (test hook for basis independence).
    """
    b1, b2 = D.fil1.vectors
    found = 0
    for x in _cyclic_candidates(b1, b2):
        orbit = [x]
        for _ in range(3):
            orbit.append(D.phi.apply(orbit[-1]))
        if row_reduce(orbit).dim != 4:
            continue
        if found < skip:
            found += 1
            continue
        y = b2 if row_reduce([x, b1]).dim == 1 else b1  # pick the generator not parallel to x
        coeffs = solve(orbit, y)
        assert coeffs is not None
        return x, orbit, tuple(coeffs)
    raise NoCyclicVector("no cyclic vector found in fil1")


def _cyclic_candidates(b1, b2):
    """Candidate cyclic vectors in search order, built lazily: the first one
    is nearly always cyclic, so the rest are seldom needed."""
    yield b1
    yield b2
    yield tuple(x + y for x, y in zip(b1, b2))
    for i in range(-3, 4):
        for j in range(-3, 4):
            if (i, j) in ((1, 0), (0, 1), (1, 1)) or (i == 0 and j == 0):
                continue
            yield tuple(i * x + j * y for x, y in zip(b1, b2))


class NoCyclicVector(AssertionError):
    """Cannot happen for admissible inputs; kept as an internal assertion."""


# -- skew forms ---------------------------------------------------------------

@dataclass(frozen=True)
class SkewForm:
    gram: Matrix
    basis: Matrix  # columns are the designated basis vectors
    basis_note: str


def _chi_shape(D):
    """('prod', eps') or ('eps', eps) for an S2-valid module."""
    from .linalg import char_poly

    chi = _integer_chi(char_poly(D.phi))
    if chi is None:
        raise PreconditionFailed("chi has non-integer coefficients")
    p = D.ctx.p
    label = weil.label_of(chi, p)
    if label == "ProdPlus":
        return "prod", 1
    if label == "ProdMinus":
        return "prod", -1
    if label is not None:
        return "eps", chi[2] // p
    raise PreconditionFailed("chi is not a supersingular p-Weil polynomial")


def construct_skew_form(D, point=None):
    """Nondegenerate skew form with phi a p-similitude and fil1 isotropic.

    Prod case: the antidiagonal form on the basis (x, y, phi x, phi y).
    eps case: the orbit-basis form with (x1, x2) solving
    (a1 - (eps-1) p a3) x1 + a2 x2 = 0 and x3 = (1 - eps) p x1.
    """
    kind, e = _chi_shape(D)
    f = Fraction
    p = D.ctx.p
    if kind == "prod":
        x, y = D.fil1.vectors
        cols = [x, y, D.phi.apply(x), D.phi.apply(y)]
        basis = Matrix.from_columns(cols)
        if not basis.det():
            raise PreconditionFailed("fil1 meets phi(fil1); module is not admissible")
        gram = Matrix(
            [
                [f(0), f(0), f(0), f(1)],
                [f(0), f(0), f(-e), f(0)],
                [f(0), f(e), f(0), f(0)],
                [f(-1), f(0), f(0), f(0)],
            ]
        )
        return SkewForm(gram, basis, "prod-basis (x, y, phi x, phi y)")
    x, orbit, coeffs = cyclic_presentation(D)
    a1, a2, a3 = coeffs[1], coeffs[2], coeffs[3]
    if point is not None:
        from .classify import ModuliPoint

        if ModuliPoint.of(a1, a2, a3) != ModuliPoint.of(*point.coords):
            raise ValueError("supplied point does not match the canonical presentation")
    x1 = -a2 + f(0)
    x2 = a1 - (e - 1) * p * a3 + f(0)
    if not x1 and not x2:
        x1, x2 = f(1), f(0)
    else:
        lead = x1 if x1 else x2
        x1, x2 = x1 / lead, x2 / lead
    x3 = (1 - e) * p * x1
    gram = Matrix(
        [
            [f(0), x1, x2, x3],
            [-x1, f(0), p * x1, p * x2],
            [-x2, -p * x1, f(0), p * p * x1],
            [-x3, -p * x2, -p * p * x1, f(0)],
        ]
    )
    basis = Matrix.from_columns(orbit)
    return SkewForm(gram, basis, "orbit basis (x, phi x, phi^2 x, phi^3 x)")


def verify_s3(D, form):
    """det(gram) != 0, delta(phi u, phi v) = p delta(u, v), fil1 isotropic."""
    G = form.gram
    if any(G.rows[i][j] != -G.rows[j][i] for i in range(4) for j in range(4)):
        raise ValueError("gram matrix is not antisymmetric")
    if not G.det():
        return False
    Binv = form.basis.inverse()
    phi_b = Binv @ D.phi @ form.basis
    if phi_b.transpose() @ G @ phi_b != G * Fraction(D.ctx.p):
        return False
    fil_b = [Binv.apply(v) for v in D.fil1.vectors]
    for u in fil_b:
        for w in fil_b:
            if sum(ui * sum(g * wj for g, wj in zip(row, w)) for ui, row in zip(u, G.rows)):
                return False
    return True


# -- serialization ------------------------------------------------------------

def module_to_record(D):
    return {
        "p": D.ctx.p,
        "m": D.ctx.m,
        "precision": D.ctx.precision,
        "phi": [scalar_to_str(a) for row in D.phi.rows for a in row],
        "fil1": [scalar_to_str(a) for v in D.fil1.vectors for a in v],
    }


def _check_record(rec):
    """ValueError naming the first field of a module record with the wrong shape."""
    if not isinstance(rec, dict):
        raise ValueError("module record must be a JSON object")
    for key in ("p", "phi", "fil1"):
        if key not in rec:
            raise ValueError(f"module record has no {key!r} field")
    for key in ("p", "m", "precision"):
        if key in rec and type(rec[key]) is not int:
            raise ValueError(f"{key} must be an integer")
    for key, size in (("phi", 16), ("fil1", 8)):
        if not isinstance(rec[key], list) or not all(isinstance(s, str) for s in rec[key]):
            raise ValueError(f"{key} must be a list of scalar strings such as \"1/2\"")
        if len(rec[key]) != size:
            raise ValueError(f"{key} must have {size} entries")


def module_from_record(rec):
    _check_record(rec)
    ctx = PrimeContext(rec["p"], rec.get("m", 1), rec.get("precision", 32))
    phi = Matrix.from_flat(tuple(scalar_from_str(s, ctx.m) for s in rec["phi"]), 4)
    fil = [scalar_from_str(s, ctx.m) for s in rec["fil1"]]
    fil1 = row_reduce([tuple(fil[:4]), tuple(fil[4:])])
    if fil1.dim != 2:
        raise ValueError("fil1 rows are dependent")
    return FilteredPhiModule(ctx, phi, fil1)
