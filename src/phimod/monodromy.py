"""Neutral-component monodromy groups via Lie closure.

The Hodge cocharacter of a canonical-family module is diag(t,t,1,1) in the
standard basis; the neutral component is generated by its Frobenius conjugates
together with scalars, so its Lie algebra is the bracket closure of the
conjugates of E = diag(1,1,0,0).
"""

from dataclasses import dataclass
from fractions import Fraction

from .linalg import Matrix, _field_order, _int_flat, _is_scalar_flat, _normal_form, _primitive, _scalars
from .linalg import _zmatmul, is_solvable, lie_closure, row_reduce
from .modules import InvariantViolation, Iso, Mu, build_family, mu_c

class NoCentralPower(ValueError):
    """No power of phi up to the bound is scalar: the input is not supersingular."""


class ScalarsMissing(InvariantViolation):
    """The identity escaped the toric span; contradicts the worked cases."""


class UnclassifiedDimension(ValueError):
    """Lie algebra dimension outside {2, 3, 4, 7}: input off the classified corpus."""


CENTRAL_ORDER_BOUND = 48


def hodge_generator():
    """E = diag(1,1,0,0), the derivative of the cocharacter diag(t,t,1,1)."""
    f = Fraction
    return Matrix.diagonal([f(1), f(1), f(0), f(0)])


def phi_central_order(phi):
    """Smallest k >= 1 with phi^k scalar; supersingularity bounds k by 24."""
    power = phi
    for k in range(1, CENTRAL_ORDER_BOUND + 1):
        if power.is_scalar():
            return k
        power = power @ phi
    raise NoCentralPower(f"phi^k is not scalar for k <= {CENTRAL_ORDER_BOUND}")


def toric_generators(D):
    """Deduplicated conjugates phi^i E phi^(-i), 0 <= i < central order.

    The conjugates are carried fraction-free over Z[zeta_m] (Z over Q): with
    Phi = d phi integral and Phi^k = lambda I, Phi G Phi^(k-1) is a nonzero
    Q(zeta_m)-multiple of phi G phi^(-1). Each is kept in its normal form,
    which determines the conjugate, and rescaled to trace 2 (the trace of
    every conjugate of E) on the way out.
    """
    n = D.phi.n
    m = _field_order([D.phi])
    Phi = _int_flat(D.phi, m)
    # k is the central order, and tail is Phi^(k-1) up to a nonzero scale
    k, tail, power = 1, _int_flat(Matrix.identity(n), m), Phi
    while not _is_scalar_flat(power, n):
        if k == CENTRAL_ORDER_BOUND:
            raise NoCentralPower(f"phi^k is not scalar for k <= {CENTRAL_ORDER_BOUND}")
        k, tail, power = k + 1, power, _primitive(_zmatmul(power, Phi, n, m))
    seen = []
    G = _normal_form(_int_flat(hodge_generator(), m), n, m)
    for _ in range(k):
        if G not in seen:
            seen.append(G)
        G = _normal_form(_zmatmul(_zmatmul(Phi, G[0], n, m), tail, n, m), n, m)
    return [Matrix.from_flat(_scalars([2 * a for a in G], m, t), n) for G, t in seen]


def monodromy_lie(D):
    """Lie closure of the toric generators; asserts the scalars are inside."""
    L = lie_closure(toric_generators(D))
    if not L.contains(Matrix.identity(4)):
        raise ScalarsMissing("identity matrix is not in the toric closure")
    return L


@dataclass(frozen=True)
class GroupType:
    kind: str  # Gm2 | Gm3 | Ga2SemidirectGm2 | GL2 | GL2FiberDet
    dim: int
    solvable: bool

    def to_record(self):
        return {"type": self.kind, "dim": self.dim, "solvable": self.solvable}


def group_type(L):
    """(dim, solvability) -> group; dims outside {2,3,4,7} are rejected."""
    solvable, _ = is_solvable(L)
    if L.dim == 2:
        return GroupType("Gm2", 2, solvable)
    if L.dim == 3:
        return GroupType("Gm3", 3, solvable)
    if L.dim == 4:
        return GroupType("Ga2SemidirectGm2" if solvable else "GL2", 4, solvable)
    if L.dim == 7:
        return GroupType("GL2FiberDet", 7, solvable)
    raise UnclassifiedDimension(f"Lie algebra of dimension {L.dim}")


@dataclass(frozen=True)
class BlockData:
    """The 2x2 blocks S, M of the mu-family Frobenius phi = [[0, M], [I, SM]]."""

    S: Matrix
    M: Matrix
    c: object

    @classmethod
    def from_mu(cls, params, p):
        a, b, e = params.a, params.b, params.eps
        c = mu_c(a, b, e, p)
        f = Fraction
        S = Matrix([[-b + f(0), a + f(0)], [(a + b * c) / (p * p) + f(0), b + f(0)]])
        M = Matrix([[f(0), f(-p * p)], [f(1), c + f(0)]])
        return cls(S, M, c)

    def relations_hold(self, eps, p):
        """M^2 - cM + p^2 = 0, MS + SM = cS, S^2 = -((eps p + c)/p^2) I."""
        I2 = Matrix.identity(2)
        c = self.c
        ok1 = (self.M @ self.M - self.M * c + I2 * Fraction(p * p)).is_zero()
        ok2 = self.M @ self.S + self.S @ self.M == self.S * c
        ok3 = self.S @ self.S == I2 * (-(eps * p + c) / (p * p))
        return ok1 and ok2 and ok3


def _block4(tl, tr, bl, br):
    rows = []
    for i in range(2):
        rows.append(list(tl.rows[i]) + list(tr.rows[i]))
    for i in range(2):
        rows.append(list(bl.rows[i]) + list(br.rows[i]))
    return Matrix(rows)


def predicted_span(params, ctx):
    """Basis of the Lie algebra predicted for the mu- and iso-family groups."""
    p = ctx.p
    f = Fraction
    I2 = Matrix.identity(2)
    Z2 = Matrix.zeros(2)
    if isinstance(params, Iso):
        e, ep = params.eps, params.eps_prime
        S = Matrix([[f(0), f(-(e + 2 * ep) * p)], [f(1), f(0)]])
        return [
            _block4(I2, Z2, Z2, Z2),
            _block4(Z2, Z2, Z2, I2),
            _block4(Z2, S, Z2, Z2),
            _block4(Z2, Z2, S, Z2),
        ]
    if isinstance(params, Mu):
        bd = BlockData.from_mu(params, p)
        S, M = bd.S, bd.M
        if bd.c == -params.eps * p:
            return [
                _block4(I2, Z2, Z2, Z2),
                _block4(Z2, Z2, Z2, I2),
                _block4(Z2, S, Z2, Z2),
                _block4(Z2, Z2, S, Z2),
            ]
        # det-side constraint on the Lie algebra: the M-coefficients agree
        return [
            _block4(I2, Z2, Z2, Z2),
            _block4(Z2, Z2, Z2, I2),
            _block4(M, Z2, Z2, M),
            _block4(Z2, S, Z2, Z2),
            _block4(Z2, M @ S, Z2, Z2),
            _block4(Z2, Z2, S, Z2),
            _block4(Z2, Z2, S @ M, Z2),
        ]
    raise TypeError("structural span is defined for Mu and Iso families")


def structural_membership_check(params, ctx, L):
    """Every Lie-algebra basis element lies in the predicted block span."""
    span = row_reduce([M.flatten() for M in predicted_span(params, ctx)])
    return all(span.contains(B.flatten()) for B in L.basis)


def monodromy_group(params, ctx):
    """Group type of the family member's neutral monodromy component."""
    D = build_family(params, ctx)
    return group_type(monodromy_lie(D))


def is_semisimple_module(params, ctx):
    """False exactly for the non-reductive Ga2xGm2 case."""
    return monodromy_group(params, ctx).kind != "Ga2SemidirectGm2"
