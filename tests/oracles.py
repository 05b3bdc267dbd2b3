"""Reference paths for the fraction-free monodromy kernel.

These are the generic exact algorithms phimod ran before its Lie closure went
fraction-free: field arithmetic on Fraction or Cyclotomic entries through the
fully reduced echelon span `_Span`, the bracket-span derived series and the
Frobenius conjugation loop through `phi.inverse()`. They share no code with
the integer kernel over Z[zeta_m].
"""

from phimod.linalg import Matrix, _Span, bracket
from phimod.monodromy import hodge_generator, phi_central_order


def _oracle_lie_closure(generators):
    """Reduced echelon basis, as matrices, of the bracket closure of the generators."""
    n = generators[0].n
    span = _Span(n * n)
    basis = [g for g in generators if span.add(g.flatten())]
    for j, B in enumerate(basis):
        for A in basis[:j]:
            c = bracket(A, B)
            if span.add(c.flatten()):
                basis.append(c)
    return tuple(Matrix.from_flat(r, n) for r in span.rows)


def _subspace_bracket(basis):
    """Reduced echelon basis of the span of all brackets of pairs from basis."""
    n = basis[0].n
    span = _Span(n * n)
    for j, B in enumerate(basis):
        for A in basis[:j]:
            span.add(bracket(A, B).flatten())
    return [Matrix.from_flat(r, n) for r in span.rows]


def _oracle_is_solvable(basis):
    """(solvable, derived series length) of the algebra spanned by basis."""
    current = list(basis)
    if not current:
        return True, 0
    length = 0
    while True:
        derived = _subspace_bracket(current)
        length += 1
        if not derived:
            return True, length
        if len(derived) >= len(current):
            return False, length
        current = derived


def _oracle_toric_generators(D):
    """Deduplicated conjugates phi^i E phi^(-i) in field arithmetic."""
    k = phi_central_order(D.phi)
    phi_inv = D.phi.inverse()
    gens = []
    g = hodge_generator()
    for _ in range(k):
        if g not in gens:
            gens.append(g)
        g = D.phi @ g @ phi_inv
    return gens
