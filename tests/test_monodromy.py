import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from phimod.linalg import Matrix, bracket, is_solvable, lie_closure, row_reduce
from phimod.moduli import companion_phi
from phimod.modules import Iso, Mu, Nu, Prod, build_family
from phimod.monodromy import (
    BlockData,
    NoCentralPower,
    UnclassifiedDimension,
    group_type,
    hodge_generator,
    is_semisimple_module,
    monodromy_group,
    monodromy_lie,
    phi_central_order,
    predicted_span,
    structural_membership_check,
    toric_generators,
)
from phimod.scalars import Cyclotomic, PrimeContext, zeta

from oracles import _oracle_is_solvable, _oracle_lie_closure, _oracle_toric_generators

f = Fraction
CTX7 = PrimeContext(7)
CTX73 = PrimeContext(7, 3)
CTX13M4 = PrimeContext(13, 4)


def test_phi_central_order_examples():
    assert phi_central_order(build_family(Prod(1), CTX7).phi) == 2  # phi^2 = eps' p
    assert phi_central_order(companion_phi(0, 7)) == 4  # phi^4 = -p^2
    assert phi_central_order(Matrix.identity(4)) == 1
    assert phi_central_order(companion_phi(1, 7)) == 6
    assert phi_central_order(companion_phi(-1, 7)) == 6
    with pytest.raises(NoCentralPower):
        phi_central_order(Matrix.diagonal([f(1), f(2), f(3), f(4)]))


def test_toric_generators_prod():
    gens = toric_generators(build_family(Prod(1), CTX7))
    assert gens == [
        Matrix.diagonal([f(1), f(1), f(0), f(0)]),
        Matrix.diagonal([f(0), f(0), f(1), f(1)]),
    ]


def test_toric_generators_nu00():
    gens = toric_generators(build_family(Nu(0, f(0)), CTX7))
    assert len(gens) == 4
    for g in gens:  # idempotent projectors
        assert g @ g == g
    assert row_reduce([g.flatten() for g in gens]).dim == 3


def test_toric_generators_iso_display():
    # phi E phi^(-1) = [[0, 0], [-(eps'/p) S, I2]] with S = [[0, -(eps+2eps')p], [1, 0]]
    for eps in (-1, 0, 1):
        for ep in (1, -1):
            D = build_family(Iso(eps, ep), CTX7)
            gens = toric_generators(D)
            S = Matrix([[f(0), f(-(eps + 2 * ep) * 7)], [f(1), f(0)]])
            coeff = f(-ep, 7)
            expected = Matrix(
                [
                    [f(0), f(0), f(0), f(0)],
                    [f(0), f(0), f(0), f(0)],
                    [coeff * S.rows[0][0], coeff * S.rows[0][1], f(1), f(0)],
                    [coeff * S.rows[1][0], coeff * S.rows[1][1], f(0), f(1)],
                ]
            )
            assert gens[1] == expected


def test_monodromy_dimensions():
    assert monodromy_group(Prod(1), CTX7).dim == 2
    assert monodromy_group(Prod(-1), CTX7).dim == 2
    assert monodromy_group(Nu(0, f(0)), CTX7).dim == 3
    assert monodromy_group(Nu(0, f(49)), CTX7).dim == 7
    assert monodromy_group(Nu(1, f(7)), CTX7).dim == 7  # a' = eps p != 0
    g = monodromy_group(Iso(0, 1), CTX7)
    assert g.dim == 4 and not g.solvable and g.kind == "GL2"
    g = monodromy_group(Mu(1, -7 * zeta(3), Cyclotomic(1)), CTX73)
    assert g.dim == 4 and g.solvable and g.kind == "Ga2SemidirectGm2"
    assert monodromy_group(Mu(0, f(0), f(0)), CTX7).kind == "Gm2"
    assert monodromy_group(Mu(0, f(7), f(0)), CTX7).kind == "GL2FiberDet"


def test_group_type_mapping():
    E12 = Matrix([[0, 1], [0, 0]])
    E21 = Matrix([[0, 0], [1, 0]])
    sl2 = lie_closure([E12, E21])
    assert group_type(sl2).kind == "Gm3"  # mapping keys on the dimension alone
    with pytest.raises(UnclassifiedDimension):
        group_type(lie_closure([Matrix.identity(4)]))  # dim 1 is off the corpus


def test_structural_membership():
    for params, ctx in (
        (Mu(0, f(7), f(0)), CTX7),
        (Iso(0, 1), CTX7),
        (Mu(1, -7 * zeta(3), Cyclotomic(1)), CTX73),
        (Mu(-1, f(7), f(2)), CTX7),
    ):
        L = monodromy_lie(build_family(params, ctx))
        assert structural_membership_check(params, ctx, L)
    # a deliberate mismatch: iso span against a mu module of a different class
    L = monodromy_lie(build_family(Mu(0, f(7), f(0)), CTX7))
    assert not structural_membership_check(Iso(0, 1), CTX7, L)


def test_predicted_span_dimensions():
    assert len(predicted_span(Iso(0, 1), CTX7)) == 4
    assert len(predicted_span(Mu(0, f(7), f(0)), CTX7)) == 7
    assert len(predicted_span(Mu(0, f(0), f(0)), CTX7)) == 4  # c = -eps p branch


def test_block_data_relations():
    rng = random.Random(17)
    done = 0
    while done < 100:
        a = f(rng.randint(-9, 9), rng.randint(1, 4))
        b = f(rng.randint(-9, 9), rng.randint(1, 4))
        if a * b == -1:
            continue
        eps = rng.choice((-1, 0, 1))
        bd = BlockData.from_mu(Mu(eps, a, b), 7)
        assert bd.relations_hold(eps, 7)
        done += 1


def test_is_semisimple_examples():
    assert is_semisimple_module(Prod(-1), CTX7)
    assert not is_semisimple_module(Mu(1, -7 * zeta(3), Cyclotomic(1)), CTX73)
    assert is_semisimple_module(Iso(0, 1), CTX7)


def test_closure_conjugation_stable():
    for params in (Nu(0, f(49)), Mu(0, f(7), f(2)), Iso(1, -1)):
        D = build_family(params, CTX7)
        L = monodromy_lie(D)
        phi_inv = D.phi.inverse()
        for B in L.basis:
            assert L.contains(D.phi @ B @ phi_inv)


def test_closure_closed_under_bracket():
    for params in (Nu(0, f(49)), Iso(0, 1), Mu(-1, f(7), f(1, 2))):
        L = monodromy_lie(build_family(params, CTX7))
        for A in L.basis:
            for B in L.basis:
                assert L.contains(bracket(A, B))


def test_abelian_closures():
    for params in (Prod(1), Prod(-1), Nu(0, f(0))):
        L = monodromy_lie(build_family(params, CTX7))
        for A in L.basis:
            for B in L.basis:
                assert bracket(A, B).is_zero()


def test_identity_in_closure():
    for params in (Prod(1), Nu(0, f(0)), Nu(0, f(49)), Mu(0, f(7), f(0)), Iso(0, 1)):
        L = monodromy_lie(build_family(params, CTX7))
        assert L.contains(Matrix.identity(4))


def test_dimension_stable_under_field_extension():
    # recomputing a rational mu-closure over Q(zeta_4) changes nothing
    ctx13 = PrimeContext(13)
    for a, b in ((f(13), f(0)), (f(13), f(2)), (f(0), f(0))):
        g_plain = monodromy_group(Mu(0, a, b), ctx13)
        g_ext = monodromy_group(Mu(0, Cyclotomic(a), Cyclotomic(b)), CTX13M4)
        assert (g_plain.dim, g_plain.solvable) == (g_ext.dim, g_ext.solvable)


def test_hodge_generator_shape():
    E = hodge_generator()
    assert E @ E == E
    assert E.trace() == 2


def _conjugates_in_permuted_basis(D, count):
    """phi^i E phi^(-i) rewritten in the basis (e1, e3, e2, e4)."""
    perm = Matrix([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    phi_inv = D.phi.inverse()
    out = []
    g = hodge_generator()
    for _ in range(count + 1):
        out.append(perm @ g @ perm)
        g = D.phi @ g @ phi_inv
    return out


def test_nu_conjugates_match_worked_matrices():
    # the i = 1, 2, 5 Frobenius conjugates of the cocharacter derivative for
    # the nu family, written in the (e1, e3, e2, e4) basis; at eps = 0 the
    # sequence cycles with period 4 (phi^4 = -p^2), so only i = 1, 2 apply
    p = 7
    for eps in (-1, 0, 1):
        for t in (f(1), f(-2), f(1, 3)):
            a = eps * p + p * p * t
            D = build_family(Nu(eps, a), CTX7)
            conj = _conjugates_in_permuted_basis(D, 6)
            i1 = Matrix(
                [
                    [f(0), f(0), f(0), f(0)],
                    [a, f(1), f(0), f(0)],
                    [f(0), f(0), f(1), f(0)],
                    [f(0), f(0), (-a + eps * p) / f(p * p), f(0)],
                ]
            )
            assert conj[1] == i1
            i2 = Matrix(
                [
                    [(-a * a + a * eps * p) / f(p * p), (-a + eps * p) / f(p * p), f(0), f(0)],
                    [
                        (a**3 + a * p * p - a * a * eps * p) / f(p * p),
                        (a * a + p * p - a * eps * p) / f(p * p),
                        f(0),
                        f(0),
                    ],
                    [f(0), f(0), f(0), f(0)],
                    [f(0), f(0), f(-eps, p), f(1)],
                ]
            )
            assert conj[2] == i2
            if eps == 0:
                assert conj[5] == conj[1] and conj[4] == conj[0]
            else:
                i5 = Matrix(
                    [
                        [f(1), f(0), f(0), f(0)],
                        [eps * p - a, f(0), f(0), f(0)],
                        [f(0), f(0), f(0), a],
                        [f(0), f(0), f(0), f(1)],
                    ]
                )
                assert conj[5] == i5
                assert conj[6] == conj[0]


def test_mu_conjugates_match_worked_matrices():
    # i = 1: [[0, 0], [-S, I]]; i = 2 in terms of S and M
    rng = random.Random(23)
    p = 7
    done = 0
    while done < 20:
        a = f(rng.randint(-8, 8), rng.randint(1, 3))
        b = f(rng.randint(-8, 8), rng.randint(1, 3))
        if a * b == -1:
            continue
        eps = rng.choice((-1, 0, 1))
        params = Mu(eps, a, b)
        D = build_family(params, CTX7)
        bd = BlockData.from_mu(params, p)
        S, M, c = bd.S, bd.M, bd.c
        I2 = Matrix.identity(2)
        Z2 = Matrix.zeros(2)

        def block(tl, tr, bl, br):
            return Matrix(
                [
                    list(tl.rows[0]) + list(tr.rows[0]),
                    list(tl.rows[1]) + list(tr.rows[1]),
                    list(bl.rows[0]) + list(br.rows[0]),
                    list(bl.rows[1]) + list(br.rows[1]),
                ]
            )

        phi_inv = D.phi.inverse()
        from phimod.monodromy import hodge_generator as E

        g1 = D.phi @ E() @ phi_inv
        assert g1 == block(Z2, Z2, -1 * S, I2)
        g2 = D.phi @ g1 @ phi_inv
        k = (eps * p + c) / f(p * p)
        expected2 = block(I2 - M * k, -1 * (M @ S), S - (S @ M) * k, (M - I2 * c) * (-k))
        assert g2 == expected2
        done += 1


def _reference_members(p, eps):
    yield from (Prod(1), Prod(-1), Iso(eps, 1), Iso(eps, -1))
    for a in (f(0), f(eps * p), f(p * p), f(-2, 3)):
        yield Nu(eps, a)
    for a, b in ((f(0), f(0)), (f(p), f(0)), (f(p), f(2)), (f(1, 2), f(3)), (f(-5), f(1, 7))):
        yield Mu(eps, a, b)


@pytest.mark.parametrize("p", (7, 11, 13))
def test_integer_path_matches_fraction_oracle(p):
    ctx = PrimeContext(p)
    for eps in (-1, 0, 1):
        for params in _reference_members(p, eps):
            D = build_family(params, ctx)
            gens = toric_generators(D)
            assert gens == _oracle_toric_generators(D), params
            L = lie_closure(gens)
            # the generic _Span closure of the Cyclotomic-wrapped generators
            generic = _oracle_lie_closure([Matrix([[Cyclotomic(a) for a in r] for r in g.rows]) for g in gens])
            assert L.basis == generic, params
            assert is_solvable(L) == _oracle_is_solvable(generic), params


def test_integer_path_negative_central_scalar():
    phi = companion_phi(0, 7)
    assert phi.power(4) == Matrix.identity(4) * f(-49)  # phi^4 = -p^2: the sign flips
    D = SimpleNamespace(phi=phi)
    gens = toric_generators(D)
    assert len(gens) == 4 and gens == _oracle_toric_generators(D)


# A prime element above p and sqrt(eps^2 - 4) for the split eps, in Z[zeta_m]
PRIME_ELEMENT = {(3, 7): (2, -1), (3, 13): (3, -1), (4, 13): (3, 2), (4, 17): (4, -1)}
SPLIT_ROOTS = {3: {1: (1, 2), -1: (1, 2)}, 4: {0: (0, 2)}}


def _cyclotomic_members(m, p):
    z = zeta(m)
    for eps in (-1, 0, 1):
        yield Mu(eps, p * (2 - 3 * z), 1 + z)  # generic
        yield Mu(eps, f(0), f(0))
        yield Nu(eps, p * p * (1 - 2 * z))
        yield Iso(eps, 1)
    for eps, (u, v) in SPLIT_ROOTS[m].items():
        for sign in (1, -1):  # on the lines a = -mu b, mu a root of X^2 + eps p X + p^2
            mu = (-eps * p + sign * p * (u + v * z)) / 2
            yield Mu(eps, -mu * (2 - z), 2 - z)
    u, v = PRIME_ELEMENT[(m, p)]
    yield Mu(0, (1 + z) * (u + v * z) ** 5, f(0))  # prime power: v(c) = 10
    yield Prod(1)
    yield Prod(-1)


def _elementary(n):
    for i in range(n * n):
        yield Matrix.from_flat([f(int(j == i)) for j in range(n * n)], n)


def _has_zeta(M):
    return any(isinstance(a, Cyclotomic) and a.v for a in M.flatten())


@pytest.mark.parametrize("m,p", sorted(PRIME_ELEMENT))
def test_cyclotomic_path_matches_generic_oracle(m, p):
    ctx = PrimeContext(p, m)
    kinds, zeta_bases = set(), 0
    for params in _cyclotomic_members(m, p):
        D = build_family(params, ctx)
        gens = toric_generators(D)
        assert gens == _oracle_toric_generators(D), params
        L = lie_closure(gens)
        generic = _oracle_lie_closure(gens)
        assert L.basis == generic, params
        assert is_solvable(L) == _oracle_is_solvable(generic), params
        assert L.contains(Matrix.identity(4)), params
        zeta_basis = [B for B in L.basis if _has_zeta(B)]
        zeta_bases += bool(zeta_basis)
        B = (zeta_basis or list(L.basis))[-1]
        assert L.contains(B), params
        # membership is over Q(zeta_m), also when phi and so L are rational
        outside = next(E for E in _elementary(4) if not L.contains(E))
        assert L.contains(B * zeta(m)) and not L.contains(B + outside * zeta(m)), params
        kinds.add(group_type(L).kind)
    assert zeta_bases >= 6  # the Z[zeta_m] rows, not only the rational ones, are exercised
    assert {"Ga2SemidirectGm2", "GL2FiberDet", "Gm2", "GL2"} <= kinds
