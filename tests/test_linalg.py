import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phimod import polys
from phimod.linalg import (
    Matrix,
    SubspaceBasis,
    bracket,
    char_poly,
    is_solvable,
    kernel,
    lie_closure,
    minimal_polynomial,
    row_reduce,
    solve,
)
from phimod.scalars import Cyclotomic, zeta

from oracles import _oracle_is_solvable, _oracle_lie_closure

f = Fraction


def _det_oracle(M):
    """Cofactor-expansion determinant, independent of the Gaussian path."""
    n = M.n
    if n == 1:
        return M.rows[0][0]
    total = 0
    for j in range(n):
        a = M.rows[0][j]
        if not a:
            continue
        minor = Matrix([[M.rows[i][k] for k in range(n) if k != j] for i in range(1, n)])
        term = a * _det_oracle(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def _char_poly_oracle(M):
    """Evaluate det(tI - M) at n+1 points; a monic degree-n polynomial is
    pinned by those values."""
    n = M.n
    values = {}
    for t in range(n + 1):
        tI = Matrix.identity(n) * f(t)
        values[t] = _det_oracle(tI - M)
    return values


def _assert_char_poly(M):
    chi = char_poly(M)
    for t, expected in _char_poly_oracle(M).items():
        assert polys.evaluate(chi, f(t)) == expected


def test_char_poly_identity():
    chi = char_poly(Matrix.identity(4))
    assert chi == [f(1), f(-4), f(6), f(-4), f(1)]  # (X-1)^4


def test_char_poly_companion():
    comp = Matrix([[0, 0, 0, -49], [1, 0, 0, 0], [0, 1, 0, -0], [0, 0, 1, 0]])
    assert char_poly(comp) == [f(49), f(0), f(0), f(0), f(1)]
    _assert_char_poly(comp)


def test_char_poly_mu_family_matrix():
    # canonical mu matrix at (p, eps, a, b) = (7, 1, 0, 0): c = -7, d = 0
    M = Matrix([[0, 0, 0, -49], [0, 0, 1, -7], [1, 0, 0, 0], [0, 1, 0, 0]])
    assert char_poly(M) == [f(49), f(0), f(7), f(0), f(1)]
    _assert_char_poly(M)


def test_char_poly_block_diagonal_product():
    rng = random.Random(42)
    for _ in range(100):
        A = [[f(rng.randint(-5, 5)) for _ in range(2)] for _ in range(2)]
        B = [[f(rng.randint(-5, 5)) for _ in range(2)] for _ in range(2)]
        M = Matrix(
            [
                A[0] + [f(0), f(0)],
                A[1] + [f(0), f(0)],
                [f(0), f(0)] + B[0],
                [f(0), f(0)] + B[1],
            ]
        )
        assert char_poly(M) == polys.mul(char_poly(Matrix(A)), char_poly(Matrix(B)))


def test_row_reduce_examples():
    basis = row_reduce([(f(1), f(0), f(0), f(0)), (f(2), f(0), f(0), f(0))])
    assert basis.dim == 1 and basis.vectors == ((f(1), f(0), f(0), f(0)),)
    basis = row_reduce([(f(1), f(1)), (f(0), f(1))])
    assert basis.vectors == ((f(1), f(0)), (f(0), f(1)))
    assert len(kernel(Matrix.zeros(4))) == 4
    assert kernel(Matrix.identity(4)) == []


def test_subspace_equality_and_membership():
    b1 = SubspaceBasis([(f(1), f(2), f(0)), (f(0), f(0), f(1))])
    b2 = SubspaceBasis([(f(2), f(4), f(2)), (f(0), f(0), f(-3))])
    assert b1 == b2
    assert b1.contains((f(3), f(6), f(7)))
    assert not b1.contains((f(0), f(1), f(0)))
    with pytest.raises(ValueError):
        SubspaceBasis([(f(1), f(0)), (f(2), f(0))])


def test_solve():
    cols = [(f(1), f(0)), (f(1), f(1))]
    assert solve(cols, (f(3), f(2))) == [f(1), f(2)]
    assert solve([(f(1), f(0)), (f(2), f(0))], (f(0), f(1))) is None


def test_bracket_examples():
    D1 = Matrix.diagonal([f(1), f(1), f(0), f(0)])
    D2 = Matrix.diagonal([f(3), f(-1), f(2), f(5)])
    assert bracket(D1, D2).is_zero()
    E12 = Matrix([[0, 1], [0, 0]])
    E21 = Matrix([[0, 0], [1, 0]])
    assert bracket(E12, E21) == Matrix.diagonal([f(1), f(-1)])


def _blocks(rng):
    return [[f(rng.randint(-4, 4)) for _ in range(2)] for _ in range(2)]


def _block4(A, B, C, D):
    return Matrix(
        [
            list(A[0]) + list(B[0]),
            list(A[1]) + list(B[1]),
            list(C[0]) + list(D[0]),
            list(C[1]) + list(D[1]),
        ]
    )


def test_bracket_block_identity():
    # [diag(I2, 0), (A,B;C,D)] = (0,B;-C,0)
    rng = random.Random(3)
    E = Matrix.diagonal([f(1), f(1), f(0), f(0)])
    Z = [[f(0)] * 2] * 2
    for _ in range(50):
        A, B, C, D = (_blocks(rng) for _ in range(4))
        M = _block4(A, B, C, D)
        expected = _block4(Z, B, [[-x for x in row] for row in C], Z)
        assert bracket(E, M) == expected


def test_lie_closure_examples():
    assert lie_closure([Matrix.zeros(2)]).dim == 0
    E12 = Matrix([[0, 1], [0, 0]])
    E21 = Matrix([[0, 0], [1, 0]])
    sl2 = lie_closure([E12, E21])
    assert sl2.dim == 3
    # brute-force bracket table: the span of {E12, E21, H} is bracket-closed
    H = bracket(E12, E21)
    for X in (E12, E21, H):
        for Y in (E12, E21, H):
            assert sl2.contains(bracket(X, Y))
    gm2 = lie_closure(
        [Matrix.diagonal([f(1), f(1), f(0), f(0)]), Matrix.diagonal([f(0), f(0), f(1), f(1)])]
    )
    assert gm2.dim == 2


def test_lie_closure_idempotent_and_contains():
    rng = random.Random(5)
    for _ in range(20):
        gens = [Matrix([[f(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]) for _ in range(2)]
        L = lie_closure(gens)
        again = lie_closure(list(L.basis))
        assert again.dim == L.dim
        for g in gens:
            assert L.contains(g)
        for A in gens:
            for B in gens:
                assert L.contains(bracket(A, B))


def test_lie_closure_block_containment():
    # closure of {diag(I2,0), (A,B;C,D)} contains (A,0;0,D), (0,B;0,0), (0,0;C,0)
    rng = random.Random(9)
    E = Matrix.diagonal([f(1), f(1), f(0), f(0)])
    Z = [[f(0)] * 2] * 2
    for _ in range(50):
        A, B, C, D = (_blocks(rng) for _ in range(4))
        L = lie_closure([E, _block4(A, B, C, D)])
        assert L.contains(_block4(A, Z, Z, D))
        assert L.contains(_block4(Z, B, Z, Z))
        assert L.contains(_block4(Z, Z, C, Z))


def test_int_and_generic_closure_paths_agree():
    rng = random.Random(13)
    for _ in range(10):
        gens = [Matrix([[f(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]) for _ in range(2)]
        wrapped = [Matrix([[Cyclotomic(a) for a in row] for row in g.rows]) for g in gens]
        generic = _oracle_lie_closure(wrapped)
        for fast in (lie_closure(gens), lie_closure(wrapped)):
            assert fast.dim == len(generic)
            assert is_solvable(fast)[0] == _oracle_is_solvable(generic)[0]


_zeta_matrix = st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=9, max_size=9)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((3, 4)), st.lists(_zeta_matrix, min_size=1, max_size=3))
def test_zeta_closure_matches_generic_oracle(m, matrices):
    z = zeta(m)
    gens = [Matrix.from_flat([u + v * z for u, v in entries], 3) for entries in matrices]
    L = lie_closure(gens)
    generic = _oracle_lie_closure(gens)
    assert L.basis == generic
    assert is_solvable(L) == _oracle_is_solvable(generic)
    for g in gens:
        assert L.contains(g)


def test_is_solvable_examples():
    abelian = lie_closure([Matrix.diagonal([f(1), f(2)]), Matrix.diagonal([f(0), f(3)])])
    assert is_solvable(abelian) == (True, 1)
    E12 = Matrix([[0, 1], [0, 0]])
    E21 = Matrix([[0, 0], [1, 0]])
    assert is_solvable(lie_closure([E12, E21]))[0] is False  # [sl2, sl2] = sl2
    upper = lie_closure([Matrix([[1, 0], [0, 0]]), Matrix([[0, 1], [0, 0]]), Matrix([[0, 0], [0, 1]])])
    solvable, length = is_solvable(upper)
    assert solvable and length == 2


def test_minimal_polynomial():
    assert minimal_polynomial(Matrix.identity(3)) == [f(-1), f(1)]
    prod_phi = Matrix([[0, 0, 7, 0], [0, 0, 0, 7], [1, 0, 0, 0], [0, 1, 0, 0]])
    assert minimal_polynomial(prod_phi) == [f(-7), f(0), f(1)]  # X^2 - 7
    comp = Matrix([[0, 0, 0, -49], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    assert minimal_polynomial(comp) == char_poly(comp)


def test_matrix_inverse_and_det():
    rng = random.Random(21)
    for _ in range(20):
        M = Matrix([[f(rng.randint(-4, 4)) for _ in range(4)] for _ in range(4)])
        d = M.det()
        assert d == _det_oracle(M)
        if d:
            assert M @ M.inverse() == Matrix.identity(4)
