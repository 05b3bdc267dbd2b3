"""Exact linear algebra: matrices, echelon forms, characteristic polynomials,
brackets and Lie-algebra closure.

Entries are Fractions or Cyclotomic scalars; everything is exact, equality is
literal, there are no tolerances. Field arithmetic eliminates in one place,
the reduced echelon `_echelon` behind row_reduce, solve, kernel and
Matrix.inverse. Lie closure and the derived series run fraction-free for
every field, in the integer span `_IntSpan` over Z (for Q) or Z[zeta_3], Z[i]
(for Q(zeta_3), Q(zeta_4)).
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd as _gcd

from . import polys
from .scalars import Cyclotomic


class Matrix:
    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, *a):
        raise AttributeError("Matrix is immutable")

    @property
    def n(self):
        return len(self.rows)

    @staticmethod
    def identity(n):
        return Matrix([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    @staticmethod
    def zeros(n):
        return Matrix([[Fraction(0)] * n for _ in range(n)])

    @staticmethod
    def diagonal(entries):
        n = len(entries)
        return Matrix([[entries[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)])

    def __matmul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        a, b = self.rows, other.rows
        n = len(a)
        out = []
        for i in range(n):
            ai = a[i]
            row = []
            for j in range(n):
                acc = ai[0] * b[0][j]
                for k in range(1, n):
                    acc = acc + ai[k] * b[k][j]
                row.append(acc)
            out.append(row)
        return Matrix(out)

    def apply(self, vec):
        return tuple(sum(a * b for a, b in zip(row, vec)) for row in self.rows)

    def __add__(self, other):
        return Matrix([[a + b for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)])

    def __sub__(self, other):
        return Matrix([[a - b for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)])

    def __mul__(self, scalar):
        return Matrix([[a * scalar for a in r] for r in self.rows])

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1

    def transpose(self):
        return Matrix(list(zip(*self.rows)))

    def trace(self):
        return sum(self.rows[i][i] for i in range(self.n))

    def is_zero(self):
        return all(not a for r in self.rows for a in r)

    def is_scalar(self):
        d = self.rows[0][0]
        return all(self.rows[i][j] == (d if i == j else 0) for i in range(self.n) for j in range(self.n))

    def flatten(self):
        return tuple(a for r in self.rows for a in r)

    @staticmethod
    def from_flat(vec, n):
        return Matrix([vec[i * n : (i + 1) * n] for i in range(n)])

    def column(self, j):
        return tuple(r[j] for r in self.rows)

    @staticmethod
    def from_columns(cols):
        return Matrix(list(zip(*cols)))

    def det(self):
        m = [list(r) for r in self.rows]
        n = self.n
        d = Fraction(1)
        for c in range(n):
            piv = next((i for i in range(c, n) if m[i][c]), None)
            if piv is None:
                return Fraction(0)
            if piv != c:
                m[c], m[piv] = m[piv], m[c]
                d = -d
            d = d * m[c][c]
            inv = 1 / m[c][c]
            for i in range(c + 1, n):
                if m[i][c]:
                    f = m[i][c] * inv
                    for j in range(c, n):
                        m[i][j] = m[i][j] - f * m[c][j]
        return d

    def inverse(self):
        n = self.n
        rows, pivots = _echelon([r + e for r, e in zip(self.rows, Matrix.identity(n).rows)])
        if pivots != list(range(n)):
            raise ZeroDivisionError("matrix is singular")
        return Matrix([row[n:] for row in rows])

    def power(self, k):
        out = Matrix.identity(self.n)
        base = self
        if k < 0:
            base = self.inverse()
            k = -k
        while k:
            if k & 1:
                out = out @ base
            base = base @ base
            k >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return "\n".join("[" + "  ".join(str(a) for a in r) + "]" for r in self.rows)


def bracket(A, B):
    """Lie bracket AB - BA."""
    if A.n != B.n:
        raise ValueError("bracket needs equal dimensions")
    return A @ B - B @ A


def char_poly(M):
    """Monic characteristic polynomial, ascending coefficients, via the
    Faddeev-LeVerrier trace recursion (division only by integers <= n)."""
    return list(_char_poly_cached(M))


@lru_cache(maxsize=256)  # the reuse is within one module; a key over Q(zeta) holds ~4 KB
def _char_poly_cached(M):
    n = M.n
    coeffs = [Fraction(1)]  # descending: X^n + c1 X^(n-1) + ...
    Nk = Matrix.identity(n)
    for k in range(1, n + 1):
        Mk = M @ Nk
        ck = -Mk.trace() / k
        coeffs.append(ck)
        Nk = Mk + Matrix.identity(n) * ck
    return tuple(reversed(coeffs))


def _echelon(rows):
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    m = [list(r) for r in rows]
    nrows = len(m)
    if nrows == 0:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [a * inv for a in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return [tuple(row) for row in m[:r]], pivots


def row_reduce(vectors):
    """SubspaceBasis of the span of the given vectors."""
    rows, _ = _echelon(list(vectors))
    return SubspaceBasis._make(rows)


class SubspaceBasis:
    """Echelon-normalized basis of a subspace; two equal subspaces compare equal."""

    __slots__ = ("vectors",)

    def __init__(self, vectors):
        rows, _ = _echelon(list(vectors))
        if len(rows) != len(list(vectors)):
            raise ValueError("vectors are linearly dependent")
        object.__setattr__(self, "vectors", tuple(rows))

    @classmethod
    def _make(cls, rows):
        obj = object.__new__(cls)
        object.__setattr__(obj, "vectors", tuple(rows))
        return obj

    def __setattr__(self, *a):
        raise AttributeError("SubspaceBasis is immutable")

    @property
    def dim(self):
        return len(self.vectors)

    @property
    def ambient(self):
        return len(self.vectors[0]) if self.vectors else 0

    def contains(self, vec):
        rows, _ = _echelon(list(self.vectors) + [vec])
        return len(rows) == self.dim

    def intersection_dim(self, other):
        joined, _ = _echelon(list(self.vectors) + list(other.vectors))
        return self.dim + other.dim - len(joined)

    def __eq__(self, other):
        if not isinstance(other, SubspaceBasis):
            return NotImplemented
        return self.vectors == other.vectors

    def __hash__(self):
        return hash(self.vectors)

    def __repr__(self):
        return f"SubspaceBasis(dim={self.dim}, {list(self.vectors)})"


def kernel(M):
    """Basis of the right null space of M (rows = equations)."""
    rows, pivots = _echelon(list(M.rows))
    n = M.n
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * n
        vec[f] = Fraction(1)
        for r, pc in zip(rows, pivots):
            vec[pc] = -r[f]
        basis.append(tuple(vec))
    return basis


def solve(columns, target):
    """Coefficients x with sum(x_i * columns[i]) = target, or None."""
    ncols = len(columns)
    nrows = len(target)
    aug = [[columns[j][i] for j in range(ncols)] + [target[i]] for i in range(nrows)]
    rows, pivots = _echelon(aug)
    coeffs = [Fraction(0)] * ncols
    for r, pc in zip(rows, pivots):
        if pc == ncols:
            return None  # inconsistent
        coeffs[pc] = r[ncols]
    # consistency: free columns get 0; verify
    for i in range(nrows):
        if sum(coeffs[j] * columns[j][i] for j in range(ncols)) != target[i]:
            return None
    return coeffs


class LieAlgebraBasis:
    """Bracket-closed matrix subspace over Q(zeta_m), kept as its fraction-free
    span over Z[zeta_m] and the span of [L, L] recorded while closing. dim,
    contains and is_solvable read those rows; the echelon basis (Fraction
    entries over Q, Cyclotomic over Q(zeta_m)) is built when first read.
    """

    __slots__ = ("_basis", "_span", "_derived", "n")

    def __init__(self, span, derived, n):
        object.__setattr__(self, "_basis", None)
        object.__setattr__(self, "_span", span)
        object.__setattr__(self, "_derived", derived)
        object.__setattr__(self, "n", n)

    def __setattr__(self, *a):
        raise AttributeError("LieAlgebraBasis is immutable")

    @property
    def basis(self):
        if self._basis is None:
            rows, _ = _echelon([_scalars(r, self._span.m) for r in self._span.rows])
            object.__setattr__(self, "_basis", tuple(Matrix.from_flat(r, self.n) for r in rows))
        return self._basis

    @property
    def dim(self):
        return self._span.dim

    def contains(self, M):
        """Membership of M in the span over the field of M's entries."""
        m, span = _field_order([M]), self._span
        if m == 1 or m == span.m:
            return span.contains(_int_flat(M, span.m))
        if span.m != 1:
            raise ValueError(f"mixed cyclotomic orders {m} and {span.m}")
        flat = _int_flat(M, m)  # a rational span holds U + zeta V when it holds U and V
        return span.contains(flat[: len(flat) // 2]) and span.contains(flat[len(flat) // 2 :])

    def __repr__(self):
        return f"LieAlgebraBasis(dim={self.dim}, n={self.n})"


def _field_order(mats):
    """The m with every entry of the matrices in Q(zeta_m); 1 when all are rational."""
    orders = {a.m for M in mats for a in M.flatten() if isinstance(a, Cyclotomic) and a.v}
    if len(orders) > 1:
        raise ValueError(f"mixed cyclotomic orders {sorted(orders)}")
    return orders.pop() if orders else 1


def _int_flat(M, m=1):
    """Flat integer multiple of M over Z[zeta_m], scaled by a common denominator."""
    pairs = [(a.u, a.v) if isinstance(a, Cyclotomic) else (a, 0) for a in M.flatten()]
    flat = [u for u, _ in pairs] + ([v for _, v in pairs] if m != 1 else [])
    lcm = 1
    for a in flat:
        d = a.denominator
        lcm = lcm // _gcd(lcm, d) * d
    return [a.numerator * (lcm // a.denominator) for a in flat]


def _scalars(flat, m, den=1):
    """The entries of a flat vector over Z[zeta_m] divided by den, as scalars."""
    if m == 1:
        return [Fraction(a, den) for a in flat]
    half = len(flat) // 2
    return [Cyclotomic(Fraction(u, den), Fraction(v, den), m) for u, v in zip(flat[:half], flat[half:])]


def _zeta_times(vec, m):
    """zeta * vec: zeta^2 = -1 - zeta when m = 3 and -1 when m = 4."""
    half = len(vec) // 2
    u, v = vec[:half], vec[half:]
    return [-b for b in v] + ([a - b for a, b in zip(u, v)] if m == 3 else u)


def _times_conjugate(vec, a0, a1, m):
    """vec times the complex conjugate of a0 + a1 zeta: a0 - a1 - a1 zeta (m = 3), a0 - a1 zeta (m = 4)."""
    c0 = a0 - a1 if m == 3 else a0
    return [c0 * x - a1 * y for x, y in zip(vec, _zeta_times(vec, m))]


def _primitive(vec):
    """vec divided by the gcd of its entries (the zero vector is returned as is)."""
    g = 0
    for a in vec:
        g = _gcd(g, a)
    return [a // g for a in vec] if g > 1 else vec


class _IntSpan:
    """Fraction-free row-echelon span of flat vectors over Z[zeta_m] (rank and
    membership), after Bareiss. A flat vector of length s is s integers over Z
    (m = 1) and 2s over Z[zeta_3], Z[i]: the rational coefficients, then the
    zeta ones. Each row is primitive with a positive rational-integer pivot k,
    so an entry a0 + a1 zeta at the pivot is cleared from a vector as
    (k vec - a0 row - a1 zeta row) / g with g = gcd(k, a0, a1)."""

    __slots__ = ("m", "rows", "zeta_rows", "pivots")

    def __init__(self, m=1):
        self.m = m
        self.rows = []
        self.zeta_rows = []  # zeta * row over Z[zeta_m], None over Z
        self.pivots = []

    def _reduced(self, vec):
        half = len(vec) // 2
        for row, zrow, p in zip(self.rows, self.zeta_rows, self.pivots):
            a0 = vec[p]
            a1 = vec[p + half] if zrow else 0
            if a0 or a1:
                g = _gcd(row[p], a0, a1)
                k, a0, a1 = row[p] // g, a0 // g, a1 // g
                if a1:
                    vec = [k * x - a0 * y - a1 * z for x, y, z in zip(vec, row, zrow)]
                else:
                    vec = [k * x - a0 * y for x, y in zip(vec, row)]
        return vec

    def add(self, vec):
        """Add vec to the span; True when the dimension grew."""
        vec = self._reduced(list(vec))
        size = len(vec) if self.m == 1 else len(vec) // 2
        p = min((i % size for i, a in enumerate(vec) if a), default=None)
        if p is None:
            return False
        if self.m != 1:  # times the conjugate of the pivot, which becomes its norm
            vec = _times_conjugate(vec, vec[p], vec[p + size], self.m)
        vec = _primitive(vec)
        if vec[p] < 0:
            vec = [-a for a in vec]
        idx = next((i for i, q in enumerate(self.pivots) if q > p), len(self.pivots))
        self.rows.insert(idx, vec)
        self.zeta_rows.insert(idx, None if self.m == 1 else _zeta_times(vec, self.m))
        self.pivots.insert(idx, p)
        return True

    def contains(self, vec):
        return not any(self._reduced(list(vec)))

    @property
    def dim(self):
        return len(self.rows)


def _is_scalar_flat(G, n):
    """True when the flat n x n matrix over Z[zeta_m] is a multiple of the identity."""
    s = n * n
    return all(a == (G[i - i % s] if i % s % (n + 1) == 0 else 0) for i, a in enumerate(G))


def _normal_form(G, n, m):
    """(N, t): N the primitive multiple of the flat matrix G (of nonzero trace)
    with positive rational-integer trace t. Over Z[zeta_m] G is first
    multiplied by the conjugate of its trace, so every Q(zeta_m)-multiple of G
    has the same N."""
    s = n * n
    if m != 1:
        G = _times_conjugate(G, sum(G[: s : n + 1]), sum(G[s :: n + 1]), m)
    G = _primitive(G)
    t = sum(G[: s : n + 1])
    return (G, t) if t > 0 else ([-a for a in G], -t)


def _int_matmul(a, b, n):
    """Product of flat n x n integer matrices."""
    out = [0] * (n * n)
    for i in range(n):
        ri = i * n
        for k in range(n):
            aik = a[ri + k]
            if aik:
                rk = k * n
                for j in range(n):
                    out[ri + j] += aik * b[rk + j]
    return out


def _zmatmul(a, b, n, m):
    """Product of flat n x n matrices over Z[zeta_m]: four integer products."""
    if m == 1:
        return _int_matmul(a, b, n)
    s = n * n
    a0, a1, b0, b1 = a[:s], a[s:], b[:s], b[s:]
    p11 = _int_matmul(a1, b1, n)
    cross = [x + y for x, y in zip(_int_matmul(a0, b1, n), _int_matmul(a1, b0, n))]
    head = [x - y for x, y in zip(_int_matmul(a0, b0, n), p11)]
    return head + ([x - y for x, y in zip(cross, p11)] if m == 3 else cross)


def _int_bracket(a, b, n, m):
    """Bracket of flat matrices over Z[zeta_m], content-reduced to limit growth."""
    return _primitive([x - y for x, y in zip(_zmatmul(a, b, n, m), _zmatmul(b, a, n, m))])


def lie_closure(generators):
    """Smallest subspace containing the generators and closed under bracket.

    Worklist closure over Z[zeta_m] (Z for rational input): every basis
    element is bracketed once with each earlier one, and a bracket outside the
    span joins the basis (dimension <= n^2). Those brackets span [L, L], which
    is kept for is_solvable.
    """
    generators = list(generators)
    n = generators[0].n if generators else 0
    m = _field_order(generators)
    span, derived = _IntSpan(m), _IntSpan(m)
    basis = [g for g in (_int_flat(G, m) for G in generators) if span.add(g)]
    # the loop also visits the elements appended while it runs
    for j, b in enumerate(basis):
        for a in basis[:j]:
            c = _int_bracket(a, b, n, m)
            # derived lies inside span, so a bracket it holds adds nothing
            if derived.add(c) and span.add(c):
                basis.append(c)
    return LieAlgebraBasis(span, derived, n)


def _int_derived(basis, n, m):
    """Rows spanning [L, L] for L spanned by basis. Stops early once they span
    as much as basis does: is_solvable then reads the series as stuck."""
    span = _IntSpan(m)
    for j, b in enumerate(basis):
        for a in basis[:j]:
            if span.add(_int_bracket(a, b, n, m)) and span.dim == len(basis):
                return span.rows
    return span.rows


def is_solvable(L):
    """Derived-series test; returns (solvable, series length to reach 0)."""
    if L.dim == 0:
        return True, 0
    current, derived, length = L._span.rows, L._derived.rows, 1
    while derived:
        if len(derived) >= len(current):
            return False, length
        current = derived
        derived = _int_derived(current, L.n, L._span.m)
        length += 1
    return True, length


def minimal_polynomial(M):
    """Monic minimal polynomial of M, ascending coefficients."""
    return list(_minimal_polynomial_cached(M))


@lru_cache(maxsize=4096)
def _minimal_polynomial_cached(M):
    powers = [Matrix.identity(M.n)]
    while True:
        nxt = powers[-1] @ M
        # None exactly while nxt is independent of the lower powers
        coeffs = solve([P.flatten() for P in powers], nxt.flatten())
        if coeffs is not None:
            return tuple([-c for c in coeffs] + [Fraction(1)])
        powers.append(nxt)


def is_semisimple(M):
    """Squarefree minimal polynomial test."""
    return polys.is_squarefree(minimal_polynomial(M))
