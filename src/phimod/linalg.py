"""Exact linear algebra: matrices, echelon forms, characteristic polynomials,
brackets and Lie-algebra closure.

Entries are Fractions or Cyclotomic scalars; everything is exact, equality is
literal, there are no tolerances.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd as _gcd

from . import polys


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
        aug = [list(r) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(self.rows)]
        for c in range(n):
            piv = next((i for i in range(c, n) if aug[i][c]), None)
            if piv is None:
                raise ZeroDivisionError("matrix is singular")
            aug[c], aug[piv] = aug[piv], aug[c]
            inv = 1 / aug[c][c]
            aug[c] = [a * inv for a in aug[c]]
            for i in range(n):
                if i != c and aug[i][c]:
                    f = aug[i][c]
                    aug[i] = [a - f * b for a, b in zip(aug[i], aug[c])]
        return Matrix([row[n:] for row in aug])

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


@lru_cache(maxsize=4096)
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


class _Span:
    """Incremental echelonized span of flat vectors."""

    def __init__(self, length):
        self.length = length
        self.rows = []  # kept in echelon form, leading 1s
        self.pivots = []

    def reduce(self, vec):
        vec = list(vec)
        for row, p in zip(self.rows, self.pivots):
            if vec[p]:
                f = vec[p]
                vec = [a - f * b for a, b in zip(vec, row)]
        return vec

    def add(self, vec):
        """Add vec to the span; True when the dimension grew."""
        vec = self.reduce(vec)
        p = next((i for i, a in enumerate(vec) if a), None)
        if p is None:
            return False
        inv = 1 / vec[p]
        vec = [a * inv for a in vec]
        # keep rows sorted by pivot and fully reduced
        for i, row in enumerate(self.rows):
            if row[p]:
                f = row[p]
                self.rows[i] = [a - f * b for a, b in zip(row, vec)]
        idx = next((i for i, q in enumerate(self.pivots) if q > p), len(self.pivots))
        self.rows.insert(idx, vec)
        self.pivots.insert(idx, p)
        return True

    def contains(self, vec):
        return all(not a for a in self.reduce(vec))

    @property
    def dim(self):
        return len(self.rows)


class LieAlgebraBasis:
    """Bracket-closed matrix subspace, echelon-normalized when flattened.

    A closure computed on the rational path keeps its fraction-free integer
    span: dim, contains and is_solvable read the integer rows, and the
    Fraction echelon basis is built only when it is first read.
    """

    __slots__ = ("_basis", "_int_span", "n")

    def __init__(self, basis, n):
        object.__setattr__(self, "_basis", tuple(basis))
        object.__setattr__(self, "_int_span", None)
        object.__setattr__(self, "n", n)

    @classmethod
    def _from_int_span(cls, span, n):
        obj = object.__new__(cls)
        object.__setattr__(obj, "_basis", None)
        object.__setattr__(obj, "_int_span", span)
        object.__setattr__(obj, "n", n)
        return obj

    def __setattr__(self, *a):
        raise AttributeError("LieAlgebraBasis is immutable")

    @property
    def basis(self):
        if self._basis is None:
            rows, _ = _echelon([[Fraction(a) for a in r] for r in self._int_span.rows])
            object.__setattr__(self, "_basis", tuple(Matrix.from_flat(r, self.n) for r in rows))
        return self._basis

    @property
    def dim(self):
        return len(self._basis) if self._int_span is None else self._int_span.dim

    def span(self):
        s = _Span(self.n * self.n)
        for M in self.basis:
            s.add(M.flatten())
        return s

    def contains(self, M):
        if self._int_span is not None:
            flat = _int_flat(M)
            if flat is not None:
                return self._int_span.contains(flat)
        return self.span().contains(M.flatten())

    def _int_rows(self):
        """Integer rows spanning the algebra, or None when an entry is not rational."""
        if self._int_span is not None:
            return self._int_span.rows
        flat = [_int_flat(M) for M in self._basis]
        return flat if all(f is not None for f in flat) else None

    def __repr__(self):
        return f"LieAlgebraBasis(dim={self.dim}, n={self.n})"


def _primitive(vec):
    """vec divided by the gcd of its entries (the zero vector is returned as is)."""
    g = 0
    for a in vec:
        g = _gcd(g, a)
    return [a // g for a in vec] if g > 1 else vec


class _IntSpan:
    """Fraction-free row-echelon span of integer vectors (rank and membership)."""

    __slots__ = ("rows", "pivots")

    def __init__(self):
        self.rows = []
        self.pivots = []

    def _reduced(self, vec):
        for row, p in zip(self.rows, self.pivots):
            a = vec[p]
            if a:
                b = row[p]
                g = _gcd(a, b)
                m1, m2 = b // g, a // g
                vec = [m1 * x - m2 * y for x, y in zip(vec, row)]
        return vec

    def add(self, vec):
        vec = self._reduced(list(vec))
        p = next((i for i, a in enumerate(vec) if a), None)
        if p is None:
            return False
        vec = _primitive(vec)
        idx = next((i for i, q in enumerate(self.pivots) if q > p), len(self.pivots))
        self.rows.insert(idx, vec)
        self.pivots.insert(idx, p)
        return True

    def contains(self, vec):
        return not any(self._reduced(list(vec)))

    @property
    def dim(self):
        return len(self.rows)


def _int_flat(M):
    """Flat integer-scaled copy of a Fraction matrix, or None for other entries."""
    flat = M.flatten()
    if not all(isinstance(a, (int, Fraction)) for a in flat):
        return None
    lcm = 1
    for a in flat:
        d = a.denominator
        lcm = lcm // _gcd(lcm, d) * d
    return [a.numerator * (lcm // a.denominator) for a in flat]


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


def _int_bracket(a, b, n):
    """Bracket of flat integer matrices, content-reduced to limit growth."""
    return _primitive([x - y for x, y in zip(_int_matmul(a, b, n), _int_matmul(b, a, n))])


def _int_lie_closure(flat_gens, n):
    span = _IntSpan()
    basis = [g for g in flat_gens if span.add(g)]
    # worklist: each element is bracketed once with every earlier one; the
    # loop also visits the elements appended while it runs
    for j, b in enumerate(basis):
        for a in basis[:j]:
            c = _int_bracket(a, b, n)
            if span.add(c):
                basis.append(c)
    return span


def lie_closure(generators):
    """Smallest subspace containing the generators and closed under bracket.

    Worklist closure: every basis element is bracketed once with each earlier
    one, and a bracket outside the span joins the basis (dimension <= n^2).
    Rational input takes a fraction-free integer path; cyclotomic input stays
    generic.
    """
    generators = list(generators)
    if not generators:
        return LieAlgebraBasis([], 0)
    n = generators[0].n
    flat_gens = [_int_flat(g) for g in generators]
    if all(f is not None for f in flat_gens):
        return LieAlgebraBasis._from_int_span(_int_lie_closure(flat_gens, n), n)
    span = _Span(n * n)
    basis = [g for g in generators if span.add(g.flatten())]
    for j, B in enumerate(basis):
        for A in basis[:j]:
            c = bracket(A, B)
            if span.add(c.flatten()):
                basis.append(c)
    return LieAlgebraBasis([Matrix.from_flat(r, n) for r in span.rows], n)


def subspace_bracket(basis_a, basis_b, n):
    """Span of all brackets [a, b], as a list of matrices."""
    span = _Span(n * n)
    same = basis_a is basis_b
    for i, A in enumerate(basis_a):
        for j, B in enumerate(basis_b):
            if same and j <= i:
                continue
            span.add(bracket(A, B).flatten())
    return [Matrix.from_flat(r, n) for r in span.rows]


def _int_derived(basis, n):
    """Rows spanning [L, L] for L spanned by basis. Stops early once they span
    as much as basis does: is_solvable then reads the series as stuck."""
    span = _IntSpan()
    for j, b in enumerate(basis):
        for a in basis[:j]:
            if span.add(_int_bracket(a, b, n)) and span.dim == len(basis):
                return span.rows
    return span.rows


def is_solvable(L):
    """Derived-series test; returns (solvable, series length to reach 0)."""
    if L.dim == 0:
        return True, 0
    n = L.n
    flat = L._int_rows()
    length = 0
    if flat is not None:
        current = flat
        while True:
            derived = _int_derived(current, n)
            length += 1
            if not derived:
                return True, length
            if len(derived) >= len(current):
                return False, length
            current = derived
    current = list(L.basis)
    prev_dim = len(current)
    while True:
        derived = subspace_bracket(current, current, L.n)
        length += 1
        if not derived:
            return True, length
        if len(derived) >= prev_dim:
            return False, length
        current = derived
        prev_dim = len(derived)


def minimal_polynomial(M):
    """Monic minimal polynomial of M, ascending coefficients."""
    return list(_minimal_polynomial_cached(M))


@lru_cache(maxsize=4096)
def _minimal_polynomial_cached(M):
    n = M.n
    span = _Span(n * n)
    powers = [Matrix.identity(n)]
    span.add(powers[0].flatten())
    while True:
        nxt = powers[-1] @ M
        if not span.add(nxt.flatten()):
            cols = [p.flatten() for p in powers]
            coeffs = solve(cols, nxt.flatten())
            return tuple([-c for c in coeffs] + [Fraction(1)])
        powers.append(nxt)


def is_semisimple(M):
    """Squarefree minimal polynomial test."""
    return polys.is_squarefree(minimal_polynomial(M))
