"""Exact scalars in Q and the cyclotomic extensions Q(zeta_3), Q(zeta_4).

A scalar is either a plain Fraction/int or a Cyclotomic u + v*zeta. p-adic
valuations of cyclotomic scalars go through a Hensel-lifted embedding into
Z/p^N, escalating N until the valuation is certified.
"""

import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

INF = math.inf

DEFAULT_NMAX = 256


class NoRootError(ValueError):
    """The cyclotomic polynomial has no root mod p (p is not 1 mod m)."""


class PrecisionExhausted(ArithmeticError):
    """A nonzero scalar stayed 0 mod p^N up to the precision cap."""


def precision_cap():
    return int(os.environ.get("PHIMOD_NMAX", DEFAULT_NMAX))


CYCLO_POLY = {3: (1, 1, 1), 4: (1, 0, 1)}  # X^2+X+1, X^2+1


@lru_cache(maxsize=None)
def hensel_root(m, p, N):
    """Root of the m-th cyclotomic polynomial mod p^N (smallest mod-p root lifted)."""
    if m not in (3, 4):
        raise ValueError(f"cyclotomic order {m} not supported")
    if p % m != 1:
        raise NoRootError(f"X^2{'+X+1' if m == 3 else '+1'} has no root mod {p}")
    c0, c1, _ = CYCLO_POLY[m]
    f = lambda x: x * x + c1 * x + c0
    root = next(r for r in range(p) if f(r) % p == 0)
    prec = 1
    mod = p
    while prec < N:
        prec *= 2
        mod = mod * mod
        deriv = (2 * root + c1) % mod
        root = (root - f(root) * pow(deriv, -1, mod)) % mod
    return root % p**N


class Cyclotomic:
    """u + v*zeta_m with exact rational coefficients; zeta_3^2=-1-zeta_3, zeta_4^2=-1."""

    __slots__ = ("u", "v", "m")

    def __init__(self, u, v=0, m=1):
        u = Fraction(u)
        v = Fraction(v)
        if v == 0:
            m = 1
        elif m not in (3, 4):
            raise ValueError("nonzero zeta part needs m in {3, 4}")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "m", m)

    def __setattr__(self, *a):
        raise AttributeError("Cyclotomic is immutable")

    def _join(self, other):
        if isinstance(other, Cyclotomic):
            if self.m != 1 and other.m != 1 and self.m != other.m:
                raise ValueError(f"mixed cyclotomic orders {self.m} and {other.m}")
            return other, max(self.m, other.m) if 1 in (self.m, other.m) else self.m
        if isinstance(other, (int, Fraction)):
            return Cyclotomic(other), self.m
        return None, None

    def __add__(self, other):
        o, m = self._join(other)
        if o is None:
            return NotImplemented
        return Cyclotomic(self.u + o.u, self.v + o.v, m)

    __radd__ = __add__

    def __sub__(self, other):
        o, m = self._join(other)
        if o is None:
            return NotImplemented
        return Cyclotomic(self.u - o.u, self.v - o.v, m)

    def __rsub__(self, other):
        o, m = self._join(other)
        if o is None:
            return NotImplemented
        return Cyclotomic(o.u - self.u, o.v - self.v, m)

    def __mul__(self, other):
        o, m = self._join(other)
        if o is None:
            return NotImplemented
        u1, v1, u2, v2 = self.u, self.v, o.u, o.v
        zz = v1 * v2
        if m == 3:  # zeta^2 = -1 - zeta
            return Cyclotomic(u1 * u2 - zz, u1 * v2 + u2 * v1 - zz, m)
        if m == 4:  # zeta^2 = -1
            return Cyclotomic(u1 * u2 - zz, u1 * v2 + u2 * v1, m)
        return Cyclotomic(u1 * u2)

    __rmul__ = __mul__

    def conjugate(self):
        if self.m == 3:
            return Cyclotomic(self.u - self.v, -self.v, 3)
        if self.m == 4:
            return Cyclotomic(self.u, -self.v, 4)
        return self

    def norm(self):
        """Field norm to Q, as a Fraction."""
        if self.m == 3:
            return self.u * self.u - self.u * self.v + self.v * self.v
        if self.m == 4:
            return self.u * self.u + self.v * self.v
        return self.u

    def inverse(self):
        if self.v == 0:
            if self.u == 0:
                raise ZeroDivisionError("division by zero scalar")
            return Cyclotomic(1 / self.u)
        n = self.norm()
        c = self.conjugate()
        return Cyclotomic(c.u / n, c.v / n, self.m)

    def __truediv__(self, other):
        o, _ = self._join(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o, _ = self._join(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __neg__(self):
        return Cyclotomic(-self.u, -self.v, self.m)

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = Cyclotomic(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __bool__(self):
        return bool(self.u) or bool(self.v)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.v == 0 and self.u == other
        if isinstance(other, Cyclotomic):
            return self.u == other.u and self.v == other.v and (self.v == 0 or self.m == other.m)
        return NotImplemented

    def __hash__(self):
        if self.v == 0:
            return hash(self.u)
        return hash((self.u, self.v, self.m))

    def __repr__(self):
        if self.v == 0:
            return str(self.u)
        return f"{self.u}+ζ·{self.v}"


def zeta(m):
    return Cyclotomic(0, 1, m)


def as_pair(x):
    """Coefficient pair (u, v) of a scalar."""
    if isinstance(x, Cyclotomic):
        return x.u, x.v
    return Fraction(x), Fraction(0)


def normalize(x):
    """Canonical form: reduced fractions, degree < 2 in zeta, rational when v = 0."""
    u, v = as_pair(x)
    if v == 0:
        return u
    return Cyclotomic(u, v, x.m)


def scalar_to_str(x):
    u, v = as_pair(x)
    s = f"{u.numerator}/{u.denominator}"
    if v != 0:
        s += f"+ζ·{v.numerator}/{v.denominator}"
    return s


def scalar_from_str(s, m=1):
    """Parse 'n/d', 'n', 'n/d+ζ·n/d' or the ASCII aliases with 'zeta*' / 'z*'."""
    text = s.strip().replace(" ", "")
    try:
        for alias in ("+ζ·", "+zeta*", "+z*"):
            if alias in text:
                left, right = text.split(alias, 1)
                u = Fraction(left) if left else Fraction(0)
                v = Fraction(right)
                return Cyclotomic(u, v, m)
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in scalar {s!r}") from None


def _is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class PrimeContext:
    """A prime p >= 7 with a cyclotomic order m and an embedding precision.

    The embedding sends zeta_m to the smallest mod-p root of the m-th
    cyclotomic polynomial, Hensel-lifted to the working precision.
    """

    p: int
    m: int = 1
    precision: int = 32
    embedding_root: int | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.p < 7 or not _is_prime(self.p):
            raise ValueError(f"p must be a prime >= 7, got {self.p}")
        if self.m not in (1, 3, 4):
            raise ValueError(f"cyclotomic order must be 1, 3 or 4, got {self.m}")
        if self.precision < 1:
            raise ValueError("precision must be positive")
        if self.m > 1:
            object.__setattr__(self, "embedding_root", hensel_root(self.m, self.p, self.precision))

    def root_mod(self, N):
        return hensel_root(self.m, self.p, N)


def _rational_valuation(x, p):
    x = Fraction(x)
    if x == 0:
        return INF
    v = 0
    n = x.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = x.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


def valuation(x, ctx):
    """Exact p-adic valuation of a scalar under ctx's embedding."""
    p = ctx.p
    u, v = as_pair(x)
    if v == 0:
        return _rational_valuation(u, p)
    if ctx.m == 1 or (isinstance(x, Cyclotomic) and x.m != ctx.m):
        raise ValueError("scalar lives outside the context's field")
    k = min(_rational_valuation(u, p), _rational_valuation(v, p))
    scale = Fraction(1, p**k) if k >= 0 else Fraction(p ** (-k))
    u, v = u * scale, v * scale
    N = ctx.precision
    cap = precision_cap()
    while True:
        mod = p**N
        r = ctx.root_mod(N)
        num = u.numerator * v.denominator + v.numerator * u.denominator * r
        den = u.denominator * v.denominator
        t = num * pow(den, -1, mod) % mod
        if t != 0:
            j = 0
            while t % p == 0:
                t //= p
                j += 1
            return k + j
        if N >= cap:
            raise PrecisionExhausted(
                f"image of nonzero scalar is 0 mod {p}^{N}; raise PHIMOD_NMAX"
            )
        N = min(2 * N, cap)


def rational_sqrt(x):
    """Exact square root of a Fraction, or None."""
    x = Fraction(x)
    if x < 0:
        return None
    n = math.isqrt(x.numerator)
    d = math.isqrt(x.denominator)
    if n * n == x.numerator and d * d == x.denominator:
        return Fraction(n, d)
    return None


def field_sqrt(x, m):
    """A square root of x in Q(zeta_m), or None when no square root exists."""
    u, v = as_pair(x)
    if v == 0:
        r = rational_sqrt(u)
        if r is not None:
            return Cyclotomic(r) if m > 1 else r
        if m == 4:  # y = w*zeta with (w*zeta)^2 = -w^2
            w = rational_sqrt(-u)
            if w is not None:
                return Cyclotomic(0, w, 4)
        if m == 3:  # y = w*(1+2*zeta) has y^2 = -3*w^2
            w = rational_sqrt(-u / 3)
            if w is not None:
                return Cyclotomic(w, 2 * w, 3)
        return None
    if m not in (3, 4):
        return None
    # (s + t*zeta)^2 = x: solve for t^2 rational, then s.
    if m == 4:
        # s^2 - t^2 = u, 2 s t = v
        for t2 in _quadratic_candidates(Fraction(1), u, -Fraction(v, 2) ** 2):
            t = rational_sqrt(t2)
            if t is None or t == 0:
                continue
            s = v / (2 * t)
            if s * s - t * t == u:
                return Cyclotomic(s, t, 4)
        return None
    # m == 3: s^2 - t^2 = u - ?: (s + t*zeta)^2 = (s^2 - t^2) + (2 s t - t^2) zeta
    for t2 in _quadratic_candidates(Fraction(3), 4 * u - 2 * v, -Fraction(v) ** 2):
        t = rational_sqrt(t2)
        if t is None or t == 0:
            continue
        s = (v + t * t) / (2 * t)
        if s * s - t * t == u and 2 * s * t - t * t == v:
            return Cyclotomic(s, t, 3)
    return None


def _quadratic_candidates(a, b, c):
    """Rational roots of a*Y^2 + b*Y + c = 0."""
    disc = b * b - 4 * a * c
    s = rational_sqrt(disc)
    if s is None:
        return []
    return [(-b + s) / (2 * a), (-b - s) / (2 * a)]
