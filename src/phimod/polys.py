"""Dense univariate polynomials as ascending coefficient lists.

Coefficients live in any exact field with +, -, *, / (Fraction or Cyclotomic).
"""

from fractions import Fraction
from functools import lru_cache


def trim(p):
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return p


def degree(p):
    p = trim(p)
    return len(p) - 1 if p else -1


def add(p, q):
    n = max(len(p), len(q))
    return trim([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)])


def sub(p, q):
    n = max(len(p), len(q))
    return trim([(p[i] if i < len(p) else 0) - (q[i] if i < len(q) else 0) for i in range(n)])


def mul(p, q):
    p, q = trim(p), trim(q)
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if not a:
            continue
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return trim(out)


def scale(p, c):
    return trim([a * c for a in p])


def divmod_poly(p, q):
    """Exact division with remainder; q need not be monic."""
    p, q = trim(p), trim(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [0] * max(len(p) - len(q) + 1, 0)
    rem = list(p)
    dq = len(q) - 1
    lead = q[-1]
    while len(rem) - 1 >= dq and rem:
        k = len(rem) - 1 - dq
        c = rem[-1] / lead
        quot[k] = c
        for i, b in enumerate(q):
            rem[k + i] = rem[k + i] - c * b
        rem = trim(rem)
    return trim(quot), rem


def divides(q, p):
    _, r = divmod_poly(p, q)
    return not r


def monic(p):
    p = trim(p)
    if not p:
        return p
    return [a / p[-1] for a in p]


def gcd(p, q):
    p, q = trim(p), trim(q)
    while q:
        _, r = divmod_poly(p, q)
        p, q = q, r
    return monic(p)


def derivative(p):
    return trim([p[i] * i for i in range(1, len(p))])


def is_squarefree(p):
    return degree(gcd(p, derivative(p))) == 0


def evaluate(p, x):
    acc = 0
    for c in reversed(trim(p)):
        acc = acc * x + c
    return acc


def eval_matrix(p, M):
    from .linalg import Matrix

    n = M.n
    acc = Matrix.zeros(n)
    for c in reversed(trim(p)):
        acc = acc @ M + Matrix.identity(n) * c
    return acc


@lru_cache(maxsize=None)
def cyclotomic(m):
    """The m-th cyclotomic polynomial over Q, ascending integer coefficients."""
    if m == 1:
        return (Fraction(-1), Fraction(1))
    p = [Fraction(-1)] + [Fraction(0)] * (m - 1) + [Fraction(1)]  # X^m - 1
    for d in range(1, m):
        if m % d == 0:
            p, r = divmod_poly(p, list(cyclotomic(d)))
            if r:
                raise ArithmeticError(f"Phi_{d} does not divide X^{m} - 1")
    return tuple(p)


def to_string(p, var="X"):
    p = trim(p)
    if not p:
        return "0"
    parts = []
    for i in range(len(p) - 1, -1, -1):
        c = p[i]
        if not c:
            continue
        if i == 0:
            parts.append(f"{c}")
        elif i == 1:
            parts.append(f"{c}*{var}" if c != 1 else var)
        else:
            parts.append(f"{c}*{var}^{i}" if c != 1 else f"{var}^{i}")
    return " + ".join(parts).replace("+ -", "- ")
