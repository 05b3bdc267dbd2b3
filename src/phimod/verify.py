"""Verification suites behind `phimod verify` and the acceptance tests.

Every check is exact (no tolerances); each numbered criterion carries its own
wall-clock budget.
"""

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import weil
from .classify import (
    Branch,
    IsoClass,
    ModuliPoint,
    MuDegenerateClass,
    WintenbergerType,
    canonical_class,
    c_of_mu_params,
    mu_roots,
    point_from_module,
)
from .lattices import (
    Region,
    c_in_pZp,
    construct_lattice,
    proof_identity_holds,
    valuation_region,
)
from .lattices import verify_lattice as lattice_conditions_hold
from .linalg import Matrix, row_reduce
from .moduli import (
    companion_phi,
    crosscheck_c_definitions,
    git_coefficient_det,
    mu_inverse,
    vandermonde_product,
    verify_invariant_ring,
)
from .modules import (
    FilteredPhiModule,
    Iso,
    Mu,
    Nu,
    Prod,
    build_family,
    check_s1_s2,
    construct_skew_form,
    is_admissible,
    validate_geometric_params,
    verify_s3,
)
from .monodromy import group_type, monodromy_group, monodromy_lie, structural_membership_check
from .scalars import Cyclotomic, PrimeContext, valuation, zeta
from .scan import scan


@dataclass
class CriterionResult:
    number: int
    name: str
    ok: bool
    detail: str = ""
    elapsed: float = 0.0
    budget: float | None = None

    @property
    def in_budget(self):
        return self.budget is None or self.elapsed < self.budget

    def line(self):
        mark = "PASS" if (self.ok and self.in_budget) else "FAIL"
        timing = f"{self.elapsed:.1f}s" + (f" (budget {self.budget:.0f}s)" if self.budget else "")
        detail = f" [{self.detail}]" if self.detail else ""
        return f"[{mark}] criterion {self.number}: {self.name} - {timing}{detail}"


def _criterion(number, name, budget=None):
    def deco(fn):
        def run():
            t0 = time.perf_counter()
            ok, detail = fn()
            return CriterionResult(number, name, ok, detail, time.perf_counter() - t0, budget)

        run.number = number
        return run

    return deco


SMALL_PRIMES = (7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


# -- criterion 1 ---------------------------------------------------------------

@_criterion(1, "Weil enumeration matches the Galois-orbit brute force, 7 <= p <= 97", budget=5.0)
def criterion_1():
    bad = []
    for p in SMALL_PRIMES:
        listed = weil.enumerate_ss_weil_deg4(p)
        brute = weil.brute_force_ss_weil_deg4(p)
        if len(listed) != 5:
            bad.append((p, "count"))
        if {w.coefficients for w in listed} != {w.coefficients for w in brute}:
            bad.append((p, "oracle"))
        if not all(weil.is_ss_weil(w.coefficients, p) for w in listed):
            bad.append((p, "is_ss_weil"))
        if not all(weil.satisfies_functional_equation(w.coefficients, p) for w in listed):
            bad.append((p, "functional-eq"))
    return not bad, str(bad) if bad else f"{len(SMALL_PRIMES)} primes"


# -- criterion 2 -----------------------------------------------------------------

def geometric_param_grid(eps, ctx):
    """Deterministic table-valid parameter sets: iso, nu and mu (regions D3 and L)."""
    p = ctx.p
    f = Fraction
    params = [Iso(eps, 1), Iso(eps, -1)]
    t_values = [
        f(0), f(1), f(-1), f(2), f(-2), f(3), f(-3), f(4), f(1, 2), f(-1, 3),
        f(5, 2), f(7), f(-5), f(2, 3), f(9), f(-4),
    ]
    for t in t_values:
        params.append(Nu(eps, eps * p + p * p * t))
    a_pool = [f(0), f(p), f(-p), f(2 * p), f(p, 2), f(3 * p), f(p * p), f(-p, 3), f(5 * p), f(-2 * p)]
    b_pool = [f(0), f(1), f(-1), f(2), f(1, 2), f(-3), f(p), f(2, 3), f(-1, 4), f(4)]
    for a in a_pool:
        for b in b_pool:
            params.append(Mu(eps, a, b))  # v(a) >= 1, v(b) >= 0
    units = [f(1), f(2), f(-1), f(3, 2), f(-2, 3), f(5)]
    for w in units:
        for w2 in units[:5]:
            for j in (-2, -1, 0):
                a = w * f(p) ** (j + 1)
                b = w2 * f(p) ** j
                params.append(Mu(eps, a, b))  # v(a) = v(b) + 1
    return [q for q in params if validate_geometric_params(q, ctx)]


def _random_fil1_change(D, rng):
    a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
    while a * d - b * c == 0:
        a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
    v1, v2 = D.fil1.vectors
    w1 = tuple(a * x + b * y for x, y in zip(v1, v2))
    w2 = tuple(c * x + d * y for x, y in zip(v1, v2))
    return FilteredPhiModule(D.ctx, D.phi, row_reduce([w1, w2]))


def _random_conjugate(D, rng):
    while True:
        g = Matrix([[Fraction(rng.randint(-2, 2)) for _ in range(4)] for _ in range(4)])
        if g.det():
            break
    ginv = g.inverse()
    phi = g @ D.phi @ ginv
    fil = row_reduce([g.apply(v) for v in D.fil1.vectors])
    return FilteredPhiModule(D.ctx, phi, fil)


@_criterion(2, "classification round trip over >= 200 geometric parameters per eps, p in {7, 13}", budget=60.0)
def criterion_2():
    rng = random.Random(20250811)
    bad = []
    n_params = 0
    for p in (7, 13):
        for eps in (-1, 0, 1):
            ctx = PrimeContext(p)
            grid = geometric_param_grid(eps, ctx)
            if len(grid) < 200:
                bad.append((p, eps, "grid", len(grid)))
            for params in grid:
                n_params += 1
                D = build_family(params, ctx)
                if not check_s1_s2(D).ok:
                    bad.append((p, params, "s1s2"))
                    continue
                if not is_admissible(D).admissible:
                    bad.append((p, params, "admissible"))
                    continue
                if isinstance(params, Prod):
                    form = construct_skew_form(D)
                else:
                    form = construct_skew_form(D, point_from_module(D))
                if not verify_s3(D, form):
                    bad.append((p, params, "s3"))
                    continue
                base = canonical_class(D)
                for _ in range(5):
                    if canonical_class(_random_fil1_change(D, rng)) != base:
                        bad.append((p, params, "fil1-change"))
                        break
                for _ in range(5):
                    if canonical_class(_random_conjugate(D, rng)) != base:
                        bad.append((p, params, "conjugation"))
                        break
    return not bad, str(bad[:3]) if bad else f"{n_params} parameter sets"


# -- criterion 3 -----------------------------------------------------------------

@_criterion(3, "injectivity of c off -eps p, and the three degenerate branches at p=13, m=4", budget=30.0)
def criterion_3():
    rng = random.Random(31337)
    ctx = PrimeContext(7)
    bad = []
    made = 0
    while made < 100:
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
        if a * b == -1:
            continue
        eps = rng.choice((-1, 0, 1))
        c = c_of_mu_params(a, b, eps, 7)
        if c.value == -eps * 7:
            continue
        lam = Fraction(rng.randint(1, 5))
        c0 = c.value
        A2 = lam * lam + c0 * lam + 49
        A1 = 2 * a * lam + c0 * (a + lam * b) + 98 * b
        if A2 == 0:
            continue
        t = -A1 / A2
        if t == 0:
            continue
        a2, b2 = a + lam * t, b + t
        if a2 * b2 == -1 or c_of_mu_params(a2, b2, eps, 7) != c:
            continue
        if canonical_class(build_family(Mu(eps, a, b), ctx)) != canonical_class(
            build_family(Mu(eps, a2, b2), ctx)
        ):
            bad.append(("equal-c", eps, (a, b), (a2, b2)))
        made += 1

    made = 0
    while made < 100:
        eps = rng.choice((-1, 0, 1))
        a, b = Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9))
        a2, b2 = Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9))
        if a * b == -1 or a2 * b2 == -1:
            continue
        if c_of_mu_params(a, b, eps, 7) == c_of_mu_params(a2, b2, eps, 7):
            continue
        if canonical_class(build_family(Mu(eps, a, b), ctx)) == canonical_class(
            build_family(Mu(eps, a2, b2), ctx)
        ):
            bad.append(("distinct-c", eps, (a, b), (a2, b2)))
        made += 1

    ctx13 = PrimeContext(13, 4)
    mu1, mu2 = mu_roots(0, ctx13)
    branches = set()
    e1 = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
    for y in range(0, 5):
        for mu, want in ((mu1, Branch.LINE1), (mu2, Branch.LINE2)):
            P = ModuliPoint.of(-mu, Cyclotomic(y), Cyclotomic(1))
            D = FilteredPhiModule(
                ctx13, companion_phi(0, 13), row_reduce([e1, (Fraction(0),) + tuple(P.coords)])
            )
            cls = canonical_class(D)
            if not isinstance(cls, MuDegenerateClass) or cls.branch != want:
                bad.append((str(P), cls))
            else:
                branches.add(cls.branch)
    origin = canonical_class(
        FilteredPhiModule(
            ctx13,
            companion_phi(0, 13),
            row_reduce([e1, (Fraction(0), Fraction(0), Fraction(1), Fraction(0))]),
        )
    )
    if isinstance(origin, MuDegenerateClass):
        branches.add(origin.branch)
    if branches != {Branch.LINE1, Branch.LINE2, Branch.ORIGIN}:
        bad.append(("branches", branches))
    return not bad, str(bad[:3]) if bad else "200 pairs + 3 branches"


# -- criterion 4 -----------------------------------------------------------------

@_criterion(4, "monodromy table on >= 100 geometric samples per family and eps", budget=300.0)
def criterion_4():
    rng = random.Random(777)
    bad = []
    counts = {"prod": 0, "nu": 0, "mu": 0, "iso": 0}
    ctx7 = PrimeContext(7)
    for ep in (1, -1):
        g = monodromy_group(Prod(ep), ctx7)
        counts["prod"] += 1
        if g.dim != 2:
            bad.append(("prod", ep, g))
    for eps in (-1, 0, 1):
        for ep in (1, -1):
            params = Iso(eps, ep)
            L = monodromy_lie(build_family(params, ctx7))
            g = group_type(L)
            counts["iso"] += 1
            if g.dim != 4 or g.solvable:
                bad.append(("iso", eps, ep, g))
            if not structural_membership_check(params, ctx7, L):
                bad.append(("iso-membership", eps, ep))
    for eps in (-1, 0, 1):
        made = 0
        while made < 100:
            t = Fraction(rng.randint(-40, 40), rng.choice((1, 2, 3)))
            a_prime = eps * 7 + 49 * t
            g = monodromy_group(Nu(eps, a_prime), ctx7)
            counts["nu"] += 1
            expected = 3 if (a_prime == 0 and eps == 0) else 7
            if g.dim != expected:
                bad.append(("nu", eps, a_prime, g))
            made += 1
        if eps == 0 and monodromy_group(Nu(0, Fraction(0)), ctx7).dim != 3:
            bad.append(("nu-gm3",))
    for eps in (-1, 0, 1):
        samples = [q for q in geometric_param_grid(eps, ctx7) if isinstance(q, Mu)][:100]
        if len(samples) < 100:
            bad.append(("mu-samples", eps, len(samples)))
        for params in samples:
            counts["mu"] += 1
            D = build_family(params, ctx7)
            L = monodromy_lie(D)
            g = group_type(L)
            c = c_of_mu_params(params.a, params.b, eps, 7)
            if c.value == -eps * 7:
                want_dim = 2 if (params.a == 0 and params.b == 0) else 4
                if g.dim != want_dim or not g.solvable:
                    bad.append(("mu-degenerate", eps, params, g))
            elif g.dim != 7:
                bad.append(("mu", eps, params, g))
            if not structural_membership_check(params, ctx7, L):
                bad.append(("mu-membership", eps, params))
    # split-field samples: the degenerate lines carry dim-4 solvable groups
    for eps, ctx in ((1, PrimeContext(7, 3)), (-1, PrimeContext(7, 3)), (0, PrimeContext(13, 4))):
        one = Cyclotomic(1)
        for mu in mu_roots(eps, ctx):
            for scale_b in (one, one * 2):
                params = Mu(eps, -mu * scale_b, scale_b)
                counts["mu"] += 1
                D = build_family(params, ctx)
                L = monodromy_lie(D)
                g = group_type(L)
                if g.dim != 4 or not g.solvable:
                    bad.append(("mu-line", eps, ctx.p, g))
                if not structural_membership_check(params, ctx, L):
                    bad.append(("mu-line-membership", eps, ctx.p))
    return not bad, str(bad[:3]) if bad else str(counts)


# -- criterion 5 -----------------------------------------------------------------

@_criterion(5, "non-semisimple exactly on the degenerate line class at p=7, m=3")
def criterion_5():
    rng = random.Random(55)
    ctx7 = PrimeContext(7)
    ctx73 = PrimeContext(7, 3)
    z3 = zeta(3)
    bad = []
    if monodromy_group(Mu(1, -7 * z3, Cyclotomic(1)), ctx73).kind != "Ga2SemidirectGm2":
        bad.append("distinguished module not Ga2xGm2")
    made = 0
    while made < 50:
        a = Fraction(7) * Fraction(rng.randint(-6, 6), rng.choice((1, 2)))
        b = Fraction(rng.randint(-6, 6), rng.choice((1, 3)))
        params = Mu(1, a, b)
        if a * b == -1 or not validate_geometric_params(params, ctx73):
            continue
        if c_of_mu_params(a, b, 1, 7).value == -7:
            continue
        if monodromy_group(params, ctx73).kind == "Ga2SemidirectGm2":
            bad.append(("should-be-semisimple", a, b))
        made += 1
    if monodromy_group(Prod(-1), ctx7).kind != "Gm2":
        bad.append("Prod(-1) not Gm2")
    return not bad, str(bad[:3]) if bad else "1 + 50 + 1 modules"


# -- criterion 6 -----------------------------------------------------------------

@_criterion(6, "Wintenberger type A <=> v_p(c) <= 0 with the family-level cross-check, H=5")
def criterion_6():
    bad = []
    for eps in (0, 1):
        ctx = PrimeContext(7)
        for row in scan(ctx, eps, 5, with_groups=False):
            v = row.c.vp(ctx)
            if (row.wintenberger is WintenbergerType.A) != (v <= 0):
                bad.append((eps, row.raw, "valuation-rule"))
            x, y, z = row.point.coords
            if y == 0 and z != 0:
                if valuation(x / z - eps * 7, ctx) >= 2 and row.wintenberger is not WintenbergerType.A:
                    bad.append((eps, row.raw, "nu-family-A"))
            if isinstance(row.cls, IsoClass) and row.wintenberger is not WintenbergerType.B:
                bad.append((eps, row.raw, "iso-B"))
            if y != 0 and not row.c.is_infinity:
                a, b = mu_inverse(row.point, eps, 7)
                if validate_geometric_params(Mu(eps, a, b), ctx):
                    if row.wintenberger is not WintenbergerType.B:
                        bad.append((eps, row.raw, "mu-family-B"))
    return not bad, str(bad[:3])


# -- criterion 7 -----------------------------------------------------------------

@_criterion(7, "invariant ring to degree 12, section determinant, c-definition crosscheck", budget=30.0)
def criterion_7():
    ring = verify_invariant_ring(12)
    bad = list(ring.violations[:3])
    rng = random.Random(4242)
    made = 0
    while made < 50:
        lam = tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 5)) for _ in range(4))
        if len(set(lam)) != 4:
            continue
        if git_coefficient_det(lam) != vandermonde_product(lam):
            bad.append(("det", lam))
        made += 1
    cross = crosscheck_c_definitions(100, seed=99)
    bad.extend(cross.mismatches[:3])
    return not bad, str(bad[:3])


# -- criterion 8 -----------------------------------------------------------------

@_criterion(8, "valuation-region grid equivalence and the lattice pipeline", budget=10.0)
def criterion_8():
    ctx = PrimeContext(7)
    bad = []
    n = 0
    for i in range(-7, 8):
        for j in range(-7, 8):
            for w in (1, 2, 3):
                for w2 in (1, 2, 3):
                    a = Fraction(w) * Fraction(7) ** i
                    b = Fraction(w2) * Fraction(7) ** j
                    for eps in (-1, 0, 1):
                        n += 1
                        region = valuation_region(a, b, ctx)
                        in_pzp = c_in_pZp(a, b, eps, ctx)
                        if in_pzp != (region in (Region.D3, Region.L)):
                            bad.append((a, b, eps))
                        if in_pzp:
                            N = construct_lattice(a, b, eps, ctx)
                            if not lattice_conditions_hold(N, a, b, eps, ctx):
                                bad.append((a, b, eps, "verify"))
    rng = random.Random(5)
    for _ in range(100):
        a = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
        b = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
        if a == 0 or a * b == -1:
            continue
        if not proof_identity_holds(a, b, rng.choice((-1, 0, 1)), 7):
            bad.append(("identity", a, b))
    return not bad, str(bad[:3]) if bad else f"{n} grid samples"


# -- criterion 9 -----------------------------------------------------------------

@_criterion(9, "monodromy distribution over the p=7, eps=0, H=10 scan", budget=120.0)
def criterion_9():
    ctx = PrimeContext(7)
    rows = scan(ctx, 0, 10, with_groups=True)
    bad = []
    for row in rows:
        kind = row.group.kind
        if row.c.is_infinity:
            ok = kind == "Gm3"
        elif row.c.value in (14, -14):
            ok = kind == "GL2"
        elif row.c.value == 0:
            ok = kind == "Gm2"
        else:
            ok = kind == "GL2FiberDet"
        if not ok:
            bad.append((row.raw, str(row.c), kind))
    return not bad, str(bad[:3]) if bad else f"{len(rows)} rows"


CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
}

SUITES = {
    "weil": (1,),
    "classify": (2, 3, 6),
    "monodromy": (4, 5, 9),
    "git": (7,),
    "lattice": (8,),
}


@dataclass
class SuiteReport:
    suite: str
    results: list = field(default_factory=list)

    @property
    def ok(self):
        return all(r.ok and r.in_budget for r in self.results)

    @property
    def passed(self):
        return sum(1 for r in self.results if r.ok and r.in_budget)

    def lines(self):
        out = [r.line() for r in self.results]
        out.append(
            f"[{'PASS' if self.ok else 'FAIL'}] suite {self.suite}: "
            f"{self.passed}/{len(self.results)} criteria"
        )
        return out


def run_suite(name):
    report = SuiteReport(name)
    for number in SUITES[name]:
        report.results.append(CRITERIA[number]())
    return report


def run_suites(names):
    if "all" in names:
        names = list(SUITES)
    return [run_suite(name) for name in names]
