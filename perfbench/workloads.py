"""Seeded inputs, operations and correctness oracles of the benchmark workloads.

Each workload turns a seed into a stream of operations ("ops"). Inputs are
built with phimod's own constructors, but every expected result is derived
here from the family parameters alone, with arithmetic that shares no code
with the path being measured.

Calls into phimod go through module attributes (``classify.canonical_class``)
so that the tracer's rebinding of those names is seen.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from phimod import classify, cli, monodromy  # noqa: E402
from phimod.linalg import Matrix, row_reduce  # noqa: E402
from phimod.modules import FilteredPhiModule, Iso, Mu, Nu, build_family  # noqa: E402
from phimod.scalars import Cyclotomic, PrimeContext  # noqa: E402

DIGESTS_FILE = Path(__file__).resolve().parent / "scan_digests.json"
EPSILONS = (-1, 0, 1)
SCAN_HEIGHT = 10


@dataclass(frozen=True)
class Op:
    """One timed call. `m` is the cyclotomic order of the op's field (1 for Q)."""

    kind: str
    m: int
    key: str  # canonical text of the input; no two ops of a run share it
    args: tuple
    expect: tuple


# -- independent arithmetic in Q(zeta_m), elements as (u, v) = u + v*zeta --------


def z_mul(x, y, m):
    (u1, v1), (u2, v2) = x, y
    zz = v1 * v2
    if m == 3:  # zeta^2 = -1 - zeta
        return (u1 * u2 - zz, u1 * v2 + u2 * v1 - zz)
    if m == 4:  # zeta^2 = -1
        return (u1 * u2 - zz, u1 * v2 + u2 * v1)
    return (u1 * u2, Fraction(0))


def z_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def z_inv(x, m):
    u, v = x
    if m == 3:
        conj, norm = (u - v, -v), u * u - u * v + v * v
    elif m == 4:
        conj, norm = (u, -v), u * u + v * v
    else:
        conj, norm = (Fraction(1), Fraction(0)), u
    return (conj[0] / norm, conj[1] / norm)


def z_of(x):
    """(u, v) of a phimod scalar, read from its attributes."""
    if isinstance(x, Cyclotomic):
        return (x.u, x.v)
    return (Fraction(x), Fraction(0))


def z_to_scalar(x, m):
    return Cyclotomic(x[0], x[1], m) if m > 1 else x[0]


def mu_c_pair(a, b, eps, p, m):
    """c = -(a^2 + eps p + b^2 p^2) / (ab + 1), in (u, v) form."""
    num = z_add(z_add(z_mul(a, a, m), (Fraction(eps * p), Fraction(0))), z_mul(z_mul(b, b, m), (Fraction(p * p), Fraction(0)), m))
    den = z_add(z_mul(a, b, m), (Fraction(1), Fraction(0)))
    q = z_mul(num, z_inv(den, m), m)
    return (-q[0], -q[1])


def module_key(D):
    phi = ",".join(map(str, D.phi.flatten()))
    fil = ",".join(str(a) for v in D.fil1.vectors for a in v)
    return f"{D.ctx.p}|{D.ctx.m}|{phi}|{fil}"


def class_fingerprint(cls):
    """Text of a canonical class built from its fields only."""
    name = type(cls).__name__
    if name == "IsoClass":
        return f"Iso|{cls.eps}|{cls.eps_prime}"
    if name == "NuInfinityClass":
        return f"NuInfinity|{cls.eps}"
    if name == "MuGenericClass":
        u, v = z_of(cls.c)
        return f"MuGeneric|{cls.eps}|{u}|{v}"
    if name == "MuDegenerateClass":
        return f"MuDegenerate|{cls.eps}|{cls.branch.value}"
    return f"{name}|{cls!r}"


def expected_mu_class(eps, c):
    return f"MuGeneric|{eps}|{c[0]}|{c[1]}"


# -- random GL4(Z) conjugates (as in the criterion-2 round trip) -------------------
# A change of fil1 basis is not a new input: fil1 is stored echelon-reduced, so
# the module after the change equals its base and would repeat it.


def conjugate(D, rng):
    while True:
        g = Matrix([[Fraction(rng.randint(-2, 2)) for _ in range(4)] for _ in range(4)])
        if g.det():
            break
    phi = g @ D.phi @ g.inverse()
    return FilteredPhiModule(D.ctx, phi, row_reduce([g.apply(v) for v in D.fil1.vectors]))


class _Unique:
    """Redraws an input until it is new to the run; remembers short hashes of
    the keys. The input spaces are large enough that a redraw is rare in any
    plausible run, so the mix does not shift with the number of rounds; the
    bounded number of draws turns an exhausted space into an error, not a hang."""

    def __init__(self, key):
        self.key = key
        self.seen = set()

    def take(self, draw, tries=1000):
        """draw() -> (input, expected); returns (input, expected, key)."""
        for _ in range(tries):
            item, expect = draw()
            key = self.key(item)
            short = hashlib.blake2b(key.encode(), digest_size=8).digest()
            if short not in self.seen:
                self.seen.add(short)
                return item, expect, key
        raise RuntimeError(f"no new input in {tries} draws")


# Denominators of the rational parameters: prime to every p of the workloads,
# so that drawn parameters keep the valuations the table asks for.
DENOMINATORS = (1, 2, 3, 4, 5, 6, 8, 9)


def _unit(rng, p, lo=-20, hi=20):
    """A rational of valuation 0 at p."""
    while True:
        x = Fraction(rng.randint(lo, hi), rng.choice(DENOMINATORS))
        if x and x.numerator % p:
            return x


# -- classify_q ------------------------------------------------------------------

Q_CLASSIFY_PRIMES = (7, 13)
# Per (p, eps) and round: the family kinds drawn. Mu dominates, as in the
# criterion-2 parameter grid. Five modules are timed per drawn member: a Mu or
# Nu member is new each time and is timed as itself and as four GL4(Z)
# conjugates; Iso has only two members per (p, eps), so its five are conjugates.
CLASSIFY_KINDS = ("mu", "mu", "mu", "nu", "iso")
MODULES_PER_MEMBER = 5


def _q_mu_params(eps, p, rng):
    """Table-valid mu parameters: v(a) >= 1 and v(b) >= 0, or v(a) = v(b) + 1."""
    while True:
        if rng.random() < 0.6:
            a = p * Fraction(rng.randint(-30, 30), rng.choice(DENOMINATORS))
            b = Fraction(rng.randint(-30, 30), rng.choice(DENOMINATORS))
        else:
            j = rng.choice((-2, -1, 0))
            a = _unit(rng, p) * Fraction(p) ** (j + 1)
            b = _unit(rng, p) * Fraction(p) ** j
        if a * b != -1:
            return Mu(eps, a, b)


def _q_base(kind, eps, p, rng):
    """Family params and the class text predicted from them."""
    if kind == "iso":
        ep = rng.choice((1, -1))
        return Iso(eps, ep), f"Iso|{eps}|{ep}"
    if kind == "nu":
        t = Fraction(rng.randint(-1000, 1000), rng.choice(DENOMINATORS))
        a = eps * p + p * p * t
        if not t:  # the point [eps p : 0 : 1] has c = infinity
            return Nu(eps, a), f"NuInfinity|{eps}"
        # the point [a' : 0 : 1]: c = -(a'^2 - eps p a' + p^2) / (eps p - a') - eps p
        c = -(a * a - eps * p * a + p * p) / (eps * p - a) - eps * p
        return Nu(eps, a), expected_mu_class(eps, (c, Fraction(0)))
    params = _q_mu_params(eps, p, rng)
    c = mu_c_pair(z_of(params.a), z_of(params.b), eps, p, 1)
    return params, expected_mu_class(eps, c)


def classify_q_ops(seed):
    """Endless rounds; each round covers every (p, eps) with the same family
    and variant mix, in a seeded order, so runs of any length keep one mix."""
    rng = random.Random(seed)
    ctxs = {p: PrimeContext(p) for p in Q_CLASSIFY_PRIMES}
    unique = _Unique(module_key)
    while True:
        plan = [(p, eps, kind) for p in Q_CLASSIFY_PRIMES for eps in EPSILONS for kind in CLASSIFY_KINDS]
        rng.shuffle(plan)
        for p, eps, kind in plan:
            if kind == "iso":
                base, expect = _q_member(kind, eps, p, ctxs[p], rng)
                conjugates = MODULES_PER_MEMBER
            else:
                base, expect, key = unique.take(lambda: _q_member(kind, eps, p, ctxs[p], rng))
                yield Op("classify", 1, key, (base,), (expect,))
                conjugates = MODULES_PER_MEMBER - 1
            for _ in range(conjugates):
                D, _, key = unique.take(lambda: (conjugate(base, rng), None))
                yield Op("classify", 1, key, (D,), (expect,))


def _q_member(kind, eps, p, ctx, rng):
    params, expect = _q_base(kind, eps, p, rng)
    return build_family(params, ctx), expect


def run_classify(op):
    return class_fingerprint(classify.canonical_class(op.args[0]))


def check_classify(op, out):
    return out == op.expect[0]


# -- cyclotomic ------------------------------------------------------------------

CYCLO_FIELDS = ((3, 7), (3, 13), (4, 13), (4, 17))
# A prime element above p: zeta maps to the smallest root of the cyclotomic
# polynomial mod p, and pi maps to 0, so v(pi^k) = k and large k forces the
# precision escalation in scalars.valuation.
PRIME_ELEMENT = {
    (3, 7): (Fraction(2), Fraction(-1)),  # 2 - zeta_3, norm 7
    (3, 13): (Fraction(3), Fraction(-1)),  # 3 - zeta_3, norm 13
    (4, 13): (Fraction(3), Fraction(2)),  # 3 + 2i, norm 13
    (4, 17): (Fraction(4), Fraction(-1)),  # 4 - i, norm 17
}
SQRT_EPS2_MINUS_4 = {  # sqrt(eps^2 - 4) in Q(zeta_m), where it exists
    (3, 1): (Fraction(1), Fraction(2)),
    (3, -1): (Fraction(1), Fraction(2)),
    (4, 0): (Fraction(0), Fraction(2)),
}
PRIME_POWER_MAX = 40


def _small_z(rng, lo, hi):
    return (Fraction(rng.randint(lo, hi)), Fraction(rng.randint(lo, hi)))


def _prime_to_pi(x, m, p):
    """True when pi does not divide x in Z[zeta]: x is not 0 where pi is."""
    u0, v0 = PRIME_ELEMENT[(m, p)]
    root = -u0 * pow(int(v0), -1, p)  # the image of zeta mod p
    return (x[0] + x[1] * root) % p != 0


def _cyclo_generic(m, p, eps, rng):
    """Mu(eps, p*alpha, beta) with alpha, beta in Z[zeta]: v(a) >= 1, v(b) >= 0,
    and c off the degenerate value -eps p. Returns the params and c."""
    while True:
        a = z_mul((Fraction(p), Fraction(0)), _small_z(rng, -6, 6), m)
        b = _small_z(rng, -6, 6)
        ab1 = z_add(z_mul(a, b, m), (Fraction(1), Fraction(0)))
        if not any(ab1):
            continue
        c = mu_c_pair(a, b, eps, p, m)
        if c != (Fraction(-eps * p), Fraction(0)):
            return Mu(eps, z_to_scalar(a, m), z_to_scalar(b, m)), c


def _cyclo_prime_power(m, p, rng):
    """Mu(0, w pi^k, 0) with w prime to pi: c = -(w pi^k)^2, so v(c) = 2k."""
    k = rng.randint(1, PRIME_POWER_MAX)
    while True:
        a = _small_z(rng, -15, 15)
        if _prime_to_pi(a, m, p):
            break
    pi = PRIME_ELEMENT[(m, p)]
    for _ in range(k):
        a = z_mul(a, pi, m)
    zero = (Fraction(0), Fraction(0))
    return Mu(0, z_to_scalar(a, m), Fraction(0)), mu_c_pair(a, zero, 0, p, m)


def _cyclo_line(m, p, rng):
    """Mu(eps, -mu*s, s) on a degenerate line, mu a root of X^2 + eps p X + p^2."""
    eps = rng.choice([e for (mm, e) in SQRT_EPS2_MINUS_4 if mm == m])
    s = SQRT_EPS2_MINUS_4[(m, eps)]
    sign = rng.choice((1, -1))
    mu = ((-eps * p + sign * p * s[0]) / 2, sign * p * s[1] / 2)
    while True:
        scale = _small_z(rng, -30, 30)
        if any(scale):
            break
    a = z_mul(mu, scale, m)
    return Mu(eps, z_to_scalar((-a[0], -a[1]), m), z_to_scalar(scale, m))


def _params_key(args):
    params, ctx = args
    return f"{ctx.p}|{ctx.m}|{params!r}"


def cyclotomic_ops(seed):
    """Rounds of a fixed mix per field. Canonical class with Wintenberger type:
    a member and one of its GL4(Z) conjugates for each eps (split cases cost
    about twice the others) and one prime-power member. Monodromy group: one generic
    member and one degenerate-line member; and, while unused ones remain, one
    Mu(eps, 0, 0) per round."""
    rng = random.Random(seed)
    ctxs = {f: PrimeContext(f[1], f[0]) for f in CYCLO_FIELDS}
    modules = _Unique(module_key)
    groups = _Unique(_params_key)
    origins = [(f, "origin", eps) for f in CYCLO_FIELDS for eps in EPSILONS]
    rng.shuffle(origins)
    while True:
        plan = []
        for f in CYCLO_FIELDS:
            plan += [(f, "class", eps) for eps in EPSILONS]
            plan += [(f, "class_prime_power", 0), (f, "group", rng.choice(EPSILONS)), (f, "group_line", None)]
        if origins:
            plan.append(origins.pop())
        rng.shuffle(plan)
        for f, what, eps in plan:
            m, p = f
            ctx = ctxs[f]
            if what == "origin":
                args = (Mu(eps, Fraction(0), Fraction(0)), ctx)
                yield Op("group", m, _params_key(args), args, ("Gm2",))
            elif what == "class":
                base, c, key = modules.take(lambda: _cyclo_member(_cyclo_generic(m, p, eps, rng), ctx))
                expect = (expected_mu_class(eps, c), "B")
                yield Op("class", m, key, (base,), expect)
                D, _, key = modules.take(lambda: (conjugate(base, rng), None))
                yield Op("class", m, key, (D,), expect)
            elif what == "class_prime_power":
                D, c, key = modules.take(lambda: _cyclo_member(_cyclo_prime_power(m, p, rng), ctx))
                yield Op("class", m, key, (D,), (expected_mu_class(0, c), "B"))
            elif what == "group":
                args, _, key = groups.take(lambda: ((_cyclo_generic(m, p, eps, rng)[0], ctx), None))
                yield Op("group", m, key, args, ("GL2FiberDet",))
            else:
                args, _, key = groups.take(lambda: ((_cyclo_line(m, p, rng), ctx), None))
                yield Op("group", m, key, args, ("Ga2SemidirectGm2",))


def _cyclo_member(params_and_c, ctx):
    params, c = params_and_c
    return build_family(params, ctx), c


def run_cyclotomic(op):
    if op.kind == "class":
        D = op.args[0]
        cls = classify.canonical_class(D)
        return f"{class_fingerprint(cls)}|{classify.wintenberger_type(D).name}"
    g = monodromy.monodromy_group(*op.args)
    return f"{g.kind}|{g.dim}|{g.solvable}"


def check_cyclotomic(op, out):
    if op.kind == "class":
        return out == f"{op.expect[0]}|{op.expect[1]}"
    kind, dim, solvable = out.split("|")
    want = op.expect[0]
    # the distribution table: Gm2 (dim 2), Ga2 x| Gm2 (dim 4, solvable),
    # GL2 x_det GL2 (dim 7, not solvable)
    table = {"Gm2": ("2", "True"), "Ga2SemidirectGm2": ("4", "True"), "GL2FiberDet": ("7", "False")}
    return kind == want and (dim, solvable) == table[want]


# -- scan_q ----------------------------------------------------------------------

SCAN_PRIMES = (7, 11, 13)


def scan_argv(p, eps, height):
    return ["scan", "--prime", str(p), "--epsilon", str(eps), "--height", str(height), "--format", "json"]


def scan_q_ops(seed):
    """Three rounds of a seeded Latin square: each round scans every prime once
    and every eps once, and the three rounds cover all nine (p, eps), after
    which the stream ends. An eps = 0 scan takes about three quarters of the
    time of an eps = +-1 scan and p = 7 about 5 % less than p = 11 or 13, so a
    run keeps whole rounds to keep that mix."""
    rng = random.Random(seed)
    primes = list(SCAN_PRIMES)
    eps_order = list(EPSILONS)
    rng.shuffle(primes)
    rng.shuffle(eps_order)
    for shift in range(len(primes)):
        pairs = [(primes[(i + shift) % len(primes)], eps) for i, eps in enumerate(eps_order)]
        rng.shuffle(pairs)
        for p, eps in pairs:
            yield Op("scan", 1, f"{p}|{eps}|{SCAN_HEIGHT}", (p, eps, SCAN_HEIGHT), ())


def run_scan(op):
    p, eps, height = op.args
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(scan_argv(p, eps, height))
    return code, buf.getvalue()


def load_scan_digests():
    with open(DIGESTS_FILE) as fh:
        return json.load(fh)


def expected_scan_group(c_text, eps, p):
    """Monodromy group of a scan row over Q from its c alone."""
    if c_text == "inf":
        return "Gm3" if eps == 0 else "GL2FiberDet"
    c = Fraction(c_text)
    if c in (2 * p, -2 * p):
        return "GL2"
    if c == -eps * p:  # over Q the lines are not rational, so this is Gm2
        return "Gm2"
    return "GL2FiberDet"


def check_scan(op, out, digests=None):
    """Exit code 0, stdout byte-identical to the stored digest, and every
    row's group as the table gives it from c."""
    code, text = out
    digests = load_scan_digests() if digests is None else digests
    p, eps, height = op.args
    if code != 0:
        return False
    if digests.get(f"{p},{eps},{height}") != sha256(text):
        return False
    lines = text.splitlines()
    for line in lines[:-1]:
        row = json.loads(line)
        if row["group"]["type"] != expected_scan_group(row["c"], eps, p):
            return False
    return "summary" in json.loads(lines[-1])


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


# -- registry --------------------------------------------------------------------


def scan_digest(out):
    return f"{out[0]}|{sha256(out[1])}"


@dataclass(frozen=True)
class Workload:
    name: str
    ops: object  # seed -> iterator of Op
    run: object  # Op -> output
    check: object  # (Op, output) -> bool
    digest: object  # output -> text compared between untraced and traced runs
    contexts: tuple  # (p, m) of the PrimeContexts the workload builds
    whole_rounds: int  # ops per round that a run never cuts (0: any cut)


WORKLOADS = {
    "classify_q": Workload(
        "classify_q", classify_q_ops, run_classify, check_classify, str, tuple((p, 1) for p in Q_CLASSIFY_PRIMES), 0
    ),
    "scan_q": Workload(
        "scan_q", scan_q_ops, run_scan, check_scan, scan_digest, tuple((p, 1) for p in SCAN_PRIMES), len(EPSILONS)
    ),
    "cyclotomic": Workload(
        "cyclotomic", cyclotomic_ops, run_cyclotomic, check_cyclotomic, str, tuple((p, m) for m, p in CYCLO_FIELDS), 0
    ),
}


def input_digest(ops):
    """sha256 over the input keys of a sequence of ops."""
    h = hashlib.sha256()
    for op in ops:
        h.update(op.key.encode() + b"\n")
    return h.hexdigest()
