"""Command-line surface: weil, classify, monodromy, scan, verify.

Exit codes: 0 success, 1 usage error, 2 verification failure, 3 precision
exhaustion.
"""

import argparse
import json
import sys

from . import verify as verify_mod
from .classify import canonical_class, class_to_record, c_of_module, wintenberger_type
from .modules import (
    DegenerateDenominator,
    InadmissibleModule,
    Iso,
    Mu,
    Nu,
    Prod,
    build_family,
    module_from_record,
    validate_geometric_params,
)
from .monodromy import InvariantViolation, group_type, monodromy_lie
from .scalars import NoRootError, PrecisionExhausted, PrimeContext, scalar_from_str, scalar_to_str
from .scan import histogram, row_to_record, scan
from .weil import PrimeTooSmall, enumerate_ss_weil_deg4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_context_flags(sub):
    sub.add_argument("--prime", type=int, required=True, help="prime p >= 7")
    sub.add_argument("--cyclotomic", type=int, default=1, choices=(1, 3, 4), help="scalar field Q(zeta_m)")
    sub.add_argument("--precision", type=int, default=32, help="p-adic embedding precision")


def _context(args):
    return PrimeContext(args.prime, args.cyclotomic, args.precision)


def _family_params(args, ctx):
    tokens = [t for t in (args.params or "").split(",") if t != ""]
    scalars = [scalar_from_str(t, ctx.m) for t in tokens]
    fam = args.family
    if fam == "prod":
        if len(scalars) != 1:
            raise ValueError("prod takes one parameter: eps' in {1, -1}")
        return Prod(int(scalars[0]))
    if fam == "iso":
        if len(scalars) != 1:
            raise ValueError("iso takes one parameter: eps' in {1, -1}")
        return Iso(args.epsilon, int(scalars[0]))
    if fam == "nu":
        if len(scalars) != 1:
            raise ValueError("nu takes one parameter: a'")
        return Nu(args.epsilon, scalars[0])
    if fam == "mu":
        if len(scalars) != 2:
            raise ValueError("mu takes two parameters: a,b")
        return Mu(args.epsilon, scalars[0], scalars[1])
    raise ValueError(f"unknown family {fam!r}")


def cmd_weil(args):
    polys = sorted(enumerate_ss_weil_deg4(args.prime), key=lambda w: w.coefficients)
    records = [
        {"label": w.label, "coefficients": list(w.coefficients), "polynomial": str(w)}
        for w in polys
    ]
    if args.format == "json":
        for rec in records:
            print(json.dumps(rec, sort_keys=True))
    else:
        print("label\tcoefficients\tpolynomial")
        for r in records:
            print(f"{r['label']}\t{r['coefficients']}\t{r['polynomial']}")
    return 0


def _load_module(args):
    ctx = _context(args)
    if args.module_file:
        with open(args.module_file) as fh:
            return module_from_record(json.load(fh)), None
    if not args.family:
        raise ValueError("either --family/--params or --module-file is required")
    params = _family_params(args, ctx)
    return build_family(params, ctx), params


def cmd_classify(args):
    D, params = _load_module(args)
    cls = canonical_class(D)
    rec = {"class": class_to_record(cls), "m": D.ctx.m, "p": D.ctx.p}
    if cls.tag != "Prod":
        c = c_of_module(D)
        rec["c"] = "inf" if c.is_infinity else scalar_to_str(c.value)
    rec["wintenberger"] = wintenberger_type(D).name
    rec["geometric"] = validate_geometric_params(params, D.ctx) if params is not None else None
    if args.format == "json":
        print(json.dumps(rec, sort_keys=True))
    else:
        for k in ("p", "m", "class", "c", "wintenberger", "geometric"):
            if k in rec:
                print(f"{k}\t{rec[k]}")
    return 0


def cmd_monodromy(args):
    ctx = _context(args)
    params = _family_params(args, ctx)
    D = build_family(params, ctx)
    L = monodromy_lie(D)
    g = group_type(L)
    rec = g.to_record()
    rec["semisimple"] = g.kind != "Ga2SemidirectGm2"
    rec["p"] = ctx.p
    rec["m"] = ctx.m
    if args.format == "json":
        print(json.dumps(rec, sort_keys=True))
    else:
        for k in ("p", "m", "type", "dim", "solvable", "semisimple"):
            print(f"{k}\t{rec[k]}")
    return 0


def cmd_scan(args):
    if args.height > 50:
        raise ValueError("height bound is 50 (desk scale)")
    if args.height < 0:
        raise ValueError("height must be >= 0")
    ctx = _context(args)
    rows = scan(ctx, args.epsilon, args.height, with_groups=not args.no_groups)
    records = [row_to_record(r, ctx) for r in rows]
    if args.format == "json":
        for rec in records:
            print(json.dumps(rec, sort_keys=True))
        print(json.dumps({"summary": histogram(rows), "seed": args.seed}, sort_keys=True))
    else:
        print("point\tc\tclass\twintenberger\tgroup\tdim\tsolvable")
        for row, rec in zip(rows, records):
            group = rec.get("group") or {}
            cls = rec["class"]
            cls_str = cls["tag"] + "".join(
                f",{k}={cls[k]}" for k in ("epsilon", "epsilon_prime", "c", "branch") if k in cls
            )
            print(
                "\t".join(
                    [
                        ":".join(rec["point"]),
                        rec["c"],
                        cls_str,
                        rec["wintenberger"],
                        str(group.get("type", "")),
                        str(group.get("dim", "")),
                        str(group.get("solvable", "")),
                    ]
                )
            )
        print(f"# summary\t{histogram(rows)}\t(seed={args.seed})")
    return 0


def cmd_verify(args):
    reports = verify_mod.run_suites(args.suite)
    failed = False
    for report in reports:
        for line in report.lines():
            print(line)
        failed = failed or not report.ok
    return 2 if failed else 0


def build_parser():
    parser = _Parser(prog="phimod", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("weil", help="list the supersingular p-Weil polynomials of degree 4")
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p.set_defaults(fn=cmd_weil)

    p = sub.add_parser("classify", help="canonical class, c-invariant and Wintenberger type")
    _add_context_flags(p)
    p.add_argument("--epsilon", type=int, default=0, choices=(-1, 0, 1))
    p.add_argument("--family", choices=("prod", "iso", "nu", "mu"))
    p.add_argument("--params", help="comma-separated scalars; zeta terms as 'u+zeta*v'")
    p.add_argument("--module-file", help="JSON module record")
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("monodromy", help="neutral monodromy component of a family member")
    _add_context_flags(p)
    p.add_argument("--epsilon", type=int, default=0, choices=(-1, 0, 1))
    p.add_argument("--family", required=True, choices=("prod", "iso", "nu", "mu"))
    p.add_argument("--params", required=True)
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p.set_defaults(fn=cmd_monodromy)

    p = sub.add_parser("scan", help="classify and compute groups over height-bounded P^2 points")
    _add_context_flags(p)
    p.add_argument("--epsilon", type=int, default=0, choices=(-1, 0, 1))
    p.add_argument("--height", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-groups", action="store_true", help="skip the monodromy column")
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p.set_defaults(fn=cmd_scan)

    p = sub.add_parser("verify", help="run the verification suites")
    p.add_argument(
        "--suite",
        nargs="+",
        default=["all"],
        choices=("weil", "classify", "monodromy", "git", "lattice", "all"),
    )
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except PrecisionExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InvariantViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (
        DegenerateDenominator,
        InadmissibleModule,
        NoRootError,
        PrimeTooSmall,
        ValueError,
        OSError,
        json.JSONDecodeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
