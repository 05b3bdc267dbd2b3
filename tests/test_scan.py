import hashlib
import random
from fractions import Fraction

import pytest

from phimod.classify import canonical_class, wintenberger_type
from phimod.cli import main
from phimod.linalg import row_reduce
from phimod.moduli import companion_phi
from phimod.modules import FilteredPhiModule
from phimod.scalars import PrimeContext
from phimod.scan import (
    class_of_point,
    histogram,
    line_sample_points,
    projective_integer_points,
    scan,
)

f = Fraction


def test_projective_points_dedup():
    pts = projective_integer_points(2)
    assert (1, 0, 0) in pts and (-1, 0, 0) not in pts
    assert (2, 4, 2) not in pts  # gcd 2
    assert (0, 1, -2) in pts
    assert len(pts) == len(set(pts))


def test_class_of_point_matches_module_pipeline():
    # the scan fast path equals the full canonical_class on iota-modules
    rng = random.Random(3)
    ctx = PrimeContext(7)
    e1 = (f(1), f(0), f(0), f(0))
    for eps in (-1, 0, 1):
        done = 0
        while done < 30:
            t = tuple(f(rng.randint(-6, 6)) for _ in range(3))
            if not any(t):
                continue
            from phimod.classify import ModuliPoint

            P = ModuliPoint.of(*t)
            cls, c = class_of_point(P, eps, ctx)
            D = FilteredPhiModule(
                ctx, companion_phi(eps, 7), row_reduce([e1, (f(0),) + tuple(P.coords)])
            )
            assert canonical_class(D) == cls
            done += 1


def test_scan_wintenberger_matches_module():
    ctx = PrimeContext(7)
    rows = scan(ctx, 1, 2, with_groups=False)
    e1 = (f(1), f(0), f(0), f(0))
    for row in rows[:40]:
        D = FilteredPhiModule(
            ctx, companion_phi(1, 7), row_reduce([e1, (f(0),) + tuple(row.point.coords)])
        )
        assert wintenberger_type(D) is row.wintenberger


def test_line_samples_only_in_split_case():
    assert line_sample_points(0, PrimeContext(7), 3) == []  # X^2 + 49 irreducible over Q
    pts = line_sample_points(0, PrimeContext(13, 4), 3)
    assert len(pts) == 8  # two lines, y = 0..3


def test_histogram_counts():
    ctx = PrimeContext(7)
    rows = scan(ctx, 0, 3, with_groups=True)
    hist = histogram(rows)
    assert sum(hist.values()) == len(rows)
    assert hist.get("Gm2") == 1  # the origin only


def test_scan_nonzero_eps_with_groups():
    # emit-time consistency holds off eps = 0 as well (checked inside scan)
    ctx = PrimeContext(7)
    for eps in (-1, 1):
        rows = scan(ctx, eps, 4, with_groups=True)
        hist = histogram(rows)
        assert hist.get("Gm3") is None  # Gm3 needs eps = 0
        origin = next(r for r in rows if r.raw == (0, 1, 0))
        assert origin.group.kind == "Gm2"
        assert all(r.group.kind != "Ga2SemidirectGm2" for r in rows)  # no split lines over Q
        infinite = [r for r in rows if r.c.is_infinity]
        assert infinite and all(r.group.kind == "GL2FiberDet" for r in infinite)


def test_scan_split_field_line_rows():
    ctx = PrimeContext(7, 3)
    rows = scan(ctx, 1, 2, with_groups=True)
    kinds = {r.group.kind for r in rows}
    assert "Ga2SemidirectGm2" in kinds  # the appended line samples
    hist = histogram(rows)
    assert hist["Ga2SemidirectGm2"] == 6  # two lines, y in {0, 1, 2}


# sha256 of the stdout of `phimod scan --prime p --cyclotomic m --epsilon eps
# --height 5 --format json`; the rational (m = 1) and cyclotomic (m = 3, 4)
# scans must stay byte-identical.
GOLDEN_SCANS = {
    (7, 3, 1): "6c5917c5f9c22cf8bddbf2bdd474dea719633c039a0aa4387b30b5f5eaff94ed",
    (13, 4, 0): "a4e5ca28deec609909dc6878184c708fc61c1aed5d0a44e7cfbfa21a4ebb9c66",
    (7, 1, -1): "6933c0d2370ae9e3540adf2bf9500052a3881afcb3701fbbee09d8332c225926",
}


@pytest.mark.parametrize("p, m, eps", sorted(GOLDEN_SCANS))
def test_scan_stdout_golden(capsys, p, m, eps):
    argv = ["scan", "--prime", str(p), "--cyclotomic", str(m), "--epsilon", str(eps)]
    code = main(argv + ["--height", "5", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SCANS[(p, m, eps)]
