import random
from fractions import Fraction

import pytest

from phimod.classify import canonical_class, point_from_module
from phimod.linalg import Matrix, char_poly, row_reduce
from phimod.modules import (
    DegenerateDenominator,
    FilteredPhiModule,
    Iso,
    Mu,
    Nu,
    PreconditionFailed,
    Prod,
    build_family,
    check_s1_s2,
    construct_skew_form,
    cyclic_presentation,
    is_admissible,
    module_from_record,
    module_to_record,
    mu_c,
    quadratic_factors,
    standard_fil1,
    validate_geometric_params,
    verify_s3,
)
from phimod.monodromy import monodromy_group
from phimod.scalars import Cyclotomic, PrimeContext, zeta
from phimod.verify import geometric_param_grid

f = Fraction
CTX7 = PrimeContext(7)
CTX73 = PrimeContext(7, 3)


def test_build_prod_matrix():
    D = build_family(Prod(1), CTX7)
    assert D.phi == Matrix([[0, 0, 7, 0], [0, 0, 0, 7], [1, 0, 0, 0], [0, 1, 0, 0]])
    assert D.fil1 == standard_fil1()
    with pytest.raises(ValueError):
        Prod(0)


def test_build_mu_c_entry():
    # Example with a = -7*zeta_3, b = 1, eps = 1: c simplifies to -p
    z = zeta(3)
    D = build_family(Mu(1, -7 * z, Cyclotomic(1)), CTX73)
    assert D.phi.rows[1][3] == -7
    assert mu_c(-7 * z, Cyclotomic(1), 1, 7) == -7


@pytest.mark.parametrize("eps,a,b", ((0, 7, 0), (1, 7, 2)))
def test_integer_mu_params_match_fractions(eps, a, b):
    ints, fracs = Mu(eps, a, b), Mu(eps, f(a), f(b))
    assert type(mu_c(a, b, eps, 7)) is Fraction and mu_c(a, b, eps, 7) == mu_c(f(a), f(b), eps, 7)
    assert monodromy_group(ints, CTX7) == monodromy_group(fracs, CTX7)
    assert canonical_class(build_family(ints, CTX7)) == canonical_class(build_family(fracs, CTX7))


def test_build_mu_degenerate():
    with pytest.raises(DegenerateDenominator):
        build_family(Mu(0, f(1), f(-1)), CTX7)


def test_build_iso_and_nu_shapes():
    D = build_family(Iso(0, 1), CTX7)
    assert D.phi == Matrix([[0, 0, 7, 0], [0, 0, 0, 7], [1, 0, 0, -14], [0, 1, 1, 0]])
    D = build_family(Nu(0, f(49)), CTX7)
    assert D.phi == Matrix([[0, 0, 0, 1], [-49, 0, 0, 0], [0, 1, 0, -49], [49, 0, 1, 0]])


def test_module_invariants():
    with pytest.raises(ValueError):
        FilteredPhiModule(CTX7, Matrix.zeros(4), standard_fil1())
    with pytest.raises(ValueError):
        FilteredPhiModule(
            CTX7,
            Matrix.identity(4),
            row_reduce([(f(1), f(0), f(0), f(0))]),
        )


def test_check_s1_s2():
    rep = check_s1_s2(build_family(Mu(0, f(7), f(0)), CTX7))
    assert rep.s1 and rep.s2
    assert [int(c) for c in rep.chi] == [49, 0, 0, 0, 1]
    # a semisimple phi whose chi is not supersingular
    bad = FilteredPhiModule(CTX7, Matrix.diagonal([f(1), f(2), f(3), f(4)]), standard_fil1())
    rep = check_s1_s2(bad)
    assert rep.s1 and not rep.s2 and rep.label is None and rep.semisimple
    rep = check_s1_s2(build_family(Prod(-1), CTX7))
    assert rep.s2 and rep.label == "ProdMinus"


def test_non_semisimple_phi_fails_s2():
    # chi = (X^2 - 7)^2 with a nontrivial Jordan-type pairing: min poly = chi
    phi = Matrix(
        [
            [0, 0, 7, 1],
            [0, 0, 0, 7],
            [1, 0, 0, 0],
            [0, 1, 0, 0],
        ]
    )
    D = FilteredPhiModule(CTX7, phi, standard_fil1())
    rep = check_s1_s2(D)
    assert [int(c) for c in rep.chi] == [49, 0, -14, 0, 1]
    assert not rep.semisimple and not rep.s2
    with pytest.raises(PreconditionFailed):
        is_admissible(D)


def test_quadratic_factors():
    chi = [f(49), f(0), f(0), f(0), f(1)]  # X^4 + 49
    assert quadratic_factors(chi, CTX7) == []  # irreducible over Q
    ctx = PrimeContext(13, 4)
    chi13 = [f(169), f(0), f(0), f(0), f(1)]
    factors = quadratic_factors(chi13, ctx)
    assert len(factors) == 2 and all(mult == 1 for _, mult in factors)
    prod_chi = [f(49), f(0), f(-14), f(0), f(1)]  # (X^2 - 7)^2
    factors = quadratic_factors(prod_chi, CTX7)
    assert factors == [((f(-7), f(0), f(1)), 2)]


def test_is_admissible_nu():
    rep = is_admissible(build_family(Nu(1, f(7)), CTX7))
    assert rep.admissible
    assert rep.witness is not None
    for t_h, t_n in rep.hodge_newton:
        assert t_h <= t_n


def test_newton_number_is_one_on_stable_planes():
    # every phi-stable plane of a supersingular module has t_N = 1
    modules = [
        build_family(Prod(1), CTX7),
        build_family(Prod(-1), CTX7),
        build_family(Mu(1, Cyclotomic(0, -7, 3), Cyclotomic(1)), CTX73),
    ]
    seen_any = False
    for D in modules:
        rep = is_admissible(D)
        for _, t_n in rep.hodge_newton:
            seen_any = True
            assert t_n == 1
    assert seen_any


def test_is_admissible_stable_fil1():
    # prod Frobenius with fil1 = span(e1, e3): phi(e1) = e3, phi(e3) = eps' p e1
    D = FilteredPhiModule(
        CTX7,
        build_family(Prod(1), CTX7).phi,
        row_reduce([(f(1), f(0), f(0), f(0)), (f(0), f(0), f(1), f(0))]),
    )
    rep = is_admissible(D)
    assert not rep.admissible
    assert any(t_h > t_n for t_h, t_n in rep.hodge_newton)


def test_every_family_member_admissible():
    for params in (Prod(1), Prod(-1), Iso(0, 1), Iso(-1, -1), Nu(0, f(49)), Mu(1, f(7), f(2))):
        D = build_family(params, CTX7)
        assert is_admissible(D).admissible


def test_validate_geometric_params():
    assert validate_geometric_params(Nu(0, f(49)), CTX7)
    assert validate_geometric_params(Mu(0, f(7), f(0)), CTX7)
    assert not validate_geometric_params(Mu(0, f(1), f(1)), CTX7)
    assert validate_geometric_params(Mu(0, f(1, 7), f(1, 49)), CTX7)  # region L
    assert not validate_geometric_params(Nu(0, f(7)), CTX7)
    assert validate_geometric_params(Iso(1, -1), CTX7)


def test_prod_skew_form():
    D = build_family(Prod(1), CTX7)
    form = construct_skew_form(D)
    assert form.gram == Matrix([[0, 0, 0, 1], [0, 0, -1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]])
    assert verify_s3(D, form)
    D = build_family(Prod(-1), CTX7)
    form = construct_skew_form(D)
    assert form.gram.rows[1][2] == 1
    assert verify_s3(D, form)


def test_nu_skew_form_witness():
    D = build_family(Nu(0, f(49)), CTX7)
    form = construct_skew_form(D, point_from_module(D))
    # (x1, x2, x3) = (0, 1, 0) after normalization; det = p^2 x2^4
    assert form.gram.rows[0][1] == 0 and form.gram.rows[0][2] == 1 and form.gram.rows[0][3] == 0
    assert form.gram.det() == 49
    assert verify_s3(D, form)


def test_skew_form_vacuous_condition_fallback():
    # fil1 = span(x, phi^3 x) gives the point [0 : 0 : 1]; for eps = 1 the
    # isotropy condition is vacuous and (x1, x2) = (1, 0) is used
    ctx = CTX7
    from phimod.moduli import companion_phi

    phi = companion_phi(1, 7)
    e1 = (f(1), f(0), f(0), f(0))
    D = FilteredPhiModule(ctx, phi, row_reduce([e1, (f(0), f(0), f(0), f(1))]))
    form = construct_skew_form(D)
    assert form.gram.rows[0][1] == 1 and form.gram.rows[0][2] == 0
    assert form.gram.rows[0][3] == 0  # x3 = (1 - eps) p x1 = 0 at eps = 1
    assert verify_s3(D, form)
    # same point at eps = 0: the condition forces (x1, x2) = (0, 1)
    D0 = FilteredPhiModule(ctx, companion_phi(0, 7), row_reduce([e1, (f(0), f(0), f(0), f(1))]))
    form0 = construct_skew_form(D0)
    assert form0.gram.rows[0][1] == 0 and form0.gram.rows[0][2] == 1
    assert verify_s3(D0, form0)


def test_zero_form_fails_s3():
    D = build_family(Nu(0, f(49)), CTX7)
    from phimod.modules import SkewForm

    zero = SkewForm(Matrix.zeros(4), Matrix.identity(4), "zero")
    assert not verify_s3(D, zero)


def test_mu_chi_identity():
    rng = random.Random(8)
    for _ in range(100):
        a = f(rng.randint(-9, 9), rng.randint(1, 4))
        b = f(rng.randint(-9, 9), rng.randint(1, 4))
        if a * b == -1:
            continue
        eps = rng.choice((-1, 0, 1))
        D = build_family(Mu(eps, a, b), CTX7)
        assert char_poly(D.phi) == [f(49), f(0), f(7 * eps), f(0), f(1)]


def test_geometric_grid_end_to_end():
    # a slice of the acceptance grid: S1-S3 with a verified skew form
    for params in geometric_param_grid(1, CTX7)[:40]:
        D = build_family(params, CTX7)
        assert check_s1_s2(D).ok
        assert is_admissible(D).admissible
        form = construct_skew_form(D) if isinstance(params, Prod) else construct_skew_form(
            D, point_from_module(D)
        )
        assert verify_s3(D, form)


def test_cyclic_presentation_consistency():
    D = build_family(Mu(0, f(7), f(2)), CTX7)
    x, orbit, coeffs = cyclic_presentation(D)
    y = tuple(
        sum(c * w for c, w in zip(coeffs, col)) for col in zip(*orbit)
    )
    assert D.fil1.contains(y)
    assert row_reduce([x, y]).dim == 2


def test_module_record_error_paths():
    import pytest as _pytest

    rec = module_to_record(build_family(Nu(0, f(49)), CTX7))
    short = dict(rec, phi=rec["phi"][:15])
    with _pytest.raises(ValueError):
        module_from_record(short)
    dependent = dict(rec, fil1=["1/1", "0/1", "0/1", "0/1", "2/1", "0/1", "0/1", "0/1"])
    with _pytest.raises(ValueError):
        module_from_record(dependent)


def test_serialization_round_trip():
    z = zeta(3)
    D = build_family(Mu(1, -7 * z, Cyclotomic(1)), CTX73)
    rec = module_to_record(D)
    assert rec["p"] == 7 and rec["m"] == 3
    D2 = module_from_record(rec)
    assert D2.phi == D.phi
    assert D2.fil1 == D.fil1
    D = build_family(Nu(0, f(49)), CTX7)
    D2 = module_from_record(module_to_record(D))
    assert D2.phi == D.phi and D2.fil1 == D.fil1
